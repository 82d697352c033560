"""Command-line entry point.

Subcommands:

* ``run``           one boosting experiment (file or synthetic stream),
                    progressive validation, TSV trace + JSON summary.
* ``batch-compare`` batch greedy fitting, ungated vs gated step rules,
                    with both error-bound curves.
* ``lower-bound``   the adversarial-stream experiment: measured booster
                    regret against the uniform pool comparator across
                    seeds, with the reference regret floor.
* ``grid``          small hyperparameter grid driven by tuning-half
                    progressive loss; ties go to the smaller learning
                    rate.

Artifacts land in --out-dir (default: $OGBOOST_OUT or ./runs).  Exit
codes: 0 success, 2 configuration error, 3 runtime error, 4 bound
assertion failure (with --assert-bounds).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import batch as batch_mod
from . import bench, boosting, learners, losses

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_BOUNDS = 4

_LABEL_RANGES = {"pm1": (-1.0, 1.0), "01": (0.0, 1.0)}

# flag attribute -> (test of a valid value, what the message says it must be);
# an ordered comparison is false for NaN, so the ranges reject it too
_FLAG_RULES = {
    "stages": (lambda v: v >= 1, "be >= 1"),
    "rounds": (lambda v: v is None or v >= 1, "be >= 1"),  # lower-bound's default is None
    "seeds": (lambda v: v >= 1, "be >= 1"),
    "atoms": (lambda v: v >= 3, "be >= 3"),
    "pool_size": (lambda v: 1 <= v <= 64, "lie in [1, 64]"),
    "scale": (lambda v: 1.0 <= v < math.inf, "be finite and >= 1"),
    "lr": (lambda v: 0.0 < v < math.inf, "be finite and > 0"),
    "noise": (lambda v: 0.0 <= v < math.inf, "be finite and >= 0"),
    "norm1": (lambda v: 0.0 < v < math.inf, "be finite and > 0"),
    "magnet_junk": (math.isfinite, "be finite"),
    "split": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "step_size": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "scale_c": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
}


def _flag_errors(args, *names: str) -> list[str]:
    """A message for each named flag outside its ``_FLAG_RULES`` range."""
    return [f"--{name.replace('_', '-')} must {_FLAG_RULES[name][1]}, got {getattr(args, name)}"
            for name in names if not _FLAG_RULES[name][0](getattr(args, name))]


def _check_flags(args, *names: str) -> None:
    """Reject each named flag outside its ``_FLAG_RULES`` range as a configuration error."""
    errs = _flag_errors(args, *names)
    if errs:
        raise ConfigError(errs)


@dataclass
class RunConfig:
    """Everything one experiment needs; echoed verbatim into the summary."""

    algo: str = "span"
    stages: int = 10
    eta: str = "auto"
    loss: str = "squared"
    base: str = "ogd"
    symmetrize: bool = False
    scale: float = 1.0
    corollary_mode: bool = False
    data: str | None = None
    format: str = "libsvm"
    label_range: str = "pm1"
    synthetic: str | None = "planted"
    rounds: int = 20000
    pool_size: int = 8
    norm1: float = 2.0
    noise: float = 0.01
    seed: int = 0
    split: float = 0.5
    lr: float = 1.0
    out_dir: str = ""
    tag: str = ""
    assert_bounds: bool = False

    def validate(self) -> list[str]:
        errs = _flag_errors(self, "stages", "rounds", "pool_size", "scale", "lr", "noise",
                            "norm1", "split")
        if self.algo not in ("span", "ch"):
            errs.append(f"--algo must be span or ch, got {self.algo!r}")
        if self.algo == "ch" and self.corollary_mode:
            errs.append("--corollary-mode sets the span booster's radius; drop it with --algo ch")
        if self.eta != "auto":
            try:
                eta = float(self.eta)
            except ValueError:
                errs.append(f"--eta must be a float or 'auto', got {self.eta!r}")
            else:
                if self.stages >= 1 and not (1.0 / self.stages <= eta <= 1.0):
                    errs.append(
                        f"--eta must lie in [1/N, 1] = [{1.0 / self.stages:.6g}, 1], got {eta}")
        try:
            losses.parse_loss_flag(self.loss)
        except ValueError as e:
            errs.append(f"--loss: {e}")
        if self.base == "greedy" and self.loss.strip().lower() == "linear":
            errs.append("--base greedy needs a loss with positive smoothness, not --loss linear")
        if self.base not in ("ogd", "stump", "hedge-pool", "greedy"):
            errs.append(f"--base must be one of ogd, stump, hedge-pool, greedy, got {self.base!r}")
        if self.base in ("hedge-pool", "greedy") and (
                self.data is not None or self.synthetic == "additive"):
            errs.append(f"--base {self.base} requires a synthetic pool stream: --synthetic "
                        "planted, planted-span or planted-hull, without --data")
        if self.base == "greedy" and (self.symmetrize or self.scale > 1.0):
            errs.append("--base greedy cannot be combined with --symmetrize or --scale")
        if self.symmetrize and self.base == "hedge-pool":
            errs.append("--base hedge-pool committees already include negations and the "
                        "zero function; drop --symmetrize")
        if self.data is None and self.synthetic is None:
            errs.append("either --data or --synthetic is required")
        if self.data is not None and self.format not in ("libsvm", "csv"):
            errs.append(f"--format must be libsvm or csv, got {self.format!r}")
        if self.label_range not in _LABEL_RANGES:
            errs.append(f"--label-range must be pm1 or 01, got {self.label_range!r}")
        if self.synthetic is not None and self.synthetic not in (
                "planted", "planted-span", "planted-hull", "additive"):
            errs.append(f"--synthetic must be planted, planted-span, planted-hull or additive, "
                        f"got {self.synthetic!r}")
        return errs


def _out_dir(path: str) -> Path:
    p = Path(path or os.environ.get("OGBOOST_OUT", "runs"))
    p.mkdir(parents=True, exist_ok=True)
    return p


def _planted_weights(kind: str, pool_size: int, norm1: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 104729)
    if kind == "planted-hull":
        raw = 0.5 + rng.random(pool_size)
        return raw / raw.sum()
    signs = rng.integers(0, 2, pool_size) * 2 - 1
    return signs * (norm1 / pool_size)


def build_stream(cfg: RunConfig):
    """Returns (stream, comparator or None, pool or None)."""
    loss_class = losses.parse_loss_flag(cfg.loss)
    if cfg.data is not None:
        label_range = _LABEL_RANGES[cfg.label_range]
        examples = bench.parse_stream(cfg.data, cfg.format, label_range).examples
        loss_class = losses.LossClass(loss_class.family, loss_class.p, label_range)
        return bench.Stream(examples[:cfg.rounds], loss_class), None, None
    kind = "planted-span" if cfg.synthetic == "planted" else cfg.synthetic
    if kind == "additive":
        stream = bench.make_additive_stream(cfg.rounds, cfg.seed, noise_sigma=cfg.noise)
        return stream, None, None
    pool = bench.make_region_pool(cfg.pool_size)
    w = _planted_weights(kind, cfg.pool_size, cfg.norm1, cfg.seed)
    build = bench.planted_hull_stream if kind == "planted-hull" else bench.planted_span_stream
    stream, comp = build(pool, w, cfg.noise, cfg.rounds, cfg.seed, loss_class)
    return stream, comp, pool


def build_learners(cfg: RunConfig, stream, pool):
    """Stage committee plus the accounting committee pool (may be None)."""
    n = cfg.stages
    horizon = len(stream)
    committee = None
    if cfg.base in ("ogd", "stump"):
        make = learners.ogd_committee if cfg.base == "ogd" else learners.stump_committee
        if cfg.symmetrize:
            stage = learners.symmetrize(lambda: make(n, 1.0, cfg.lr), horizon)
        else:
            stage = make(n, 1.0, cfg.lr)
    elif cfg.base == "hedge-pool":  # validate() gives hedge-pool and greedy a pool stream
        committee = pool.symmetrized()
        stage = learners.hedge_committee(committee, n, horizon, seed=cfg.seed)
    else:  # greedy; execute_run fixes its step size once the booster's ball is known
        stage = learners.GreedyFitLearner(pool.symmetrized(), n)
    if cfg.scale > 1.0:
        stage = boosting.scale_wrap(stage, cfg.scale)
    return stage, committee


def execute_run(cfg: RunConfig) -> dict:
    stream, comp, pool = build_stream(cfg)
    stage, committee = build_learners(cfg, stream, pool)
    eta = None if cfg.eta == "auto" else float(cfg.eta)
    output_bound = stage.output_bound
    try:  # a loss family's ball constants can overflow a float, e.g. p-norm at a huge p
        if cfg.algo == "span":
            booster = boosting.SpanBooster(stream.loss_class, stage, eta, output_bound,
                                           deterministic_mode=cfg.corollary_mode)
        else:
            booster = boosting.HullBooster(stream.loss_class, stage, output_bound)
        if cfg.base == "greedy":  # the offsets are partial sums, which stay in the booster's ball
            offset_bound = booster.radius if cfg.algo == "span" else output_bound
            params = stream.loss_class.ball_params(offset_bound + 1.0)  # plus a unit step's reach
            learners.greedy_adapter(stage, len(stream), params, offset_bound)
    except OverflowError as e:
        raise ConfigError([f"--loss {cfg.loss}: {e}"]) from None
    metrics = bench.progressive_validate(stream, booster, cfg.split, comparator=comp,
                                         committee=committee)

    summary: dict = {
        "config": asdict(cfg),
        "rounds": metrics.rounds,
        "total_loss": metrics.total_loss,
        "tune_loss": metrics.tune_loss,
        "report_loss": metrics.report_loss,
    }
    if cfg.algo == "span":
        summary["eta"] = booster.eta
        summary["radius"] = booster.radius
    bound_report = None
    if comp is not None:
        comp_loss = comp.total_loss(stream)
        summary["comparator"] = {"kind": comp.kind, "norm1": comp.norm1,
                                 "total_loss": comp_loss}
        summary["measured_regret"] = metrics.measured_regret()
        if committee is not None:
            base_regret = metrics.max_stage_regret()
            horizon = metrics.rounds
            if cfg.algo == "span":
                delta0 = bench.zero_comparator(len(stream)).total_loss(stream) - comp_loss
                terms = bench.span_regret_bound(
                    delta0, booster.eta, cfg.stages, comp.norm1, booster.radius,
                    booster.lipschitz, booster.smoothness, horizon, base_regret)
            else:
                terms = bench.hull_regret_bound(
                    cfg.stages, output_bound, booster.smoothness, booster.lipschitz,
                    horizon, base_regret)
            bound_report = bench.regret_report(metrics, terms)
            summary["bound"] = bound_report.as_dict()
            summary["max_stage_regret"] = base_regret

    out = _out_dir(cfg.out_dir)
    tag = cfg.tag or f"run-{cfg.algo}-{cfg.base}-s{cfg.seed}"
    tsv_path = out / f"{tag}.tsv"
    _write_run_tsv(tsv_path, metrics)
    summary["tsv"] = str(tsv_path)
    json_path = out / f"{tag}.json"
    json_path.write_text(json.dumps(summary, indent=2, default=float) + "\n")
    summary["json"] = str(json_path)
    summary["_bound_failed"] = bool(bound_report is not None and not bound_report.passed)
    return summary


def _write_run_tsv(path: Path, metrics: bench.RunMetrics) -> None:
    cum = metrics.cum_losses
    reg = metrics.cum_regret() if metrics.comparator_losses is not None else None
    with open(path, "w") as fh:
        fh.write("round\ttest_loss\tcum_loss\tcum_regret\n")
        for t in range(metrics.rounds):
            r = reg[t] if reg is not None else math.nan
            fh.write(f"{t + 1}\t{metrics.test_losses[t]:.10g}\t{cum[t]:.10g}\t{r:.10g}\n")


# ---------------------------------------------------------------------------
# subcommand: batch-compare


def execute_batch_compare(args) -> dict:
    _check_flags(args, "stages", "atoms", "norm1", "magnet_junk", "step_size")
    objective, dictionary, comp_values, norm1 = batch_mod.make_planted_batch_problem(
        n_atoms=args.atoms, norm1=args.norm1, seed=args.seed, magnet_junk=args.magnet_junk)
    schedule = [args.step_size] * args.stages
    tr_u = batch_mod.run_batch(objective, dictionary, comp_values, norm1, schedule, "ungated")
    tr_g = batch_mod.run_batch(objective, dictionary, comp_values, norm1, schedule, "gated")

    out = _out_dir(args.out_dir)
    tag = args.tag or f"batch-compare-s{args.seed}"
    tsv_path = out / f"{tag}.tsv"
    with open(tsv_path, "w") as fh:
        fh.write("stage\ts\tdelta_ungated\tbound_ungated\tdelta_gated\tbound_gated\n")
        for i in range(args.stages):
            fh.write(f"{i + 1}\t{tr_u.s[i + 1]:.10g}\t{tr_u.deltas[i]:.10g}\t"
                     f"{tr_u.bound[i]:.10g}\t{tr_g.deltas[i]:.10g}\t{tr_g.bound[i]:.10g}\n")
    summary = {
        "config": {k: getattr(args, k) for k in
                   ("atoms", "norm1", "stages", "step_size", "seed", "magnet_junk")},
        "delta0": tr_u.delta0,
        "crossings_ungated": [tr_u.first_crossing(tr_u.delta0 / 2**k) for k in range(1, 6)],
        "crossings_gated": [tr_g.first_crossing(tr_g.delta0 / 2**k) for k in range(1, 6)],
        "bound_ok_ungated": bool(np.all(tr_u.deltas <= tr_u.bound + 1e-12)),
        "bound_ok_gated": bool(np.all(tr_g.deltas <= tr_g.bound + 1e-12)),
        "tsv": str(tsv_path),
    }
    (out / f"{tag}.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    summary["_bound_failed"] = not (summary["bound_ok_ungated"] and summary["bound_ok_gated"])
    return summary


# ---------------------------------------------------------------------------
# subcommand: lower-bound


def lower_bound_once(stages: int, seed: int, pool_scale: float, rounds: int | None) -> dict:
    stream, pool = bench.make_lower_bound_stream(stages, rounds, seed, pool_scale)
    t = len(stream)
    stage = learners.hedge_committee(pool, stages, t, mode="sample", seed=seed)
    booster = boosting.HullBooster(stream.loss_class, stage)
    metrics = bench.progressive_validate(stream, booster)
    # after the loop: the comparator reads the row means the run recorded, so no row is drawn twice
    comp = bench.uniform_pool_comparator(stream, pool)
    metrics.comparator_losses = comp.losses(stream)
    comp_total = float(sum(metrics.comparator_losses))
    return {
        "seed": seed,
        "rounds": t,
        "pool_size": pool.size,
        "booster_loss": metrics.total_loss,
        "comparator_loss": comp_total,
        "regret": metrics.measured_regret(),
        "concentration_ok": bool(comp_total <= t / pool.size),
    }


def execute_lower_bound(args) -> dict:
    _check_flags(args, "stages", "seeds", "scale_c")
    m = learners.make_lower_bound_pool(args.stages, args.seed, args.scale_c).size
    if args.rounds is not None and args.rounds < 12 * m:
        raise ConfigError([f"--rounds must be >= 12*M = {12 * m} for pool size M = {m}, "
                           f"got {args.rounds}"])
    results = [lower_bound_once(args.stages, args.seed + i, args.scale_c, args.rounds)
               for i in range(args.seeds)]
    t = results[0]["rounds"]
    floor_reference = args.scale_c * t / args.stages
    floor_accept = 0.05 * t / args.stages
    out = _out_dir(args.out_dir)
    tag = args.tag or f"lower-bound-n{args.stages}"
    tsv_path = out / f"{tag}.tsv"
    with open(tsv_path, "w") as fh:
        fh.write("seed\trounds\tregret\tcomparator_loss\tconcentration_ok\n")
        for r in results:
            fh.write(f"{r['seed']}\t{r['rounds']}\t{r['regret']:.10g}\t"
                     f"{r['comparator_loss']:.10g}\t{int(r['concentration_ok'])}\n")
    summary = {
        "config": {"stages": args.stages, "scale_c": args.scale_c, "rounds": t,
                   "seeds": args.seeds, "seed": args.seed},
        "floor_reference_cT_over_N": floor_reference,
        "floor_accept_005T_over_N": floor_accept,
        "regrets": [r["regret"] for r in results],
        "seeds_above_accept_floor": sum(r["regret"] >= floor_accept for r in results),
        "seeds_concentrated": sum(r["concentration_ok"] for r in results),
        "tsv": str(tsv_path),
    }
    (out / f"{tag}.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    summary["_bound_failed"] = False
    return summary


# ---------------------------------------------------------------------------
# subcommand: grid


def _grid_child(cfg_dict: dict) -> dict:
    cfg = RunConfig(**cfg_dict)
    s = execute_run(cfg)
    return {"lr": cfg.lr, "stages": cfg.stages, "eta": cfg.eta,
            "tune_loss": s["tune_loss"], "report_loss": s["report_loss"]}


def execute_grid(args) -> dict:
    base = RunConfig(
        algo=args.algo, loss=args.loss, base=args.base, synthetic=args.synthetic,
        rounds=args.rounds, seed=args.seed, split=args.split, out_dir=args.out_dir,
        norm1=args.norm1, noise=args.noise)
    children = []
    for lr in args.grid_lr:
        for stages in args.grid_stages:
            for eta in args.grid_eta:
                cfg = RunConfig(**{**asdict(base), "lr": lr, "stages": stages, "eta": eta,
                                   "tag": f"grid-lr{lr}-n{stages}-e{eta}-s{args.seed}"})
                if errs := cfg.validate():
                    raise ConfigError(errs)
                children.append(asdict(cfg))
    # an empty tuning half leaves every tune_loss NaN, and the winner undefined
    if int(args.split * args.rounds) < 1:
        raise ConfigError([f"--split {args.split} leaves no tuning round of --rounds "
                           f"{args.rounds}; it must be at least 1/rounds"])
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as ex:
            results = list(ex.map(_grid_child, children))
    else:
        results = [_grid_child(c) for c in children]
    # lowest tuning-half loss; ties to the smaller learning rate
    chosen = min(results, key=lambda r: (r["tune_loss"], r["lr"]))
    summary = {
        "selection_rule": "lowest tuning-half progressive loss; ties to smaller learning rate",
        "children": results,
        "chosen": chosen,
    }
    out = _out_dir(args.out_dir)
    tag = args.tag or f"grid-s{args.seed}"
    (out / f"{tag}.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    summary["_bound_failed"] = False
    return summary


class ConfigError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# ---------------------------------------------------------------------------
# argument parsing


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", default="span", help="booster: span or ch")
    p.add_argument("--stages", type=int, default=10, help="number of base learner copies N")
    p.add_argument("--eta", default="auto",
                   help="span step size in [1/N, 1], or 'auto' for ln(N)/N")
    p.add_argument("--loss", default="squared",
                   help="loss family: linear, p-norm:<p>, mls, logistic, squared")
    p.add_argument("--base", default="ogd", help="base learner: ogd, stump, hedge-pool, greedy")
    p.add_argument("--symmetrize", action="store_true",
                   help="wrap the base learner to compete with negations too")
    p.add_argument("--scale", type=float, default=1.0,
                   help="prediction scaling factor lambda >= 1")
    p.add_argument("--corollary-mode", action="store_true",
                   help="deterministic-learner mode of --algo span: working radius eta*N*D")
    p.add_argument("--data", default=None, help="dataset path (omit for synthetic)")
    p.add_argument("--format", default="libsvm", help="dataset format: libsvm or csv")
    p.add_argument("--label-range", default="pm1", choices=("pm1", "01"),
                   help="normalized label range")
    p.add_argument("--synthetic", default="planted",
                   help="synthetic stream: planted, planted-span, planted-hull, additive")
    p.add_argument("--rounds", type=int, default=20000, help="stream length T")
    p.add_argument("--pool-size", type=int, default=8, help="synthetic pool size")
    p.add_argument("--norm1", type=float, default=2.0, help="planted comparator 1-norm")
    p.add_argument("--noise", type=float, default=0.01, help="synthetic label noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", type=float, default=0.5, help="tuning fraction of the stream")
    p.add_argument("--lr", type=float, default=1.0, help="base learner rate scale")
    p.add_argument("--out-dir", default="", help="artifact directory (default $OGBOOST_OUT)")
    p.add_argument("--tag", default="", help="artifact basename")
    p.add_argument("--assert-bounds", action="store_true",
                   help="exit 4 if an evaluated regret bound fails")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ogboost",
                                 description="streaming regression boosting experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one boosting experiment")
    _add_run_flags(run_p)

    bc = sub.add_parser("batch-compare", help="batch fitting: ungated vs gated step rules")
    bc.add_argument("--stages", type=int, default=400)
    bc.add_argument("--step-size", type=float, default=0.1)
    bc.add_argument("--atoms", type=int, default=8)
    bc.add_argument("--norm1", type=float, default=2.0)
    bc.add_argument("--magnet-junk", type=float, default=1.45)
    bc.add_argument("--seed", type=int, default=35)
    bc.add_argument("--out-dir", default="")
    bc.add_argument("--tag", default="")

    lb = sub.add_parser("lower-bound", help="adversarial-stream regret floor experiment")
    lb.add_argument("--stages", type=int, default=4)
    lb.add_argument("--scale-c", type=float, default=1.0 / 50.0,
                    help="pool scale c (pool size M = N/c); 1/4000 is the full-scale value")
    lb.add_argument("--rounds", type=int, default=None,
                    help="stream length (default and minimum: 12*M)")
    lb.add_argument("--seeds", type=int, default=10, help="number of seeded repetitions")
    lb.add_argument("--seed", type=int, default=0, help="base seed")
    lb.add_argument("--out-dir", default="")
    lb.add_argument("--tag", default="")

    gr = sub.add_parser("grid", help="tuning grid over (lr, stages, eta)")
    gr.add_argument("--grid-lr", type=lambda s: [float(x) for x in s.split(",")],
                    default=[0.5, 1.0])
    gr.add_argument("--grid-stages", type=lambda s: [int(x) for x in s.split(",")],
                    default=[5, 10])
    gr.add_argument("--grid-eta", type=lambda s: s.split(","), default=["auto"])
    gr.add_argument("--algo", default="span")
    gr.add_argument("--loss", default="squared")
    gr.add_argument("--base", default="ogd")
    gr.add_argument("--synthetic", default="planted")
    gr.add_argument("--rounds", type=int, default=5000)
    gr.add_argument("--norm1", type=float, default=2.0)
    gr.add_argument("--noise", type=float, default=0.01)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--split", type=float, default=0.5)
    gr.add_argument("--workers", type=int, default=min(4, os.cpu_count() or 1))
    gr.add_argument("--out-dir", default="")
    gr.add_argument("--tag", default="")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "run":
            cfg = RunConfig(**{k.replace("-", "_"): v for k, v in vars(args).items()
                               if k != "command"})
            if errs := cfg.validate():
                raise ConfigError(errs)
            summary = execute_run(cfg)
        elif args.command == "batch-compare":
            summary = execute_batch_compare(args)
        elif args.command == "lower-bound":
            summary = execute_lower_bound(args)
        else:
            summary = execute_grid(args)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except ArithmeticError as e:  # e.g. a float overflow under an extreme parameter
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME

    print(json.dumps({k: v for k, v in summary.items() if not k.startswith("_")},
                     indent=2, default=float))
    if summary.get("_bound_failed") and getattr(args, "assert_bounds", False):
        print("bound assertion failed", file=sys.stderr)
        return EXIT_BOUNDS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
