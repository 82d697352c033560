"""The four benchmark workloads.

Each is one closed-loop job: a single client thread drives one booster
test-then-train over a generated stream, then does the workload's finish
work (comparator, bound report, artifacts).  ``run`` functions look every
package function up through its module at call time, so the proxies that
``tracing.install`` puts on those modules see the calls.

Why these four (the layer each one loads, and the one it bypasses):

* ``stump-span``   vectorized stump bank and per-stage booster dispatch;
                   no pool, no accounting, no I/O.
* ``hedge-hull``   memoized pool values, average-mode Hedge bank, per-stage
                   regret accounting and the offline convex-hull oracle.
* ``ogd-file-cli`` libsvm parse, 20 independent dict-based OGD learners,
                   span projection and the CLI's artifact write; bypasses
                   both vectorized banks.
* ``lower-bound``  sample-mode Hedge over a 1600-wide pool with one seeded
                   RNG per row; the only job whose memory grows with T.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

STAGES = 20

# default stream length T per workload (the loops the end-to-end metrics time)
ROUNDS = {
    "stump-span": 50_000,
    "hedge-hull": 20_000,
    "ogd-file-cli": 20_000,
    "lower-bound": 19_200,
}

LOWER_BOUND_STAGES = 8  # pool M = T / 12, the smallest T the stream allows: M = 1600

LIBSVM_FEATURES = 100
LIBSVM_NNZ = 30


def write_libsvm(path: Path, seed: int, rounds: int) -> None:
    """Sparse regression file for ``ogd-file-cli``, written with plain floats.

    ``bench.write_stream`` is not used: under numpy 2 it writes numpy scalar
    reprs such as ``1:np.float64(-1.0)``, which ``parse_stream`` rejects.
    """
    rng = random.Random(seed)
    planted = {k: rng.uniform(-1.0, 1.0) for k in rng.sample(range(1, LIBSVM_FEATURES + 1), 10)}
    lines = []
    for _ in range(rounds):
        idx = sorted(rng.sample(range(1, LIBSVM_FEATURES + 1), LIBSVM_NNZ))
        vals = [round(rng.uniform(-1.0, 1.0), 4) or 0.5 for _ in idx]
        label = sum(planted.get(k, 0.0) * v for k, v in zip(idx, vals))
        label += rng.gauss(0.0, 0.1)
        pairs = " ".join(f"{k}:{v!r}" for k, v in zip(idx, vals))
        lines.append(f"{label!r} {pairs}")
    path.write_text("\n".join(lines) + "\n")


def stump_span(og, seed: int, rounds: int, tracer, work_dir: Path) -> dict:
    """The C8 acceptance config: span booster over a 20-stump committee."""
    stream = og.bench.make_additive_stream(rounds, seed)
    booster = og.boosting.SpanBooster(og.LossClass("squared"),
                                      og.learners.stump_committee(STAGES))
    og.bench.progressive_validate(stream, booster)
    return {}


def hedge_hull(og, seed: int, rounds: int, tracer, work_dir: Path) -> dict:
    """The C2 acceptance config at N=20, with accounting, bound and oracle.

    The planted hull weights are C2's draw for seed 0 on every seed; only
    the stream is drawn from ``seed``.  With per-seed weights the oracle's
    Frank-Wolfe and projected-gradient work ranged 0.6-1.5 s across seeds.
    """
    import numpy as np

    bench = og.bench
    pool = bench.make_region_pool(8)
    weights = np.random.default_rng(104729).dirichlet(np.ones(8))
    stream, planted = bench.planted_hull_stream(pool, weights, 0.01, rounds, seed)
    sym = pool.symmetrized()
    if tracer is not None:
        tracer.wrap_pool(sym)
    booster = og.boosting.HullBooster(stream.loss_class,
                                      og.learners.hedge_committee(sym, STAGES, rounds, seed=seed))
    metrics = bench.progressive_validate(stream, booster, comparator=planted, committee=sym)
    terms = bench.hull_regret_bound(STAGES, 1.0, booster.smoothness, booster.lipschitz,
                                    rounds, metrics.max_stage_regret())
    report = bench.regret_report(metrics, terms)
    oracle = bench.hull_comparator(stream, pool)
    return {"bound_passed": bool(report.passed),
            "oracle_loss": float(oracle.total_loss(stream))}


def ogd_file_cli(og, seed: int, rounds: int, tracer, work_dir: Path) -> dict:
    """``ogboost run`` on the generated libsvm file, with TSV and JSON artifacts."""
    import contextlib
    import io

    out_dir = work_dir / "artifacts"
    argv = ["run", "--algo", "span", "--stages", str(STAGES), "--base", "ogd",
            "--data", str(work_dir / "input.svm"), "--format", "libsvm",
            "--rounds", str(rounds), "--out-dir", str(out_dir), "--tag", "bench"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = og.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ogboost run exited with code {code}")
    summary = json.loads((out_dir / "bench.json").read_text())
    with open(out_dir / "bench.tsv") as fh:
        tsv_rows = sum(1 for _ in fh) - 1
    return {"cli_report_loss": summary["report_loss"], "cli_rounds": summary["rounds"],
            "tsv_rows": tsv_rows}


def lower_bound(og, seed: int, rounds: int, tracer, work_dir: Path) -> dict:
    """Adversarial stream, sample-mode Hedge committee, uniform pool comparator.

    The comparator is built after the loop, so pool rows are drawn (one
    seeded RNG each) inside the rounds, as a streaming run would.
    """
    bench = og.bench
    pool_scale = 12.0 * LOWER_BOUND_STAGES / rounds
    stream, pool = bench.make_lower_bound_stream(LOWER_BOUND_STAGES, rounds, seed, pool_scale)
    if tracer is not None:
        tracer.wrap_pool(pool)
    committee = og.learners.hedge_committee(pool, LOWER_BOUND_STAGES, len(stream),
                                            mode="sample", seed=seed)
    booster = og.boosting.HullBooster(stream.loss_class, committee)
    metrics = bench.progressive_validate(stream, booster)
    comp = bench.uniform_pool_comparator(stream, pool)
    regret = metrics.total_loss - comp.total_loss(stream)
    return {"regret": float(regret)}


RUN = {
    "stump-span": stump_span,
    "hedge-hull": hedge_hull,
    "ogd-file-cli": ogd_file_cli,
    "lower-bound": lower_bound,
}
