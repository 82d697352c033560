"""ogboost benchmark: one workload, closed loop, one client thread.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs jobs of the workload (see workloads.py), each in a fresh process with
BLAS/OpenMP pinned to one thread, until S seconds are used (at least
MIN_JOBS jobs).  Every job's per-round test losses are checked against the
digest recorded in reference.json; a job that raises, exits non-zero or
mismatches counts as failed.

--trace 0 prints the end-to-end metrics of the run's jobs, with every time
scaled to the nominal host speed by the probes of hostspeed.py; the
unscaled values are printed beside them and kept in result.json.
--trace 1 alternates untraced and traced jobs and prints the per-layer
metrics (median over traced jobs) plus the tracing overhead.  The last
stdout line is the JSON result; details, the machine block and the spans
go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 3          # per run, untraced; set-up time is their median
JOB_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 175.0  # a run must end within 180 s
RUN_LIMIT_S = 165.0     # start no job past this
P99_WINDOW = 1000     # rounds per p99 window: 10 samples beyond each p99
REFERENCE_SEEDS = 32  # inputs come from seed mod 32, so every input has a reference
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "rounds_per_s": "1/s",
    "round_us_p50": "us",
    "round_us_p99": "us",
    "predict_us_p50": "us",
    "predict_us_p99": "us",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "boosting.predict_self_us_per_round": "us",
    "boosting.update_self_us_per_round": "us",
    "boosting.clamp_ratio": "ratio",
    "learners.stage_calls_per_round": "count",
    "learners.predict_us_per_round": "us",
    "learners.update_us_per_round": "us",
    "learners.features_touched_per_round": "count",
    "learners.pool_values_calls_per_round": "count",
    "learners.pool_values_us_per_round": "us",
    "learners.pool_cache_hit_ratio": "ratio",
    "losses.gradient_calls_per_round": "count",
    "losses.gradient_us_per_round": "us",
    "losses.evaluate_us_per_round": "us",
    "core.seeded_rng_calls_per_round": "count",
    "core.seeded_rng_us_per_round": "us",
    "core.validate_s": "s",
    "bench.stream_build_s": "s",
    "bench.accounting_us_per_round": "us",
    "bench.oracle_s": "s",
    "bench.comparator_s": "s",
    "bench.loop_rss_growth_mb": "MB",
    "cli.build_s": "s",
    "cli.artifact_write_s": "s",
    "trace.overhead_ratio": "ratio",
}


def reference_key(workload: str, rounds: int, input_seed: int) -> str:
    return f"{workload} T={rounds} seed={input_seed}"


def prepare_inputs(workload: str, input_seed: int, rounds: int, work_dir: Path) -> None:
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    if workload == "ogd-file-cli":
        workloads.write_libsvm(work_dir / "input.svm", input_seed, rounds)


def run_job(workload: str, input_seed: int, rounds: int, traced: bool, work_dir: Path,
            timeout: float) -> dict:
    """Run one job in a fresh process; returns its result or {"error": ...}."""
    result_path = work_dir / f"job-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "job.py"), workload, str(input_seed), str(rounds),
           "1" if traced else "0", str(work_dir), str(result_path)]
    env = {**os.environ, **THREAD_PINS}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or ["(no output)"]
        return {"error": f"exit code {proc.returncode}: {tail[0]}"}
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError) as e:
        return {"error": f"no result: {e}"}
    result_path.unlink()
    return result


def check_job(job: dict, reference: dict | None, rounds: int) -> str | None:
    """Why the job's output is wrong, or None when it is correct."""
    if "error" in job:
        return job["error"]
    if job["rounds"] != rounds or not job["finite"]:
        return f"{job['rounds']} rounds (want {rounds}) or non-finite losses"
    if reference is not None:
        if job["digest"] != reference["digest"]:
            return f"test-loss digest {job['digest'][:12]} != reference {reference['digest'][:12]}"
        if job["report_loss"] != reference["report_loss"]:
            return f"report_loss {job['report_loss']!r} != reference {reference['report_loss']!r}"
    extra = job["extra"]
    if extra.get("bound_passed") is False:
        return "hull regret bound failed"
    if "cli_rounds" in extra and (extra["cli_rounds"] != rounds or extra["tsv_rows"] != rounds
                                  or extra["cli_report_loss"] != job["report_loss"]):
        return f"CLI artifacts disagree with the run: {extra}"
    return None


def machine_block() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pins": THREAD_PINS,
    }


def run_jobs(workload: str, input_seed: int, rounds: int, seconds: float, trace: bool,
             work_dir: Path, reference: dict | None) -> tuple[list[dict], list[str]]:
    """Closed loop of jobs for ``seconds``; returns (correct jobs, failure reasons)."""
    start = time.monotonic()
    done: list[dict] = []
    failures: list[str] = []
    durations: list[float] = []
    digests: set[str] = set()
    while True:
        traced = trace and len(durations) % 2 == 1
        t0 = time.monotonic()
        job = run_job(workload, input_seed, rounds, traced, work_dir,
                      min(JOB_TIMEOUT_S, RUN_DEADLINE_S - (t0 - start)))
        durations.append(time.monotonic() - t0)
        why = check_job(job, reference, rounds)
        if why is None:
            digests.add(job["digest"])
            done.append(job)
        else:
            failures.append(why)
            print(f"job failed: {why}", file=sys.stderr)
        elapsed = time.monotonic() - start
        per_step = statistics.mean(durations) * (2 if trace else 1)
        enough = len(durations) >= (2 if trace else MIN_JOBS) and (not trace or traced)
        if elapsed > RUN_LIMIT_S - per_step or (enough and elapsed + per_step > seconds):
            break
    if len(digests) > 1:  # same input, so every job must produce the same losses
        failures.extend(f"nondeterministic test losses across jobs: {sorted(digests)}"
                        for _ in done)
        done = []
    return done, failures


def pooled_rounds_per_s(jobs: list[dict]) -> float:
    return sum(j["rounds"] for j in jobs) / sum(j["loop_s"] for j in jobs)


def tail_p99(latencies: list[np.ndarray]) -> float:
    """Lower quartile over P99_WINDOW-round windows of each window's p99.

    In some phases the host adds jitter: the tail grows while the median
    does not.  A pooled p99 follows any such phase that covers more than
    1% of the run; this one, only a phase that covers most of it.
    """
    windows = []
    for x in latencies:
        w = min(P99_WINDOW, len(x))
        windows.append(np.percentile(x[:len(x) // w * w].reshape(-1, w), 99, axis=1))
    return float(np.percentile(np.concatenate(windows), 25))


def job_rounds(job: dict) -> tuple[np.ndarray, ...]:
    """An untraced job's round and predict latencies (us), round cycle times
    (s) and, per round, the median probe time (ns) of its P99_WINDOW-round
    stretch."""
    with np.load(job["rounds_file"]) as f:
        ps, pe, ue, probe_ns = (f["predict_start"], f["predict_end"], f["update_end"],
                                f["probe_ns"])
    n = len(ps)
    w = min(P99_WINDOW, n)
    windows = n // w
    after = (np.arange(len(probe_ns)) + 1) * hostspeed.PROBE_EVERY - 1  # round each follows
    in_window = np.minimum(after // w, windows - 1)
    stretch = np.array([np.median(probe_ns[in_window == i]) for i in range(windows)])
    # round i's cycle runs from its predict to the next; probes sit between rounds
    cycle = np.diff(np.append(ps, ue[-1])).astype(float)
    in_loop = after < n - 1
    np.subtract.at(cycle, after[in_loop], probe_ns[in_loop])
    per_round = stretch[np.minimum(np.arange(n) // w, windows - 1)]
    return (ue - ps) / 1e3, (pe - ps) / 1e3, cycle / 1e9, per_round


def end_to_end(jobs: list[dict], scaled: bool) -> dict[str, float]:
    """End-to-end metrics of the run's untraced jobs: pooled p50s and
    throughput, windowed p99s, medians over jobs for set-up, wall time and
    memory.  ``scaled`` puts every time at the nominal host speed."""
    body = hostspeed.SPEED_EXPONENT if scaled else 0.0
    tail = hostspeed.TAIL_SPEED_EXPONENT if scaled else 0.0
    rounds, predicts, cycles, probes = zip(*map(job_rounds, jobs))

    def at(xs, exponent):
        return [x * hostspeed.scale(p, exponent) for x, p in zip(xs, probes)]

    values = {
        "rounds_per_s": sum(map(len, rounds)) / sum(c.sum() for c in at(cycles, body)),
        "round_us_p50": float(np.percentile(np.concatenate(at(rounds, body)), 50)),
        "round_us_p99": tail_p99(at(rounds, tail)),
        "predict_us_p50": float(np.percentile(np.concatenate(at(predicts, body)), 50)),
        "predict_us_p99": tail_p99(at(predicts, tail)),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }
    for name in ("setup_s", "wall_s"):
        values[name] = statistics.median(j[name] * (j["host_factor"] if scaled else 1.0)
                                         for j in jobs)
    return values


def latency_samples(jobs: list[dict]) -> dict[str, int]:
    n = [j["rounds"] for j in jobs]
    per_window = min(P99_WINDOW, n[0])
    return {"latency_samples": sum(n), "p99_windows": sum(x // per_window for x in n),
            "rounds_per_p99_window": per_window, "beyond_p99_per_window": per_window // 100}


def aggregate(done: list[dict], trace: bool) -> tuple[dict[str, float], dict]:
    """The run's metrics, and what to report beside them."""
    untraced = [j for j in done if not j["traced"]]
    if not trace:
        return end_to_end(untraced, True), {"samples": latency_samples(untraced),
                                             "unscaled": end_to_end(untraced, False)}
    traced = [j for j in done if j["traced"]]
    values = {name: statistics.median(j["layers"][name] for j in traced)
              for name in PER_LAYER if name != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = pooled_rounds_per_s(untraced) / pooled_rounds_per_s(traced)
    return values, {"samples": {}, "unscaled": {}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RUN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="stream length override (smoke tests only; no reference digest)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ogboost" / "__init__.py").is_file():
        print(f"error: no ogboost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rounds = args.rounds or workloads.ROUNDS[args.workload]
    input_seed = args.seed % REFERENCE_SEEDS
    references = json.loads((HERE / "reference.json").read_text())
    reference = references.get(reference_key(args.workload, rounds, input_seed))
    if reference is None and args.rounds is None:
        print(f"error: no reference for {reference_key(args.workload, rounds, input_seed)}",
              file=sys.stderr)
        return 2

    work_dir = HERE / "out" / args.workload
    prepare_inputs(args.workload, input_seed, rounds, work_dir)
    done, failures = run_jobs(args.workload, input_seed, rounds, args.seconds,
                              bool(args.trace), work_dir, reference)
    if {j["traced"] for j in done} != ({False, True} if args.trace else {False}):
        print(f"error: too few jobs of {args.workload} completed: {failures}", file=sys.stderr)
        return 1

    values, beside = aggregate(done, bool(args.trace))
    samples, unscaled = beside["samples"], beside["unscaled"]
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = len(done) + len(failures)
    samples.update(jobs=sum(not j["traced"] for j in done),
                   traced_jobs=sum(j["traced"] for j in done), rounds_per_job=rounds)
    details = {
        "workload": args.workload, "seed": args.seed, "input_seed": input_seed,
        "rounds": rounds, "trace": args.trace, "machine": machine_block(),
        "numpy": np.__version__, "reference_checked": reference is not None,
        "report_loss": done[0]["report_loss"], "samples": samples,
        "failures": failures, "jobs": done, "metrics": metrics, "unscaled": unscaled,
    }
    (work_dir / "result.json").write_text(json.dumps(details, indent=1))
    print(f"machine: {json.dumps(details['machine'])} numpy {np.__version__}")
    print(f"{args.workload} seed {args.seed} (input seed {input_seed}), T={rounds}: "
          f"samples {json.dumps(samples)}")
    checked = "checked against reference.json" if reference else "no reference at this T"
    print(f"  {'report_loss':40s} {details['report_loss']:.6g} loss ({checked})")
    for name, m in metrics.items():
        raw = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{raw}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
