"""One workload job in a fresh process; ``run.py`` starts one per job.

Usage: python3 perfbench/job.py WORKLOAD SEED ROUNDS TRACE WORK_DIR RESULT_JSON

Imports ogboost from ``src/`` of the checkout this file sits in, runs the
workload once, and writes the job's measurements, the digest of its
per-round test losses and its report loss to RESULT_JSON.  Before the
set-up it times a burst of host-speed probes (hostspeed.py).  A traced job
(TRACE=1) also writes its spans to WORK_DIR/spans-<pid>.npz.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    workload, seed, rounds, trace, work_dir, result_path = argv
    seed, rounds, traced = int(seed), int(rounds), trace == "1"
    work_dir = Path(work_dir)

    sys.path.insert(0, str(SRC))
    import numpy as np

    import ogboost as og
    import ogboost.cli  # noqa: F401  (bound as og.cli for the proxies)

    if Path(og.__file__).resolve().parent != SRC / "ogboost":
        raise RuntimeError(f"ogboost imported from {og.__file__}, not from {SRC}")

    import hostspeed
    import tracing
    import workloads

    burst = hostspeed.burst()
    t_start = time.perf_counter_ns()
    tracer = tracing.Tracer(rounds) if traced else None
    probe: dict = {}
    tracing.install(og, tracer, probe)
    extra = workloads.RUN[workload](og, seed, rounds, tracer, work_dir)
    t_end = time.perf_counter_ns()

    booster, metrics = probe["booster"], probe["metrics"]
    first, last = booster.loop_bounds_ns()
    loop_probes = getattr(booster, "probe_ns", [])  # untraced jobs only
    probe_s = sum(loop_probes) / 1e9
    # a probe after the last round falls outside the loop's bounds
    in_loop_s = sum(loop_probes[:(len(metrics.test_losses) - 1) // hostspeed.PROBE_EVERY]) / 1e9
    losses = np.ascontiguousarray(metrics.test_losses, dtype="<f8")
    result = {
        "workload": workload,
        "seed": seed,
        "numpy": np.__version__,
        "rounds": int(len(losses)),
        "traced": traced,
        "digest": hashlib.sha256(losses.tobytes()).hexdigest(),
        "report_loss": metrics.report_loss,
        "finite": bool(np.all(np.isfinite(losses))),
        "extra": extra,
        # raw times with the probes taken out; run.py scales them to the
        # nominal host speed
        "setup_s": (first - t_start) / 1e9,
        "wall_s": (t_end - t_start) / 1e9 - probe_s,
        "loop_s": (last - first) / 1e9 - in_loop_s,
        "rounds_per_s": len(losses) / ((last - first) / 1e9 - in_loop_s),
        "host_factor": hostspeed.factor(burst + list(loop_probes)),
        "peak_rss_mb": tracing.peak_rss_mb(),
    }
    if traced:
        result["layers"] = tracer.layer_metrics(probe["rss_growth_mb"])
        tracer.save(work_dir / f"spans-{os.getpid()}.npz")
    else:
        result["rounds_file"] = str(booster.save(work_dir / f"rounds-{os.getpid()}.npz"))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
