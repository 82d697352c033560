"""Record the golden output of every benchmark input into reference.json.

Usage: python3 perfbench/record_reference.py [WORKLOAD ...]

For each workload (default: all) and each input seed 0..31 at the default
stream length, runs one untraced job and stores the sha256 of its
per-round test losses and its report loss.  Run it only at a commit whose
outputs are known good; a deliberate numeric change re-records and says
why in CHANGES.md.  Two jobs run at a time.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def record(workload: str, input_seed: int) -> tuple[str, dict]:
    rounds = workloads.ROUNDS[workload]
    work_dir = run.HERE / "out" / f"record-{workload}-{input_seed}"
    run.prepare_inputs(workload, input_seed, rounds, work_dir)
    job = run.run_job(workload, input_seed, rounds, False, work_dir, run.JOB_TIMEOUT_S)
    why = run.check_job(job, None, rounds)
    if why is not None:
        raise RuntimeError(f"{workload} seed {input_seed}: {why}")
    shutil.rmtree(work_dir)
    key = run.reference_key(workload, rounds, input_seed)
    return key, {"digest": job["digest"], "report_loss": job["report_loss"]}


def main(names: list[str]) -> int:
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text())
    todo = [(w, s) for w in (names or sorted(workloads.RUN))
            for s in range(run.REFERENCE_SEEDS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for key, entry in pool.map(lambda ws: record(*ws), todo):
            reference[key] = entry
            print(key, entry["report_loss"], flush=True)
    path.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
