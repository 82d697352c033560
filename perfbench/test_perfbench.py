"""Smoke test of the benchmark itself: every workload at a tiny T.

Run with:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_ROUNDS = 600

# layer self times that fall inside predict .. update of a round
IN_ROUND = ("boosting.predict_self_us_per_round", "boosting.update_self_us_per_round",
            "learners.predict_us_per_round", "learners.update_us_per_round",
            "learners.pool_values_us_per_round", "losses.gradient_us_per_round",
            "losses.evaluate_us_per_round", "core.seeded_rng_us_per_round")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--rounds", str(TINY_ROUNDS)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", sorted(workloads.RUN))
def test_workload_emits_every_metric(workload):
    end_to_end = last_json(bench(ROOT, workload, 0))
    check_metrics(end_to_end, SPEC["end_to_end"])
    assert all(end_to_end["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    details = json.loads((HERE / "out" / workload / "result.json").read_text())
    assert set(details["unscaled"]) == set(end_to_end["metrics"])
    assert all(job["host_factor"] > 0 for job in details["jobs"])

    layers = last_json(bench(ROOT, workload, 1))
    check_metrics(layers, SPEC["per_layer"])
    details = json.loads((HERE / "out" / workload / "result.json").read_text())
    for job in details["jobs"]:
        if job["traced"]:
            per_round = sum(job["layers"][name] for name in IN_ROUND)
            assert 0 < per_round <= job["layers"]["_traced_round_us"]
    assert layers["metrics"]["learners.stage_calls_per_round"]["value"] > 0
    assert list(HERE.glob(f"out/{workload}/spans-*.npz"))


def test_fails_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out"))
    proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
