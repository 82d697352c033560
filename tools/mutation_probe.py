"""Mutation probe: which tests catch one-line errors in the paper's algorithms.

Usage: python3 tools/mutation_probe.py [--only NAME_PART ...] [--baseline]

The probe first copies ``src/``, ``tests/`` and ``pyproject.toml`` once into
a snapshot in a temporary directory.  Each mutation replaces one exact code
fragment in a fresh copy of that snapshot.  The test suite then runs in that
copy without ``tests/test_golden.py`` and ``tests/test_mutation_probe.py``,
and the probe prints the tests that failed, one row per mutation.  The
golden digests are left out because any change to the arithmetic fails
them, so they cannot show which behaviour a mutation breaks; the second
file fails on every mutated copy, as it checks this list against the code.
A fragment that does not occur exactly once in its file stops the probe:
the list below must follow the code it names, and
``tests/test_mutation_probe.py`` checks in every run of the suite that it
does.
``--baseline`` first runs the unmutated copy, which should fail nothing.
The repository itself is never modified, and edits made to it while the
probe runs do not reach the copies.

One run of the suite takes about two minutes on two cores.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTATIONS = [
    Mutation("hull stage weight 2/(i+1) -> 1/(i+1)", "src/ogboost/boosting.py",
             "self.stage_weights = [2.0 / (i + 2)", "self.stage_weights = [1.0 / (i + 2)"),
    Mutation("span shrink step with its sign flipped", "src/ogboost/boosting.py",
             "s = shrink[i] + alpha * (grad * y_prev)", "s = shrink[i] - alpha * (grad * y_prev)"),
    Mutation("span clamp at 2 x radius", "src/ogboost/boosting.py",
             "radius = self.radius", "radius = 2.0 * self.radius"),
    Mutation("stage feedback halved", "src/ogboost/boosting.py",
             "feedbacks = [grad / lip for grad in grads]",
             "feedbacks = [grad / (2 * lip) for grad in grads]"),
    Mutation("p-norm gradient exponent p - 2 -> p - 1", "src/ogboost/losses.py",
             "n ** (self.p - 2.0)", "n ** (self.p - 1.0)"),
    Mutation("Hedge rate x 10", "src/ogboost/learners.py",
             "return math.sqrt(8.0 * math.log(max(pool_size, 2)) / max(horizon, 1))",
             "return 10.0 * math.sqrt(8.0 * math.log(max(pool_size, 2)) / max(horizon, 1))"),
    Mutation("doubling epochs grow x 4, not x 2", "src/ogboost/learners.py",
             "self.epoch *= 2", "self.epoch *= 4"),
    Mutation("hull bound mixing term x 100", "src/ogboost/bench.py",
             "mixing_term = 8.0 * smoothness", "mixing_term = 800.0 * smoothness"),
    Mutation("greedy step without alpha", "src/ogboost/learners.py",
             "offsets[:, None] + self.alpha * vals", "offsets[:, None] + vals"),
    Mutation("greedy argmin -> argmax", "src/ogboost/learners.py",
             "self.cum.argmin(axis=1)", "self.cum.argmax(axis=1)"),
    Mutation("greedy adapter 2R -> R", "src/ogboost/learners.py",
             'math.sqrt(2.0 * r / denom) if regret_model == "sqrt" else 2.0 * r / denom',
             'math.sqrt(r / denom) if regret_model == "sqrt" else r / denom'),
    Mutation("sign draws start one word early", "src/ogboost/bench.py",
             "(0, 0, draws, draws + (draws + 1) // 2)",
             "(0, 0, draws - 1, draws + (draws + 1) // 2)"),
    Mutation("noise draws start one word early", "src/ogboost/bench.py",
             "(0, 0, draws, draws + (draws + 1) // 2)",
             "(0, 0, draws, draws + (draws + 1) // 2 - 1)"),
    Mutation("planted comparator without the + 0.0", "src/ogboost/bench.py",
             "f = w[region - 1] * v + 0.0", "f = w[region - 1] * v"),
    Mutation("planted member index off by one", "src/ogboost/bench.py",
             "f = w[region - 1] * v + 0.0", "f = w[region % n] * v + 0.0"),
    Mutation("planted noise drawn when sigma is 0", "src/ogboost/bench.py",
             "weights.tolist(), noise_sigma > 0", "weights.tolist(), noise_sigma >= 0"),
    Mutation("libsvm block keeps zero values", "src/ogboost/bench.py",
             "if not values.all() or not (np.abs(ids) < _EXACT_ID).all():",
             "if not (np.abs(ids) < _EXACT_ID).all():"),
    Mutation("libsvm block without the 2**53 id bound", "src/ogboost/bench.py",
             "if not values.all() or not (np.abs(ids) < _EXACT_ID).all():",
             "if not values.all():"),
    Mutation("libsvm block without the distinct-id check", "src/ogboost/bench.py",
             "if rows.size:", "if False:"),
    Mutation("batch gate's >= 0.0 reversed", "src/ogboost/batch.py",
             "grad_pairing(f_values, f_values) >= 0.0", "grad_pairing(f_values, f_values) <= 0.0"),
    Mutation("batch gated shrink halved", "src/ogboost/batch.py",
             "(1.0 - sigma * eta) * f_values", "(1.0 - 0.5 * sigma * eta) * f_values"),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)
_SUMMARY = re.compile(r"^=*\s*(\d+ (?:passed|failed|error).*?) in [\d.]+s", re.MULTILINE)


def _snapshot(dest: Path) -> None:
    """Copy what the suite needs from the repository into ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _mutated(text: str, m: Mutation) -> str:
    count = text.count(m.old)
    if count != 1:
        raise SystemExit(f"mutation {m.name!r}: {m.old!r} occurs {count} times in {m.path}")
    return text.replace(m.old, m.new)


def _run_suite(copy: Path) -> tuple[list[str], str]:
    """(ids of the tests that failed or errored, pytest's summary line)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "tests", "--ignore=tests/test_golden.py", "--ignore=tests/test_mutation_probe.py"]
    out = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S).stdout
    summary = _SUMMARY.findall(out)
    return _FAILED.findall(out), summary[-1] if summary else "no summary (collection failed?)"


def probe(snapshot: Path, mutation: Mutation | None) -> tuple[list[str], str]:
    """Run the suite in a fresh copy of ``snapshot`` with ``mutation`` applied."""
    copy = snapshot.with_name("run")
    shutil.copytree(snapshot, copy)
    try:
        if mutation is not None:
            path = copy / mutation.path
            path.write_text(_mutated(path.read_text(), mutation))
        return _run_suite(copy)
    finally:
        shutil.rmtree(copy)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", default=None,
                    help="run the mutations whose names contain one of these strings")
    ap.add_argument("--baseline", action="store_true", help="run the unmutated copy first")
    args = ap.parse_args(argv)
    chosen = [m for m in MUTATIONS
              if args.only is None or any(s in m.name for s in args.only)]
    rows = [None] * args.baseline + chosen
    uncaught = 0
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        snapshot = Path(tmp) / "snapshot"
        _snapshot(snapshot)
        for m in chosen:  # check every fragment before the first long run
            _mutated((snapshot / m.path).read_text(), m)
        print("| mutation | tests that failed (suite without tests/test_golden.py) |")
        print("| --- | --- |")
        for m in rows:
            failed, summary = probe(snapshot, m)
            name = "none (baseline)" if m is None else m.name
            caught = ", ".join(f"`{f}`" for f in failed) or "none"
            print(f"| {name} | {len(failed)}: {caught} ({summary}) |", flush=True)
            uncaught += m is not None and not failed
    print(f"\n{len(chosen) - uncaught} of {len(chosen)} mutations caught")
    return 1 if uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
