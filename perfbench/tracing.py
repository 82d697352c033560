"""Timing proxies and the span tracer, applied to ogboost from outside.

Nothing here edits the package: the benchmark wraps the objects and
module functions a workload hands to ``bench.progressive_validate`` and
the module attributes the package looks up at call time.

Untraced jobs get only ``TimedBooster``: three clock reads per round, kept
in lists, which give the per-round latency samples, and the host-speed
probe every ``hostspeed.PROBE_EVERY`` rounds.

Traced jobs also get ``Tracer``.  It records spans (name, start, end,
parent, round id) in flat arrays and counts calls at the same proxies.
Spans inside the boosting loop are kept for every ``stride``-th round only,
so a 50k-round job keeps about 1k rounds of spans; counts cover every
round.  Set-up and finish phases are always traced.  Self time of a span
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import resource
from array import array
from time import perf_counter_ns

import numpy as np

import hostspeed

SAMPLED_ROUNDS = 1024

ROUND = "round"
BETWEEN = "bench.between_rounds"  # update return .. next predict: accounting, loop body
PV = "bench.progressive_validate"
BOOST_PREDICT = "boosting.predict"
BOOST_UPDATE = "boosting.update"
LEARNER_PREDICT = "learners.predict"
LEARNER_UPDATE = "learners.update"
POOL_VALUES = "learners.pool_values"
LOSS_GRADIENT = "losses.gradient"
LOSS_EVALUATE = "losses.evaluate"
SEEDED_RNG = "core.seeded_rng"
VALIDATE = "core.validate"

STREAM_BUILDERS = ("bench.make_additive_stream", "bench.planted_hull_stream",
                   "bench.make_lower_bound_stream", "bench.parse_stream")
COMPARATORS = ("bench.hull_comparator", "bench.uniform_pool_comparator",
               "bench.hull_regret_bound", "bench.regret_report")
ORACLE = "bench.best_convex_hull_oracle"
CLI_EXECUTE = "cli.execute_run"


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span store plus call counters for one job."""

    def __init__(self, rounds: int):
        self.stride = max(1, -(-rounds // SAMPLED_ROUNDS))
        self.rounds = rounds
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.s_round = array("i")
        self.stack: list[int] = []
        self.round_id = -1
        self.on = True        # record spans now (set-up, finish, sampled rounds)
        self.in_round = False  # count calls now (inside predict .. update)
        self.calls: list[int] = []
        self.features_touched = 0
        self.pool_distinct = 0
        self.clamped = 0
        self.partial_sums = 0

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.s_name)
        stack = self.stack
        self.s_name.append(nid)
        self.s_parent.append(stack[-1] if stack else -1)
        self.s_round.append(self.round_id)
        self.s_end.append(0)
        stack.append(idx)
        self.s_start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.s_end[idx] = perf_counter_ns()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span stack out of order: closing {idx}, top {top}")

    def timed(self, name: str, fn):
        """Wrap ``fn`` so each call is a span (when recording) and a count."""
        nid = self.nid(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.in_round:
                tracer.calls[nid] += 1
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr: str, name: str) -> None:
        setattr(module, attr, self.timed(name, getattr(module, attr)))

    def wrap_pool(self, pool) -> None:
        """Trace ``pool.values`` on this instance and count distinct example ids."""
        inner = self.timed(POOL_VALUES, pool.values)
        last = [None]
        tracer = self

        def values(x):
            if tracer.in_round and x.eid != last[0]:
                last[0] = x.eid
                tracer.pool_distinct += 1
            return inner(x)

        pool.values = values

    # -- derived numbers ---------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.s_start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.s_end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32).copy(),
            "round": np.frombuffer(self.s_round, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, rss_growth_mb: float) -> dict[str, float]:
        """Per-layer numbers for the ``per_layer`` block of BENCHMARK.json."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end"] - a["start"]).astype(np.float64)
        n = len(name)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child

        ids = self._ids
        round_id, between_id = ids.get(ROUND, -1), ids.get(BETWEEN, -1)
        # owner[i]: name of the round or between-rounds span that span i falls
        # in, or -1; parents are recorded before their children
        owner = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            nm = name[i]
            if nm == round_id or nm == between_id:
                owner[i] = nm
            elif parent[i] >= 0:
                owner[i] = owner[parent[i]]
        in_round = owner == round_id
        sampled = int(np.count_nonzero(name == round_id))

        def per_round_us(span: str) -> float:
            i = ids.get(span)
            if i is None or sampled == 0:
                return 0.0
            return float(self_ns[(name == i) & in_round].sum()) / sampled / 1e3

        def total_s(spans, self_time: bool = True) -> float:
            sel = np.isin(name, [ids[s] for s in spans if s in ids])
            return float((self_ns if self_time else dur)[sel].sum()) / 1e9

        def calls(span: str) -> int:
            i = ids.get(span)
            return self.calls[i] if i is not None else 0

        T = self.rounds
        between = name == between_id
        accounting_us = float(dur[between].mean()) / 1e3 if between.any() else 0.0
        pool_calls = calls(POOL_VALUES)

        cli_build = cli_write = 0.0
        ex_spans = np.flatnonzero(name == ids.get(CLI_EXECUTE, -1))
        if len(ex_spans):
            ex = int(ex_spans[0])
            pv = int(np.flatnonzero(name == ids[PV])[0])
            parse = total_s(["bench.parse_stream"], self_time=False)
            cli_build = (a["start"][pv] - a["start"][ex]) / 1e9 - parse
            cli_write = (a["end"][ex] - a["end"][pv]) / 1e9

        round_dur = dur[name == round_id]
        return {
            "boosting.predict_self_us_per_round": per_round_us(BOOST_PREDICT),
            "boosting.update_self_us_per_round": per_round_us(BOOST_UPDATE),
            "boosting.clamp_ratio": self.clamped / self.partial_sums if self.partial_sums else 0.0,
            "learners.stage_calls_per_round":
                (calls(LEARNER_PREDICT) + calls(LEARNER_UPDATE)) / T,
            "learners.predict_us_per_round": per_round_us(LEARNER_PREDICT),
            "learners.update_us_per_round": per_round_us(LEARNER_UPDATE),
            "learners.features_touched_per_round": self.features_touched / T,
            "learners.pool_values_calls_per_round": pool_calls / T,
            "learners.pool_values_us_per_round": per_round_us(POOL_VALUES),
            "learners.pool_cache_hit_ratio":
                1.0 - self.pool_distinct / pool_calls if pool_calls else 0.0,
            "losses.gradient_calls_per_round": calls(LOSS_GRADIENT) / T,
            "losses.gradient_us_per_round": per_round_us(LOSS_GRADIENT),
            "losses.evaluate_us_per_round": per_round_us(LOSS_EVALUATE),
            "core.seeded_rng_calls_per_round": calls(SEEDED_RNG) / T,
            "core.seeded_rng_us_per_round": per_round_us(SEEDED_RNG),
            "core.validate_s": total_s([VALIDATE]),
            "bench.stream_build_s": total_s(STREAM_BUILDERS),
            "bench.accounting_us_per_round": accounting_us,
            "bench.oracle_s": total_s([ORACLE]),
            "bench.comparator_s": total_s(COMPARATORS),
            "bench.loop_rss_growth_mb": rss_growth_mb,
            "cli.build_s": cli_build,
            "cli.artifact_write_s": cli_write,
            # not a reported metric: the traced round time the layers add up to
            "_traced_round_us": float(round_dur.mean()) / 1e3 if len(round_dur) else 0.0,
        }


class TimedBooster:
    """Booster proxy that records predict start, predict end and update end.

    After every ``hostspeed.PROBE_EVERY``-th update it runs the host-speed
    probe, between that update's end and the next predict's start.
    """

    def __init__(self, inner):
        self.inner = inner
        self.p_start: list[int] = []
        self.p_end: list[int] = []
        self.u_end: list[int] = []
        self.probe_ns: list[int] = []

    def predict(self, x):
        t = perf_counter_ns()
        out = self.inner.predict(x)
        self.p_end.append(perf_counter_ns())
        self.p_start.append(t)
        return out

    def update(self, x, trace, loss):
        out = self.inner.update(x, trace, loss)
        self.u_end.append(perf_counter_ns())
        if len(self.u_end) % hostspeed.PROBE_EVERY == 0:
            self.probe_ns.append(hostspeed.probe())
        return out

    def loop_bounds_ns(self) -> tuple[int, int]:
        return self.p_start[0], self.u_end[-1]

    def save(self, path):
        np.savez(path, predict_start=np.array(self.p_start, dtype=np.int64),
                 predict_end=np.array(self.p_end, dtype=np.int64),
                 update_end=np.array(self.u_end, dtype=np.int64),
                 probe_ns=np.array(self.probe_ns, dtype=np.int64))
        return path


class _LearnerProxy:
    __slots__ = ("inner", "tracer", "pid", "uid")

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.pid = tracer.nid(LEARNER_PREDICT)
        self.uid = tracer.nid(LEARNER_UPDATE)

    def predict(self, x, *offset):
        tr = self.tracer
        tr.calls[self.pid] += 1
        if not tr.on:
            return self.inner.predict(x, *offset)
        idx = tr.open(self.pid)
        out = self.inner.predict(x, *offset)
        tr.close(idx)
        return out

    def update(self, x, *fb):
        tr = self.tracer
        tr.calls[self.uid] += 1
        tr.features_touched += len(x.features)
        if not tr.on:
            return self.inner.update(x, *fb)
        idx = tr.open(self.uid)
        out = self.inner.update(x, *fb)
        tr.close(idx)
        return out


class _LossProxy:
    __slots__ = ("inner", "tracer", "gid", "eid")

    def __init__(self, inner, tracer: Tracer, gid: int, eid: int):
        self.inner = inner
        self.tracer = tracer
        self.gid = gid
        self.eid = eid

    def gradient(self, y):
        tr = self.tracer
        tr.calls[self.gid] += 1
        if not tr.on:
            return self.inner.gradient(y)
        idx = tr.open(self.gid)
        out = self.inner.gradient(y)
        tr.close(idx)
        return out

    def evaluate(self, y):
        tr = self.tracer
        tr.calls[self.eid] += 1
        if not tr.on:
            return self.inner.evaluate(y)
        idx = tr.open(self.eid)
        out = self.inner.evaluate(y)
        tr.close(idx)
        return out


class _TracedStream:
    """Stream view whose per-round loss instances are traced."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self):
        tr = self._tracer
        gid, eid = tr.nid(LOSS_GRADIENT), tr.nid(LOSS_EVALUATE)
        for ex, loss in self._inner:
            yield ex, _LossProxy(loss, tr, gid, eid)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedBooster:
    """Booster proxy that opens the round, booster and between-rounds spans.

    It also swaps the booster's stage learners for counting proxies and
    reads the clamp count off each returned ``RoundTrace``.
    """

    def __init__(self, inner, rounds: int, tracer: Tracer):
        self.inner = inner
        self.rounds = rounds
        self.tracer = tracer
        inner.learners = [_LearnerProxy(l, tracer) for l in inner.learners]
        self.radius = getattr(inner, "radius", None)
        self.r = 0
        self._round_idx = -1
        self._between_idx = -1
        self.t_first = self.t_last = 0
        self._ids = tuple(tracer.nid(n) for n in (ROUND, BETWEEN, BOOST_PREDICT, BOOST_UPDATE))

    def predict(self, x):
        tr = self.tracer
        rid, _, pid, _ = self._ids
        if self._between_idx >= 0:
            tr.close(self._between_idx)
            self._between_idx = -1
        r = self.r
        if r == 0:
            self.t_first = perf_counter_ns()
        tr.round_id = r
        tr.on = r % tr.stride == 0
        tr.in_round = True
        if tr.on:
            self._round_idx = tr.open(rid)
            idx = tr.open(pid)
            y, trace = self.inner.predict(x)
            tr.close(idx)
        else:
            y, trace = self.inner.predict(x)
        if self.radius is not None:
            radius = self.radius
            sums = trace.partial_sums
            tr.partial_sums += len(sums) - 1
            tr.clamped += sum(1 for s in sums[1:] if abs(s) >= radius)
        return y, trace

    def update(self, x, trace, loss):
        tr = self.tracer
        _, bid, _, uid = self._ids
        if tr.on:
            idx = tr.open(uid)
            out = self.inner.update(x, trace, loss)
            tr.close(idx)
            tr.close(self._round_idx)
        else:
            out = self.inner.update(x, trace, loss)
        tr.in_round = False
        self.r += 1
        if self.r == self.rounds:
            self.t_last = perf_counter_ns()
            tr.on = True
            tr.round_id = -1
        elif tr.on:
            self._between_idx = tr.open(bid)
        return out

    def loop_bounds_ns(self) -> tuple[int, int]:
        return self.t_first, self.t_last


def install(og, tracer: Tracer | None, probe: dict) -> None:
    """Hook ``bench.progressive_validate`` (every workload's loop) and, when
    tracing, the module functions each layer exposes.

    ``probe`` receives the booster proxy, the ``RunMetrics`` and the loop's
    RSS growth.
    """
    bench = og.bench
    pv = bench.progressive_validate

    def progressive_validate(stream, booster, *args, **kwargs):
        if tracer is None:
            proxy = TimedBooster(booster)
        else:
            proxy = TracedBooster(booster, len(stream), tracer)
            stream = _TracedStream(stream, tracer)
        probe["booster"] = proxy
        rss0 = current_rss_mb()
        metrics = pv(stream, proxy, *args, **kwargs)
        probe["rss_growth_mb"] = current_rss_mb() - rss0
        probe["metrics"] = metrics
        return metrics

    if tracer is None:
        bench.progressive_validate = progressive_validate
        return
    bench.progressive_validate = tracer.timed(PV, progressive_validate)
    for attr in ("make_additive_stream", "planted_hull_stream", "make_lower_bound_stream",
                 "parse_stream", "hull_comparator", "best_convex_hull_oracle",
                 "uniform_pool_comparator", "hull_regret_bound", "regret_report"):
        tracer.patch(bench, attr, f"bench.{attr}")
    for attr in ("stump_committee", "hedge_committee"):
        tracer.patch(og.learners, attr, f"learners.{attr}")
    # seeded_rng is imported by name into the modules that call it
    rng = tracer.timed(SEEDED_RNG, og.core.seeded_rng)
    og.learners.seeded_rng = rng
    og.bench.seeded_rng = rng
    og.core.Example.validate = tracer.timed(VALIDATE, og.core.Example.validate)
    for attr in ("execute_run", "build_stream", "build_learners", "_write_run_tsv"):
        tracer.patch(og.cli, attr, f"cli.{attr}")
