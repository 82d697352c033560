"""Online linear base learners.

A base learner is a stateful predict/update pair.  Its predictions are
floats bounded in absolute value by ``output_bound`` and it accepts only
linear feedback: an update with a scalar gradient g, |g| <= 1, means the
round's loss was y -> g * y.  Implementations:

* ``OnlineGradientLearner`` -- projected online gradient descent over
  sparse linear regressors.
* ``StumpLearner`` -- per-feature scalar gradient descent, predicting with
  the best-performing feature present in the current example.
* ``symmetrize`` -- per stage of a committee, a Hedge mixture of the
  stage, its negation-trained twin in a second committee and the zero arm,
  extending the comparator class with negations.
* ``GreedyFitLearner`` -- N follow-the-leader fitters that consume the true
  loss at the stages' offsets instead of linear feedback, with step size
  and offset bound fixed by ``greedy_adapter``.  Its class marker
  ``greedy_offsets`` tells a booster that its stages update on offsets.

A booster runs N copies of one learner that all see the same example, so
a stage committee is one object with two calls per round: ``predict(x)``
returns the N stage predictions and ``update(x, feedbacks)`` takes the N
stage feedbacks, checked once per round.  ``ogd_committee`` and
``stump_committee`` keep the N copies' state in shared arrays and equal
independent copies bit for bit.  ``hedge_committee`` runs multiplicative
weights over a finite function pool as an (N x M) weight matrix, on a known
horizon or the doubling schedule; its weights equal N one-stage committees
bit for bit and its predictions up to summation order; the greedy committee
equals N one-stage committees bit for bit.  A plain list of linear-feedback
learners is run as a committee by the booster.

Learner instances are single-threaded mutable state; independent boosters
own disjoint copies.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import Example, seeded_rng
from .losses import BallParams, LossInstance

FEEDBACK_TOL = 1e-9


def _check_feedback(g: float) -> float:
    """The gradient g of a round's linear loss y -> g * y, checked for |g| <= 1."""
    if -1.0 - FEEDBACK_TOL <= g <= 1.0 + FEEDBACK_TOL:
        return g
    raise ValueError(f"linear feedback norm {abs(g):.6g} exceeds 1")


def _feedback_vector(fb, n: int, bound: float = 1.0, what: str = "linear feedback") -> np.ndarray:
    """A committee's n scalar stage feedbacks (or offsets), each checked for |g| <= bound."""
    g = np.asarray(fb, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"expected {n} stage {what} values, got shape {g.shape}")
    top = np.abs(g).max()
    if not top <= bound + FEEDBACK_TOL:  # also rejects NaN
        raise ValueError(f"{what} norm {top:.6g} exceeds {bound:g}")
    return g


# ---------------------------------------------------------------------------
# function pools


class FunctionPool:
    """A finite list of bounded functions Example -> R.

    ``values`` memoizes the value vector of the last example object it was
    given, so that the queries of one round (stage predict, stage update,
    accounting) cost a single evaluation sweep, with or without an example
    id.  Subclasses supply the sweep in ``_evaluate``.
    """

    # class-level defaults: subclasses that skip __init__ still start with an empty memo
    _memo_x: Example | None = None
    _memo_vals: np.ndarray | None = None

    def __init__(self, members: list[Callable[[Example], float]], output_bound: float = 1.0):
        if not members:
            raise ValueError("function pool must contain at least one member")
        self.members = members
        self.output_bound = output_bound

    def __len__(self) -> int:
        return len(self.members)

    def values(self, x: Example) -> np.ndarray:
        if x is not self._memo_x:
            self._memo_vals = self._evaluate(x)
            self._memo_x = x
        return self._memo_vals

    def _evaluate(self, x: Example) -> np.ndarray:
        return np.array([m(x) for m in self.members], dtype=float)

    def symmetrized(self) -> "FunctionPool":
        """Pool closed under negation and containing the zero function."""
        return _SymmetrizedPool(self)


class _SymmetrizedPool(FunctionPool):
    """Negation closure of a base pool: [zero, members..., -members...]."""

    def __init__(self, base: FunctionPool):
        self._base = base
        self.output_bound = base.output_bound

    def __len__(self) -> int:
        return 1 + 2 * len(self._base)

    def _evaluate(self, x: Example) -> np.ndarray:
        v = self._base.values(x)
        out = np.zeros(2 * len(v) + 1)
        out[1:len(v) + 1] = v
        np.negative(v, out=out[len(v) + 1:])
        return out


class LowerBoundPool(FunctionPool):
    """Pool of stochastic indicator functions used by the adversarial stream.

    Member i at example t takes value 1 with probability equal to the
    example's label and 0 otherwise.  The row of M draws for an example is
    a pure function of (seed, example id): it comes from an RNG keyed by
    both, so every stage and every repeated query sees the same "function"
    without rows being kept.  The pool holds only the shared memo's current
    row and the mean of each row drawn, which ``mean_value`` and
    ``recorded_means`` return: a float64 array indexed by example id, NaN
    where no row was drawn, grown by doubling.
    """

    def __init__(self, size: int, seed: int):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.seed = seed
        self.output_bound = 1.0
        self._means = np.full(64, np.nan)

    def __len__(self) -> int:
        return self.size

    def _evaluate(self, x: Example) -> np.ndarray:
        if x.eid < 0:
            raise ValueError("lower-bound pool requires examples with an id")
        if x.label is None:
            raise ValueError("lower-bound pool requires labeled examples")
        rng = seeded_rng(self.seed, "lbpool", x.eid)
        draws = rng.random(self.size) < x.label
        while x.eid >= len(self._means):
            self._means = np.concatenate((self._means, np.full(len(self._means), np.nan)))
        self._means[x.eid] = np.count_nonzero(draws) / self.size
        return draws.astype(np.float64)

    def recorded_means(self, eids: np.ndarray) -> np.ndarray:
        """The mean of each example id's row; NaN where that row was never drawn."""
        m = self._means
        out = np.full(len(eids), math.nan)
        drawn = (eids >= 0) & (eids < len(m))
        out[drawn] = m[eids[drawn]]
        return out

    def mean_value(self, x: Example) -> float:
        """Value of the uniform average of all pool members at ``x``."""
        m = self._means[x.eid] if 0 <= x.eid < len(self._means) else math.nan
        if math.isnan(m):  # no row drawn yet
            self.values(x)
            m = self._means[x.eid]
        return float(m)


def make_lower_bound_pool(stages: int, seed: int, pool_scale: float = 1.0 / 4000.0) -> LowerBoundPool:
    """Pool of M = stages / pool_scale label-coin functions."""
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if not (0 < pool_scale <= 1):
        raise ValueError(f"pool_scale must lie in (0, 1], got {pool_scale}")
    size = int(round(stages / pool_scale))
    return LowerBoundPool(size, seed)


# ---------------------------------------------------------------------------
# concrete learners


class OnlineGradientLearner:
    """Projected online gradient descent over sparse linear regressors.

    Weights live in the ball ||w|| <= output_bound; the step size is
    lr_scale * D / (G sqrt(t)) with G the largest feature norm observed.
    Predictions are clipped to the output ball, which is a no-op whenever
    feature vectors have norm at most 1.
    """

    deterministic = True

    def __init__(self, output_bound: float = 1.0, lr_scale: float = 1.0):
        self.output_bound = output_bound
        self.lr_scale = lr_scale
        self.w: dict[int, float] = {}
        self._norm2 = 0.0
        self._gmax = 1e-12
        self._t = 0

    def predict(self, x: Example) -> float:
        w = self.w
        s = 0.0
        for k, v in x.features.items():
            wk = w.get(k)
            if wk is not None:
                s += wk * v
        D = self.output_bound
        if s > D:
            return D
        if s < -D:
            return -D
        return s

    def update(self, x: Example, fb) -> None:
        g = _check_feedback(fb)
        self._t += 1
        xnorm2 = 0.0
        for v in x.features.values():
            xnorm2 += v * v
        xnorm = math.sqrt(xnorm2)
        if xnorm > self._gmax:
            self._gmax = xnorm
        if g == 0.0 or xnorm == 0.0:
            return
        step = self.lr_scale * self.output_bound / (self._gmax * math.sqrt(self._t))
        w = self.w
        norm2 = self._norm2
        gg = step * g
        for k, v in x.features.items():
            old = w.get(k, 0.0)
            new = old - gg * v
            w[k] = new
            norm2 += new * new - old * old
        D = self.output_bound
        if norm2 > D * D:
            scale = D / math.sqrt(norm2)
            for k in w:
                w[k] *= scale
            norm2 = D * D
        self._norm2 = norm2


class StumpLearner:
    """Regression stumps: scalar gradient descent on each feature.

    Prediction uses the present feature with the lowest cumulative linear
    loss so far (ties to the lowest feature id); with no features present
    the prediction is 0.  Each present feature takes its own projected
    gradient step on every update.  The state is four dicts keyed by
    feature id: weight ``w``, cumulative linear loss ``cum_loss``, step
    count ``steps`` and ``vmax``, the largest absolute value seen (1e-12
    until a larger one is).
    """

    deterministic = True

    def __init__(self, output_bound: float = 1.0, lr_scale: float = 1.0):
        self.output_bound = output_bound
        self.lr_scale = lr_scale
        self.w: dict[int, float] = {}
        self.cum_loss: dict[int, float] = {}
        self.steps: dict[int, int] = {}
        self.vmax: dict[int, float] = {}

    def predict(self, x: Example) -> float:
        feats = x.features
        if not feats:
            return 0.0
        cum = self.cum_loss
        best = None
        best_loss = math.inf
        for k in feats:
            c = cum.get(k, 0.0)
            if c < best_loss or (c == best_loss and (best is None or k < best)):
                best_loss = c
                best = k
        wk = self.w.get(best)
        s = wk * feats[best] if wk is not None else 0.0
        D = self.output_bound
        if s > D:
            return D
        if s < -D:
            return -D
        return s

    def update(self, x: Example, fb) -> None:
        g = _check_feedback(fb)
        D = self.output_bound
        step_scale = self.lr_scale * D
        w, cum, steps, vmax = self.w, self.cum_loss, self.steps, self.vmax
        sqrt = math.sqrt
        for k, v in x.features.items():
            wk = w.get(k, 0.0)
            pred = wk * v
            if pred > D:
                pred = D
            elif pred < -D:
                pred = -D
            cum[k] = cum.get(k, 0.0) + g * pred
            t = steps[k] = steps.get(k, 0) + 1
            gm = vmax.get(k, 1e-12)
            a = v if v >= 0.0 else -v
            if a > gm:
                gm = vmax[k] = a
            new = wk - (step_scale / (gm * sqrt(t))) * g * v
            # per-feature weight ball keeps |w_k * v| <= D for |v| <= G_k
            cap = D / gm
            if new > cap:
                new = cap
            elif new < -cap:
                new = -cap
            w[k] = new


class _SlotCommittee:
    """N copies of a per-feature learner that see the same examples, run as one learner.

    ``predict`` returns the N stage predictions and ``update`` takes the N
    stage feedbacks; both equal those of independent copies bit for bit.
    Per-feature state lives in dense arrays with one row per feature seen,
    indexed by the feature-id -> slot dict ``slots``.  ``_STATE`` names each
    array with the value of a fresh row and whether the row holds one value
    per stage (a (slots x N) array) or one shared by all stages.  Rows grow
    by doubling, so a round costs a fixed number of numpy operations however
    many features are present.

    A round reads the example's ``ids`` and ``values`` arrays, never its
    feature dict, so a row of ``bench.ExampleColumns`` is used as it is
    stored.  ``predict`` keeps what it gathered for its example (the rows,
    the values and a copy of the state rows it reads), and an ``update`` on
    the same example object reuses it instead of gathering again.
    """

    deterministic = True
    _STATE: dict[str, tuple[float, bool]] = {}
    _memo: tuple | None = None  # what the last predict gathered

    def __init__(self, n: int, output_bound: float = 1.0, lr_scale: float = 1.0):
        if n < 1:
            raise ValueError("committee size must be >= 1")
        self.n = n
        self.output_bound = output_bound
        self.lr_scale = lr_scale
        self.slots: dict[int, int] = {}
        self._capacity = 8
        for name, (fill, per_stage) in self._STATE.items():
            setattr(self, name, np.full((8, n) if per_stage else 8, fill))

    def __len__(self) -> int:
        return self.n

    def _gather(self, x: Example) -> tuple:
        """(x, the rows of its features, their values as an array, the state rows read)."""
        raise NotImplementedError

    def _recall(self, x: Example) -> tuple:
        """What the last ``predict`` gathered, if it saw ``x``; else gathered now."""
        memo, self._memo = self._memo, None  # an update changes the state rows
        return memo if memo is not None and memo[0] is x else self._gather(x)

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        """The slot rows of these feature ids; an id not seen before gets a new row."""
        keys = ids.tolist()
        try:
            return np.fromiter(map(self.slots.__getitem__, keys), np.intp, len(keys))
        except KeyError:
            for k in keys:
                if k not in self.slots:
                    self._add(k)
            return self._rows(ids)

    def _add(self, k: int) -> int:
        s = self.slots[k] = len(self.slots)
        if s == self._capacity:
            self._capacity *= 2
            for name, (fill, _) in self._STATE.items():
                a = getattr(self, name)
                setattr(self, name, np.concatenate((a, np.full_like(a, fill))))
        return s


class StumpCommittee(_SlotCommittee):
    """N ``StumpLearner`` copies run as one learner.

    The copies share each feature's step count and value range, so those
    are per-slot vectors, while weights and cumulative losses are dense
    (slots x N) arrays.
    """

    _STATE = {"w": (0.0, True), "cum": (0.0, True), "steps": (0.0, False),
              "vmax": (1e-12, False)}

    def __init__(self, n: int, output_bound: float = 1.0, lr_scale: float = 1.0):
        super().__init__(n, output_bound, lr_scale)
        self._cols = np.arange(n)

    def _gather(self, x):
        order = x.ids.argsort()  # rows by ascending id: argmin ties go to the lowest id
        rows = self._rows(x.ids).take(order)
        return x, rows, x.values.take(order), self.cum.take(rows, 0)

    def predict(self, x: Example) -> list[float]:
        if not len(x.ids):
            return [0.0] * self.n
        self._memo = _, rows, v, cum = self._gather(x)
        choice = cum.argmin(axis=0)
        raw = self.w[rows[choice], self._cols] * v[choice]
        D = self.output_bound
        return np.minimum(np.maximum(raw, -D), D).tolist()

    def update(self, x: Example, fb) -> None:
        g = _feedback_vector(fb, self.n)
        if not len(x.ids):
            return
        # StumpLearner.update's operations in its order, so results match bit for bit
        # (each feature's row is updated on its own, so the row order does not matter)
        _, rows, v, cum = self._recall(x)
        t = self.steps.take(rows) + 1.0
        self.steps[rows] = t
        gm = np.maximum(self.vmax.take(rows), np.abs(v))
        self.vmax[rows] = gm
        v, gm = v[:, None], gm[:, None]
        D = self.output_bound
        w = self.w.take(rows, 0)
        pred = w * v
        np.maximum(pred, -D, out=pred)
        np.minimum(pred, D, out=pred)
        pred *= g
        self.cum[rows] = cum + pred
        w -= ((self.lr_scale * D / (gm * np.sqrt(t)[:, None])) * g) * v
        # per-feature weight ball keeps |w_k * v| <= D for |v| <= G_k
        cap = D / gm
        np.maximum(w, -cap, out=w)
        np.minimum(w, cap, out=w)
        self.w[rows] = w


def stump_committee(n: int, output_bound: float = 1.0, lr_scale: float = 1.0) -> StumpCommittee:
    """Build a committee of n stump copies with dense shared state."""
    return StumpCommittee(n, output_bound, lr_scale)


class OGDCommittee(_SlotCommittee):
    """N ``OnlineGradientLearner`` copies run as one learner.

    Weights are a dense (slots x N) array and each copy's squared weight
    norm is an N-vector.  Every copy sees the same x, so the step count,
    the largest feature norm and ||x|| are single scalars.
    """

    _STATE = {"w": (0.0, True)}

    def __init__(self, n: int, output_bound: float = 1.0, lr_scale: float = 1.0):
        super().__init__(n, output_bound, lr_scale)
        self.norm2 = np.zeros(n)
        self._gmax = 1e-12
        self._t = 0

    def _gather(self, x):
        rows = self._rows(x.ids)  # may grow self.w, so before reading it
        return x, rows, x.values, self.w.take(rows, 0)

    def predict(self, x: Example) -> list[float]:
        if not len(x.ids):
            return [0.0] * self.n
        self._memo = _, _, v, w = self._gather(x)
        prods = w * v[:, None]
        # a running sum down the rows adds in the dict loop's order (sum() may pair terms)
        s = np.add.accumulate(prods, axis=0, out=prods)[-1]
        s += 0.0  # the loop starts from +0.0, so a sum of -0.0 terms reads +0.0
        D = self.output_bound
        return np.minimum(np.maximum(s, -D), D).tolist()

    def update(self, x: Example, fb) -> None:
        g = _feedback_vector(fb, self.n)
        self._t += 1
        if not len(x.ids):
            return
        # OnlineGradientLearner.update's operations in its order, so results match bit for bit
        _, rows, v, old = self._recall(x)
        xnorm = math.sqrt(np.add.accumulate(v * v)[-1])
        if xnorm > self._gmax:
            self._gmax = xnorm
        if xnorm == 0.0:
            return
        D = self.output_bound
        step = self.lr_scale * D / (self._gmax * math.sqrt(self._t))
        # a stage with zero feedback keeps its weights and adds exactly 0 to its norm
        new = old - (step * g) * v[:, None]
        self.w[rows] = new
        d = new * new - old * old
        d[0] += self.norm2
        norm2 = np.add.accumulate(d, axis=0, out=d)[-1]
        DD = D * D
        if (norm2 > DD).any():
            # sqrt(D * D) is D exactly in binary floating point, so the stages inside
            # the ball scale by exactly 1.0 and one multiply projects the others
            self.w *= D / np.sqrt(np.maximum(norm2, DD))
            np.minimum(norm2, DD, out=norm2)
        self.norm2 = norm2


def ogd_committee(n: int, output_bound: float = 1.0, lr_scale: float = 1.0) -> OGDCommittee:
    """Build a committee of n online gradient descent copies with dense shared state."""
    return OGDCommittee(n, output_bound, lr_scale)


def _hedge_rate(pool_size: int, horizon: int) -> float:
    return math.sqrt(8.0 * math.log(max(pool_size, 2)) / max(horizon, 1))


class _HedgeSchedule:
    """Learning rate of multiplicative weights over m arms.

    A known horizon T fixes the rate at ``_hedge_rate(m, T)``.  Without one,
    the doubling schedule runs epochs of 16, 32, 64, ... updates, each at
    ``_hedge_rate(m, epoch length)`` and from uniform weights.
    """

    def __init__(self, m: int, horizon: int | None):
        self.m = m
        self.doubling = horizon is None
        self.epoch = 16 if horizon is None else horizon
        self.t = 0
        self.rate = _hedge_rate(m, self.epoch)

    def step(self) -> bool:
        """Count one update; True when it ends an epoch and the weights restart."""
        if not self.doubling:
            return False
        self.t += 1
        if self.t < self.epoch:
            return False
        self.epoch *= 2
        self.t = 0
        self.rate = _hedge_rate(self.m, self.epoch)
        return True


class HedgeCommittee:
    """N multiplicative-weights learners over one finite function pool.

    All N stages see the same pool values each round, so their weights are
    the rows of one (N x M) matrix.  mode="average" (default) predicts each
    row's weighted average of the pool values; mode="sample" draws one pool
    member per row, which is the behavior the adversarial lower-bound stream
    is built against.  After the round's loss is observed, member j of row i
    is multiplied by exp(-rate * g_i f_j(x) / D), with the values normalized
    to [-1, 1] by the output bound D, and the row renormalized.  With a known
    horizon T the rate is sqrt(8 ln M / T); without one, the doubling
    schedule of ``_HedgeSchedule`` restarts every row at the end of each
    epoch.
    """

    def __init__(self, pool: FunctionPool, n: int, horizon: int | None = None,
                 mode: str = "average", seed: int = 0):
        if mode not in ("average", "sample"):
            raise ValueError(f"unknown hedge mode {mode!r}")
        if n < 1:
            raise ValueError("committee size must be >= 1")
        self.pool = pool
        self.mode = mode
        self.deterministic = mode == "average"
        self.output_bound = pool.output_bound
        self.schedule = _HedgeSchedule(len(pool), horizon)
        self.weights = np.full((n, len(pool)), 1.0 / len(pool))
        self._rng = seeded_rng(seed, "hedgebank") if mode == "sample" else None

    def __len__(self) -> int:
        return len(self.weights)

    def predict(self, x: Example) -> list[float]:
        vals = self.pool.values(x)
        w = self.weights
        if self.mode == "average":
            return (w @ vals).tolist()
        cdf = np.cumsum(w, axis=1)
        r = self._rng.random(len(w)) * cdf[:, -1]
        idx = np.minimum((cdf < r[:, None]).sum(axis=1), len(vals) - 1)
        return vals[idx].tolist()

    def update(self, x: Example, fb) -> None:
        g = _feedback_vector(fb, len(self.weights))
        w = self.weights
        # the product np.outer forms, exponentiated in place; with |g| <= 1 and
        # pool values within D each exponent is at most the rate in size, so
        # every row keeps a positive finite total
        e = (-(self.schedule.rate / self.output_bound) * g)[:, None] * self.pool.values(x)
        w *= np.exp(e, out=e)
        if self.schedule.step():
            w[:] = 1.0 / w.shape[1]
        else:
            w /= w.sum(axis=1, keepdims=True)


def hedge_committee(pool: FunctionPool, n: int, horizon: int | None = None,
                    mode: str = "average", seed: int = 0) -> HedgeCommittee:
    """Build a committee of n Hedge stages over one pool.

    Without a horizon the stages run the doubling schedule.
    """
    return HedgeCommittee(pool, n, horizon, mode, seed)


class SymmetrizedCommittee:
    """N Hedge mixtures of a stage, its negation-trained twin and zero.

    ``pos`` and ``twin`` are two fresh committees of N stages built the same
    way.  Stage i of ``pos`` learns from the feedback g_i and stage i of the
    twin from -g_i, entering the mixture negated, so with the zero arm each
    mixture competes with the comparators, their negations and zero.  The N
    mixtures are the rows of one (N x 3) array, updated after the round's
    loss is observed under one ``_HedgeSchedule``, as all stages step
    together.
    """

    def __init__(self, pos, twin, horizon: int | None = None):
        if len(pos) != len(twin):
            raise ValueError(f"twin committee has {len(twin)} stages, expected {len(pos)}")
        self.pos = pos
        self.twin = twin
        self.output_bound = pos.output_bound
        self.deterministic = getattr(pos, "deterministic", False)
        self.mix = np.full((len(pos), 3), 1.0 / 3.0)
        self.schedule = _HedgeSchedule(3, horizon)
        self._last: tuple | None = None  # (example, arms) of the last predict

    def __len__(self) -> int:
        return len(self.mix)

    def arm_outputs(self, x: Example) -> tuple[np.ndarray, np.ndarray]:
        """The N positive-stage predictions and the N negated twin predictions."""
        return np.array(self.pos.predict(x)), -np.array(self.twin.predict(x))

    def predict(self, x: Example) -> list[float]:
        a_pos, a_neg = arms = self.arm_outputs(x)
        self._last = (x, arms)
        m = self.mix
        return (m[:, 0] * a_pos + m[:, 1] * a_neg + m[:, 2] * 0.0).tolist()

    def update(self, x: Example, fb) -> None:
        g = _feedback_vector(fb, len(self.mix))
        last, self._last = self._last, None
        a_pos, a_neg = last[1] if last is not None and last[0] is x else self.arm_outputs(x)
        # arm losses normalized to [-1, 1] by the output bound
        D = self.output_bound
        losses = np.stack((g * a_pos / D, g * a_neg / D, np.zeros_like(g)), axis=1)
        mix = self.mix
        mix *= np.exp(-self.schedule.rate * losses)
        if self.schedule.step():
            mix[:] = 1.0 / 3.0
        else:
            mix /= (mix[:, 0] + mix[:, 1] + mix[:, 2])[:, None]
        self.pos.update(x, g)
        self.twin.update(x, -g)


def symmetrize(build: Callable[[], object], horizon: int | None = None) -> SymmetrizedCommittee:
    """Symmetrize a committee so each stage also competes with negated comparators.

    ``build()`` must return a fresh committee of N stages, such as
    ``ogd_committee(n)``; its second call builds the negation-trained twin.
    """
    return SymmetrizedCommittee(build(), build(), horizon)


# ---------------------------------------------------------------------------
# greedy fitting (offset interface)


class GreedyFitLearner:
    """N follow-the-leader greedy fitters over one finite function pool.

    Each round stage i gets an offset y'_i and the true loss; row i of the
    (N x M) matrix ``cum`` sums loss(y'_i + alpha * f_j(x)) for each pool
    member j, and stage i predicts with the member of lowest sum (ties to
    the lowest index).  An offset beyond ``offset_bound`` raises before any
    stage is updated; ``greedy_adapter`` fixes alpha and the bound.
    """

    deterministic = True
    greedy_offsets = True
    offset_bound = math.inf

    def __init__(self, pool: FunctionPool, n: int = 1, alpha: float = 0.0):
        if n < 1:
            raise ValueError("committee size must be >= 1")
        if alpha < 0:
            raise ValueError(f"step size alpha must be >= 0, got {alpha}")
        self.pool = pool
        self.alpha = alpha
        self.output_bound = pool.output_bound
        self.cum = np.zeros((n, len(pool)))

    def __len__(self) -> int:
        return len(self.cum)

    def predict(self, x: Example) -> list[float]:
        return self.pool.values(x)[self.cum.argmin(axis=1)].tolist()

    def update(self, x: Example, offsets, loss: LossInstance) -> None:
        offsets = _feedback_vector(offsets, len(self.cum), self.offset_bound, "offset")
        vals = self.pool.values(x)
        self.cum += loss.evaluates(offsets[:, None] + self.alpha * vals)


def greedy_adapter(fitter: GreedyFitLearner, horizon: int, smooth_params: BallParams,
                   offset_bound: float, regret_model: str = "sqrt") -> GreedyFitLearner:
    """Fix a greedy committee's step size and offset bound in advance; returns it.

    The step size alpha is computed from the fitter's regret R(T) = sqrt(T)
    under a regret model:

      regret_model="sqrt":         alpha = sqrt(2 R(T) / (beta' D^2 T))
      regret_model="alpha-linear": alpha = 2 R(T) / (beta' D^2 T)

    where beta' is the loss smoothness on the enlarged ball reached by
    offset + alpha * prediction.
    """
    if regret_model not in ("sqrt", "alpha-linear"):
        raise ValueError(f"unknown regret model {regret_model!r}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    D = fitter.output_bound
    r = math.sqrt(horizon)
    denom = smooth_params.smoothness * D * D * horizon
    if denom <= 0:
        raise ValueError("smoothness, output bound and horizon must be positive")
    fitter.alpha = math.sqrt(2.0 * r / denom) if regret_model == "sqrt" else 2.0 * r / denom
    fitter.offset_bound = offset_bound
    return fitter
