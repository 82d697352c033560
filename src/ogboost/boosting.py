"""Streaming boosters over online linear base learners.

``SpanBooster`` competes with linear combinations of the base class: stage
partial sums are shrunk by per-stage factors tuned online, stepped toward
each stage's prediction and projected onto a working ball whose radius is
solved from the loss family.  ``HullBooster`` competes with convex
combinations: partial sums are convex averages with the classic
conditional-gradient schedule 2/(i+1) and need no shrinkage or projection.

Both boosters split each round into predict (returning the prediction and
a trace of partial sums) and update (consuming the trace), so a harness
can score test-then-train.  Stage feedback is the loss gradient at the
previous partial sum, normalized by the ball Lipschitz constant so every
base learner sees unit-Lipschitz linear losses.

The stages are one committee (see ``ogboost.learners``): a round makes one
committee ``predict`` for all N stage predictions and one ``update`` with
all N feedbacks.  A plain list of linear-feedback learners is wrapped in a
committee that calls them one by one; ``booster.learners`` is then
``[committee]``.  The greedy-offset committee (``GreedyFitLearner``)
predicts without an offset, so it runs through the same round; its update
takes the round's partial sums y^0 .. y^{N-1} as offsets, plus the true
loss, in place of the feedbacks.  A booster finds out from its committee's
``greedy_offsets`` marker which update it takes.

A booster keeps what its rounds and the regret-bound evaluators read: the
committee, the span booster's step size and working radius, and the
ball's Lipschitz and smoothness constants.  The loss family, the output
bound and the deterministic mode are read once, by the constructor.

A booster instance owns its learners and is single-threaded; independent
instances may run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Example
from .losses import LossClass, LossInstance, _check_eta


def auto_eta(stages: int) -> float:
    """Default span-booster step size ln(N)/N, floored into [1/N, 1]."""
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if stages == 1:
        return 1.0
    return min(1.0, max(1.0 / stages, math.log(stages) / stages))


@dataclass(slots=True)
class RoundTrace:
    """Partial sums and stage predictions of one predict call."""

    round_id: int
    partial_sums: list  # y^0 .. y^N
    arms: list          # stage predictions A^i(x)


class _LearnerList:
    """Committee protocol over independent linear-feedback stage learners, called one by one."""

    def __init__(self, learners: list):
        if not learners:
            raise ValueError("need at least one base learner")
        if any(getattr(lrn, "greedy_offsets", False) for lrn in learners):
            raise ValueError("greedy stages run as one committee, GreedyFitLearner(pool, n)")
        self.learners = learners
        self.deterministic = all(getattr(lrn, "deterministic", False) for lrn in learners)

    def __len__(self) -> int:
        return len(self.learners)

    def predict(self, x: Example) -> list:
        return [lrn.predict(x) for lrn in self.learners]

    def update(self, x: Example, feedbacks: list) -> None:
        for lrn, g in zip(self.learners, feedbacks):
            lrn.update(x, g)


class _BoosterBase:
    def __init__(self, learners):
        committee = learners
        if isinstance(learners, (list, tuple)):
            committee = _LearnerList(list(learners))
        self.stages = len(committee)
        self.greedy_offsets = getattr(committee, "greedy_offsets", False)
        self.learners = [committee]  # one committee, called once per round
        self.round = 0
        self._pending: int | None = None

    def _open_round(self) -> int:
        if self._pending is not None:
            raise RuntimeError("predict called with a pending update (round protocol)")
        self._pending = self.round
        return self.round

    def _consume_trace(self, trace: RoundTrace) -> None:
        if self._pending is None:
            raise RuntimeError("update called without a pending prediction")
        if trace is None or trace.round_id != self._pending:
            raise RuntimeError("update called with a stale or missing round trace")
        self._pending = None
        self.round += 1

    def _update_learners(self, x: Example, sums: list, loss: LossInstance,
                         feedbacks: list) -> None:
        if self.greedy_offsets:
            self.learners[0].update(x, sums[:-1], loss)
        else:
            self.learners[0].update(x, feedbacks)


class SpanBooster(_BoosterBase):
    """Boosting for the linear span of the base class.

    Per round, with stage shrinkage s_i in [0, 1] and step size eta:

        y^0 = 0
        y^i = project( (1 - s_i * eta) * y^{i-1} + eta * A^i(x) )

    Updates pass each stage the normalized gradient at its input partial
    sum and move s_i by online gradient descent on the alignment
    gradient * y^{i-1}, clipped back to [0, 1].

    ``deterministic_mode`` (the CLI's --corollary-mode) sets the working
    radius to eta*N*D, which makes the projection vacuous on reachable
    states and is valid for deterministic base learners with any convex
    loss family.
    """

    def __init__(self, loss_class: LossClass, learners: list, eta: float | None = None,
                 output_bound: float = 1.0, deterministic_mode: bool = False):
        super().__init__(learners)
        n = self.stages
        self.eta = auto_eta(n) if eta is None else float(eta)
        _check_eta(self.eta, n)
        if deterministic_mode:
            if not all(getattr(c, "deterministic", False) for c in self.learners):
                raise ValueError("deterministic_mode requires deterministic base learners")
            self.radius = self.eta * n * output_bound
        else:
            self.radius = loss_class.solve_ball_radius(self.eta, n, output_bound)
        params = loss_class.ball_params(self.radius)
        if params.lipschitz <= 0:
            raise ValueError("loss family has zero Lipschitz constant on the working ball")
        self.lipschitz = params.lipschitz
        self.smoothness = params.smoothness
        self.shrink = [0.0] * n

    def predict(self, x: Example) -> tuple[float, RoundTrace]:
        rid = self._open_round()
        eta = self.eta
        radius = self.radius
        y = 0.0
        sums = [y]
        arms = self.learners[0].predict(x)
        for s, a in zip(self.shrink, arms):
            y = (1.0 - s * eta) * y + eta * a
            if y > radius:  # project onto the working ball
                y = radius
            elif y < -radius:
                y = -radius
            sums.append(y)
        return y, RoundTrace(rid, sums, arms)

    def update(self, x: Example, trace: RoundTrace, loss: LossInstance) -> list[float]:
        """Advance all stages; returns the per-stage normalized feedback."""
        self._consume_trace(trace)
        lip = self.lipschitz
        alpha = 1.0 / (lip * self.radius * math.sqrt(self.round))  # round already advanced
        sums = trace.partial_sums
        shrink = self.shrink
        grads = [loss.gradient(y) for y in sums[:-1]]
        feedbacks = [grad / lip for grad in grads]
        self._update_learners(x, sums, loss, feedbacks)
        for i, grad in enumerate(grads):
            y_prev = sums[i]
            s = shrink[i] + alpha * (grad * y_prev)
            shrink[i] = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
        return feedbacks


class HullBooster(_BoosterBase):
    """Boosting for the convex hull of the base class.

    Per round:  y^0 = 0,  y^i = (1 - 2/(i+1)) * y^{i-1} + 2/(i+1) * A^i(x).
    The first stage weight is 1, so with a single stage the booster is the
    bare base learner fed the normalized gradient at zero.
    """

    def __init__(self, loss_class: LossClass, learners: list, output_bound: float = 1.0):
        super().__init__(learners)
        params = loss_class.ball_params(output_bound)
        if params.lipschitz <= 0:
            raise ValueError("loss family has zero Lipschitz constant on the output ball")
        self.lipschitz = params.lipschitz
        self.smoothness = params.smoothness
        self.stage_weights = [2.0 / (i + 2) for i in range(self.stages)]  # stage i+1 -> 2/(i+2)

    def predict(self, x: Example) -> tuple[float, RoundTrace]:
        rid = self._open_round()
        y = 0.0
        sums = [y]
        arms = self.learners[0].predict(x)
        for w, a in zip(self.stage_weights, arms):
            y = (1.0 - w) * y + w * a
            sums.append(y)
        return y, RoundTrace(rid, sums, arms)

    def update(self, x: Example, trace: RoundTrace, loss: LossInstance) -> list[float]:
        self._consume_trace(trace)
        lip = self.lipschitz
        sums = trace.partial_sums
        feedbacks = [loss.gradient(y) / lip for y in sums[:-1]]
        self._update_learners(x, sums, loss, feedbacks)
        return feedbacks


class ScaledLearner:
    """Multiplies a base learner's predictions by a factor lambda >= 1.

    The scaled learner competes with the lambda-scaled base class; its
    output bound becomes lambda * D and feedback is forwarded unchanged.
    The owning booster must be constructed with the enlarged output bound
    (its radius solver then works on the scaled ball).  A wrapped stage
    committee scales each of its N predictions.
    """

    def __init__(self, inner, scale: float):
        if scale < 1.0:
            raise ValueError(f"scaling factor must be >= 1, got {scale}")
        self.inner = inner
        self.scale = scale
        self.output_bound = scale * inner.output_bound
        self.deterministic = getattr(inner, "deterministic", False)

    def __len__(self) -> int:
        return len(self.inner)

    def predict(self, x: Example):
        p = self.inner.predict(x)
        if type(p) is list:  # a committee's N stage predictions
            return [self.scale * a for a in p]
        return self.scale * p

    def update(self, x: Example, fb) -> None:
        self.inner.update(x, fb)


def scale_wrap(learner, scale: float) -> ScaledLearner:
    """Scale a base learner's predictions by a factor >= 1."""
    return ScaledLearner(learner, scale)

