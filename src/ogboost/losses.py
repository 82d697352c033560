"""Convex loss families with per-ball regularity parameters.

Each family is a set of convex losses of a scalar prediction, indexed by
the round's scalar true label.  For the ball of radius ``b`` (the interval
[-b, b]) the family exposes a Lipschitz constant, a smoothness constant and
a projection-penalty rate, plus a solver for the working ball radius used
by the span booster:

    radius = min(eta * N * D,  inf{ b >= D : eta * beta_b * b^2 >= eps_b * D })

Closed forms are returned where they are exact; otherwise the infimum is
found by bisection (the defining function is monotone for every family
here, and a sampled probe guards that assumption).

Families
--------
linear                 -y* y
p_norm (finite p >= 2) |y* - y|^p
modified_least_squares max(1 - y* y, 0)^2 / 2
logistic               ln(1 + exp(-y* y))
squared                (y - y*)^2 / 2

Labels are normalized to [-1, 1] (or [0, 1] for the squared-loss
adversarial streams); predictions of base functions are bounded by D = 1
in all shipped experiments.  The squared family's projection-penalty rate
max(1 - b, 0) is our own derivation (the rate is approached as a point
just outside the radius-b ball is projected toward a label at the range
edge); the invariant tests probe it directly.

For the classification surrogates (logistic, modified least squares) the
projection-penalty rates are tight for sign labels {-1, +1}, which is how
those families are used; fractional labels keep the Lipschitz and
smoothness constants valid but can exceed the penalty rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("linear", "p_norm", "modified_least_squares", "logistic", "squared")

_BISECT_RTOL = 1e-9
_PROBE_POINTS = 64


def _sigmoid(z: float) -> float:
    # overflow-safe logistic function
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True, slots=True)
class BallParams:
    """Regularity constants of a loss family on the radius-b ball."""

    radius: float
    lipschitz: float
    smoothness: float
    projection_penalty: float


@dataclass(frozen=True, slots=True)
class LossInstance:
    """A single round's loss: family tag plus the round's true label."""

    family: str
    y_star: float
    p: float = 2.0

    def evaluate(self, y: float) -> float:
        f = self.family
        if f == "linear":
            return -self.y_star * y
        if f == "squared":
            d = y - self.y_star
            return 0.5 * d * d
        if f == "p_norm":
            return abs(self.y_star - y) ** self.p
        if f == "modified_least_squares":
            m = max(1.0 - self.y_star * y, 0.0)
            return 0.5 * m * m
        if f == "logistic":
            z = -self.y_star * y
            # log(1 + e^z) without overflow
            return math.log1p(math.exp(z)) if z < 30 else z
        raise ValueError(f"unknown loss family: {f}")

    def evaluates(self, ys: np.ndarray) -> np.ndarray:
        """``evaluate`` at each scalar prediction of a float64 array, bit for bit."""
        f, t = self.family, self.y_star
        if f == "linear":
            return -t * ys
        if f in ("squared", "modified_least_squares"):  # the same operations in the same order
            d = ys - t if f == "squared" else np.maximum(1.0 - t * ys, 0.0)
            return 0.5 * d * d
        # numpy's exp, log1p and power round differently from math's and **
        return np.vectorize(self.evaluate, otypes=[float])(ys)

    def gradient(self, y: float) -> float:
        """The derivative (a subgradient where there is a kink) of the loss at ``y``."""
        f = self.family
        if f == "squared":
            return y - self.y_star
        if f == "linear":
            return -self.y_star
        if f == "p_norm":
            r = self.y_star - y
            n = abs(r)
            if n == 0.0:
                return 0.0
            scale = self.p * n ** (self.p - 2.0)
            return -scale * r
        if f == "modified_least_squares":
            m = 1.0 - self.y_star * y
            return -self.y_star * m if m > 0 else 0.0
        if f == "logistic":
            return -self.y_star * _sigmoid(-self.y_star * y)
        raise ValueError(f"unknown loss family: {f}")


@dataclass(frozen=True, slots=True)
class LossClass:
    """A loss family with fixed parameters for a run.

    ``label_range`` is the normalized range the run's labels occupy; it is
    enforced when per-round instances are created.
    """

    family: str
    p: float = 2.0
    label_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family: {self.family!r} (choose from {FAMILIES})")
        if self.family == "p_norm" and not (math.isfinite(self.p) and self.p >= 2):
            raise ValueError(f"p_norm requires a finite p >= 2, got {self.p}")

    def make(self, y_star: float) -> LossInstance:
        lo, hi = self.label_range
        if not math.isfinite(y_star):
            raise ValueError(f"non-finite label: {y_star!r}")
        if y_star < lo - 1e-12 or y_star > hi + 1e-12:
            raise ValueError(f"label {y_star} outside declared range [{lo}, {hi}]")
        return LossInstance(self.family, float(y_star), self.p)

    # -- per-ball regularity constants ------------------------------------

    def ball_params(self, b: float) -> BallParams:
        if b <= 0:
            raise ValueError(f"ball radius must be positive, got {b}")
        f, p = self.family, self.p
        if f == "linear":
            return BallParams(b, 1.0, 0.0, 1.0)
        if f == "p_norm":
            try:
                lip = p * (b + 1.0) ** (p - 1.0)
                smooth = p * (p - 1.0) * (b + 1.0) ** (p - 2.0)
            except OverflowError:
                raise OverflowError(f"p-norm constants at p = {p:g} overflow a float "
                                    f"on the ball of radius {b:g}") from None
            pen = p * (1.0 - b) ** (p - 1.0) if b < 1.0 else 0.0
            return BallParams(b, lip, smooth, max(pen, 0.0))
        if f == "modified_least_squares":
            return BallParams(b, b + 1.0, 1.0, max(1.0 - b, 0.0))
        if f == "logistic":
            return BallParams(b, _sigmoid(b), 0.25, _sigmoid(-b))
        if f == "squared":
            return BallParams(b, b + 1.0, 1.0, max(1.0 - b, 0.0))
        raise ValueError(f"unknown loss family: {f}")

    # -- working ball radius ----------------------------------------------

    def solve_ball_radius(self, eta: float, stages: int, output_bound: float = 1.0) -> float:
        """Radius of the span booster's working ball.

        Closed forms are used where exact; the logistic closed form
        min(eta*N, ln(4/eta)) is kept as published for D = 1 (it is a valid
        upper bound on the infimum).  All other cases fall back to
        bisection, defaulting to eta*N*D when the defining inequality is
        never satisfied on [D, eta*N*D].
        """
        _check_eta(eta, stages)
        D = output_bound
        if D <= 0:
            raise ValueError(f"output bound must be positive, got {D}")
        cap = eta * stages * D
        f = self.family
        if f == "linear":
            # zero smoothness: the inequality never holds, cap applies
            return cap
        if f in ("p_norm", "modified_least_squares", "squared") and D >= 1.0:
            # projection penalty vanishes at b = D, so the infimum is D
            # (cap = eta*N*D >= D because eta >= 1/N)
            return D
        if f == "logistic" and D == 1.0:
            return min(eta * stages, math.log(4.0 / eta))
        return bisect_ball_radius(self, eta, stages, D)


def _check_eta(eta: float, stages: int) -> None:
    if stages < 1:
        raise ValueError(f"stage count must be >= 1, got {stages}")
    if not (1.0 / stages - 1e-12 <= eta <= 1.0 + 1e-12):
        raise ValueError(f"eta must lie in [1/N, 1] = [{1.0 / stages:.6g}, 1], got {eta}")


def bisect_ball_radius(
    loss_class: LossClass, eta: float, stages: int, output_bound: float = 1.0
) -> float:
    """Bisection solver for the working-ball radius (reference oracle).

    Finds inf{ b >= D : eta*beta_b*b^2 >= eps_b*D } on [D, eta*N*D] to
    relative tolerance 1e-9, returning eta*N*D when the inequality is never
    satisfied there.  A 64-point probe verifies the defining function is
    nondecreasing and raises otherwise.
    """
    _check_eta(eta, stages)
    D = output_bound
    cap = eta * stages * D

    def h(b: float) -> float:  # eta*beta_b*b^2 - eps_b*D, nondecreasing for every family here
        bp = loss_class.ball_params(b)
        return eta * bp.smoothness * b * b - bp.projection_penalty * D

    grid = np.linspace(D, cap, _PROBE_POINTS) if cap > D else np.array([D])
    vals = [h(float(b)) for b in grid]
    for a, b in zip(vals, vals[1:]):
        if b < a - 1e-12 * max(1.0, abs(a)):
            raise ValueError(
                "radius condition is not nondecreasing on [D, eta*N*D]; "
                "bisection is unsound for this loss family"
            )

    if h(D) >= 0.0:
        return D
    if cap <= D or h(cap) < 0.0:
        return cap
    lo, hi = D, cap
    while hi - lo > _BISECT_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def parse_loss_flag(text: str) -> LossClass:
    """CLI loss selector: linear | p-norm:<p> | mls | logistic | squared."""
    text = text.strip().lower()
    if text == "linear":
        return LossClass("linear")
    if text.startswith("p-norm"):
        _, _, ptxt = text.partition(":")
        if not ptxt:
            raise ValueError("p-norm loss needs an exponent, e.g. p-norm:3")
        return LossClass("p_norm", p=float(ptxt))
    if text == "mls":
        return LossClass("modified_least_squares")
    if text == "logistic":
        return LossClass("logistic")
    if text == "squared":
        return LossClass("squared")
    raise ValueError(
        f"unknown loss {text!r} (choose from linear, p-norm:<p>, mls, logistic, squared)"
    )
