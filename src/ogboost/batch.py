"""Batch greedy stagewise fitting over a finite dictionary.

Minimizes the squared-loss batch functional ell(f) = (1/2m) sum_j (f(x_j) - y_j)^2
over the span of a finite, symmetric dictionary (closed under negation,
containing zero).  ``greedy_step`` takes one step of either rule:

* ungated:  f_i = f_{i-1} + eta_i * g_i
* gated:    f_i = (1 - sigma_i * eta_i) * f_{i-1} + eta_i * g_i,
            sigma_i = 1 iff grad(f_{i-1}) . f_{i-1} >= 0

where g_i is the exact dictionary argmin of ell(f_{i-1} + eta_i * g).
The gate shrinks the iterate multiplicatively whenever it is anti-aligned
with the descent direction, which turns the ungated rule's harmonic
error decay into a geometric one; the span booster's per-stage shrinkage
s_i is its online form.  ``run_batch`` sums the step sizes, and traces the
optimization error against a planted comparator together with both
theoretical bound curves.

Functions are represented by their value vectors on the batch points; the
function-space norm is the RMS over the batch, under which the squared
pointwise loss is exactly 1-smooth.

Everything here is pure batch computation and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class FunctionDictionary:
    """Finite symmetric dictionary of batch-value vectors.

    ``atoms`` has one row per base function; rows are their values on the
    m batch points.  The stored dictionary is the closure {0} u {+-atom},
    with every row's RMS norm at most 1 (validated).
    """

    def __init__(self, atoms: np.ndarray):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError("atoms must be a nonempty 2-d array [n_atoms, m]")
        m = atoms.shape[1]
        rms = np.sqrt((atoms**2).mean(axis=1))
        if np.any(rms > 1.0 + 1e-9):
            raise ValueError(f"atom RMS norms must be <= 1, max is {rms.max():.6g}")
        self.rows = np.vstack([np.zeros((1, m)), atoms, -atoms])

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def n_points(self) -> int:
        return self.rows.shape[1]


@dataclass
class BatchObjective:
    """Squared-loss functional ell(f) = (1/2m) sum_j (f_j - y_j)^2 on a fixed batch."""

    labels: np.ndarray
    smoothness = 1.0  # squared loss is 1-smooth under the RMS norm

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=float)

    def value(self, f_values: np.ndarray) -> float:
        d = f_values - self.labels
        return 0.5 * float(d @ d) / len(self.labels)

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        """Functional value for each row of candidate value vectors."""
        d = rows - self.labels
        return 0.5 * np.einsum("ij,ij->i", d, d) / len(self.labels)

    def grad_pairing(self, f_values: np.ndarray, g_values: np.ndarray) -> float:
        """Functional inner product grad(f) . g = (1/m) sum_j ell_j'(f_j) g_j."""
        return float((f_values - self.labels) @ g_values) / len(self.labels)


def base_argmin(objective: BatchObjective, dictionary: FunctionDictionary,
                f_values: np.ndarray, eta: float) -> int:
    """Exact dictionary argmin of ell(f + eta * g), ties to the lowest index."""
    candidates = f_values[None, :] + eta * dictionary.rows
    vals = objective.value_rows(candidates)
    return int(np.argmin(vals))


def greedy_step(objective: BatchObjective, dictionary: FunctionDictionary,
                f_values: np.ndarray, eta: float, gated: bool) -> np.ndarray:
    """The iterate's values after one greedy step of size eta, gated or not.

    sigma is 1 only for the gated rule and only when grad(f) . f >= 0, so the
    ungated step keeps f whole: its factor 1 - 0 * eta is exactly 1.
    """
    top = 1.0 if gated else math.inf  # the gate's factor 1 - eta must stay in [0, 1]
    if not 0.0 <= eta <= top:
        raise ValueError(f"step size must lie in [0, {top}], got {eta}")
    j = base_argmin(objective, dictionary, f_values, eta)
    sigma = 1.0 if gated and objective.grad_pairing(f_values, f_values) >= 0.0 else 0.0
    return (1.0 - sigma * eta) * f_values + eta * dictionary.rows[j]


def bound_ungated(delta0: float, s: np.ndarray, etas: np.ndarray, norm1: float,
                  smoothness: float) -> np.ndarray:
    """Error-bound curve for the ungated rule, evaluated at every stage.

    bound_N = (s_0 + W)/(s_N + W) * delta0
              + sum_i (s_i + W)/(s_N + W) * (beta/2) * eta_i^2
    """
    out = np.empty(len(etas))
    w = norm1
    for n in range(1, len(etas) + 1):
        lead = (s[0] + w) / (s[n] + w) * delta0
        tail = float(np.sum((s[1 : n + 1] + w) / (s[n] + w) * 0.5 * smoothness * etas[:n] ** 2))
        out[n - 1] = lead + tail
    return out


def bound_gated(delta0: float, s: np.ndarray, etas: np.ndarray, norm1: float,
                smoothness: float) -> np.ndarray:
    """Error-bound curve for the gated rule, evaluated at every stage.

    bound_N = exp(-(s_N - s_0)/W) * delta0
              + sum_i exp(-(s_N - s_i)/W) * (beta/2) * eta_i^2 * (s_i^2 + 1)
    """
    out = np.empty(len(etas))
    w = norm1
    for n in range(1, len(etas) + 1):
        lead = math.exp(-(s[n] - s[0]) / w) * delta0
        si = s[1 : n + 1]
        tail = float(
            np.sum(np.exp(-(s[n] - si) / w) * 0.5 * smoothness * etas[:n] ** 2 * (si**2 + 1.0))
        )
        out[n - 1] = lead + tail
    return out


def make_planted_batch_problem(n_atoms: int = 8, norm1: float = 2.0, n_points: int = 288,
                               seed: int = 0, magnet_junk: float = 1.2):
    """Planted least-squares dictionary problem with a known comparator.

    The first n_atoms - 1 atoms are orthonormal block indicators carrying
    the target; the last is a "magnet" atom correlated with all of them
    but polluted with an off-target component of relative weight
    ``magnet_junk``.  Greedy fitting loads the magnet early and the
    ungated rule can only unwind the pollution one discrete step at a
    time, while the gate removes it multiplicatively; this separates the
    two variants' convergence without changing the comparator, whose
    coefficients live on the clean atoms only and sum to ``norm1``.

    Returns (objective, dictionary, comparator_values, norm1).
    """
    if n_atoms < 3:
        raise ValueError("need at least 3 atoms")
    n_signal = n_atoms - 1
    blocks = n_signal + 1  # one extra block hosts the off-target direction
    if n_points % blocks:
        n_points += blocks - n_points % blocks
    width = n_points // blocks
    scale = math.sqrt(blocks)  # unit RMS for a one-block indicator

    basis = np.zeros((blocks, n_points))
    for k in range(blocks):
        basis[k, k * width:(k + 1) * width] = scale

    magnet = basis[:n_signal].sum(axis=0) + magnet_junk * basis[n_signal]
    magnet /= math.sqrt(n_signal + magnet_junk**2)

    atoms = np.vstack([basis[:n_signal], magnet[None, :]])
    dictionary = FunctionDictionary(atoms)

    rng = np.random.default_rng(seed)
    raw = 0.5 + rng.random(n_signal)
    weights = raw / raw.sum() * norm1
    comparator_values = weights @ basis[:n_signal]

    objective = BatchObjective(comparator_values.copy())
    return objective, dictionary, comparator_values, norm1


@dataclass
class BatchTrace:
    """Per-stage record of one run: errors, step sums and bound curves."""

    variant: str
    delta0: float
    deltas: np.ndarray
    s: np.ndarray
    bound: np.ndarray

    def first_crossing(self, threshold: float) -> int | None:
        """1-based stage at which the error first drops below threshold."""
        idx = np.nonzero(self.deltas < threshold)[0]
        return int(idx[0]) + 1 if len(idx) else None


def run_batch(objective: BatchObjective, dictionary: FunctionDictionary,
              comparator_values: np.ndarray, norm1: float,
              schedule, variant: str = "gated") -> BatchTrace:
    """Run one variant over a step schedule, tracing errors and bounds.

    ``comparator_values`` are the planted comparator's values on the batch
    points and ``norm1`` its declared 1-norm; the optimization error at
    stage i is ell(f_i) - ell(comparator).  ``variant`` is "ungated" or
    "gated".  The iterate starts at f_0 = 0 with step sum s_0 = 1, and
    s_i = s_{i-1} + eta_i.
    """
    if variant not in ("ungated", "gated"):
        raise ValueError(f"unknown variant {variant!r} (choose ungated or gated)")
    gated = variant == "gated"
    etas = np.asarray(list(schedule), dtype=float)
    comp_loss = objective.value(np.asarray(comparator_values, dtype=float))

    f = np.zeros(dictionary.n_points)
    delta0 = objective.value(f) - comp_loss
    deltas = np.empty(len(etas))
    s = np.empty(len(etas) + 1)
    s[0] = 1.0
    for i, eta in enumerate(etas.tolist()):
        f = greedy_step(objective, dictionary, f, eta, gated)
        s[i + 1] = s[i] + eta
        deltas[i] = objective.value(f) - comp_loss
    bound = bound_gated if gated else bound_ungated
    return BatchTrace(variant, delta0, deltas, s,
                      bound(delta0, s, etas, norm1, objective.smoothness))
