"""Loss-family calculus: closed forms, regularity constants, radius solver.

Gradients are checked against central finite differences; the per-ball
constants are probed with random points against their defining
inequalities; the radius solver's closed forms are cross-checked against
the bisection oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ogboost.core import project_to_ball
from ogboost.losses import FAMILIES, LossClass, bisect_ball_radius, parse_loss_flag

ALL_FAMILIES = [
    LossClass("linear"),
    LossClass("p_norm", p=2),
    LossClass("p_norm", p=3),
    LossClass("modified_least_squares"),
    LossClass("logistic"),
    LossClass("squared"),
]


def _fd_gradient(inst, y, h=1e-6):
    return (inst.evaluate(y + h) - inst.evaluate(y - h)) / (2 * h)


class TestClosedForms:
    def test_logistic_value(self):
        inst = LossClass("logistic").make(1.0)
        assert inst.evaluate(0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_pnorm_value(self):
        inst = LossClass("p_norm", p=2).make(1.0)
        assert inst.evaluate(0.0) == 1.0

    def test_mls_flat_region(self):
        inst = LossClass("modified_least_squares").make(1.0)
        assert inst.evaluate(2.0) == 0.0

    def test_squared_gradient(self):
        inst = LossClass("squared").make(0.5)
        assert inst.gradient(0.7) == pytest.approx(0.2, abs=1e-15)

    def test_linear_gradient_constant(self):
        inst = LossClass("linear").make(1.0)
        for y in (-3.0, 0.0, 2.5):
            assert inst.gradient(y) == -1.0

    def test_logistic_gradient(self):
        # analytic: -y* e^{-y* y} / (1 + e^{-y* y}) at y* = 1, y = 0 is -1/2
        inst = LossClass("logistic").make(1.0)
        assert inst.gradient(0.0) == pytest.approx(-0.5, abs=1e-12)


class TestGradientFiniteDifference:
    @pytest.mark.parametrize("lc", ALL_FAMILIES, ids=lambda c: f"{c.family}-p{c.p}")
    def test_matches_central_difference(self, lc):
        rng = np.random.default_rng(5)
        lo, hi = lc.label_range
        for _ in range(100):
            y_star = float(rng.uniform(lo, hi))
            y = float(rng.uniform(-2.0, 2.0))
            if lc.family == "modified_least_squares" and abs(1.0 - y_star * y) < 1e-4:
                continue  # kink of the hinge, subgradient may differ from FD
            inst = lc.make(y_star)
            assert inst.gradient(y) == pytest.approx(_fd_gradient(inst, y), abs=1e-5)


_NEAR_30 = [math.nextafter(30.0, 0.0), 30.0, math.nextafter(30.0, 31.0)]
_PREDICTIONS = st.one_of(
    st.floats(-40.0, 40.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0] + _NEAR_30 + [-z for z in _NEAR_30]))
_LABELS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.0, 0.0, 1.0]))


class TestArrayEvaluation:
    @pytest.mark.parametrize("lc", ALL_FAMILIES, ids=lambda c: f"{c.family}-p{c.p}")
    @given(y_star=_LABELS, ys=arrays(np.float64, array_shapes(max_dims=2, max_side=5),
                                     elements=_PREDICTIONS))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scalar_loss_bit_for_bit(self, lc, y_star, ys):
        inst = lc.make(y_star)
        want = np.array([inst.evaluate(float(y)) for y in ys.flat]).reshape(ys.shape)
        got = inst.evaluates(ys)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert (np.signbit(got) == np.signbit(want)).all()


class TestBallParams:
    def test_published_triples(self):
        p2 = LossClass("p_norm", p=2).ball_params(1.0)
        assert (p2.lipschitz, p2.smoothness, p2.projection_penalty) == (4.0, 2.0, 0.0)
        mls = LossClass("modified_least_squares").ball_params(0.5)
        assert (mls.lipschitz, mls.smoothness, mls.projection_penalty) == (1.5, 1.0, 0.5)
        lin = LossClass("linear").ball_params(7.0)
        assert (lin.lipschitz, lin.smoothness, lin.projection_penalty) == (1.0, 0.0, 1.0)

    def test_lipschitz_nondecreasing_in_radius(self):
        for lc in (LossClass("p_norm", p=3), LossClass("modified_least_squares"),
                   LossClass("logistic")):
            bs = np.linspace(0.1, 5.0, 40)
            ls = [lc.ball_params(float(b)).lipschitz for b in bs]
            assert all(b >= a - 1e-12 for a, b in zip(ls, ls[1:]))

    @pytest.mark.parametrize("lc", ALL_FAMILIES, ids=lambda c: f"{c.family}-p{c.p}")
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_defining_inequalities(self, lc, b):
        rng = np.random.default_rng(17)
        params = lc.ball_params(b)
        lo, hi = lc.label_range
        # the sign-label families' projection-penalty rates are tight for
        # labels in {-1, +1}; Lipschitz and smoothness hold for any label
        sign_labels = lc.family in ("logistic", "modified_least_squares")
        for _ in range(100):
            if sign_labels:
                inst = lc.make(float(rng.choice([-1.0, 1.0])))
            else:
                inst = lc.make(float(rng.uniform(lo, hi)))
            y = float(rng.uniform(-b, b))
            y2 = float(rng.uniform(-b, b))
            # Lipschitz on the ball
            assert abs(inst.gradient(y)) <= params.lipschitz + 1e-9
            # smoothness on the ball
            lhs = inst.evaluate(y2)
            rhs = (inst.evaluate(y) + inst.gradient(y) * (y2 - y)
                   + 0.5 * params.smoothness * (y - y2) ** 2)
            assert lhs <= rhs + 1e-9
            # projection penalty for points outside the ball
            y_out = float(rng.choice([-1.0, 1.0]) * rng.uniform(b * 1.0001, b + 3.0))
            y_proj = project_to_ball(y_out, b)
            gap = abs(y_proj - y_out)
            assert (inst.evaluate(y_proj) - inst.evaluate(y_out)
                    <= params.projection_penalty * gap + 1e-9)


class TestRadiusSolver:
    def test_published_values(self):
        assert LossClass("logistic").solve_ball_radius(0.1, 100, 1.0) == pytest.approx(
            math.log(40.0), abs=1e-12)
        assert LossClass("linear").solve_ball_radius(0.5, 10, 1.0) == 5.0
        assert LossClass("modified_least_squares").solve_ball_radius(0.2, 20, 1.0) == 1.0
        assert LossClass("p_norm", p=2).solve_ball_radius(0.2, 20, 1.0) == 1.0

    def test_mls_closed_form_matches_bisection(self):
        lc = LossClass("modified_least_squares")
        assert bisect_ball_radius(lc, 0.2, 20, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            LossClass("squared").solve_ball_radius(2.0, 10, 1.0)
        with pytest.raises(ValueError):
            LossClass("squared").solve_ball_radius(0.01, 10, 1.0)

    def test_rejects_nonpositive_radius_or_bound(self):
        with pytest.raises(ValueError):
            LossClass("squared").ball_params(0.0)
        with pytest.raises(ValueError):
            LossClass("squared").solve_ball_radius(0.5, 10, -1.0)

    def test_bisection_matches_closed_forms_on_grid(self):
        # exact closed forms: linear (cap), p-norm / mls / squared (radius D)
        grid = [(0.5, 4), (0.25, 8), (0.125, 16), (1.0, 3)]
        for eta, n in grid:
            for lc in (LossClass("linear"), LossClass("p_norm", p=2),
                       LossClass("p_norm", p=3), LossClass("modified_least_squares"),
                       LossClass("squared")):
                closed = lc.solve_ball_radius(eta, n, 1.0)
                oracle = bisect_ball_radius(lc, eta, n, 1.0)
                assert closed == pytest.approx(oracle, rel=1e-6), (lc.family, eta, n)

    def test_logistic_closed_form_on_reduced_condition_grid(self):
        # The published logistic radius min(eta*N, ln(4/eta)) comes from the
        # sufficient condition eta/4 >= e^{-b} (penalty upper bound e^{-b},
        # b^2 >= 1 on b >= 1); bisecting that condition recovers it exactly.
        lc = LossClass("logistic")
        for eta, n in [(0.5, 4), (0.25, 8), (0.125, 16), (0.04, 25), (1.0, 3)]:
            cap = eta * n
            lo, hi = 1.0, cap
            if 0.25 * eta - math.exp(-hi) < 0:
                reduced = cap  # never satisfied on [1, eta*N]
            elif 0.25 * eta - math.exp(-lo) >= 0:
                reduced = lo
            else:
                while hi - lo > 1e-12 * hi:
                    mid = 0.5 * (lo + hi)
                    if 0.25 * eta - math.exp(-mid) >= 0:
                        hi = mid
                    else:
                        lo = mid
                reduced = hi
            assert lc.solve_ball_radius(eta, n, 1.0) == pytest.approx(
                min(cap, reduced), rel=1e-6)

    def test_logistic_exact_infimum_is_no_larger(self):
        # the raw-inequality infimum is a tighter valid radius than the
        # published closed form
        lc = LossClass("logistic")
        for eta, n in [(0.1, 100), (0.25, 8), (0.04, 25)]:
            assert bisect_ball_radius(lc, eta, n, 1.0) <= lc.solve_ball_radius(eta, n, 1.0) + 1e-9


class TestLossFlagParsing:
    def test_flags(self):
        assert parse_loss_flag("mls").family == "modified_least_squares"
        assert parse_loss_flag("p-norm:3").p == 3.0
        assert parse_loss_flag("squared").family == "squared"

    def test_bad_flag(self):
        with pytest.raises(ValueError):
            parse_loss_flag("huber")
        with pytest.raises(ValueError):
            parse_loss_flag("p-norm")

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            LossClass("squared").make(1.5)
        with pytest.raises(ValueError):
            LossClass("squared", label_range=(0.0, 1.0)).make(-0.1)

    def test_vector_label_validation(self):
        # labels are scalars: every family refuses a label vector
        for family in FAMILIES:
            with pytest.raises(TypeError):
                LossClass(family).make(np.array([0.5, 0.5]))
