"""Batch greedy fitting: argmin, step rules, error bounds, separation."""

import numpy as np
import pytest

from ogboost.batch import (
    BatchObjective,
    FunctionDictionary,
    base_argmin,
    bound_gated,
    bound_ungated,
    greedy_step,
    make_planted_batch_problem,
    run_batch,
)


def _orthonormal_problem(weights, n_points=64):
    """Disjoint-block atoms with unit RMS and a planted target."""
    k = len(weights)
    width = n_points // k
    atoms = np.zeros((k, n_points))
    for j in range(k):
        atoms[j, j * width:(j + 1) * width] = np.sqrt(k)
    target = np.asarray(weights) @ atoms
    dic = FunctionDictionary(atoms)
    obj = BatchObjective(target.copy())
    return obj, dic, target


class TestDictionary:
    def test_contains_zero_and_negations(self):
        dic = FunctionDictionary(np.array([[0.5, -0.5], [0.25, 0.25]]))
        assert len(dic) == 5
        np.testing.assert_array_equal(dic.rows[0], 0.0)
        np.testing.assert_array_equal(dic.rows[3], -dic.rows[1])

    def test_rejects_oversized_atoms(self):
        with pytest.raises(ValueError):
            FunctionDictionary(np.array([[2.0, 2.0]]))


class TestBaseArgmin:
    def test_exact_fit_selected(self):
        obj, dic, target = _orthonormal_problem([0.0, 0.0, 0.4, 0.0])
        # target is 0.4 * atom 2; with eta = 0.4 stepping that atom fits it
        j = base_argmin(obj, dic, np.zeros(dic.n_points), 0.4)
        assert j == 3  # rows: [0, atoms..., -atoms...]; atom 2 is row 3

    def test_symmetric_tie_breaks_to_lowest_index(self):
        # target 0: stepping +g and -g give identical losses; 0-atom wins
        obj, dic, _ = _orthonormal_problem([0.0, 0.0])
        assert base_argmin(obj, dic, np.zeros(dic.n_points), 0.1) == 0

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(3)
        atoms = rng.uniform(-0.5, 0.5, size=(8, 40))
        dic = FunctionDictionary(atoms)
        target = rng.uniform(-1, 1, 40)
        obj = BatchObjective(target)
        f = rng.uniform(-0.3, 0.3, 40)
        for eta in (0.05, 0.3):
            j = base_argmin(obj, dic, f, eta)
            # oracle: the definition, evaluated row by row
            vals = [0.5 * float(np.mean((f + eta * row - target) ** 2))
                    for row in dic.rows]
            assert j == int(np.argmin(vals))
            assert vals[j] == pytest.approx(min(vals), abs=1e-15)


class TestSteps:
    def test_zero_step_is_identity(self):
        obj, dic, target = _orthonormal_problem([0.3, 0.2])
        f = np.zeros(dic.n_points)
        out = greedy_step(obj, dic, f, 0.0, False)
        np.testing.assert_array_equal(out, f)
        tr = run_batch(obj, dic, target, 1.0, [0.0], "ungated")
        np.testing.assert_array_equal(tr.s, [1.0, 1.0])  # a zero step leaves s where it was

    def test_never_worse_with_zero_atom(self):
        obj, dic, _ = _orthonormal_problem([0.37, -0.21, 0.11, 0.05])
        f = np.zeros(dic.n_points)
        prev = obj.value(f)
        for i in range(50):
            f = greedy_step(obj, dic, f, 0.1, False)
            cur = obj.value(f)
            assert cur <= prev + 1e-12
            prev = cur

    def test_gated_equals_ungated_at_zero_iterate(self):
        obj, dic, _ = _orthonormal_problem([0.3, 0.2])
        f = np.zeros(dic.n_points)
        a = greedy_step(obj, dic, f, 0.1, False)
        b = greedy_step(obj, dic, f, 0.1, True)
        np.testing.assert_array_equal(a, b)

    def test_gate_closed_when_aligned(self):
        # iterate undershoots the target: grad . f < 0, gate off
        obj, dic, target = _orthonormal_problem([0.4, 0.0])
        f = greedy_step(obj, dic, np.zeros(dic.n_points), 0.1, False)  # 0.1 * atom0, undershoot
        assert obj.grad_pairing(f, f) < 0
        a = greedy_step(obj, dic, f, 0.1, False)
        b = greedy_step(obj, dic, f, 0.1, True)
        np.testing.assert_array_equal(a, b)

    def test_gate_fires_on_overshoot_and_helps(self):
        # f = 2 * target: grad . f = ||target||^2 > 0; shrinking before the
        # step must beat the plain step (closed-form quadratics)
        obj, dic, target = _orthonormal_problem([0.4])
        f2 = 2.0 * target
        assert obj.grad_pairing(f2, f2) > 0
        plain = greedy_step(obj, dic, f2, 0.1, False)
        gated = greedy_step(obj, dic, f2, 0.1, True)
        assert obj.value(gated) < obj.value(plain) - 1e-12

    def test_gate_exactness(self):
        rng = np.random.default_rng(7)
        obj, dic, target = _orthonormal_problem([0.3, -0.2, 0.1])
        for _ in range(50):
            f = rng.uniform(-0.5, 0.5, dic.n_points)
            pairing = obj.grad_pairing(f, f)
            out = greedy_step(obj, dic, f, 0.1, True)
            j = base_argmin(obj, dic, f, 0.1)
            keep = 0.9 if pairing >= 0 else 1.0
            np.testing.assert_allclose(out, keep * f + 0.1 * dic.rows[j], atol=1e-12)

    @pytest.mark.parametrize("eta, gated", [(-0.1, False), (-0.1, True), (1.5, True),
                                            (np.nan, True), (np.nan, False)])
    def test_step_size_out_of_range_rejected(self, eta, gated):
        obj, dic, _ = _orthonormal_problem([0.3, 0.2])
        with pytest.raises(ValueError, match="step size must lie in"):
            greedy_step(obj, dic, np.zeros(dic.n_points), eta, gated)


class TestRunBatch:
    def test_zero_stage_gap(self):
        obj, dic, target = _orthonormal_problem([0.3, 0.1])
        tr = run_batch(obj, dic, target, 1.0, [], "ungated")
        assert tr.delta0 == pytest.approx(obj.value(np.zeros_like(target)), abs=1e-15)
        assert len(tr.deltas) == 0

    def test_s_accumulates_schedule(self):
        obj, dic, target = _orthonormal_problem([0.3, 0.1])
        tr = run_batch(obj, dic, target, 1.0, [0.1, 0.2, 0.3], "gated")
        np.testing.assert_allclose(tr.s, [1.0, 1.1, 1.3, 1.6], atol=1e-15)

    def test_monotone_progress_allowance(self):
        obj, dic, comp, W = make_planted_batch_problem(seed=1)
        tr = run_batch(obj, dic, comp, W, [0.1] * 120, "ungated")
        deltas = np.concatenate(([tr.delta0], tr.deltas))
        for prev, cur, eta in zip(deltas, deltas[1:], [0.1] * 120):
            assert cur <= prev + 0.5 * obj.smoothness * eta**2 + 1e-12

    def test_bounds_hold_per_stage(self):
        obj, dic, comp, W = make_planted_batch_problem(seed=2)
        for variant in ("ungated", "gated"):
            tr = run_batch(obj, dic, comp, W, [0.1] * 150, variant)
            assert np.all(tr.deltas <= tr.bound + 1e-12)

    def test_bound_formulas_recomputed(self):
        # independent recomputation of both curves at a few stages
        delta0 = 0.7
        etas = np.array([0.1, 0.2, 0.1])
        s = np.array([1.0, 1.1, 1.3, 1.4])
        w, beta = 2.0, 1.0
        b7 = bound_ungated(delta0, s, etas, w, beta)
        n = 3
        lead = (s[0] + w) / (s[n] + w) * delta0
        tail = sum((s[i] + w) / (s[n] + w) * 0.5 * beta * etas[i - 1] ** 2
                   for i in range(1, n + 1))
        assert b7[-1] == pytest.approx(lead + tail, abs=1e-12)
        b8 = bound_gated(delta0, s, etas, w, beta)
        lead8 = np.exp(-(s[n] - s[0]) / w) * delta0
        tail8 = sum(np.exp(-(s[n] - s[i]) / w) * 0.5 * beta * etas[i - 1] ** 2
                    * (s[i] ** 2 + 1) for i in range(1, n + 1))
        assert b8[-1] == pytest.approx(lead8 + tail8, abs=1e-12)

    def test_first_crossing(self):
        obj, dic, comp, W = make_planted_batch_problem(seed=2)
        tr = run_batch(obj, dic, comp, W, [0.1] * 60, "gated")
        c = tr.first_crossing(tr.delta0 / 2)
        assert c is not None
        assert tr.deltas[c - 1] < tr.delta0 / 2
        assert np.all(tr.deltas[:c - 1] >= tr.delta0 / 2)

    def test_unknown_variant_rejected(self):
        obj, dic, comp, W = make_planted_batch_problem(seed=2)
        with pytest.raises(ValueError):
            run_batch(obj, dic, comp, W, [0.1], "momentum")
