"""Boosters: stage recurrences, round protocol, invariants, wrappers."""

import math
import re

import numpy as np
import pytest

from ogboost.core import Example
from ogboost.losses import LossClass
from ogboost.learners import (
    FunctionPool,
    GreedyFitLearner,
    OnlineGradientLearner,
    StumpLearner,
    greedy_adapter,
    hedge_committee,
    ogd_committee,
    stump_committee,
)
from ogboost.boosting import HullBooster, SpanBooster, auto_eta, scale_wrap
from ogboost.bench import (
    Stream,
    make_additive_stream,
    make_region_pool,
    planted_span_stream,
    progressive_validate,
)

from committee_helpers import OneStage


class ConstLearner:
    """Fixed-output learner for recurrence unit tests."""

    deterministic = True

    def __init__(self, value, output_bound=10.0):
        self.value = value
        self.output_bound = output_bound
        self.feedbacks = []

    def predict(self, x):
        return self.value

    def update(self, x, fb):
        self.feedbacks.append(fb)


def _ex(eid=0):
    return Example({0: 1.0}, 0.5, eid)


SQ = LossClass("squared")


class TestSpanRecurrence:
    def test_single_stage_full_step(self):
        b = SpanBooster(SQ, [ConstLearner(0.7)], eta=1.0, deterministic_mode=True)
        y, _ = b.predict(_ex())
        assert y == pytest.approx(0.7, abs=1e-15)

    def test_zero_arms_predict_zero(self):
        b = SpanBooster(SQ, [ConstLearner(0.0) for _ in range(4)], eta=0.5)
        b.shrink = [0.3, 0.9, 0.0, 1.0]
        y, _ = b.predict(_ex())
        assert y == 0.0

    def test_two_stage_unroll_no_shrink(self):
        # by hand: y1 = (1-0)*0 + 0.5*1 = 0.5; y2 = (1-0)*0.5 + 0.5*1 = 1.0
        b = SpanBooster(SQ, [ConstLearner(1.0), ConstLearner(1.0)], eta=0.5,
                        deterministic_mode=True)
        y, trace = b.predict(_ex())
        assert trace.partial_sums == [0.0, 0.5, 1.0]
        assert y == pytest.approx(1.0)

    def test_two_stage_unroll_full_shrink(self):
        # by hand with shrink factors 1: y1 = 0.5; y2 = (1-0.5)*0.5 + 0.5 = 0.75
        b = SpanBooster(SQ, [ConstLearner(1.0), ConstLearner(1.0)], eta=0.5,
                        deterministic_mode=True)
        b.shrink = [1.0, 1.0]
        y, _ = b.predict(_ex())
        assert y == pytest.approx(0.75)

    def test_projection_confines_partial_sums(self):
        b = SpanBooster(SQ, [ConstLearner(1.0) for _ in range(8)], eta=1.0)
        assert b.radius == 1.0  # squared family, D = 1
        y, trace = b.predict(_ex())
        assert all(abs(s) <= b.radius + 1e-9 for s in trace.partial_sums)


class TestSpanUpdate:
    def test_zero_gradient_leaves_shrink_and_learners(self):
        lrns = [ConstLearner(0.4), ConstLearner(0.2)]
        b = SpanBooster(SQ, lrns, eta=0.5, deterministic_mode=True)
        b.shrink = [0.3, 0.6]
        ex = _ex()
        y, trace = b.predict(ex)
        # label equal to each partial sum would be needed for all-zero
        # gradients; instead drive stage gradients to zero via y* = y^i
        # only for the first stage here: use y* = 0 -> grad at y^0 = 0
        loss = SQ.make(0.0)
        b.update(ex, trace, loss)
        assert b.shrink[0] == 0.3  # y^0 = 0 and grad(y^0) = 0
        assert lrns[0].feedbacks[0] == 0.0

    def test_shrink_arithmetic(self):
        # alpha_1 = 1/(L*B*sqrt(1)); with L = 2, B = 1: alpha = 0.5,
        # grad(y^1) * y^1 with y* = 0, y^1 = 0.5 gives 0.25 * 0.5 ... checked
        # against the clip formula directly
        lrns = [ConstLearner(1.0), ConstLearner(1.0)]
        b = SpanBooster(SQ, lrns, eta=0.5)
        b.shrink = [0.5, 0.5]
        ex = _ex()
        y, trace = b.predict(ex)
        y1 = trace.partial_sums[1]
        loss = SQ.make(0.0)
        alpha = 1.0 / (b.lipschitz * b.radius * 1.0)
        expected_s2 = min(max(0.5 + alpha * (y1 - 0.0) * y1, 0.0), 1.0)
        b.update(ex, trace, loss)
        assert b.shrink[1] == pytest.approx(expected_s2, abs=1e-12)

    def test_alpha_decays_with_rounds(self):
        lrns = [ConstLearner(1.0)]
        b = SpanBooster(SQ, lrns, eta=1.0)
        ex = _ex()
        s_before = 0.5
        for t in range(4):
            b.shrink = [s_before]
            y, tr = b.predict(Example({0: 1.0}, 0.0, eid=t))
            b.update(Example({0: 1.0}, 0.0, eid=t), tr, SQ.make(0.0))
        # round counter at 4: next alpha uses sqrt(5)... verify the stored rate
        assert b.round == 4

    def test_feedback_normalized_by_lipschitz(self):
        lrns = [ConstLearner(1.0)]
        b = SpanBooster(SQ, lrns, eta=1.0)
        ex = _ex()
        y, tr = b.predict(ex)
        fbs = b.update(ex, tr, SQ.make(1.0))
        # grad at y^0 = 0 is -1; L at radius 1 is 2
        assert fbs[0] == pytest.approx(-0.5)


class TestRoundProtocol:
    def test_double_predict_rejected(self):
        b = SpanBooster(SQ, [ConstLearner(0.1)], eta=1.0)
        b.predict(_ex())
        with pytest.raises(RuntimeError):
            b.predict(_ex(1))

    def test_update_without_predict_rejected(self):
        b = HullBooster(SQ, [ConstLearner(0.1)])
        with pytest.raises(RuntimeError):
            b.update(_ex(), None, SQ.make(0.0))

    def test_stale_trace_rejected(self):
        b = HullBooster(SQ, [ConstLearner(0.1)])
        ex = _ex()
        y, tr = b.predict(ex)
        b.update(ex, tr, SQ.make(0.0))
        y2, tr2 = b.predict(_ex(1))
        with pytest.raises(RuntimeError):
            b.update(_ex(1), tr, SQ.make(0.0))


class TestHullRecurrence:
    def test_two_stage_weights(self):
        # schedule 2/(i+1): stage 1 weight 1, stage 2 weight 2/3
        b = HullBooster(SQ, [ConstLearner(0.9), ConstLearner(-0.3)])
        y, _ = b.predict(_ex())
        assert y == pytest.approx(0.9 / 3.0 + 2.0 * (-0.3) / 3.0, abs=1e-15)

    def test_constant_arms_fixed_point(self):
        b = HullBooster(SQ, [ConstLearner(0.4) for _ in range(6)])
        y, _ = b.predict(_ex())
        assert y == pytest.approx(0.4, abs=1e-12)

    def test_three_stage_unroll(self):
        # by hand: y1 = 1, y2 = 1/3, y3 = (1/2)(1/3) + (1/2)(1) = 2/3
        b = HullBooster(SQ, [ConstLearner(1.0), ConstLearner(0.0), ConstLearner(1.0)])
        y, tr = b.predict(_ex())
        assert tr.partial_sums[1] == pytest.approx(1.0)
        assert tr.partial_sums[2] == pytest.approx(1.0 / 3.0)
        assert y == pytest.approx(2.0 / 3.0)

    def test_update_normalizes_gradient_at_zero(self):
        # squared loss, y* = 1: grad at y^0 = 0 is -1; L at D = 1 is 2
        b = HullBooster(SQ, [ConstLearner(0.2)])
        ex = _ex()
        y, tr = b.predict(ex)
        fbs = b.update(ex, tr, SQ.make(1.0))
        assert fbs[0] == pytest.approx(-0.5)

    def test_feedback_norms_bounded_on_random_stream(self):
        rng = np.random.default_rng(2)
        pool = make_region_pool(4)
        w = np.array([0.25, -0.25, 0.25, -0.25])
        stream, _ = planted_span_stream(pool, w, 0.05, 300, seed=5)
        sym = pool.symmetrized()
        b = HullBooster(SQ, hedge_committee(sym, 6, 300, seed=1))
        for ex, loss in stream:
            y, tr = b.predict(ex)
            fbs = b.update(ex, tr, loss)
            assert all(abs(f) <= 1.0 + 1e-9 for f in fbs)

    def test_single_stage_reduces_to_base_learner(self):
        # eta_1 = 1 makes the booster's prediction the bare stage output and
        # its feedback the normalized gradient at zero
        rng = np.random.default_rng(6)
        boosted_inner = OnlineGradientLearner(output_bound=1.0)
        bare = OnlineGradientLearner(output_bound=1.0)
        b = HullBooster(SQ, [boosted_inner])
        lip = b.lipschitz
        for t in range(500):
            x = {0: float(rng.uniform(-1, 1)) or 0.5, 1: float(rng.uniform(-1, 1)) or 0.5}
            label = float(np.clip(0.8 * x[0] + 0.1 * rng.standard_normal(), -1, 1))
            ex = Example(x, label, eid=t)
            loss = SQ.make(label)
            y, tr = b.predict(ex)
            y_bare = bare.predict(ex)
            assert y == y_bare  # bit-identical
            b.update(ex, tr, loss)
            bare.update(ex, loss.gradient(0.0) / lip)


class TestDeterministicMode:
    def test_radius_override(self):
        b = SpanBooster(SQ, [ConstLearner(0.5) for _ in range(10)], eta=0.2,
                        deterministic_mode=True)
        assert b.radius == pytest.approx(2.0)

    def test_requires_deterministic_learners(self):
        pool = FunctionPool([lambda x: 0.5])
        sampler = hedge_committee(pool, 1, 10, mode="sample", seed=0)
        with pytest.raises(ValueError):
            SpanBooster(SQ, sampler, eta=1.0, deterministic_mode=True)

    def test_projection_vacuous_on_reachable_states(self):
        # 2000 rounds with OGD stages: partial sums never hit the ball wall
        rng = np.random.default_rng(9)
        n = 6
        b = SpanBooster(SQ, [OnlineGradientLearner() for _ in range(n)], eta=0.4,
                        deterministic_mode=True)
        cap = b.eta * n * 1.0
        for t in range(2000):
            x = {0: float(rng.uniform(0.1, 1.0)), 1: float(rng.uniform(-1, -0.1))}
            label = float(np.clip(0.5 * x[0], -1, 1))
            ex = Example(x, label, eid=t)
            y, tr = b.predict(ex)
            assert all(abs(s) <= cap + 1e-9 for s in tr.partial_sums)
            b.update(ex, tr, SQ.make(label))

    def test_matches_default_mode_for_linear_loss(self):
        # linear losses solve to the same radius eta*N*D, so the two modes
        # produce identical predictions
        lin = LossClass("linear")
        mk = lambda: [OnlineGradientLearner() for _ in range(4)]
        b1 = SpanBooster(lin, mk(), eta=0.5)
        b2 = SpanBooster(lin, mk(), eta=0.5, deterministic_mode=True)
        assert b1.radius == b2.radius
        rng = np.random.default_rng(12)
        for t in range(200):
            ex = Example({0: float(rng.uniform(0.1, 1))}, 1.0, eid=t)
            loss = lin.make(1.0)
            y1, t1 = b1.predict(ex)
            y2, t2 = b2.predict(ex)
            assert y1 == y2
            b1.update(ex, t1, loss)
            b2.update(ex, t2, loss)


class TestEtaValidation:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SpanBooster(SQ, [ConstLearner(0.1), ConstLearner(0.1)], eta=0.3 - 0.3)
        with pytest.raises(ValueError):
            SpanBooster(SQ, [ConstLearner(0.1), ConstLearner(0.1)], eta=1.2)

    def test_auto_eta(self):
        assert auto_eta(16) == pytest.approx(math.log(16) / 16, abs=1e-12)
        assert auto_eta(1) == 1.0
        b = SpanBooster(SQ, [ConstLearner(0.0) for _ in range(16)])
        assert b.eta == pytest.approx(math.log(16) / 16)


class TestScaleWrap:
    def test_identity_at_one(self):
        inner = ConstLearner(0.4, output_bound=1.0)
        w = scale_wrap(inner, 1.0)
        assert w.predict(_ex()) == pytest.approx(0.4)
        assert w.output_bound == 1.0

    def test_scaling(self):
        w = scale_wrap(ConstLearner(0.4, output_bound=1.0), 3.0)
        assert w.predict(_ex()) == pytest.approx(1.2)
        assert w.output_bound == 3.0

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            scale_wrap(ConstLearner(0.4), 0.5)

    def test_feedback_forwarded_unchanged(self):
        inner = ConstLearner(0.4, output_bound=1.0)
        w = scale_wrap(inner, 2.0)
        w.update(_ex(), -0.3)
        assert inner.feedbacks == [-0.3]

    def test_scaled_regret_tracks_scaled_comparator(self):
        # oracle: brute-force best pool member, scaled by lambda
        rng = np.random.default_rng(14)
        rounds, m, lam = 2000, 5, 3.0
        vals = rng.uniform(-1, 1, size=(rounds, m))
        rows = {t: vals[t] for t in range(rounds)}
        pool = FunctionPool([(lambda x, _j=j: float(rows[x.eid][_j])) for j in range(m)])
        wrapped = scale_wrap(hedge_committee(pool, 1, rounds), lam)
        gs = rng.uniform(-1, 1, rounds)
        cum = 0.0
        member = np.zeros(m)
        for t in range(rounds):
            ex = Example({0: 1.0}, None, eid=t)
            cum += gs[t] * wrapped.predict(ex)[0]
            wrapped.update(ex, [gs[t]])
            member += gs[t] * vals[t]
        hedge_bound = 2.0 * math.sqrt(rounds * math.log(m))
        assert cum <= lam * float(member.min()) + lam * hedge_bound


class TestGreedyOffsets:
    def test_booster_passes_partial_sums_as_offsets(self):
        received = []

        class Recorder:
            deterministic = True
            greedy_offsets = True
            output_bound = 1.0

            def __len__(self):
                return 2

            def predict(self, x):
                return [0.5, 0.5]

            def update(self, x, offsets, loss):
                received.append(offsets)

        b = SpanBooster(SQ, Recorder(), eta=0.5)
        ex = _ex()
        y, tr = b.predict(ex)
        b.update(ex, tr, SQ.make(0.5))
        assert received == [tr.partial_sums[:2]]

    @pytest.mark.parametrize("booster", [SpanBooster, HullBooster])
    @pytest.mark.parametrize("linear_stages", [0, 1])
    def test_list_holding_a_greedy_stage_rejected(self, booster, linear_stages):
        pool = FunctionPool([lambda x: 0.5, lambda x: -0.5])
        params = SQ.ball_params(2.0)
        greedy = greedy_adapter(GreedyFitLearner(pool), 10, params, offset_bound=1.0)
        stages = [greedy] + [OnlineGradientLearner() for _ in range(linear_stages)]
        with pytest.raises(ValueError, match=re.escape("GreedyFitLearner(pool, n)")):
            booster(SQ, stages)

    def test_adapter_inside_hull_booster(self):
        class CountingFitter(GreedyFitLearner):
            updates = 0

            def update(self, x, offsets, loss):
                super().update(x, offsets, loss)
                self.updates += 1

        rng = np.random.default_rng(15)
        rounds, m, n = 300, 4, 3
        vals = rng.uniform(-1, 1, size=(rounds, m))
        rows = {t: vals[t] for t in range(rounds)}
        pool = FunctionPool([(lambda x, _j=j: float(rows[x.eid][_j])) for j in range(m)])
        params = SQ.ball_params(2.0)
        committee = greedy_adapter(CountingFitter(pool, n), rounds, params, offset_bound=1.0)
        # each stage driven on its own with the partial sum the booster hands it
        singles = [OneStage(greedy_adapter(GreedyFitLearner(pool), rounds, params,
                                           offset_bound=1.0)) for _ in range(n)]
        b = HullBooster(SQ, committee)
        for t in range(rounds):
            ex = Example({0: 1.0}, float(np.clip(vals[t, 0], -1, 1)), eid=t)
            loss = SQ.make(ex.label)
            y, tr = b.predict(ex)
            assert tr.arms == [s.predict(ex) for s in singles]
            b.update(ex, tr, loss)
            for s, offset in zip(singles, tr.partial_sums):
                s.update(ex, offset, loss)
        assert committee.updates == rounds
        assert all((committee.cum[i] == s.committee.cum[0]).all()
                   for i, s in enumerate(singles))


class TestDeterminism:
    def test_two_runs_identical(self):
        pool = make_region_pool(6)
        w = np.array([0.3, -0.3, 0.3, -0.3, 0.3, -0.3])
        losses = []
        for _ in range(2):
            stream, comp = planted_span_stream(pool, w, 0.02, 500, seed=77)
            sym = pool.symmetrized()
            b = SpanBooster(SQ, hedge_committee(sym, 8, 500, seed=5), eta=0.4)
            m = progressive_validate(stream, b)
            losses.append(m.test_losses.tobytes())
        assert losses[0] == losses[1]

    def test_sample_mode_committee_deterministic_per_seed(self):
        pool = make_region_pool(4)
        stream, _ = planted_span_stream(pool, [0.4, -0.4, 0.4, -0.4], 0.02, 300, seed=6)
        sym = pool.symmetrized()

        def run(seed):
            stage = hedge_committee(sym, 5, len(stream), mode="sample", seed=seed)
            return progressive_validate(stream, HullBooster(SQ, stage)).test_losses

        first = run(3)
        assert np.array_equal(first, run(3))
        assert not np.array_equal(first, run(4))


class TestCommitteeMatchesCopies:
    """A stage committee is one learner; it must equal independent copies,
    also on examples built without an id (the ``Example`` default)."""

    @staticmethod
    def _without_ids(stream):
        return Stream([Example(ex.features, ex.label) for ex in stream.examples],
                      stream.loss_class)

    def test_stump_committee_on_idless_examples(self):
        stream = self._without_ids(make_additive_stream(300, seed=8))
        n = 5
        committee = progressive_validate(stream, SpanBooster(SQ, stump_committee(n)))
        copies = progressive_validate(stream, SpanBooster(SQ, [StumpLearner() for _ in range(n)]))
        assert np.array_equal(committee.test_losses, copies.test_losses)

    @pytest.mark.parametrize("booster", [SpanBooster, HullBooster])
    def test_ogd_committee_on_idless_examples(self, booster):
        stream = self._without_ids(make_additive_stream(300, seed=8))
        n = 5
        committee = progressive_validate(stream, booster(SQ, ogd_committee(n)))
        copies = progressive_validate(
            stream, booster(SQ, [OnlineGradientLearner() for _ in range(n)]))
        assert np.array_equal(committee.test_losses, copies.test_losses)
        assert committee.report_loss < committee.tune_loss

    def test_hedge_committee_on_idless_examples(self):
        pool = make_region_pool(4)
        planted, _ = planted_span_stream(pool, [0.4, -0.4, 0.4, -0.4], 0.02, 300, seed=9)
        stream = self._without_ids(planted)
        sym = pool.symmetrized()
        n = 4
        committee = progressive_validate(stream, HullBooster(SQ, hedge_committee(sym, n, 300)))
        copies = progressive_validate(
            stream, HullBooster(SQ, [OneStage(hedge_committee(sym, 1, 300)) for _ in range(n)]))
        np.testing.assert_allclose(committee.test_losses, copies.test_losses,
                                   rtol=0, atol=1e-12)
        # the committee learns: later losses differ from a frozen first round
        assert committee.report_loss < committee.tune_loss
