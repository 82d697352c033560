"""Base learners: contracts, regret behavior, pools, wrappers."""

import math
import tracemalloc

import numpy as np
import pytest

from ogboost.core import Example
from ogboost.losses import LossClass, parse_loss_flag
from ogboost.learners import (
    FunctionPool,
    GreedyFitLearner,
    OnlineGradientLearner,
    StumpLearner,
    _hedge_rate,
    greedy_adapter,
    hedge_committee,
    make_lower_bound_pool,
    ogd_committee,
    stump_committee,
    symmetrize,
)
from ogboost.bench import make_additive_stream

from committee_helpers import OneStage


def _ex(features, label=None, eid=-1):
    return Example(features, label, eid)


def _random_linear_stream(rng, rounds, n_features=5):
    """(example, feedback) pairs with unit-bounded feature vectors."""
    out = []
    for t in range(rounds):
        x = rng.uniform(-1, 1, n_features)
        x /= max(float(np.linalg.norm(x)), 1.0)
        feats = {j: float(v) for j, v in enumerate(x) if v != 0.0}
        g = float(rng.uniform(-1, 1))
        out.append((_ex(feats, eid=t), g))
    return out


class TestFeedbackContract:
    def test_norm_violation_raises(self):
        lrn = OnlineGradientLearner()
        with pytest.raises(ValueError):
            lrn.update(_ex({0: 1.0}), 1.5)


    @pytest.mark.parametrize("make", [lambda: stump_committee(2),
                                      lambda: hedge_committee(_const_pool([0.3, -0.3]), 2, 10),
                                      lambda: ogd_committee(2),
                                      lambda: symmetrize(lambda: ogd_committee(2))])
    def test_committee_checks_every_stage_feedback(self, make):
        committee = make()
        ex = _ex({0: 1.0}, eid=0)
        committee.update(ex, [-1.0 - 0.5e-9, 1.0 + 0.5e-9])  # within FEEDBACK_TOL
        for bad in ([0.5, 1.5], [math.nan, 0.0], [0.5]):
            with pytest.raises(ValueError):
                committee.update(ex, bad)


class TestOnlineGradientLearner:
    def test_zero_weights_predict_zero(self):
        assert OnlineGradientLearner().predict(_ex({0: 3.0, 7: -1.0})) == 0.0

    def test_single_step(self):
        # w <- w - eta_t * g * x with eta_1 = D / (G * sqrt(1)) = 1
        lrn = OnlineGradientLearner(output_bound=1.0, lr_scale=0.1)
        lrn.update(_ex({0: 1.0}), -1.0)
        assert lrn.w[0] == pytest.approx(0.1, abs=1e-15)

    def test_boundary_projection(self):
        # oracle: take the unprojected step by hand, then scale to the ball
        lrn = OnlineGradientLearner(output_bound=1.0, lr_scale=1.0)
        lrn.w = {0: 1.0}
        lrn._norm2 = 1.0
        lrn._gmax = 1.0
        lrn._t = 3
        step = 1.0 / (1.0 * math.sqrt(4))
        raw = 1.0 - step * (-1.0) * 1.0
        expected = raw * (1.0 / abs(raw))
        lrn.update(_ex({0: 1.0}), -1.0)
        assert lrn.w[0] == pytest.approx(expected, abs=1e-12)
        assert abs(lrn.w[0]) <= 1.0 + 1e-12

    def test_predictions_stay_bounded(self):
        rng = np.random.default_rng(3)
        lrn = OnlineGradientLearner(output_bound=0.7)
        for ex, g in _random_linear_stream(rng, 400):
            assert abs(lrn.predict(ex)) <= 0.7 + 1e-9
            lrn.update(ex, g)

    def test_no_regret_against_offline_ball_optimum(self):
        # offline oracle: linear total loss over the weight ball is
        # minimized at w* = -D * (sum g_t x_t) / ||sum g_t x_t||
        rng = np.random.default_rng(29)
        for trial in range(3):
            stream = _random_linear_stream(rng, 3000)
            d = 5
            lrn = OnlineGradientLearner(output_bound=1.0)
            cum = 0.0
            gsum = np.zeros(d)
            gmax = 0.0
            for ex, g in stream:
                cum += g * lrn.predict(ex)
                lrn.update(ex, g)
                xv = np.zeros(d)
                for k, v in ex.features.items():
                    xv[k] = v
                gsum += g * xv
                gmax = max(gmax, float(np.linalg.norm(g * xv)))
            w_star = -gsum / max(float(np.linalg.norm(gsum)), 1e-12)
            best = float(w_star @ gsum)
            assert cum <= best + 1.5 * 1.0 * gmax * math.sqrt(len(stream))

    @pytest.mark.parametrize("case", ["additive", "sparse-wide", "projection-binds",
                                      "zero-feedback", "one-stage", "update-sees-other-example"])
    def test_committee_matches_independent_copies(self, case):
        rng = np.random.default_rng(12)
        if case in ("additive", "zero-feedback"):  # values +-1
            rows = [ex.features for ex in make_additive_stream(400, seed=6).examples]
        else:  # k of m features at magnitudes up to 2
            k, m = (16, 40) if case == "one-stage" else (4, 12)
            rows = [{int(j): float(rng.uniform(-2, 2)) for j in rng.choice(m, k, replace=False)}
                    for _ in range(400)]
        # a small ball and a large rate make the norm projection bind often
        bound, lr = (0.3, 5.0) if case == "projection-binds" else (1.0, 1.0)
        # one stage with many features: a numpy sum() down the rows would pair its terms
        n = 1 if case == "one-stage" else 4
        singles = [OnlineGradientLearner(bound, lr) for _ in range(n)]
        committee = ogd_committee(n, bound, lr)
        gs = rng.uniform(-1, 1, size=(len(rows), n))
        if case == "zero-feedback":
            gs[:, ::2] = 0.0
        projected = 0
        for t, feats in enumerate(rows):
            # features listed highest id first: the sums must follow the example's order
            ex = _ex(dict(sorted(feats.items(), reverse=True)), eid=t)
            preds = committee.predict(ex)
            for i in range(n):
                p = singles[i].predict(ex)
                # the sign too, so that -0.0 against 0.0 shows
                assert preds[i] == p and math.copysign(1.0, preds[i]) == math.copysign(1.0, p)
            if case == "update-sees-other-example":  # what predict gathered must not be reused
                ex = _ex(dict(sorted(rows[t - 1].items(), reverse=True)), eid=t)
            for i in range(n):
                singles[i].update(ex, float(gs[t, i]))
            committee.update(ex, gs[t])
            for i in range(n):
                assert committee.norm2[i] == singles[i]._norm2
            projected += sum(lrn._norm2 == bound * bound for lrn in singles)
        if case == "projection-binds":
            assert projected > len(rows)  # more than one stage per round on average


class TestStumpLearner:
    def test_no_features_predicts_zero(self):
        assert StumpLearner().predict(_ex({})) == 0.0

    def test_tie_breaks_to_lowest_feature_id(self):
        lrn = StumpLearner()
        lrn.w = {2: 0.5, 5: -0.5}
        # equal (zero) cumulative losses: lowest id wins
        assert lrn.predict(_ex({5: 1.0, 2: 1.0})) == 0.5

    def test_picks_lowest_cumulative_loss_feature(self):
        lrn = StumpLearner()
        lrn.w = {0: 0.3, 1: 0.9}
        lrn.cum_loss = {0: 5.0, 1: -2.0}
        assert lrn.predict(_ex({0: 1.0, 1: 1.0})) == pytest.approx(0.9)

    def test_prediction_clipped_to_bound(self):
        lrn = StumpLearner(output_bound=1.0)
        lrn.w = {0: 4.0}
        assert lrn.predict(_ex({0: 1.0})) == 1.0

    def test_not_much_worse_than_zero_predictor(self):
        # zero predictor's cumulative linear loss is 0; the stump's should
        # trail it by at most a sqrt-regret allowance per feature
        rng = np.random.default_rng(4)
        lrn = StumpLearner()
        cum = 0.0
        rounds = 2000
        for ex, g in _random_linear_stream(rng, rounds):
            cum += g * lrn.predict(ex)
            lrn.update(ex, g)
        n_feats = len(lrn.w)
        assert cum <= 0.0 + 3.0 * n_feats * math.sqrt(rounds)

    @pytest.mark.parametrize("source", ["additive", "sparse-wide", "update-sees-other-example"])
    def test_committee_matches_independent_copies(self, source):
        rng = np.random.default_rng(10)
        if source == "additive":  # values +-1
            rows = [ex.features for ex in make_additive_stream(400, seed=5).examples]
        else:  # magnitudes up to 2 grow each feature's range, so clips bind
            rows = [{int(k): float(rng.uniform(-2, 2)) for k in rng.choice(12, 4, replace=False)}
                    for _ in range(400)]
        n = 4
        singles = [StumpLearner() for _ in range(n)]
        committee = stump_committee(n)
        gs = rng.uniform(-1, 1, size=(len(rows), n))
        for t, feats in enumerate(rows):
            # features listed highest id first, so argmin ties are not in dict order
            ex = _ex(dict(sorted(feats.items(), reverse=True)), eid=t)
            preds = committee.predict(ex)
            for i in range(n):
                assert preds[i] == singles[i].predict(ex)
            if source == "update-sees-other-example":  # what predict gathered must not be reused
                ex = _ex(dict(sorted(rows[t - 1].items(), reverse=True)), eid=t)
            for i in range(n):
                singles[i].update(ex, float(gs[t, i]))
            committee.update(ex, gs[t])


def _const_pool(values):
    return FunctionPool([(lambda x, _v=v: _v) for v in values],
                        output_bound=max(abs(v) for v in values) or 1.0)


def _hedge(pool, horizon=None, **kw):
    """A one-stage Hedge committee driven as a single learner."""
    return OneStage(hedge_committee(pool, 1, horizon, **kw))


class TestHedgeLearner:
    def test_symmetric_pool_uniform_weights_average_zero(self):
        pool = _const_pool([0.6, -0.6])
        lrn = _hedge(pool, horizon=100)
        assert lrn.predict(_ex({0: 1.0})) == pytest.approx(0.0, abs=1e-15)

    def test_equal_feedback_keeps_weights_uniform(self):
        pool = _const_pool([0.5, 0.5])
        lrn = _hedge(pool, horizon=100)
        for t in range(10):
            lrn.update(_ex({0: 1.0}, eid=t), 0.7)
        np.testing.assert_allclose(lrn.committee.weights, 0.5, atol=1e-15)

    def test_no_regret_vs_brute_force_min_arm(self):
        # oracle: enumerate every arm's cumulative linear loss directly
        rng = np.random.default_rng(8)
        m, rounds = 8, 5000
        member_vals = rng.uniform(-1, 1, size=(rounds, m))
        pool_rows = {t: member_vals[t] for t in range(rounds)}
        pool = FunctionPool([(lambda x, _j=j: float(pool_rows[x.eid][_j]))
                             for j in range(m)])
        lrn = _hedge(pool, horizon=rounds)
        gs = rng.uniform(-1, 1, rounds)
        mix_loss = 0.0
        arm_loss = np.zeros(m)
        for t in range(rounds):
            ex = _ex({0: 1.0}, eid=t)
            mix_loss += gs[t] * lrn.predict(ex)
            lrn.update(ex, float(gs[t]))
            arm_loss += gs[t] * member_vals[t]
        assert mix_loss <= float(arm_loss.min()) + 2.0 * math.sqrt(rounds * math.log(m))

    def test_doubling_mode_runs_without_horizon(self):
        pool = _const_pool([0.3, -0.3])
        m = len(pool)
        lrn = _hedge(pool)
        weights, schedule = lrn.committee.weights, lrn.committee.schedule
        assert schedule.rate == _hedge_rate(m, 16)
        restarts = {16: 32, 48: 64}  # update count -> length of the epoch it starts
        for t in range(1, 101):
            lrn.update(_ex({0: 1.0}, eid=t), 0.5)
            if t in restarts:
                np.testing.assert_array_equal(weights, 1.0 / m)
                assert schedule.rate == _hedge_rate(m, restarts[t])
            else:
                assert weights[0, 0] < weights[0, 1]
        assert (schedule.epoch, schedule.t) == (64, 100 - 48)  # every update counted

    def test_sample_mode_emits_pool_values(self):
        pool = _const_pool([0.25, -0.75])
        lrn = _hedge(pool, horizon=50, mode="sample", seed=3)
        vals = {lrn.predict(_ex({0: 1.0}, eid=t)) for t in range(50)}
        assert vals <= {0.25, -0.75}

    def test_committee_matches_independent_copies(self):
        # an N-row committee against N committees of one: the weights are the
        # same arithmetic row by row; a prediction sums its row in another order
        rng = np.random.default_rng(10)
        rounds, m, n = 300, 5, 3
        vals = rng.uniform(-1, 1, size=(rounds, m))
        rows = {t: vals[t] for t in range(rounds)}

        def build_pool():
            return FunctionPool([(lambda x, _j=j: float(rows[x.eid][_j])) for j in range(m)])

        for horizon in (None, rounds):
            singles = [hedge_committee(build_pool(), 1, horizon) for _ in range(n)]
            committee = hedge_committee(build_pool(), n, horizon)
            gs = rng.uniform(-1, 1, size=(rounds, n))
            for t in range(rounds):
                ex = _ex({0: 1.0}, eid=t)
                preds = committee.predict(ex)
                for i in range(n):
                    assert singles[i].predict(ex)[0] == pytest.approx(preds[i], abs=1e-12)
                    singles[i].update(ex, gs[t, i:i + 1])
                committee.update(ex, gs[t])
                for i in range(n):
                    np.testing.assert_array_equal(committee.weights[i], singles[i].weights[0])

    def test_first_update_known_answer(self):
        # multiplicative weights by hand: w_j = exp(-rate * g * f_j / D) / M, renormalized
        vals, bound, horizon = [0.9, -0.3, 0.5, -1.2], 1.2, 250
        committee = hedge_committee(_const_pool(vals), 2, horizon)
        rate = math.sqrt(8.0 * math.log(4) / 250)  # sqrt(8 ln M / T) with M = 4, T = 250
        feedback = [0.7, -0.4]
        ex = _ex({0: 1.0}, eid=0)
        committee.update(ex, feedback)
        for i, g in enumerate(feedback):
            raw = [math.exp(-rate * g * v / bound) / 4 for v in vals]
            expected = [r / sum(raw) for r in raw]
            assert committee.weights[i].tolist() == pytest.approx(expected, rel=1e-12, abs=0)
            assert committee.predict(ex)[i] == pytest.approx(
                sum(w * v for w, v in zip(expected, vals)), rel=1e-12)

    @pytest.mark.parametrize("horizon", [None, 300])
    def test_values_normalized_by_output_bound(self, horizon):
        # scaling every pool value and the output bound by 3000 scales the
        # predictions only: the weights follow the unit pool's
        rng = np.random.default_rng(12)
        rounds, m, n, scale = 300, 6, 3, 3000.0
        vals = rng.uniform(-1, 1, size=(rounds, m))

        def build_pool(c):
            return FunctionPool([(lambda x, _j=j: c * float(vals[x.eid, _j])) for j in range(m)],
                                output_bound=c)

        unit = hedge_committee(build_pool(1.0), n, horizon)
        scaled = hedge_committee(build_pool(scale), n, horizon)
        gs = rng.uniform(-1, 1, size=(rounds, n))
        for t in range(rounds):
            ex = _ex({0: 1.0}, eid=t)
            unit.update(ex, gs[t])
            scaled.update(ex, gs[t])
            np.testing.assert_allclose(scaled.weights, unit.weights, rtol=0, atol=1e-12)

    def test_committee_round_evaluates_pool_once_without_ids(self):
        calls = []

        def member(x):
            calls.append(x)
            return x.features[0]

        committee = hedge_committee(FunctionPool([member]).symmetrized(), 3, horizon=50)
        rounds = 50
        for t in range(rounds):
            ex = _ex({0: 0.5 + t / 100})  # no example id
            committee.predict(ex)
            committee.update(ex, [0.5, -0.5, 0.25])
        assert len(calls) / rounds == 1.0


class TestSymmetrize:
    def test_zero_feedback_keeps_uniform_mixture(self):
        pool = _const_pool([0.4, 0.1])
        comp = symmetrize(lambda: hedge_committee(pool, 1, 100), horizon=100)
        ex = _ex({0: 1.0}, eid=0)
        a_pos, a_neg = comp.arm_outputs(ex)
        expected = (a_pos[0] + a_neg[0] + 0.0) / 3.0
        assert comp.predict(ex) == [pytest.approx(expected, abs=1e-15)]
        comp.update(ex, [0.0])
        np.testing.assert_allclose(comp.mix, 1.0 / 3.0, atol=1e-15)

    def test_constant_positive_feedback_favors_negative_arm(self):
        # with g = +1 every round, arm loss is its prediction; the composite
        # must track the best of (copy, negated copy, zero) up to the usual
        # multiplicative-weights allowance, and the mixture should lean on
        # whichever arm predicts negative values
        rounds = 1000
        rng = np.random.default_rng(13)

        def fresh():
            return OnlineGradientLearner(output_bound=1.0)

        comp = symmetrize(lambda: ogd_committee(1, 1.0), horizon=rounds)
        mirror_pos = fresh()
        mirror_neg = fresh()
        comp_loss = 0.0
        pos_loss = neg_loss = 0.0
        for t in range(rounds):
            x = rng.uniform(0.2, 1.0)
            ex = _ex({0: float(x)}, eid=t)
            comp_loss += comp.predict(ex)[0]
            pos_loss += mirror_pos.predict(ex)
            neg_loss += -mirror_neg.predict(ex)
            comp.update(ex, [1.0])
            mirror_pos.update(ex, 1.0)
            mirror_neg.update(ex, -1.0)
        best_arm = min(pos_loss, neg_loss, 0.0)
        assert comp_loss <= best_arm + 2.0 * math.sqrt(rounds * math.log(3)) + 1e-9

    def test_weight_shifts_to_negated_arm_for_constant_learner(self):
        # fixed-output inner learner: with g = +1 the negated copy is the
        # only arm with negative loss, so its mixing weight must dominate
        rounds = 200
        comp = symmetrize(lambda: hedge_committee(_const_pool([0.4]), 1, rounds),
                          horizon=rounds)
        for t in range(rounds):
            ex = _ex({0: 1.0}, eid=t)
            comp.predict(ex)
            comp.update(ex, [1.0])
        assert comp.mix[0, 1] > comp.mix[0, 0]
        assert comp.mix[0, 1] > comp.mix[0, 2]

    def test_update_uses_arms_of_its_own_example_without_ids(self):
        # every example without an id has eid -1, so arms cached by
        # predict(a) must not be reused by update(b)
        def warmed():
            comp = symmetrize(lambda: ogd_committee(2, 1.0), horizon=50)
            for _ in range(5):
                ex = _ex({0: 1.0, 1: 0.5})
                comp.predict(ex)
                comp.update(ex, [0.8, -0.3])
            return comp

        a, b = _ex({0: 1.0}), _ex({1: -1.0})
        stale, twin = warmed(), warmed()
        stale.predict(a)
        stale.update(b, [0.9, 0.4])
        twin.predict(b)
        twin.update(b, [0.9, 0.4])
        np.testing.assert_array_equal(stale.mix, twin.mix)

    def test_output_bound_preserved(self):
        pool = _const_pool([1.0, -1.0])
        comp = symmetrize(lambda: hedge_committee(pool, 1, 10), horizon=10)
        for t in range(10):
            ex = _ex({0: 1.0}, eid=t)
            assert abs(comp.predict(ex)[0]) <= 1.0 + 1e-9
            comp.update(ex, [0.3])

    def test_symmetric_pool_learner_wrap_costs_at_most_mixing_regret(self):
        # wrapping a learner whose pool already contains negations cannot
        # lose more than the three-arm mixing allowance against the bare
        # learner run side by side
        rng = np.random.default_rng(17)
        rounds, m = 2000, 4
        vals = rng.uniform(-1, 1, size=(rounds, m))
        rows = {t: np.concatenate([vals[t], -vals[t]]) for t in range(rounds)}

        def build_pool():
            return FunctionPool([(lambda x, _j=j: float(rows[x.eid][_j]))
                                 for j in range(2 * m)])

        bare = _hedge(build_pool(), horizon=rounds)
        comp = symmetrize(lambda: hedge_committee(build_pool(), 1, rounds), horizon=rounds)
        gs = rng.uniform(-1, 1, rounds)
        bare_loss = comp_loss = 0.0
        for t in range(rounds):
            ex = _ex({0: 1.0}, eid=t)
            bare_loss += gs[t] * bare.predict(ex)
            comp_loss += gs[t] * comp.predict(ex)[0]
            bare.update(ex, float(gs[t]))
            comp.update(ex, [float(gs[t])])
        assert comp_loss <= bare_loss + 2.0 * math.sqrt(rounds * math.log(3)) + 1e-9

    @pytest.mark.parametrize("horizon", [None, 300])
    @pytest.mark.parametrize("make", [ogd_committee, stump_committee])
    def test_committee_matches_single_stage_committees(self, make, horizon):
        # the N mixtures share one schedule, but each stage's arms and mixture
        # must equal a symmetrized committee of that stage alone, bit for bit
        rng = np.random.default_rng(5)
        rows = [ex.features for ex in make_additive_stream(300, seed=3).examples]
        n = 3
        comp = symmetrize(lambda: make(n, 1.0, 2.0), horizon)
        singles = [symmetrize(lambda: make(1, 1.0, 2.0), horizon) for _ in range(n)]
        gs = rng.uniform(-1, 1, size=(len(rows), n))
        for t, feats in enumerate(rows):
            ex = _ex(feats)
            preds = comp.predict(ex)
            assert preds == [single.predict(ex)[0] for single in singles]
            comp.update(ex, gs[t])
            for i, single in enumerate(singles):
                single.update(ex, gs[t, i:i + 1])
                np.testing.assert_array_equal(comp.mix[i], single.mix[0])

    def test_twin_must_match_committee_size(self):
        sizes = iter([2, 3])
        with pytest.raises(ValueError, match="twin"):
            symmetrize(lambda: ogd_committee(next(sizes)))


class TestGreedyAdapter:
    def test_step_size_sqrt_mode(self):
        pool = _const_pool([1.0, -1.0])  # output bound D = 1
        params = LossClass("squared").ball_params(2.0)  # smoothness 1
        ad = greedy_adapter(GreedyFitLearner(pool), 10000, params, offset_bound=1.0)
        assert ad.alpha == pytest.approx(math.sqrt(2.0 * 100.0 / 10000.0), abs=1e-9)

    def test_step_size_alpha_linear_mode(self):
        pool = _const_pool([1.0, -1.0])
        params = LossClass("squared").ball_params(2.0)
        ad = greedy_adapter(GreedyFitLearner(pool), 10000, params, offset_bound=1.0,
                            regret_model="alpha-linear")
        assert ad.alpha == pytest.approx(0.02, abs=1e-12)

    def test_adapter_fixes_the_fitter_itself(self):
        pool = _const_pool([0.5, -0.5])
        fitter = GreedyFitLearner(pool)
        assert fitter.offset_bound == math.inf
        params = LossClass("squared").ball_params(2.0)
        assert greedy_adapter(fitter, 100, params, offset_bound=1.0) is fitter
        assert fitter.offset_bound == 1.0 and fitter.alpha > 0

    def test_adapter_validates_its_arguments(self):
        pool = _const_pool([0.5, -0.5])
        params = LossClass("squared").ball_params(2.0)
        for kw in ({"regret_model": "linear"}, {"horizon": 0},
                   {"smooth_params": LossClass("linear").ball_params(2.0)}):
            args = {"horizon": 100, "smooth_params": params, "offset_bound": 1.0, **kw}
            with pytest.raises(ValueError):
                greedy_adapter(GreedyFitLearner(pool), **args)

    def test_offset_bound_enforced(self):
        pool = _const_pool([0.5, -0.5])
        params = LossClass("squared").ball_params(2.0)
        ad = greedy_adapter(GreedyFitLearner(pool), 100, params, offset_bound=1.0)
        with pytest.raises(ValueError, match="offset norm 1.5 exceeds 1"):
            OneStage(ad).update(_ex({0: 1.0}, eid=0), 1.5, LossClass("squared").make(0.2))

    @pytest.mark.parametrize("offsets", [[0.5, 1.5], [math.nan, 0.0], [0.5],
                                         [np.array([0.1, 0.2]), np.array([0.1, 0.2])]],
                             ids=["beyond-bound", "nan", "too-few", "vectors"])
    def test_committee_checks_every_stage_offset_first(self, offsets):
        pool = _const_pool([0.5, -0.5])
        params = LossClass("squared").ball_params(2.0)
        ad = greedy_adapter(GreedyFitLearner(pool, 2), 100, params, offset_bound=1.0)
        ex = _ex({0: 1.0}, eid=0)
        ad.update(ex, [-1.0 - 0.5e-9, 1.0 + 0.5e-9], LossClass("squared").make(0.2))
        cum = ad.cum.copy()
        with pytest.raises(ValueError):
            ad.update(ex, offsets, LossClass("squared").make(0.2))
        np.testing.assert_array_equal(ad.cum, cum)  # no stage was updated

    def test_zero_alpha_degenerate(self):
        pool = _const_pool([0.5, -0.5])
        ad = GreedyFitLearner(pool)  # the default alpha 0
        assert ad.alpha == 0.0
        lc = LossClass("squared")
        ex = _ex({0: 1.0}, eid=0)
        stage = OneStage(ad)
        p = stage.predict(ex)
        assert abs(p) <= pool.output_bound
        stage.update(ex, 0.5, lc.make(0.2))  # loss independent of the prediction
        np.testing.assert_allclose(ad.cum, ad.cum[0, 0])

    def test_linear_regret_chain_on_planted_stream(self):
        # derived check: the adapter's linear regret obeys the smoothness
        # chain sum grad.A <= sum grad.f + (beta/2) alpha D^2 T + R_true/alpha
        # against the brute-force best pool member, with R_true measured
        rng = np.random.default_rng(21)
        rounds, m = 2000, 6
        member_vals = rng.uniform(-1, 1, size=(rounds, m))
        rows = {t: member_vals[t] for t in range(rounds)}
        pool = FunctionPool([(lambda x, _j=j: float(rows[x.eid][_j])) for j in range(m)])
        lc = LossClass("squared")
        params = lc.ball_params(1.5)
        ad = greedy_adapter(GreedyFitLearner(pool), rounds, params, offset_bound=0.5)
        alpha, beta = ad.alpha, params.smoothness
        stage = OneStage(ad)

        offsets = 0.4 * np.sin(np.arange(rounds) / 50.0)
        labels = np.clip(0.6 * member_vals[:, 0] + 0.05 * rng.standard_normal(rounds), -1, 1)

        lin_self = 0.0
        lin_member = np.zeros(m)
        offset_self = 0.0
        offset_member = np.zeros(m)
        for t in range(rounds):
            ex = _ex({0: 1.0}, eid=t)
            inst = lc.make(float(labels[t]))
            y0 = float(offsets[t])
            pred = stage.predict(ex)
            grad = inst.gradient(y0)
            lin_self += grad * pred
            lin_member += grad * member_vals[t]
            offset_self += inst.evaluate(y0 + alpha * pred)
            offset_member += np.array([inst.evaluate(y0 + alpha * v)
                                       for v in member_vals[t]])
            stage.update(ex, y0, inst)
        r_true = max(offset_self - float(offset_member.min()), 0.0)
        bound = (beta / 2.0) * alpha * 1.0 * rounds + r_true / alpha
        assert lin_self <= float(lin_member.min()) + bound + 1e-9


class TestGreedyCommittee:
    def test_committee_size_checked(self):
        with pytest.raises(ValueError, match="committee size"):
            GreedyFitLearner(_const_pool([0.5, -0.5]), 0)

    def test_each_stage_follows_its_own_leader(self):
        # at alpha = 1 and label 0, member value v costs (y' + v)^2 / 2 at offset y';
        # offset 0.5 favours -0.5, and offset -0.5 ties 0.75 with 0.25 (both cost 1/32)
        pool = _const_pool([-0.5, 0.75, 0.25])
        committee = GreedyFitLearner(pool, 2, alpha=1.0)
        ex = _ex({0: 1.0}, eid=0)
        committee.update(ex, [0.5, -0.5], LossClass("squared").make(0.0))
        np.testing.assert_array_equal(committee.cum, [[0.0, 0.78125, 0.28125],
                                                      [0.5, 0.03125, 0.03125]])
        assert committee.predict(ex) == [-0.5, 0.75]  # the tie goes to the lower index

    @pytest.mark.parametrize("family", ["squared", "p-norm:3", "mls", "logistic"])
    def test_committee_equals_one_stage_committees(self, family):
        # each round every stage gets its own offset; the scalar loop below is
        # the per-copy fitter's update, written out as the reference
        rng = np.random.default_rng(22)
        rounds, m, n = 200, 6, 4
        member_vals = rng.uniform(-1, 1, size=(rounds, m))
        rows = {t: member_vals[t] for t in range(rounds)}
        pool = FunctionPool([(lambda x, _j=j: float(rows[x.eid][_j])) for j in range(m)])
        lc = parse_loss_flag(family)
        params = lc.ball_params(2.0)
        committee = greedy_adapter(GreedyFitLearner(pool, n), rounds, params, offset_bound=1.0)
        singles = [OneStage(greedy_adapter(GreedyFitLearner(pool), rounds, params,
                                           offset_bound=1.0)) for _ in range(n)]
        ref = np.zeros((n, m))
        for t in range(rounds):
            ex = _ex({0: 1.0}, eid=t)
            assert committee.predict(ex) == [s.predict(ex) for s in singles]
            offsets = rng.uniform(-1, 1, n).tolist()
            loss = lc.make(float(rng.uniform(-1, 1)))
            committee.update(ex, offsets, loss)
            for i, (s, offset) in enumerate(zip(singles, offsets)):
                s.update(ex, offset, loss)
                assert (committee.cum[i] == s.committee.cum[0]).all()
                ref[i] += [loss.evaluate(offset + committee.alpha * v) for v in member_vals[t]]
            assert (committee.cum == ref).all()


class TestLowerBoundPool:
    def test_size_from_scale(self):
        pool = make_lower_bound_pool(4, seed=0)
        assert pool.size == 16000
        assert make_lower_bound_pool(4, seed=0, pool_scale=1 / 50).size == 200

    def test_degenerate_labels(self):
        pool = make_lower_bound_pool(1, seed=1, pool_scale=1 / 50)
        ones = pool.values(_ex({0: 1.0}, label=1.0, eid=0))
        zeros = pool.values(_ex({0: 2.0}, label=0.0, eid=1))
        assert np.all(ones == 1.0)
        assert np.all(zeros == 0.0)

    def test_memoization_consistent(self):
        pool = make_lower_bound_pool(2, seed=5, pool_scale=1 / 50)
        ex = _ex({0: 1.0}, label=0.5, eid=7)
        first = pool.values(ex).copy()
        np.testing.assert_array_equal(pool.values(ex), first)
        # once another example has taken the memo, a new object with the
        # same id and label is drawn again, to the same row
        pool.values(_ex({0: 1.0}, label=0.5, eid=8))
        np.testing.assert_array_equal(pool.values(_ex({0: 1.0}, label=0.5, eid=7)), first)
        assert pool.mean_value(ex) == float(first.mean())

    def test_rows_are_not_kept(self):
        pool = make_lower_bound_pool(1, seed=2)  # M = 4000: one float64 row is 32 KB
        tracemalloc.start()
        try:
            for t in range(1000):
                pool.values(_ex({0: 1.0}, label=0.5, eid=t))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 10 * 4000 * 8

    def test_means_are_kept_in_an_array_by_id(self):
        pool = make_lower_bound_pool(1, seed=4, pool_scale=1 / 5)  # M = 5
        rounds = 20_000
        tracemalloc.start()
        try:
            for t in range(rounds):
                pool.values(_ex({0: 1.0}, label=0.5, eid=t))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 16 * rounds  # one float64 per id, doubled at most
        # a new object with a recorded id reads its mean without a draw; an unseen id draws
        row = pool.values(_ex({0: 1.0}, label=0.5, eid=123)).copy()
        pool.values(_ex({0: 1.0}, label=0.5, eid=124))
        assert pool.mean_value(_ex({0: 1.0}, label=0.5, eid=123)) == float(row.mean())
        fresh = _ex({0: 1.0}, label=0.5, eid=5 * rounds)
        assert pool.mean_value(fresh) == float(pool.values(fresh).mean())
        with pytest.raises(ValueError, match="with an id"):
            pool.mean_value(_ex({0: 1.0}, label=0.5))

    def test_empirical_mean_concentrates(self):
        # binomial oracle: with n = 4000, p = 0.55 the mean deviates from p
        # by more than 0.03 (~3.8 sigma) with probability < 1e-3
        pool = make_lower_bound_pool(1, seed=9)  # M = 4000
        ex = _ex({0: 1.0}, label=0.55, eid=0)
        assert abs(pool.mean_value(ex) - 0.55) <= 0.03


class TestContractAcrossLearners:
    @pytest.mark.parametrize("make", [
        lambda: OnlineGradientLearner(output_bound=0.8),
        lambda: StumpLearner(output_bound=0.8),
    ])
    def test_predictions_bounded_after_updates(self, make):
        rng = np.random.default_rng(31)
        lrn = make()
        for ex, g in _random_linear_stream(rng, 300):
            assert abs(lrn.predict(ex)) <= lrn.output_bound + 1e-9
            lrn.update(ex, g)

    @pytest.mark.parametrize("make", [
        lambda: ogd_committee(3, output_bound=0.8),
        lambda: stump_committee(3, output_bound=0.8),
        lambda: hedge_committee(_const_pool([0.8, -0.4]), 3, 300),
        lambda: symmetrize(lambda: ogd_committee(3, output_bound=0.8), horizon=300),
        lambda: symmetrize(lambda: stump_committee(3, output_bound=0.8)),
        lambda: hedge_committee(_const_pool([0.8, -0.4]), 3),
        lambda: hedge_committee(_const_pool([0.8, -0.4]), 3, 300, mode="sample", seed=4),
    ])
    def test_committee_predictions_bounded_after_updates(self, make):
        rng = np.random.default_rng(31)
        committee = make()
        for ex, _ in _random_linear_stream(rng, 300):
            assert all(abs(p) <= committee.output_bound + 1e-9 for p in committee.predict(ex))
            committee.update(ex, rng.uniform(-1, 1, 3))
