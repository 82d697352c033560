"""Golden traces: exact per-round test losses of fixed booster configs.

Each config runs progressive validation for T=400 rounds of one planted-hull
stream and stores the sha256 of its ``test_losses`` bytes.  The configs cover
both boosters over every stage kind: a list of OGD learners, the OGD, stump
and Hedge committees, a list of ``HedgeLearner`` copies and of symmetrized OGD
learners (both on the doubling schedule, ``horizon=None``), a stump committee
scaled by 2 and greedy-offset adapters.  Each also runs on the same examples
without ids, the ``Example`` default, where pool memos cannot key on an id.

The OGD committee must equal the list of OGD learners, so both kinds share
their digests.

A refactor must leave every digest unchanged.  A deliberate numeric change
updates the digests and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from ogboost.bench import Stream, make_region_pool, planted_hull_stream, progressive_validate
from ogboost.boosting import HullBooster, SpanBooster, auto_eta, scale_wrap
from ogboost.core import Example
from ogboost.learners import (
    GreedyFitLearner,
    HedgeLearner,
    OnlineGradientLearner,
    greedy_adapter,
    hedge_committee,
    ogd_committee,
    stump_committee,
    symmetrize,
)
from ogboost.losses import LossClass

ROUNDS = 400
STAGES = 5
SQ = LossClass("squared")
WEIGHTS = [0.1, 0.15, 0.2, 0.25, 0.3]


def _stream(with_ids: bool) -> tuple[Stream, object]:
    pool = make_region_pool(len(WEIGHTS))
    stream, _ = planted_hull_stream(pool, WEIGHTS, 0.05, ROUNDS, seed=11)
    if not with_ids:
        stream = Stream([Example(ex.features, ex.label) for ex in stream.examples],
                        stream.loss_class)
    return stream, pool


def _stages(kind: str, algo: str, pool):
    """(stage learners or committee, booster output bound)"""
    n = STAGES
    sym = pool.symmetrized()
    if kind == "ogd":
        return [OnlineGradientLearner() for _ in range(n)], 1.0
    if kind == "ogd-committee":
        return ogd_committee(n), 1.0
    if kind == "stump-committee":
        return stump_committee(n), 1.0
    if kind == "hedge-committee":
        return hedge_committee(sym, n, ROUNDS), 1.0
    if kind == "hedge-doubling":
        return [HedgeLearner(sym) for _ in range(n)], 1.0
    if kind == "symmetrize-doubling":
        return [symmetrize(OnlineGradientLearner()) for _ in range(n)], 1.0
    if kind == "scale":
        return scale_wrap(stump_committee(n), 2.0), 2.0
    assert kind == "greedy"
    offset_bound = SQ.solve_ball_radius(auto_eta(n), n, 1.0) if algo == "span" else 1.0
    params = SQ.ball_params(offset_bound + 1.0)
    ads = [greedy_adapter(GreedyFitLearner(sym), ROUNDS, params, offset_bound=offset_bound)
           for _ in range(n)]
    return ads, 1.0


def _booster(algo: str, stages, output_bound: float):
    if algo == "span":
        return SpanBooster(SQ, stages, None, output_bound)
    return HullBooster(SQ, stages, output_bound)


def trace_digest(algo: str, kind: str, with_ids: bool) -> str:
    stream, pool = _stream(with_ids)
    booster = _booster(algo, *_stages(kind, algo, pool))
    losses = progressive_validate(stream, booster).test_losses
    assert losses.dtype == np.float64 and losses.shape == (ROUNDS,)
    return hashlib.sha256(losses.tobytes()).hexdigest()


GOLDEN = {
    "span/ogd/ids": "fc44919d41c464596dda8d086cb70e0c70bc753402ad1b2e8f1fe70c1fae41f5",
    "span/ogd/no-ids": "fc44919d41c464596dda8d086cb70e0c70bc753402ad1b2e8f1fe70c1fae41f5",
    "span/ogd-committee/ids": "fc44919d41c464596dda8d086cb70e0c70bc753402ad1b2e8f1fe70c1fae41f5",
    "span/ogd-committee/no-ids": "fc44919d41c464596dda8d086cb70e0c70bc753402ad1b2e8f1fe70c1fae41f5",
    "span/stump-committee/ids": "bc7fdf33e027531582c58492bfb8c2e07c230b46f750bc799fd3e09ff221257a",
    "span/stump-committee/no-ids": "bc7fdf33e027531582c58492bfb8c2e07c230b46f750bc799fd3e09ff221257a",
    "span/hedge-committee/ids": "da5116a1e337624b48ed87b28ad960bbeb81b62a137535280e2c9d2486162439",
    "span/hedge-committee/no-ids": "da5116a1e337624b48ed87b28ad960bbeb81b62a137535280e2c9d2486162439",
    "span/hedge-doubling/ids": "7549c29153fa9eaad1ca08b65dbd162ef58ac0bd341eef01436c66cca37edae0",
    "span/hedge-doubling/no-ids": "7549c29153fa9eaad1ca08b65dbd162ef58ac0bd341eef01436c66cca37edae0",
    "span/symmetrize-doubling/ids": "66635932988b50f643a4f46d6658f77780cfaa258412bd92effc5fca77bf45a9",
    "span/symmetrize-doubling/no-ids": "66635932988b50f643a4f46d6658f77780cfaa258412bd92effc5fca77bf45a9",
    "span/scale/ids": "d1c2b263581e80c9c0f2cb4e3f0411902607499d4ddba2139baca34871f3f93b",
    "span/scale/no-ids": "d1c2b263581e80c9c0f2cb4e3f0411902607499d4ddba2139baca34871f3f93b",
    "span/greedy/ids": "da74bd5016c83d9d950de0a56d4eabe446cb1458245d6923369a0d1345f95e49",
    "span/greedy/no-ids": "da74bd5016c83d9d950de0a56d4eabe446cb1458245d6923369a0d1345f95e49",
    "ch/ogd/ids": "87997a375a6437fe0e918bc5e60e8cda0cb338dce2458abf8cb7ede1825d57b1",
    "ch/ogd/no-ids": "87997a375a6437fe0e918bc5e60e8cda0cb338dce2458abf8cb7ede1825d57b1",
    "ch/ogd-committee/ids": "87997a375a6437fe0e918bc5e60e8cda0cb338dce2458abf8cb7ede1825d57b1",
    "ch/ogd-committee/no-ids": "87997a375a6437fe0e918bc5e60e8cda0cb338dce2458abf8cb7ede1825d57b1",
    "ch/stump-committee/ids": "c068d76e6099e603f48cce3c9096b22ae5bcfaaa03467dc773f8653429a3208e",
    "ch/stump-committee/no-ids": "c068d76e6099e603f48cce3c9096b22ae5bcfaaa03467dc773f8653429a3208e",
    "ch/hedge-committee/ids": "e28fbbea6c2ee9c18d5ba526cff47d0dcf5a433e72b5d427b95ab9bba4a449a9",
    "ch/hedge-committee/no-ids": "e28fbbea6c2ee9c18d5ba526cff47d0dcf5a433e72b5d427b95ab9bba4a449a9",
    "ch/hedge-doubling/ids": "3f551de0f43ce01357c13e678faa86ea603f55b1ddc47df827657c3db1cfead1",
    "ch/hedge-doubling/no-ids": "3f551de0f43ce01357c13e678faa86ea603f55b1ddc47df827657c3db1cfead1",
    "ch/symmetrize-doubling/ids": "0922283cfdd766d5e110b19194bbcabd03882f2130b1e21e2f140d8ff5f00515",
    "ch/symmetrize-doubling/no-ids": "0922283cfdd766d5e110b19194bbcabd03882f2130b1e21e2f140d8ff5f00515",
    "ch/scale/ids": "c3f5a4e5cc8b6116f62688d15ddb5ecb942a58c39a039e5c9a50382e74937a22",
    "ch/scale/no-ids": "c3f5a4e5cc8b6116f62688d15ddb5ecb942a58c39a039e5c9a50382e74937a22",
    "ch/greedy/ids": "ff92bc2996d7bab26b3cece04c0460f1fb97e6d7dbf148ff057b983f2143dfa6",
    "ch/greedy/no-ids": "ff92bc2996d7bab26b3cece04c0460f1fb97e6d7dbf148ff057b983f2143dfa6",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_trace(key):
    algo, kind, ids = key.split("/")
    assert trace_digest(algo, kind, ids == "ids") == GOLDEN[key]
