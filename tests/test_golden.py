"""Golden traces: exact per-round test losses of fixed booster configs.

Each config runs progressive validation for T=400 rounds of one planted-hull
stream and stores the sha256 of its ``test_losses`` bytes.  The configs cover
both boosters over every stage kind in ``KINDS``: a list of OGD learners,
the OGD, stump and Hedge committees, Hedge on the doubling schedule
(``horizon=None``) as a list of one-stage committees and as one N-stage
committee, a symmetrized OGD committee and a symmetrized stump committee on
the doubling schedule, a symmetrized OGD committee with the known horizon T
(as the CLI builds it), a stump committee scaled by 2 and a greedy committee.
Each also runs on the same examples without ids, the ``Example`` default,
where pool memos cannot key on an id.

The symmetrized digests were recorded from lists of per-learner wrappers,
which the committees replaced; they must equal those lists bit for bit.  The
``hedge-doubling`` digests were recorded from lists of a per-copy Hedge
learner, which one-stage committees replaced, also bit for bit.  The N-stage
doubling committee sums each prediction over its weight matrix in another
order, so its digests are its own and its losses must lie within 1e-12 of
the one-stage committees'.  The ``greedy`` digests were recorded from lists
of per-copy greedy fitters, which one N-stage committee replaced, also bit
for bit.

These keys read ``algo/kind/ids`` and use squared loss.  Keys with a fourth
part ``algo/kind/ids/family`` run the OGD committee or the greedy committee on
the same stream re-bound to another loss family (greedy needs a smooth
family, so not ``linear``).

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
    OnlineGradientLearner,
    greedy_adapter,
    hedge_committee,
    ogd_committee,
    stump_committee,
    symmetrize,
)
from ogboost.losses import LossClass, parse_loss_flag

from committee_helpers import OneStage

ROUNDS = 400
STAGES = 5
WEIGHTS = [0.1, 0.15, 0.2, 0.25, 0.3]


def _stream(with_ids: bool, loss_class: LossClass) -> tuple[Stream, object]:
    pool = make_region_pool(len(WEIGHTS))
    stream, _ = planted_hull_stream(pool, WEIGHTS, 0.05, ROUNDS, seed=11)
    examples = stream.examples
    if not with_ids:
        examples = [Example(ex.features, ex.label) for ex in examples]
    return Stream(examples, loss_class), pool


def _greedy(sym, algo: str, lc: LossClass):
    n = STAGES
    offset_bound = lc.solve_ball_radius(auto_eta(n), n, 1.0) if algo == "span" else 1.0
    params = lc.ball_params(offset_bound + 1.0)
    return greedy_adapter(GreedyFitLearner(sym, n), ROUNDS, params, offset_bound=offset_bound), 1.0


# kind -> (symmetrized pool, algo, loss class) -> (stage learners or committee,
# booster output bound)
KINDS = {
    "ogd": lambda *_: ([OnlineGradientLearner() for _ in range(STAGES)], 1.0),
    "ogd-committee": lambda *_: (ogd_committee(STAGES), 1.0),
    "stump-committee": lambda *_: (stump_committee(STAGES), 1.0),
    "hedge-committee": lambda sym, *_: (hedge_committee(sym, STAGES, ROUNDS), 1.0),
    "hedge-doubling": lambda sym, *_: ([OneStage(hedge_committee(sym, 1))
                                        for _ in range(STAGES)], 1.0),
    "hedge-committee-doubling": lambda sym, *_: (hedge_committee(sym, STAGES), 1.0),
    "symmetrize-doubling": lambda *_: (symmetrize(lambda: ogd_committee(STAGES)), 1.0),
    "symmetrize-stump-doubling": lambda *_: (symmetrize(lambda: stump_committee(STAGES)), 1.0),
    "symmetrize-ogd-horizon": lambda *_: (symmetrize(lambda: ogd_committee(STAGES), ROUNDS),
                                          1.0),
    "scale": lambda *_: (scale_wrap(stump_committee(STAGES), 2.0), 2.0),
    "greedy": _greedy,
}


def _booster(algo: str, lc: LossClass, stages, output_bound: float):
    if algo == "span":
        return SpanBooster(lc, stages, None, output_bound)
    return HullBooster(lc, stages, output_bound)


def trace_losses(algo: str, kind: str, with_ids: bool, family: str = "squared") -> np.ndarray:
    lc = parse_loss_flag(family)
    stream, pool = _stream(with_ids, lc)
    booster = _booster(algo, lc, *KINDS[kind](pool.symmetrized(), algo, lc))
    losses = progressive_validate(stream, booster).test_losses
    assert losses.dtype == np.float64 and losses.shape == (ROUNDS,)
    assert np.isfinite(losses).all()
    return losses


def trace_digest(algo: str, kind: str, with_ids: bool, family: str = "squared") -> str:
    return hashlib.sha256(trace_losses(algo, kind, with_ids, family).tobytes()).hexdigest()


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
    "span/symmetrize-stump-doubling/ids": "58c5592b6a867e6d5f28afe46d9aeaaf458799a8125ab296e301a4fe6b5e1791",
    "span/symmetrize-stump-doubling/no-ids": "58c5592b6a867e6d5f28afe46d9aeaaf458799a8125ab296e301a4fe6b5e1791",
    "span/symmetrize-ogd-horizon/ids": "d832c9aa131abfaa183eab40ba52587eb3760da1161c8548b589057ab2e0150b",
    "span/symmetrize-ogd-horizon/no-ids": "d832c9aa131abfaa183eab40ba52587eb3760da1161c8548b589057ab2e0150b",
    "ch/symmetrize-stump-doubling/ids": "0e2ec16509950ab29c737ce8bd56ef7c8d5a0f7ce160a022aad532efac32cd6f",
    "ch/symmetrize-stump-doubling/no-ids": "0e2ec16509950ab29c737ce8bd56ef7c8d5a0f7ce160a022aad532efac32cd6f",
    "ch/symmetrize-ogd-horizon/ids": "93d374bc7da8532f0d1b540a6f2379348f51c7bd48c3f18ae502724d59ebf9fd",
    "ch/symmetrize-ogd-horizon/no-ids": "93d374bc7da8532f0d1b540a6f2379348f51c7bd48c3f18ae502724d59ebf9fd",
    "span/ogd-committee/ids/linear": "e2c781d0d0860defe5785439e68360f7b1817d033eb54b4c70b52e7e37ff3742",
    "span/ogd-committee/no-ids/linear": "e2c781d0d0860defe5785439e68360f7b1817d033eb54b4c70b52e7e37ff3742",
    "span/ogd-committee/ids/p-norm:3": "77d82ce153ceb1c686c46a74728ebe8d4c84b703cd15856a4bd20c79fc085333",
    "span/ogd-committee/no-ids/p-norm:3": "77d82ce153ceb1c686c46a74728ebe8d4c84b703cd15856a4bd20c79fc085333",
    "span/ogd-committee/ids/mls": "2eb5d27ae3c76323390b2a0f90d4952b96ea44f3e39f753e1997d11e4ecca252",
    "span/ogd-committee/no-ids/mls": "2eb5d27ae3c76323390b2a0f90d4952b96ea44f3e39f753e1997d11e4ecca252",
    "span/ogd-committee/ids/logistic": "5138c3ddf34905fe48b0f9c5151ea664220b16d1a09cef28ff107cdcc2314ed5",
    "span/ogd-committee/no-ids/logistic": "5138c3ddf34905fe48b0f9c5151ea664220b16d1a09cef28ff107cdcc2314ed5",
    "span/greedy/ids/p-norm:3": "99a029a90d636435268edda83448e02368b8ff4dd76559a091408505aeff1000",
    "span/greedy/no-ids/p-norm:3": "99a029a90d636435268edda83448e02368b8ff4dd76559a091408505aeff1000",
    "span/greedy/ids/mls": "d30a57beb47d24947599ff2144850249def9aeddbf6d1cc92f37946c3ec31964",
    "span/greedy/no-ids/mls": "d30a57beb47d24947599ff2144850249def9aeddbf6d1cc92f37946c3ec31964",
    "span/greedy/ids/logistic": "809b087a288109be98d11fbe0eee2c5d17e58bc00cbff876f8a0867f2d86e648",
    "span/greedy/no-ids/logistic": "809b087a288109be98d11fbe0eee2c5d17e58bc00cbff876f8a0867f2d86e648",
    "ch/ogd-committee/ids/linear": "03b4e10aecd0b84a8ddc94e89769986b9cb9b91a137bd447b7b5ecaa0408b631",
    "ch/ogd-committee/no-ids/linear": "03b4e10aecd0b84a8ddc94e89769986b9cb9b91a137bd447b7b5ecaa0408b631",
    "ch/ogd-committee/ids/p-norm:3": "65459bcf39fade6c4cc3aad8e5489734c4ddddde78ac973b5994105152014b46",
    "ch/ogd-committee/no-ids/p-norm:3": "65459bcf39fade6c4cc3aad8e5489734c4ddddde78ac973b5994105152014b46",
    "ch/ogd-committee/ids/mls": "d02c283be5d7b68f2de110d64250c194aac6d04099a662f7d12a862a43931702",
    "ch/ogd-committee/no-ids/mls": "d02c283be5d7b68f2de110d64250c194aac6d04099a662f7d12a862a43931702",
    "ch/ogd-committee/ids/logistic": "0abb47dd68462541ed0880b1da082cb9bf0107695fdf53e9bc4d478982b8262b",
    "ch/ogd-committee/no-ids/logistic": "0abb47dd68462541ed0880b1da082cb9bf0107695fdf53e9bc4d478982b8262b",
    "ch/greedy/ids/p-norm:3": "ff017e66f9e715fd2cd3551e3f85f09008bab58bdad2f24436b4adb00e19def3",
    "ch/greedy/no-ids/p-norm:3": "ff017e66f9e715fd2cd3551e3f85f09008bab58bdad2f24436b4adb00e19def3",
    "ch/greedy/ids/mls": "85ebc9280c490a890d1f90f83d1b6927e5ad6d889a1c98aab76342961078834a",
    "ch/greedy/no-ids/mls": "85ebc9280c490a890d1f90f83d1b6927e5ad6d889a1c98aab76342961078834a",
    "ch/greedy/ids/logistic": "a69f42622b477157894dbb9a0a158a6b768ec96a0c49f323e7bc12979bc05060",
    "ch/greedy/no-ids/logistic": "a69f42622b477157894dbb9a0a158a6b768ec96a0c49f323e7bc12979bc05060",
    "span/hedge-committee-doubling/ids": "3a4cb88cbd888c0a8a56a8f8e69b9fd7ad2b25386013696ac924cdb6eb92ed72",
    "span/hedge-committee-doubling/no-ids": "3a4cb88cbd888c0a8a56a8f8e69b9fd7ad2b25386013696ac924cdb6eb92ed72",
    "ch/hedge-committee-doubling/ids": "dfc35da740258107843a2bae80b96c55cd77fb2dce1fc2aad896a8f79faace76",
    "ch/hedge-committee-doubling/no-ids": "dfc35da740258107843a2bae80b96c55cd77fb2dce1fc2aad896a8f79faace76",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_trace(key):
    algo, kind, ids, *family = key.split("/")
    assert trace_digest(algo, kind, ids == "ids", *family) == GOLDEN[key]


def test_every_kind_has_digests():
    missing = [f"{algo}/{kind}/{ids}" for kind in KINDS for algo in ("span", "ch")
               for ids in ("ids", "no-ids") if f"{algo}/{kind}/{ids}" not in GOLDEN]
    assert missing == []
    assert {key.split("/")[1] for key in GOLDEN} == set(KINDS)


@pytest.mark.parametrize("with_ids", [True, False])
@pytest.mark.parametrize("algo", ["span", "ch"])
def test_hedge_committee_matches_one_stage_committees(algo, with_ids):
    # N rows of one weight matrix sum each prediction in another order than
    # N one-row committees, so their losses agree up to rounding only
    rows = trace_losses(algo, "hedge-committee-doubling", with_ids)
    singles = trace_losses(algo, "hedge-doubling", with_ids)
    np.testing.assert_allclose(rows, singles, rtol=0, atol=1e-12)
