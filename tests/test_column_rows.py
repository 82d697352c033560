"""Array-backed examples: column rows against dict-built examples.

A row read from ``ExampleColumns`` carries read-only views of its ids and
values and builds its feature dict only when ``features`` is read.  The
stage committees gather from those arrays, so a committee fed column rows
must equal the same committee fed dict-built examples, and both must equal
independent reference learners.
"""

import math

import numpy as np
import pytest

from ogboost.bench import (
    ExampleColumns,
    Stream,
    make_additive_stream,
    make_lower_bound_stream,
    progressive_validate,
    uniform_pool_comparator,
)
from ogboost.boosting import HullBooster, SpanBooster, scale_wrap
from ogboost.cli import main as cli_main
from ogboost.core import Example
from ogboost.learners import (
    OnlineGradientLearner,
    StumpLearner,
    hedge_committee,
    ogd_committee,
    stump_committee,
    symmetrize,
)
from ogboost.losses import LossClass

N = 4
ROUNDS = 400


def _rows(seed: int = 21):
    """(ids, values, label) rows: ids listed out of order, empty rows, late new ids.

    Ids 0..11 appear from the start, which fills more than the 8 slots a
    committee starts with; ids 12..39 first appear after round 150.  Values
    are drawn from a few levels, so cumulative stump losses tie often.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(ROUNDS):
        k = 0 if t % 23 == 4 else int(rng.integers(1, 8))
        ids = rng.choice(12 if t < 150 else 40, k, replace=False).tolist()
        values = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5], k).tolist()
        rows.append((ids, values, float(rng.uniform(-1.0, 1.0))))
    return rows


def _columns(rows) -> ExampleColumns:
    indptr = np.cumsum([0] + [len(ids) for ids, _, _ in rows])
    return ExampleColumns(indptr, [k for ids, _, _ in rows for k in ids],
                          [v for _, vals, _ in rows for v in vals], [l for _, _, l in rows])


def _dict_examples(rows):
    return [Example(dict(zip(ids, vals)), label, eid=t)
            for t, (ids, vals, label) in enumerate(rows)]


def test_rows_cover_the_awkward_cases():
    rows = _rows()
    assert any(ids != sorted(ids) for ids, _, _ in rows)
    assert any(not ids for ids, _, _ in rows)
    early = {k for ids, _, _ in rows[:150] for k in ids}
    assert len(early) > 8
    assert {k for ids, _, _ in rows[150:] for k in ids} - early


class TestExampleArrays:
    def test_column_row_carries_read_only_views_and_builds_its_dict_lazily(self):
        rows = _rows()
        columns = _columns(rows)
        for t, ex in enumerate(columns):
            ids, vals, label = rows[t]
            assert ex._features is None
            assert ex.ids.dtype == np.int64 and ex.values.dtype == np.float64
            assert ex.ids.base is not None and ex.values.base is not None  # views
            assert not ex.ids.flags.writeable and not ex.values.flags.writeable
            assert ex.ids.tolist() == ids and ex.values.tolist() == vals
            assert (ex.label, ex.eid) == (label, t)
            assert list(ex.features.items()) == list(zip(ids, vals))
            assert ex.features is ex.features
        ex = columns[7]
        assert ex._features is None and ex.ids.tolist() == rows[7][0]

    def test_dict_example_derives_its_arrays_once(self):
        ex = Example({5: 0.5, 2: -1.0, 9: 2.0}, 0.25, eid=3)
        ids, values = ex.ids, ex.values
        assert ids.tolist() == [5, 2, 9] and values.tolist() == [0.5, -1.0, 2.0]
        assert ex.ids is ids and ex.values is values
        assert not ids.flags.writeable and not values.flags.writeable
        empty = Example({})
        assert empty.ids.shape == (0,) and empty.values.shape == (0,)

    def test_validate_and_repr(self):
        ex = Example.from_arrays(np.array([4, 1]), np.array([0.5, math.nan]), 1.0, 2)
        with pytest.raises(ValueError, match="non-finite feature value for id 1"):
            ex.validate()
        assert repr(Example({1: 0.5}, 1.0, 0)) == "Example(features={1: 0.5}, label=1.0, eid=0)"


def _stump_copies(output_bound=1.0, lr=1.0):
    return [StumpLearner(output_bound, lr) for _ in range(N)]


def _ogd_copies(output_bound=1.0, lr=1.0):
    return [OnlineGradientLearner(output_bound, lr) for _ in range(N)]


# (build the committee, build N independent reference copies or None)
COMMITTEES = {
    "stump": (lambda: stump_committee(N), _stump_copies),
    "ogd": (lambda: ogd_committee(N), _ogd_copies),
    # a small ball and a large rate, so the norm projection binds
    "ogd-projection-binds": (lambda: ogd_committee(N, 0.7, 4.0), lambda: _ogd_copies(0.7, 4.0)),
    "stump-symmetrized": (lambda: symmetrize(lambda: stump_committee(N), ROUNDS), None),
    "ogd-symmetrized": (lambda: symmetrize(lambda: ogd_committee(N), ROUNDS), None),
    "stump-scale-2": (lambda: scale_wrap(stump_committee(N), 2.0), None),
    "ogd-scale-2": (lambda: scale_wrap(ogd_committee(N), 2.0), None),
}


@pytest.mark.parametrize("name", sorted(COMMITTEES))
def test_committee_on_column_rows_equals_dict_examples(name):
    build, copies = COMMITTEES[name]
    rows = _rows()
    on_columns, on_dicts = build(), build()
    singles = copies() if copies is not None else None
    gs = np.random.default_rng(5).uniform(-1, 1, size=(ROUNDS, N))
    projected = 0
    for t, (col_ex, dict_ex) in enumerate(zip(_columns(rows), _dict_examples(rows))):
        preds = on_columns.predict(col_ex)
        assert preds == on_dicts.predict(dict_ex)
        if singles is not None:
            assert preds == [lrn.predict(dict_ex) for lrn in singles]
            for lrn, g in zip(singles, gs[t]):
                lrn.update(dict_ex, float(g))
        on_columns.update(col_ex, gs[t])
        on_dicts.update(dict_ex, gs[t])
        assert col_ex._features is None  # the committee read the arrays only
        if name.startswith("ogd") and singles is not None:
            assert on_columns.norm2.tolist() == [lrn._norm2 for lrn in singles]
            projected += int((on_columns.norm2 == on_columns.output_bound ** 2).sum())
    if name == "ogd-projection-binds":
        assert projected > ROUNDS  # more than one stage per round on average


def test_stump_ties_go_to_the_lowest_id_in_any_row_order():
    committee = stump_committee(2)
    ex = Example.from_arrays(np.array([9, 3, 6]), np.array([1.0, -0.5, 2.0]), 0.0, 0)
    committee.update(ex, [0.5, -0.5])  # every weight moves; no cumulative loss moves yet
    lowest = Example({3: -0.5}, 0.0, 1)
    preds = committee.predict(ex)
    assert preds == committee.predict(lowest)
    assert preds != [0.0, 0.0]


def _no_feature_dict(monkeypatch):
    def fail(self):
        raise AssertionError("a feature dict was built")

    monkeypatch.setattr(Example, "features", property(fail))


def test_file_run_builds_no_feature_dict(monkeypatch, tmp_path):
    # ogboost run --base ogd on a libsvm file: parse, rounds and artifacts
    rows = _rows()
    lines = [f"{label!r} " + " ".join(f"{k}:{v!r}" for k, v in zip(ids, vals))
             for ids, vals, label in rows if ids]
    (tmp_path / "rows.svm").write_text("\n".join(lines) + "\n")
    _no_feature_dict(monkeypatch)
    assert cli_main(["run", "--base", "ogd", "--stages", "5", "--data", str(tmp_path / "rows.svm"),
                     "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("kind", ["stump", "ogd", "hedge-sample"])
def test_column_stream_run_builds_no_feature_dict(monkeypatch, kind):
    if kind == "hedge-sample":
        stream, pool = make_lower_bound_stream(2, None, seed=4, pool_scale=1 / 20)
        booster = HullBooster(stream.loss_class,
                              hedge_committee(pool, 2, len(stream), mode="sample", seed=4))
    else:
        stream = make_additive_stream(500, seed=8)
        make = stump_committee if kind == "stump" else ogd_committee
        booster = SpanBooster(LossClass("squared"), make(5))
    _no_feature_dict(monkeypatch)
    metrics = progressive_validate(stream, booster)
    assert len(metrics.test_losses) == len(stream)
    if kind == "hedge-sample":
        uniform_pool_comparator(stream, pool)


class TestUniformPoolComparator:
    def _expected(self, stream, pool):
        return np.array([pool.mean_value(ex) for ex in stream.examples])

    @pytest.mark.parametrize("drawn", ["none", "half", "all"])
    def test_equals_the_per_example_means(self, drawn):
        stream, pool = make_lower_bound_stream(1, None, seed=6, pool_scale=1 / 20)
        reference = make_lower_bound_stream(1, None, seed=6, pool_scale=1 / 20)[1]
        n = {"none": 0, "half": len(stream) // 2, "all": len(stream)}[drawn]
        for ex in stream.examples[:n]:
            pool.values(ex)
        values = uniform_pool_comparator(stream, pool).values
        assert values.tobytes() == self._expected(stream, reference).tobytes()

    def test_list_stream_and_missing_id(self):
        stream, pool = make_lower_bound_stream(1, None, seed=6, pool_scale=1 / 20)
        reference = make_lower_bound_stream(1, None, seed=6, pool_scale=1 / 20)[1]
        listed = Stream(list(stream.examples)[::-1], stream.loss_class)
        values = uniform_pool_comparator(listed, pool).values
        assert values.tobytes() == self._expected(listed, reference).tobytes()
        no_id = Stream([Example({0: 1.0}, 0.5)], stream.loss_class)
        with pytest.raises(ValueError, match="with an id"):
            uniform_pool_comparator(no_id, pool)
