"""Harness: parsing, synthetic streams, oracles, progressive validation."""

import hashlib
import math
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ogboost.bench
from ogboost.core import Example, feature_id
from ogboost.losses import LossClass
from ogboost.learners import FunctionPool, hedge_committee
from ogboost.boosting import HullBooster, SpanBooster
from ogboost.bench import (
    ComparatorSpec,
    ExampleColumns,
    Stream,
    StreamFormatError,
    best_convex_hull_oracle,
    hull_regret_bound,
    make_additive_stream,
    make_lower_bound_stream,
    make_region_pool,
    parse_stream,
    planted_hull_stream,
    planted_span_stream,
    progressive_validate,
    regret_report,
    span_regret_bound,
    uniform_pool_comparator,
    zero_comparator,
)


def _write_stream(stream, path, fmt="libsvm", names=()):
    """Write a stream back as text at full float precision; a csv file has columns ``names``."""
    if fmt == "libsvm":
        lines = [" ".join([repr(float(ex.label))]
                          + [f"{k}:{float(v)!r}" for k, v in sorted(ex.features.items())])
                 for ex in stream.examples]
    else:
        lines = ["label," + ",".join(names)] + [
            ",".join(repr(float(v)) for v in
                     [ex.label, *(ex.features.get(feature_id(n), 0.0) for n in names)])
            for ex in stream.examples]
    Path(path).write_text("\n".join(lines) + "\n")


# libsvm text with duplicate ids, ids beyond int64, zeros, -0.0, non-finite
# values, tabs, double spaces and misplaced colons
_ID_TOKENS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", "1", "3", "01", "-2", "+4", "1e2", "a", "",
                     "9223372036854775807", "9223372036854775808", "1" * 25]))
_VALUE_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats().map(repr),
    st.sampled_from(["1", "0", "0.0", "-0.0", "2.5", "-3", "nan", "inf", "-inf", "1e999",
                     "-1e999", "1e-320", "", ".", "x"]))
_PAIR_TOKENS = st.builds("{}{}{}".format, _ID_TOKENS,
                         st.sampled_from([":"] * 6 + ["::", ""]), _VALUE_TOKENS)
_SEPARATORS = st.sampled_from([" "] * 6 + ["  ", "\t", " \t"])


@st.composite
def _libsvm_lines(draw):
    toks = [draw(_VALUE_TOKENS)] + draw(st.lists(_PAIR_TOKENS, max_size=5))
    line = toks[0] + "".join(draw(_SEPARATORS) + tok for tok in toks[1:])
    return (draw(st.sampled_from([""] * 6 + [" "])) + line
            + draw(st.sampled_from([""] * 6 + [" ", "\t"])))


# single-spaced lines of integer ids and finite values, so that whole blocks take the
# fast path beside faulty lines; the ids repeat, descend and straddle 2**53
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PLAIN_LINES = st.builds(
    lambda label, pairs: " ".join([repr(label), *(f"{k}:{v!r}" for k, v in pairs)]),
    _FINITE,
    st.lists(st.tuples(st.one_of(st.integers(-5, 40),
                                 st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -2**53])),
                       _FINITE), max_size=5))


class TestParsing:
    def test_libsvm_line(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("1 3:0.5 7:1.2\n-1 3:0.25\n")
        s = parse_stream(p, "libsvm")
        assert s.examples[0].features == {3: 0.5, 7: 1.2}
        assert s.examples[0].label == 1.0  # labels already fill [-1, 1]
        assert s.examples[1].label == -1.0

    def test_csv_affine_endpoints(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,a,b\n29,1,0\n1,0,2\n15,1,1\n")
        s = parse_stream(p, "csv", label_range=(0.0, 1.0))
        assert s.examples[0].label == 1.0
        assert s.examples[1].label == 0.0
        assert s.examples[2].label == pytest.approx(0.5)
        # zeros dropped from the sparse map
        assert len(s.examples[0].features) == 1

    def test_malformed_lines_cite_numbers(self, tmp_path):
        p = tmp_path / "bad.svm"
        p.write_text("1 3:0.5\nxyz 1:2\n")
        with pytest.raises(StreamFormatError, match=":2:"):
            parse_stream(p, "libsvm")
        q = tmp_path / "bad2.svm"
        q.write_text("1 3:0.5\n0.5 7:\n")
        with pytest.raises(StreamFormatError, match=":2:"):
            parse_stream(q, "libsvm")

    @pytest.mark.parametrize("line, error", [
        ("1 3 :0.5", "malformed pair '3'"),
        ("1 3: 0.5", "malformed pair '3:'"),
        ("1:2 3 4:5", "non-numeric label '1:2'"),
        ("1 3 4:5:6", "malformed pair '3'"),
        ("1 3:0.5 1e999:2", "malformed pair '1e999:2'"),
        ("1 3.0:0.5", "malformed pair '3.0:0.5'"),
        ("1 2:1 1e1:2", "malformed pair '1e1:2'"),
    ])
    def test_misplaced_colons_cite_line(self, tmp_path, line, error):
        # colon and number counts match a well-formed line; the tokens do not
        p = tmp_path / "d.svm"
        p.write_text(f"-1 1:1\n{line}\n")
        with pytest.raises(StreamFormatError, match=re.escape(f"{p}:2: {error}")):
            parse_stream(p, "libsvm")

    @pytest.mark.parametrize("text, rows", [
        ("1\t3:0.5  7:1.2 \n-1 3:0 3:0.25 7:1 7:-0.0 9:1e-3\n",
         [[(3, 0.5), (7, 1.2)], [(3, 0.25), (7, 1.0), (9, 0.001)]]),
        ("1 9007199254740993:0.5\n-1 2:1\n", [[(9007199254740993, 0.5)], [(2, 1.0)]]),
        ("1 7:0.5 3:1.5 2:2\n-1 2:1 4:1\n", [[(7, 0.5), (3, 1.5), (2, 2.0)], [(2, 1.0), (4, 1.0)]]),
        ("1 3:0.5 7:1 3:2\n-1 2:1\n", [[(3, 2.0), (7, 1.0)], [(2, 1.0)]]),
        ("1 3:0 4:-0.0 5:2\n-1 2:1\n", [[(5, 2.0)], [(2, 1.0)]]),
        ("1 3:0.5\r\n-1 2:1\r\n", [[(3, 0.5)], [(2, 1.0)]]),
        ("1 3:0.5\f-1 2:1\n", [[(3, 0.5)], [(2, 1.0)]]),
    ], ids=["spacing-zeros-repeats", "id-2**53+1", "descending-ids", "repeated-ids",
            "zero-values", "crlf", "form-feed"])
    def test_irregular_spacing_zeros_and_repeated_ids(self, tmp_path, text, rows):
        p = tmp_path / "d.svm"
        p.write_bytes(text.encode())
        s = parse_stream(p, "libsvm")
        assert s.labels.tolist() == [1.0, -1.0]
        # ids and values as stored, so a repeated id cannot hide behind the feature dict
        assert [list(zip(ex.ids.tolist(), ex.values.tolist())) for ex in s.examples] == rows

    @pytest.mark.parametrize("fmt, text, where", [
        ("libsvm", "0.5 1:1\n-0.5 1:2\ninf 1:3\n0.25 1:4\n", "3: non-finite label"),
        ("libsvm", "0.5 1:1\n\n-0.5 1:nan 2:1\n", "3: non-finite feature"),
        ("csv", "label,a\n0.5,1\n-0.5,2\ninf,3\n0.25,4\n", "4: non-finite label"),
        ("csv", "label,a\n0.5,1\n\n-0.5,nan\n", "4: non-finite feature"),
        ("libsvm", "0.5 1:1\r\n-0.5 1:2\r\ninf 1:3\r\n", "3: non-finite label"),
        # a form feed breaks a line where str.splitlines breaks it
        ("libsvm", "0.5 1:1\f\n-0.5 1:2\n0.25 1:nan\n", "4: non-finite feature"),
    ], ids=["libsvm-label", "libsvm-feature", "csv-label", "csv-feature", "libsvm-crlf-label",
            "libsvm-form-feed-feature"])
    def test_non_finite_values_cite_line(self, tmp_path, fmt, text, where):
        p = tmp_path / f"d.{fmt}"
        p.write_bytes(text.encode())
        with pytest.raises(StreamFormatError, match=re.escape(f"{p}:{where}")):
            parse_stream(p, fmt)

    def test_label_that_overflows_the_rescale_cites_line(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("-1.7e308 1:1\n1e308 1:2\n1.7e308 1:3\n")
        with pytest.raises(StreamFormatError, match=re.escape(f"{p}:2: non-finite label")):
            parse_stream(p, "libsvm")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.svm"
        p.write_text("\n")
        with pytest.raises(StreamFormatError, match="empty"):
            parse_stream(p, "libsvm")

    @pytest.mark.parametrize("text", ["", "\n \n", "label,a\n\n"])
    def test_empty_csv(self, tmp_path, text):
        p = tmp_path / "e.csv"
        p.write_text(text)
        with pytest.raises(StreamFormatError, match="empty"):
            parse_stream(p, "csv")

    def test_feature_id_beyond_int64_cites_line(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("1 1:1\n-1 3:0.5 9223372036854775808:1\n")
        with pytest.raises(StreamFormatError, match=re.escape(f"{p}:2: feature id out of")):
            parse_stream(p, "libsvm")

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("1 1:1\n")
        with pytest.raises(StreamFormatError):
            parse_stream(p, "parquet")

    def test_degenerate_labels(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("1 1:1\n1 2:1\n")
        with pytest.raises(StreamFormatError, match="degenerate"):
            parse_stream(p, "libsvm")

    @pytest.mark.parametrize("fmt", ["libsvm", "csv"])
    def test_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(3)
        if fmt == "csv":
            lines = ["label,f1,f2,f3"]
            for _ in range(40):
                lines.append(",".join([f"{rng.uniform(-2, 5):.6f}"]
                                      + [f"{rng.uniform(-1, 1):.6f}" for _ in range(3)]))
            text = "\n".join(lines) + "\n"
        else:
            rows = []
            for _ in range(40):
                pairs = " ".join(f"{j}:{rng.uniform(-1, 1):.6f}"
                                 for j in sorted(rng.choice(20, 4, replace=False)))
                rows.append(f"{rng.uniform(-2, 5):.6f} {pairs}")
            text = "\n".join(rows) + "\n"
        p = tmp_path / f"d.{fmt}"
        p.write_text(text)
        s1 = parse_stream(p, fmt)
        q = tmp_path / f"rt.{fmt}"
        _write_stream(s1, q, fmt, ["f1", "f2", "f3"])
        s2 = parse_stream(q, fmt)
        assert len(s1) == len(s2)
        for a, b in zip(s1.examples, s2.examples):
            assert a.features == b.features
            assert a.label == b.label

    def test_round_trip_from_synthetic_stream(self, tmp_path):
        # generated streams hold numpy scalars, unlike parsed ones
        s1 = make_additive_stream(50, seed=0)
        p = tmp_path / "additive.svm"
        _write_stream(s1, p)
        s2 = parse_stream(p, "libsvm")
        assert len(s2) == len(s1)
        labels = np.array([ex.label for ex in s1.examples])
        lo, hi = labels.min(), labels.max()
        for a, b in zip(s1.examples, s2.examples):
            assert b.features == a.features
            assert b.label == pytest.approx(-1.0 + 2.0 * (a.label - lo) / (hi - lo), abs=1e-12)

    @given(line=_libsvm_lines())
    @settings(max_examples=400, deadline=None)
    def test_fast_path_agrees_with_token_path(self, line):
        block = ogboost.bench._libsvm_block([line])
        if block is not None:
            labels, ids, values, _ = block
            plain = (float(labels[0]), ids.tolist(), values.tolist())
            token = ogboost.bench._libsvm_line(Path("d.svm"), 1, line)
            assert repr(plain) == repr(token)  # repr tells -0.0 from 0.0 and int from float

    @given(lines=st.lists(st.one_of(_libsvm_lines(), _PLAIN_LINES, st.just("")),
                          min_size=1, max_size=12),
           breaks=st.lists(st.sampled_from(["\n"] * 6 + ["\r\n", "\f"]), min_size=12,
                           max_size=12),
           hint=st.integers(1, 120))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_blocks_agree_with_line_by_line(self, tmp_path, monkeypatch, lines, breaks, hint):
        # small blocks put faults, blank lines and line breaks on block edges
        p = tmp_path / "blocks.svm"
        p.write_bytes("".join(map(str.__add__, lines, breaks)).encode())

        def parsed():
            try:
                columns = parse_stream(p, "libsvm").examples
            except StreamFormatError as e:
                return str(e)
            return [(a.dtype, a.tobytes()) for a in
                    (columns.indptr, columns.ids, columns.values, columns.labels)]

        monkeypatch.setattr(ogboost.bench, "_BLOCK_HINT", hint)
        blocks = parsed()
        with monkeypatch.context() as m:
            m.setattr(ogboost.bench, "_libsvm_block", lambda lines: None)
            assert blocks == parsed()

    @given(lines=st.lists(st.one_of(_libsvm_lines(), st.just("")), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_file_parses_or_cites_where(self, tmp_path, lines):
        p = tmp_path / "fuzz.svm"
        p.write_text("\n".join(lines) + "\n")
        try:
            stream = parse_stream(p, "libsvm")
        except StreamFormatError as e:
            located = re.match(rf"{re.escape(str(p))}:(\d+): ", str(e))
            # a fault of the whole file (empty, all labels equal) cites the file alone
            assert located or str(e).startswith(f"{p}: "), str(e)
            assert located is None or 1 <= int(located[1]) <= len(lines)
            return
        assert len(stream) == sum(bool(line.strip()) for line in lines)
        for ex in stream.examples:
            assert len(set(ex.ids.tolist())) == len(ex.ids)
            assert np.isfinite(ex.values).all() and (ex.values != 0.0).all()

    def test_replay_determinism(self, tmp_path):
        pool = make_region_pool(4)
        stream, _ = planted_span_stream(pool, [0.2, -0.2, 0.2, -0.2], 0.01, 200, seed=3)
        first = [(ex.features, ex.label, li.y_star) for ex, li in stream]
        second = [(ex.features, ex.label, li.y_star) for ex, li in stream]
        assert first == second


class TestLowerBoundStream:
    def test_published_parameters(self):
        stream, pool = make_lower_bound_stream(4, None, seed=0, pool_scale=1 / 50)
        # labels are 1/2 +- eps with eps = 1/(10 sqrt(4)) = 1/20
        assert set(stream.labels.tolist()) == {0.55, 0.45}
        assert pool.size == 200
        assert len(stream) == 12 * 200

    def test_full_scale_pool_size(self):
        stream, pool = make_lower_bound_stream(4, None, seed=0)
        assert pool.size == 16000
        assert len(stream) == 192000

    def test_short_streams_rejected_naming_threshold(self):
        with pytest.raises(ValueError, match="12\\*M"):
            make_lower_bound_stream(4, 100, seed=0, pool_scale=1 / 50)

    def test_mean_comparator_loss_formula(self):
        # expected per-round comparator loss is y*(1 - y*)/(2M); check the
        # empirical average against a generous multiple of its standard error
        stream, pool = make_lower_bound_stream(2, None, seed=11, pool_scale=1 / 50)
        m = pool.size
        comp = uniform_pool_comparator(stream, pool)
        losses = np.array([0.5 * (v - ex.label) ** 2
                           for ex, v in zip(stream.examples, comp.values)])
        expected = np.mean([ex.label * (1 - ex.label) / (2 * m)
                            for ex in stream.examples])
        assert losses.mean() == pytest.approx(expected, rel=0.25)

    def test_concentration_bound(self):
        # comparator total stays under T/M on almost all seeds
        ok = 0
        for seed in range(50):
            stream, pool = make_lower_bound_stream(1, None, seed=seed, pool_scale=1 / 50)
            comp = uniform_pool_comparator(stream, pool)
            total = comp.total_loss(stream)
            ok += total <= len(stream) / pool.size
        assert ok >= 45


class TestPlantedStreams:
    def test_zero_weights_zero_labels(self):
        pool = make_region_pool(4)
        stream, comp = planted_span_stream(pool, [0, 0, 0, 0], 0.0, 50, seed=1)
        assert all(ex.label == 0.0 for ex in stream.examples)
        assert comp.norm1 == 1.0
        zero = zero_comparator(len(stream))
        assert zero.total_loss(stream) == 0.0

    def test_single_member_planted(self):
        pool = make_region_pool(4)
        stream, comp = planted_span_stream(pool, [1, 0, 0, 0], 0.0, 200, seed=2)
        assert comp.total_loss(stream) == pytest.approx(0.0, abs=1e-18)
        delta0 = sum(li.evaluate(0.0) for _, li in stream)
        assert delta0 > 0

    def test_norm1_recorded(self):
        pool = make_region_pool(4)
        _, comp = planted_span_stream(pool, [1.5, -0.75, 0.5, -0.25], 0.0, 10, seed=3)
        assert comp.norm1 == 3.0

    def test_hull_weights_validated(self):
        pool = make_region_pool(4)
        with pytest.raises(ValueError):
            planted_hull_stream(pool, [0.5, 0.6, 0.2, -0.3], 0.0, 10, seed=1)

    def test_labels_within_range(self):
        pool = make_region_pool(8)
        stream, _ = planted_span_stream(pool, [0.5] * 8, 0.05, 500, seed=4)
        labels = stream.labels
        assert labels.min() >= -1.0 and labels.max() <= 1.0

    def test_region_pool_member_responds_on_its_region_only(self):
        pool = make_region_pool(4)
        assert list(pool.values(Example({0: 3.0, 1: -0.7}))) == [0.0, 0.0, -0.7, 0.0]
        for region in (0.0, 2.5, 5.0, math.nan, None):
            feats = {1: 0.4} if region is None else {0: region, 1: 0.4}
            assert list(pool.values(Example(feats))) == [0.0] * 4, region

    def test_additive_stream_shape(self):
        s = make_additive_stream(300, seed=5)
        assert len(s) == 300
        assert s.labels.min() >= -1.0 and s.labels.max() <= 1.0


def _planted_per_row(pool, weights, noise_sigma, rounds, seed, kind):
    """The planted columns built one dict ``Example`` and one pool sweep per row: the reference."""
    weights = np.asarray(weights, dtype=float)
    rng = ogboost.bench.seeded_rng(seed, "planted", kind)
    lo, hi = LossClass("squared").label_range
    feats, labels, comp_values = np.empty((rounds, 2)), np.empty(rounds), np.empty(rounds)
    for t in range(rounds):
        region = int(rng.integers(1, len(pool) + 1))
        v = float(rng.uniform(-1.0, 1.0))
        if v == 0.0:
            v = 0.5
        ex = Example({0: float(region), 1: v}, label=None, eid=t)
        feats[t] = ex.features[0], ex.features[1]
        f_val = float(weights @ pool.values(ex))
        comp_values[t] = f_val
        label = f_val
        if noise_sigma > 0:
            label += noise_sigma * float(rng.standard_normal())
        labels[t] = min(max(label, lo), hi)
    return (np.arange(0, 2 * rounds + 1, 2), np.tile([0, 1], rounds), feats.ravel(), labels,
            comp_values)


def _planted_configs(kind, count=60):
    """Pools of 1-9 members, weights with exact 0.0 and -0.0 entries, three noise levels."""
    rng = np.random.default_rng(2015 if kind == "planted_span" else 2016)
    # a zero weight without noise is the one place a -0.0 product shows in the labels
    configs = [([0.5, -0.0, 0.0, 0.5], 0.0, 333), ([-0.0, 1.0, 0.0], 0.0, 333)]
    for _ in range(count):
        m = int(rng.integers(1, 10))
        if kind == "planted_span":
            w = rng.uniform(-1.5, 1.5, m)
        else:
            w = rng.dirichlet(np.ones(m))
        w[rng.random(m) < 0.25] = 0.0
        w[(w == 0.0) & (rng.random(m) < 0.5)] = -0.0
        if kind == "planted_hull":
            w[np.argmax(w)] += 1.0 - w.sum()
        configs.append((w.tolist(), float(rng.choice([0.0, 0.01, 0.5])),
                        int(rng.choice([0, 1, 2, 333]))))
    return configs


class TestPlantedBuild:
    """The planted build gives the per-row reference's bytes, sign bits included."""

    @pytest.mark.parametrize("kind", ["planted_span", "planted_hull"])
    def test_columns_and_comparator_equal_the_per_row_build(self, kind):
        build = planted_span_stream if kind == "planted_span" else planted_hull_stream
        for i, (w, sigma, rounds) in enumerate(_planted_configs(kind)):
            pool = make_region_pool(len(w))
            stream, comp = build(pool, w, sigma, rounds, seed=i)
            cols = stream.examples
            got = (cols.indptr, cols.ids, cols.values, cols.labels, comp.values)
            ref = _planted_per_row(make_region_pool(len(w)), w, sigma, rounds, i, kind)
            for name, g, r in zip(("indptr", "ids", "values", "labels", "comparator"), got, ref):
                assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), (kind, i, w, sigma, name)

    def test_build_transient_is_at_most_16_bytes_per_row(self):
        # peak minus held memory of the build: no whole-stream temporaries
        pool, w = make_region_pool(8), np.full(8, 0.125)
        planted_hull_stream(pool, w, 0.01, 100, seed=0)  # one-time allocations outside the count
        for rounds in (16_000, 64_000):
            tracemalloc.start()
            try:
                stream, _ = planted_hull_stream(pool, w, 0.01, rounds, seed=1)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(stream) == rounds
            assert peak - held <= 16 * rounds + 2**20, (rounds, (peak - held) / rounds)


def _additive_one_shot(rounds, seed, n_signal=5, n_noise=5, coeffs=(0.3, 0.25, 0.2, 0.15, 0.1),
                       present_p=0.6, noise_sigma=0.05):
    """The additive columns drawn in one shot from one generator: the reference."""
    rng = ogboost.bench.seeded_rng(seed, "additive")
    n_feat = n_signal + n_noise
    present = rng.random((rounds, n_feat)) < present_p
    signs = (rng.integers(0, 2, (rounds, n_feat)) * 2 - 1).astype(float)
    noise = noise_sigma * rng.standard_normal(rounds)
    values = np.where(present, signs, 0.0)
    labels = np.clip(values[:, :n_signal] @ np.asarray(coeffs) + noise, -1.0, 1.0)
    rows, cols = np.nonzero(present)
    indptr = np.append(0, np.cumsum(np.count_nonzero(present, axis=1)))
    return indptr, cols + 1, values[rows, cols], labels


_CHUNK = ogboost.bench._CHUNK_ROWS


class TestAdditiveChunks:
    """The chunked build gives the one-shot columns bit for bit."""

    @staticmethod
    def assert_one_shot(rounds, seed, **kw):
        cols = make_additive_stream(rounds, seed, **kw).examples
        ref = _additive_one_shot(rounds, seed, **kw)
        for name, want in zip(("indptr", "ids", "values", "labels"), ref):
            got = getattr(cols, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (rounds, seed, name)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (rounds, seed, name)

    # k * chunk + 1 rows end on a lone row, whose product numpy sums in another order
    @pytest.mark.parametrize("rounds", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1,
                                        8 * _CHUNK + 1, 50_000])
    def test_default_stream_at_chunk_boundaries(self, rounds):
        for seed in range(4):
            self.assert_one_shot(rounds, seed)

    @pytest.mark.parametrize("chunk", [16, 127])
    def test_odd_draw_counts_carry_the_half_used_sign_word(self, chunk, monkeypatch):
        # 9 features: an odd chunk or an odd T leaves a sign word half used
        monkeypatch.setattr(ogboost.bench, "_CHUNK_ROWS", chunk)
        for rounds in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 1, 1001):
            for seed in range(3):
                self.assert_one_shot(rounds, seed, n_noise=4)

    @pytest.mark.parametrize("kw", [
        {"present_p": 0.25},
        {"n_signal": 3, "n_noise": 6, "coeffs": (0.9, -0.7, 0.1), "noise_sigma": 0.5},
        {"n_signal": 1, "n_noise": 0, "coeffs": (0.5,), "present_p": 0.95},
        {"noise_sigma": 0.0},
    ])
    def test_non_default_parameters(self, kw):
        for rounds in (_CHUNK + 1, 3 * _CHUNK + 1, 5_003):
            for seed in (0, 7):
                self.assert_one_shot(rounds, seed, **kw)

    def test_build_transient_is_flat_in_rounds(self):
        # peak minus held memory of the build; the one-shot build took about 286 B/row
        make_additive_stream(100, seed=0)  # one-time allocations outside the count
        for rounds in (16_000, 64_000):
            tracemalloc.start()
            try:
                stream = make_additive_stream(rounds, seed=1)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(stream) == rounds
            assert peak - held <= 32 * rounds + 2**20, (rounds, (peak - held) / rounds)


def _example_digest(stream) -> str:
    """sha256 over every example's (eid, ids in dict order, values, label)."""
    h = hashlib.sha256()
    for ex in stream.examples:
        h.update(np.array([ex.eid, len(ex.features)], "<i8").tobytes())
        h.update(np.array(list(ex.features), "<i8").tobytes())
        h.update(np.array(list(ex.features.values()), "<f8").tobytes())
        h.update(np.array([ex.label], "<f8").tobytes())
    return h.hexdigest()


def _libsvm_text(rows: int = 300) -> str:
    """Plain lines, and lines only the token parser reads: tabs, zeros, repeated ids."""
    rng = random.Random(7)
    lines = []
    for t in range(rows):
        ids = sorted(rng.sample(range(1, 60), rng.randint(0, 12)))
        pairs = [f"{k}:{rng.uniform(-2.0, 2.0)!r}" for k in ids]
        label = repr(rng.uniform(-3.0, 7.0))
        if t % 23 == 5:
            lines.append("")
        if t % 17 == 3 and ids:
            pairs += [f"{ids[0]}:0", f"{ids[0]}:-1.5e-3"]
            lines.append(label + "\t" + "  ".join(pairs))
        else:
            lines.append(" ".join([label] + pairs))
    return "\n".join(lines) + "\n"


def _csv_text(rows: int = 300) -> str:
    rng = random.Random(8)
    lines = ["label,alpha,beta,gamma,delta"]
    for t in range(rows):
        vals = [repr(rng.uniform(-1.0, 1.0)) if rng.random() < 0.7 else "0" for _ in range(4)]
        lines.append(",".join([repr(rng.uniform(0.0, 50.0))] + vals))
        if t % 31 == 4:
            lines.append("")
    return "\n".join(lines) + "\n"


def _source_stream(source: str, tmp_path) -> Stream:
    pool = make_region_pool(5)
    if source == "additive":
        return make_additive_stream(300, seed=3)
    if source == "planted-hull":
        return planted_hull_stream(pool, [0.1, 0.15, 0.2, 0.25, 0.3], 0.05, 300, seed=4)[0]
    if source == "planted-span":
        return planted_span_stream(pool, [0.6, -0.4, 0.2, -0.8, 0.5], 0.1, 300, seed=5)[0]
    if source == "lower-bound":
        return make_lower_bound_stream(2, None, seed=6, pool_scale=1 / 100)[0]
    p = tmp_path / f"d.{source}"
    p.write_text(_libsvm_text() if source == "libsvm" else _csv_text())
    return parse_stream(p, source)


class TestStreamContents:
    # one digest per source, over every example each stream yields
    DIGESTS = {
        "additive": "119c3594fe74efc76413cfce693036a535bcd9aec7c683ca137462599e5e91dd",
        "planted-hull": "0a12bac5addddfe279db3c2f685955d56ac7ceb865fd1d227dcb9f7b6fcb802f",
        "planted-span": "ba138ea9ad30dac50076892d68709c19ffd9daf6197bf996857233558ee5aff1",
        "lower-bound": "f07e5b40176de669c5fe3cec2db0c2bb59feab2309dc23cb05ea7556ab77675d",
        "libsvm": "876dfc2165fe7ccc12677f0a3099c5a1552f3d597b255db8be1dde89530ba78a",
        "csv": "bb187b20491b0d119010d44005c7f7d2830b377f77f7155f1a41e9b0258fc977",
    }

    @pytest.mark.parametrize("source", sorted(DIGESTS))
    def test_examples_unchanged(self, source, tmp_path):
        assert _example_digest(_source_stream(source, tmp_path)) == self.DIGESTS[source]

    @pytest.mark.parametrize("source", sorted(DIGESTS))
    def test_slices_indexing_and_reiteration_agree(self, source, tmp_path):
        def key(ex):
            return ex.eid, list(ex.features.items()), ex.label

        examples = _source_stream(source, tmp_path).examples
        first = [key(ex) for ex in examples]
        assert [key(ex) for ex in examples] == first
        assert [ex.eid for ex in examples] == list(range(len(first)))
        n = len(first)
        for lo, hi in [(0, n), (0, 7), (5, 300), (n - 3, n + 10), (-20, -4), (9, 2)]:
            view = examples[lo:hi]
            assert len(view) == len(first[lo:hi])
            assert [key(ex) for ex in view] == first[lo:hi]
            assert [key(ex) for ex in view[2:]] == first[lo:hi][2:]
        for i in (0, 1, n // 2, n - 1, -1, -n):
            assert key(examples[i]) == first[i]
        with pytest.raises(IndexError):
            examples[n]

    def test_iteration_frees_each_example_when_the_row_after_next_is_read(self):
        # so a learner's memo of the previous example is not its last reference
        it = iter(make_additive_stream(10, seed=1).examples)
        first = next(it)
        refs = sys.getrefcount(first)
        next(it)
        assert sys.getrefcount(first) == refs
        next(it)
        assert sys.getrefcount(first) == refs - 1

    def test_additive_stream_holds_at_most_200_bytes_per_example(self):
        make_additive_stream(100, seed=0)  # one-time allocations outside the count
        for rounds in (4_000, 16_000):
            tracemalloc.start()
            try:
                stream = make_additive_stream(rounds, seed=1)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(stream) == rounds
            assert held <= 200 * rounds, (rounds, held / rounds)

    @pytest.mark.parametrize("column, value, error", [
        ("values", math.nan, "example 3: non-finite feature value for id 12: nan"),
        ("values", 0.0, "example 3: explicit zero feature entry for id 12"),
        ("labels", math.inf, "example 2: non-finite label: inf"),
    ])
    def test_columns_validate_names_the_example(self, column, value, error):
        cols = {"indptr": [0, 1, 1, 2, 4], "ids": [5, 7, 11, 12], "values": [0.5, -1.0, 2.0, 3.0],
                "labels": [0.1, 0.2, 0.3, 0.4]}
        i = 3 if column == "values" else 2
        cols[column][i] = value
        with pytest.raises(ValueError, match=re.escape(error)):
            ExampleColumns(**cols).validate()
        cols[column][i] = 1.0
        ExampleColumns(**cols).validate()

    @pytest.mark.parametrize("bad", [[0], [1017, 1100], [1023], [1024], [1025, 1024],
                                     [2100, 3000], [3071]])
    def test_columns_validate_in_chunks_names_the_first_bad_example(self, bad):
        # three values per row, one row in ten empty; the message is the first bad row's own
        rows = 3 * ogboost.bench._CHUNK_ROWS
        widths = np.where(np.arange(rows) % 10 == 7, 0, 3)
        indptr = np.append(0, np.cumsum(widths))
        ids = np.tile([4, 2, 9], rows)[:indptr[-1]]
        values, labels = np.full(indptr[-1], 0.5), np.full(rows, 0.25)
        for k, i in enumerate(bad):
            if widths[i] and k % 2 == 0:
                values[indptr[i] + 1] = [math.nan, 0.0, math.inf][i % 3]
            else:
                labels[i] = -math.inf
        cols = ExampleColumns(indptr, ids, values, labels)
        # a slice keeps its rows' eids and starts mid-column
        for view, lo in ((cols, 0), (cols[2:], 2)):
            first = min((i for i in bad if i >= lo), default=None)
            if first is None:
                view.validate()
                continue
            with pytest.raises(ValueError) as row_error:
                cols[first].validate()
            with pytest.raises(ValueError, match=re.escape(f"example {first}: {row_error.value}")):
                view.validate()

    def test_columns_validate_transient_is_flat_in_rounds(self):
        # the check's own peak memory; the whole-column check took 12 B/row at T = 128k
        for rounds in (16_000, 128_000):
            cols = ExampleColumns(np.arange(0, 6 * rounds + 1, 6), np.tile(np.arange(6), rounds),
                                  np.full(6 * rounds, 0.5), np.full(rounds, 0.25))
            tracemalloc.start()
            try:
                cols.validate()
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - held <= 2**19, (rounds, peak - held)

    def test_generators_validate_their_columns(self):
        with pytest.raises(ValueError, match="example 0: non-finite label: nan"):
            make_additive_stream(10, seed=0, noise_sigma=math.nan)


class _ColumnPool(FunctionPool):
    """Member j takes the value V[t, j] at the example with id t."""

    def __init__(self, V):
        self._V = V
        self.output_bound = float(np.abs(V).max(initial=0.0))

    def __len__(self):
        return self._V.shape[1]

    def _evaluate(self, x):
        return self._V[x.eid]


def _matrix_problem(V, y):
    stream = Stream([Example({}, float(v), eid=t) for t, v in enumerate(y)], LossClass("squared"))
    return stream, _ColumnPool(V)


def _qp_instance(kind, m, rng, rounds=120):
    """A pool matrix V (rounds x m) and labels y in [-1, 1] of one kind."""
    if kind == "symmetrized":  # zero column and +-f pairs: G is singular
        base = rng.uniform(-1, 1, (rounds, (m - 1) // 2))
        V = np.hstack([np.zeros((rounds, 1)), base, -base])
    elif kind == "duplicates":
        V = rng.uniform(-1, 1, (rounds, max(1, m // 3)))[:, rng.integers(0, max(1, m // 3), m)]
    else:
        V = rng.uniform(-1, 1, (rounds, m))
    if kind == "large-values":  # a Gram matrix far from the scale of the simplex constraint
        return 1e3 * V, rng.uniform(-1, 1, rounds)
    if kind == "planted-vertex":
        return V, V[:, rng.integers(m)].copy()
    w = rng.dirichlet(np.full(V.shape[1], 0.5))
    return V, np.clip(V @ w + rng.normal(0.0, 0.3, rounds), -1.0, 1.0)


def _oracle(stream, pool):
    """The hull oracle's weights, its total loss on the stream and its values."""
    w, values = best_convex_hull_oracle(stream, pool)
    return w, ComparatorSpec("best_convex_hull", values).total_loss(stream), values


class TestOracles:
    def test_perfect_member_gets_all_weight(self):
        pool = make_region_pool(4)
        stream, _ = planted_span_stream(pool, [1, 0, 0, 0], 0.0, 400, seed=6)
        w, total, _ = _oracle(stream, pool)
        assert w[0] == pytest.approx(1.0, abs=1e-3)
        assert total == pytest.approx(0.0, abs=1e-4)

    def test_grid_search_agreement_on_pair(self):
        # pool {f, -f}: the optimum over the simplex is a 1-d problem;
        # oracle loss must match a fine grid search over the mixing weight
        pool = make_region_pool(1)
        sym_members = [lambda x: pool.values(x)[0], lambda x: -pool.values(x)[0]]
        pair = FunctionPool(sym_members)
        stream, _ = planted_span_stream(pool, [0.6], 0.05, 400, seed=7)
        _, total, _ = _oracle(stream, pair)
        grid = np.linspace(0.0, 1.0, 10001)
        best = math.inf
        vals = np.array([pair.values(ex) for ex in stream.examples])
        labels = stream.labels
        for a in grid:
            preds = a * vals[:, 0] + (1 - a) * vals[:, 1]
            best = min(best, float(np.sum(0.5 * (preds - labels) ** 2)))
        assert total == pytest.approx(best, abs=1e-5 * len(stream))

    @pytest.mark.parametrize("kind", ["random", "symmetrized", "duplicates", "planted-vertex",
                                      "large-values"])
    def test_squared_certificate_on_random_pools(self, kind):
        rng = np.random.default_rng(8)
        for m in range(1, 65):
            V, y = _qp_instance(kind, m, rng)
            stream, pool = _matrix_problem(V, y)
            w, total, values = _oracle(stream, pool)
            assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12), (kind, m)
            # the certificate, recomputed from V and y
            grad = V.T @ (V @ w - y)
            assert float(grad @ w - grad.min()) <= 1e-9 * len(y), (kind, m)
            np.testing.assert_allclose(values, V @ w, rtol=0.0, atol=1e-12)
            assert total == pytest.approx(0.5 * float(np.sum((V @ w - y) ** 2)), rel=1e-12)
            if kind == "planted-vertex":
                assert total <= 1e-9 * len(y), m

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agrees_with_simplex_grid(self, m):
        rng = np.random.default_rng(20 + m)
        V, y = _qp_instance("random", m, rng, rounds=50)
        stream, pool = _matrix_problem(V, y)
        w, total, _ = _oracle(stream, pool)
        h = 1.0 / 200
        ticks = np.arange(201) * h
        grid = np.array([p for p in np.array(np.meshgrid(*[ticks] * (m - 1))).reshape(m - 1, -1).T
                         if p.sum() <= 1.0 + 1e-12]) if m > 1 else np.zeros((1, 0))
        grid = np.hstack([grid, 1.0 - grid.sum(axis=1, keepdims=True)])
        best = float(np.min(0.5 * np.sum((V @ grid.T - y[:, None]) ** 2, axis=0)))
        assert total <= best + 1e-9 * len(y)
        # the grid point nearest the optimum lies within l1 distance m * h of it
        grad = V.T @ (V @ w - y)
        curvature = float(np.linalg.eigvalsh(V.T @ V)[-1])
        assert best - total <= np.abs(grad).max() * m * h + 0.5 * curvature * (m * h) ** 2

    def test_uncertified_solution_raises(self, monkeypatch):
        rng = np.random.default_rng(9)
        V, y = _qp_instance("random", 6, rng)
        stream, pool = _matrix_problem(V, y)
        monkeypatch.setattr(ogboost.bench, "_simplex_qp", lambda G, b, tol: np.full(6, 1 / 6))
        with pytest.raises(RuntimeError, match="duality gap .* exceeds the tolerance"):
            best_convex_hull_oracle(stream, pool)

    def test_non_finite_pool_value_names_member_and_example(self):
        pool = FunctionPool([lambda x: 0.5, lambda x: math.nan if x.eid == 7 else -0.5])
        stream = Stream([Example({}, 0.1, eid=t) for t in range(20)], LossClass("squared"))
        with pytest.raises(ValueError, match="pool member 1 is non-finite at example 7"):
            best_convex_hull_oracle(stream, pool)

    def test_oracle_sanity_chain(self):
        pool = make_region_pool(6)
        stream, _ = planted_span_stream(pool, [0.4, -0.4, 0.4, -0.4, 0.4, -0.4],
                                        0.05, 800, seed=9)
        sym = pool.symmetrized()  # includes the zero function
        _, hull_total, _ = _oracle(stream, sym)
        V = np.array([sym.values(ex) for ex in stream.examples])
        # each member as a comparator (its kind does not enter the loss)
        single_total = min(ComparatorSpec("planted_span", V[:, j]).total_loss(stream)
                           for j in range(V.shape[1]))
        zero_total = zero_comparator(len(stream)).total_loss(stream)
        assert hull_total <= single_total + 1e-9
        assert single_total <= zero_total + 1e-9

    @pytest.mark.parametrize("family", ["linear", "logistic", "modified_least_squares",
                                        "p_norm"])
    def test_non_squared_family_rejected_before_any_pool_value(self, family):
        def never_called(x):
            raise AssertionError("pool member evaluated")

        lc = LossClass(family, p=3.0) if family == "p_norm" else LossClass(family)
        stream = Stream([Example({}, 0.1, eid=t) for t in range(20)], lc)
        pool = FunctionPool([never_called, never_called])
        with pytest.raises(ValueError, match=f"squared loss only, got '{family}'"):
            best_convex_hull_oracle(stream, pool)

    def test_large_pool_rejected(self):
        stream, pool = make_lower_bound_stream(2, None, seed=3, pool_scale=1 / 50)
        assert pool.size > 64
        with pytest.raises(ValueError, match="uniform"):
            best_convex_hull_oracle(stream, pool)


class TestComparatorLosses:
    @pytest.mark.parametrize("family", ["squared", "linear", "logistic", "modified_least_squares",
                                        "p_norm"])
    def test_losses_equal_the_scalar_loop(self, family):
        rng = np.random.default_rng(21)
        labels = rng.uniform(-1.0, 1.0, 500)
        values = rng.uniform(-3.0, 3.0, 500) * 10.0 ** rng.integers(-8, 3, 500)
        lc = LossClass(family, p=3.0) if family == "p_norm" else LossClass(family)
        stream = Stream([Example({}, float(l), eid=t) for t, l in enumerate(labels)], lc)
        comp = ComparatorSpec("planted_span", values)
        expected = np.array([lc.make(l).evaluate(float(v)) for l, v in zip(labels, values)])
        assert comp.losses(stream).tobytes() == expected.tobytes()
        assert comp.total_loss(stream) == float(sum(expected))


SQ = LossClass("squared")


class TestProgressiveValidation:
    def test_zero_booster_reported_loss(self):
        pool = make_region_pool(4)
        stream, _ = planted_span_stream(pool, [0.4, 0, 0, 0], 0.0, 10, seed=10)

        class ZeroBooster:
            def predict(self, x):
                return 0.0, object()

            def update(self, x, trace, loss):
                return []

        m = progressive_validate(stream, ZeroBooster())
        expected = np.mean([li.evaluate(0.0) for _, li in stream][5:])
        assert m.report_loss == pytest.approx(expected, abs=1e-15)

    def test_split_bucketing(self):
        pool = make_region_pool(2)
        stream, _ = planted_span_stream(pool, [0.3, -0.3], 0.0, 10, seed=11)

        class ZeroBooster:
            def predict(self, x):
                return 0.0, object()

            def update(self, x, trace, loss):
                return []

        m = progressive_validate(stream, ZeroBooster(), split=0.5)
        assert m.tune_rounds == 5
        assert m.tune_loss == pytest.approx(float(m.test_losses[:5].mean()))
        assert m.report_loss == pytest.approx(float(m.test_losses[5:].mean()))

    def test_update_cannot_leak_into_same_round_score(self):
        # mutation check: corrupting every update must leave each round's
        # test loss unchanged for a deterministic-prediction booster, since
        # scoring happens strictly before training
        pool = make_region_pool(4)
        w = [0.4, -0.4, 0.4, -0.4]

        def run(corrupt):
            stream, _ = planted_span_stream(pool, w, 0.02, 300, seed=12)
            sym = pool.symmetrized()
            booster = HullBooster(SQ, hedge_committee(sym, 4, 300, seed=2))
            if corrupt:
                orig = booster.update

                def bad_update(x, trace, loss):
                    out = orig(x, trace, loss)
                    for committee in booster.learners:
                        committee.weights[:] = 1.0 / committee.weights.shape[1]
                    return out

                booster.update = bad_update
            return progressive_validate(stream, booster).test_losses

    # first round is scored before any update in both runs
        clean = run(False)
        corrupted = run(True)
        assert clean[0] == corrupted[0]
        # later rounds diverge, proving updates do affect subsequent tests
        assert not np.array_equal(clean, corrupted)

    def test_stage_accounting_matches_manual(self):
        pool = make_region_pool(4)
        stream, comp = planted_span_stream(pool, [0.4, -0.4, 0.4, -0.4], 0.02,
                                           200, seed=13)
        sym = pool.symmetrized()
        booster = SpanBooster(SQ, hedge_committee(sym, 3, 200, seed=3), eta=0.5)
        m = progressive_validate(stream, booster, comparator=comp, committee=sym)

        # manual replay with independent accounting
        stream2, _ = planted_span_stream(pool, [0.4, -0.4, 0.4, -0.4], 0.02,
                                         200, seed=13)
        booster2 = SpanBooster(SQ, hedge_committee(sym, 3, 200, seed=3), eta=0.5)
        cum_pred = np.zeros(3)
        cum_member = np.zeros((3, len(sym)))
        for ex, loss in stream2:
            y, tr = booster2.predict(ex)
            fbs = booster2.update(ex, tr, loss)
            vals = sym.values(ex)
            for i in range(3):
                cum_pred[i] += fbs[i] * tr.arms[i]
                cum_member[i] += fbs[i] * vals
        np.testing.assert_allclose(m.stage_cum_pred, cum_pred, atol=1e-12)
        np.testing.assert_allclose(m.stage_regrets(),
                                   cum_pred - cum_member.min(axis=1), atol=1e-12)

    def test_cum_regret_prefix_sums(self):
        pool = make_region_pool(2)
        stream, comp = planted_span_stream(pool, [0.3, -0.3], 0.0, 50, seed=14)

        class ZeroBooster:
            def predict(self, x):
                return 0.0, object()

            def update(self, x, trace, loss):
                return []

        m = progressive_validate(stream, ZeroBooster(), comparator=comp)
        reg = m.cum_regret()
        diffs = np.diff(reg)
        np.testing.assert_allclose(
            diffs, (m.test_losses - m.comparator_losses)[1:], atol=1e-15)


class TestRegretReports:
    def test_ratio_and_pass(self):
        m = type("M", (), {"measured_regret": lambda self: 120.0})()
        rep = regret_report(m, {"total": 300.0})
        assert rep.ratio == pytest.approx(0.4)
        assert rep.passed

    def test_hull_bound_term(self):
        terms = hull_regret_bound(stages=10, output_bound=1.0, smoothness=1.0,
                                  lipschitz=2.0, horizon=10000, base_regret=0.0)
        assert terms["mixing_term"] == pytest.approx(8000.0)

    def test_span_bound_lead_multiplier(self):
        terms = span_regret_bound(delta0=1.0, eta=0.3, stages=20, norm1=1.0,
                                  radius=1.0, lipschitz=1.0, smoothness=0.0,
                                  horizon=1, base_regret=0.0)
        assert terms["lead"] == pytest.approx(0.7**20, rel=1e-12)

    def test_negative_base_regret_clamped(self):
        t1 = span_regret_bound(1.0, 0.5, 4, 2.0, 1.0, 2.0, 1.0, 100, -5.0)
        t2 = span_regret_bound(1.0, 0.5, 4, 2.0, 1.0, 2.0, 1.0, 100, 0.0)
        assert t1["total"] == t2["total"]
