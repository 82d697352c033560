"""Numeric primitives: projection, clipping, inner products."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ogboost.core import (
    Example,
    clip_unit_interval,
    feature_id,
    project_to_ball,
    seeded_rng,
    vdot,
    vnorm,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
radii = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)


class TestProjection:
    def test_inside_ball_is_identity(self):
        assert project_to_ball(0.5, 2.0) == 0.5

    def test_scalar_scaling_to_radius(self):
        assert project_to_ball(5.0, 2.0) == 2.0
        assert project_to_ball(-5.0, 2.0) == -2.0

    def test_vector_scaling(self):
        # oracle: norm of (3, 4) is 5, so the projection scales by 1/5
        y = np.array([3.0, 4.0])
        n = math.hypot(3.0, 4.0)
        expected = y / n
        out = project_to_ball(y, 1.0)
        np.testing.assert_allclose(out, expected, rtol=1e-15)
        assert abs(vnorm(out) - 1.0) <= 1e-15

    @given(y=finite, b=radii)
    def test_result_never_leaves_ball(self, y, b):
        assert vnorm(project_to_ball(y, b)) <= b * (1 + 1e-12)

    @given(y=finite, b=radii)
    def test_idempotent(self, y, b):
        once = project_to_ball(y, b)
        assert project_to_ball(once, b) == once

    def test_inside_vectors_unchanged(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            b = float(rng.uniform(0.5, 3.0))
            y = rng.uniform(-1, 1, size=3)
            y *= (b * 0.99) / max(float(np.linalg.norm(y)), 1e-9)
            out = project_to_ball(y, b)
            assert out is y

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_to_ball(math.nan, 1.0)
        with pytest.raises(ValueError):
            project_to_ball(np.array([1.0, math.inf]), 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_to_ball(1.0, 0.0)


class TestClip:
    @pytest.mark.parametrize("s,expected", [(0.8, 0.8), (1.3, 1.0), (-0.2, 0.0)])
    def test_examples(self, s, expected):
        assert clip_unit_interval(s) == expected

    @given(s=finite)
    def test_range_and_identity(self, s):
        out = clip_unit_interval(s)
        assert 0.0 <= out <= 1.0
        if 0.0 <= s <= 1.0:
            assert out == s


class TestDot:
    def test_examples(self):
        assert vdot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
        assert vdot(0.0, 123.4) == 0.0
        assert vdot(0.5, -2.0) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vdot(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestNorm:
    def test_zero(self):
        assert vnorm(0.0) == 0.0
        assert vnorm(np.zeros(3)) == 0.0

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rng.normal(size=(2, 4))
            assert vnorm(a + b) <= vnorm(a) + vnorm(b) + 1e-12


class TestExample:
    def test_validate_rejects_explicit_zero(self):
        with pytest.raises(ValueError):
            Example({3: 0.0}, 1.0).validate()

    def test_validate_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Example({3: math.inf}, 1.0).validate()
        with pytest.raises(ValueError):
            Example({3: 1.0}, math.nan).validate()

    def test_feature_id_hashes_strings(self):
        a = feature_id("age")
        assert a == feature_id("age")
        assert 0 <= a < 2**32
        assert feature_id(17) == 17


class TestSeededRng:
    def test_reproducible_and_tag_split(self):
        a = seeded_rng(42, "x").random(4)
        b = seeded_rng(42, "x").random(4)
        c = seeded_rng(42, "y").random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, -1])
    @pytest.mark.parametrize("tags", [(), ("additive",), ("lbpool", 0), ("lbpool", 2**40),
                                      ("planted", "planted_hull"), (-1, "x", 7)])
    def test_stream_equals_seed_sequence_of_masked_words(self, seed, tags):
        # the entropy is one masked 32-bit word per key, strings through crc32
        words = [seed & 0xFFFFFFFF] + [
            zlib.crc32(t.encode("utf-8")) if isinstance(t, str) else t & 0xFFFFFFFF for t in tags]
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        rng = seeded_rng(seed, *tags)
        assert rng.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(rng.random(8), ref.random(8))
        np.testing.assert_array_equal(rng.integers(0, 2**62, 8), ref.integers(0, 2**62, 8))
