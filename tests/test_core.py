"""Numeric primitives: examples, the scalar ball projection, seeded RNGs."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ogboost.core import Example, feature_id, project_to_ball, seeded_rng

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
radii = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)


class TestProjection:
    def test_inside_ball_is_identity(self):
        assert project_to_ball(0.5, 2.0) == 0.5

    def test_scalar_scaling_to_radius(self):
        assert project_to_ball(5.0, 2.0) == 2.0
        assert project_to_ball(-5.0, 2.0) == -2.0

    @given(y=finite, b=radii)
    def test_result_never_leaves_ball(self, y, b):
        assert abs(project_to_ball(y, b)) <= b * (1 + 1e-12)

    @given(y=finite, b=radii)
    def test_idempotent(self, y, b):
        once = project_to_ball(y, b)
        assert project_to_ball(once, b) == once

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_to_ball(math.nan, 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_to_ball(1.0, 0.0)


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
