"""Shared numeric primitives for the streaming boosting engine.

Predictions, labels and stage feedback are Python floats: every
experiment shipped with this package is 1-dimensional regression.  The
ball projection is scalar clipping to [-radius, radius].

All types here are immutable values and safe to share between threads.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

def feature_id(name: str | int) -> int:
    """32-bit feature id; string names are hashed, ints pass through."""
    if isinstance(name, int):
        return name
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class Example:
    """One stream element: sparse features plus an optional true label.

    ``features`` maps feature id to value and must not contain explicit
    zeros.  ``ids`` and ``values`` hold the same entries in the same order
    as read-only int64 and float64 arrays; the slot committees read these.
    An example built from a dict derives the arrays from it when they are
    first read.  ``from_arrays`` builds an example on arrays instead, as the
    rows of ``bench.ExampleColumns`` are built, and its dict is built only
    when ``features`` is first read.  An example is a value: neither its
    dict nor its arrays may change once it is built.  ``eid`` is the
    example's position in its stream.  Stochastic function pools seed their
    draws with it, so a draw can be made again instead of kept; pool memos
    key on the example object, not on ``eid``.
    """

    __slots__ = ("_features", "_ids", "_values", "label", "eid")

    def __init__(self, features: dict[int, float], label: float | None = None, eid: int = -1):
        self._features = features
        self._ids = self._values = None
        self.label = label
        self.eid = eid

    @classmethod
    def from_arrays(cls, ids: np.ndarray, values: np.ndarray, label: float | None = None,
                    eid: int = -1) -> "Example":
        """An example on int64 ``ids`` (distinct) and float64 ``values``, kept as given."""
        ex = cls.__new__(cls)
        ex._features = None
        ex._ids = ids
        ex._values = values
        ex.label = label
        ex.eid = eid
        return ex

    @property
    def features(self) -> dict[int, float]:
        if self._features is None:
            self._features = dict(zip(self._ids.tolist(), self._values.tolist()))
        return self._features

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._derive_arrays()
        return self._ids

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._derive_arrays()
        return self._values

    def _derive_arrays(self) -> None:
        f = self._features
        self._ids = np.fromiter(f, np.int64, len(f))
        self._values = np.fromiter(f.values(), np.float64, len(f))
        self._ids.flags.writeable = self._values.flags.writeable = False

    def __repr__(self) -> str:
        return f"Example(features={self.features!r}, label={self.label!r}, eid={self.eid!r})"

    def validate(self) -> "Example":
        for k, v in self.features.items():
            if not math.isfinite(v):
                raise ValueError(f"non-finite feature value for id {k}: {v!r}")
            if v == 0.0:
                raise ValueError(f"explicit zero feature entry for id {k}")
        if self.label is not None and not math.isfinite(self.label):
            raise ValueError(f"non-finite label: {self.label!r}")
        return self


def project_to_ball(y: float, radius: float) -> float:
    """Clip ``y`` to [-radius, radius], the ball of the given radius.

    Inputs must be finite and ``radius`` positive.
    """
    if radius <= 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    if not math.isfinite(y):
        raise ValueError(f"non-finite prediction passed to projection: {y!r}")
    if y > radius:
        return radius
    if y < -radius:
        return -radius
    return y


def seeded_rng(seed: int, *tags: int | str) -> np.random.Generator:
    """Named, splittable RNG stream.

    PCG64 keyed by ``SeedSequence([seed, *tags])`` with string tags hashed
    through crc32, so every stochastic component owns an explicit,
    reproducible stream and traces are portable across machines.
    """
    entropy = np.array([seed & 0xFFFFFFFF] + [
        zlib.crc32(t.encode("utf-8")) & 0xFFFFFFFF if isinstance(t, str) else t & 0xFFFFFFFF
        for t in tags
    ], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
