"""Experiment harness: streams, oracles and progressive validation.

A ``Stream`` is a replayable sequence of labeled sparse examples bound to
a loss family; iterating it yields (example, loss instance) pairs in
adversary order.  Every source stores its stream as ``ExampleColumns``:
CSR columns of int64 feature ids, float64 values and float64 labels, from
which each ``Example`` is built when it is read, so a stream holds 16
bytes per nonzero and 16 per example rather than a dict per example.
Sources are files (svmlight-style text or headered CSV, labels affinely
rescaled into a declared range, parsed as squared-loss streams whose
examples a caller may bind to another family) or seeded synthetic
generators, which check their columns once, vectorized over chunks of rows:

* planted span / convex-hull streams over a small region pool, used to
  check the boosters' regret bounds against a comparator with known
  coefficients;
* the adversarial lower-bound stream: near-coin-flip labels with a large
  pool of label-coin functions, where any budgeted booster must pay
  regret proportional to T over the stage count;
* an additive stream whose target is a sum of per-feature components,
  used to measure the boosting gain over a single stump.

A ``ComparatorSpec`` is a reference predictor's per-round values with its
kind and declared 1-norm.  The offline convex-hull comparator is defined
for squared loss only: an exact active-set QP on the pool's Gram matrix,
certified by its duality gap.  ``progressive_validate`` scores strictly
test-then-train and can account per-stage realized linear regret against
a committee of functions, which the regret-bound evaluators consume.

Stream iteration is single-consumer; independent (seed, config) runs can
execute in parallel workers, each owning its booster and metrics.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Example, feature_id, seeded_rng
from .losses import LossClass
from .learners import FunctionPool, LowerBoundPool, make_lower_bound_pool


class StreamFormatError(ValueError):
    pass


_CHUNK_ROWS = 1024  # rows the additive build draws, and validate checks, at a time


class ExampleColumns:
    """A stream's examples stored as CSR columns; each ``Example`` is built when read.

    Row i holds the distinct int64 feature ids ``ids[indptr[i]:indptr[i + 1]]``
    and their float64 ``values`` in the order of the example's feature dict,
    and the float64 label ``labels[i]``.  An example's eid is its row
    position, counted from ``first_eid``.  Indexing and iteration build one
    ``Example`` per row read, on read-only views of the row's ids and values
    (``Example.from_arrays``); its feature dict is built only if something
    reads ``features``.  Iteration builds no rows ahead, so no round pays for
    building many rows at once, and it keeps each example until the row
    after next is read, so a learner's memo of it is not the last reference
    that the next round's ``predict`` drops.  A slice is a view on the same
    columns in which every row keeps its eid.  The columns are read-only.
    """

    def __init__(self, indptr, ids, values, labels, first_eid: int = 0):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.indptr.shape != (len(self.labels) + 1,) or len(self.ids) != len(self.values):
            raise ValueError("CSR columns need len(labels) + 1 row pointers and one value per id")
        for a in (self.indptr, self.ids, self.values, self.labels):
            a.flags.writeable = False
        self.first_eid = first_eid

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, key):
        i = range(len(self.labels))[key]  # a range for a slice, else one row; both checked
        if isinstance(i, range):
            if i.step != 1:
                raise ValueError("example columns slice with step 1 only")
            lo, hi = i.start, i.start + len(i)
            return ExampleColumns(self.indptr[lo:hi + 1], self.ids, self.values,
                                  self.labels[lo:hi], self.first_eid + lo)
        a, b = self.indptr[i], self.indptr[i + 1]
        return Example.from_arrays(self.ids[a:b], self.values[a:b], float(self.labels[i]),
                                   self.first_eid + i)

    def __iter__(self):
        # memoryviews read single pointers and labels as Python ints and floats
        indptr, labels = memoryview(self.indptr), memoryview(self.labels)
        ids, values, eid, row = self.ids, self.values, self.first_eid, Example.from_arrays
        for i in range(len(labels)):
            a, b = indptr[i], indptr[i + 1]
            ex = row(ids[a:b], values[a:b], labels[i], eid + i)
            yield ex
            kept = ex  # noqa: F841  the example before it is freed here, between rounds

    def validate(self) -> "ExampleColumns":
        """Raise at the first example with a non-finite value or label or an explicit zero.

        Rows are checked ``_CHUNK_ROWS`` at a time, so no temporary grows with T.
        """
        indptr, values, labels = self.indptr, self.values, self.labels
        for lo in range(0, len(labels), _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, len(labels))
            v = values[indptr[lo]:indptr[hi]]
            if np.isfinite(v).all() and v.all() and np.isfinite(labels[lo:hi]).all():
                continue
            for i in range(lo, hi):  # the chunk holds a bad row; find the first
                try:
                    self[i].validate()
                except ValueError as e:
                    raise ValueError(f"example {self.first_eid + i}: {e}") from None
        return self


@dataclass
class Stream:
    """Replayable ordered sequence of labeled examples with a loss family.

    The package's sources fill ``examples`` as ``ExampleColumns``; a list of
    ``Example`` objects given by a caller is kept as it is.
    """

    examples: list[Example] | ExampleColumns
    loss_class: LossClass

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        make = self.loss_class.make
        for ex in self.examples:
            yield ex, make(ex.label)

    @property
    def labels(self) -> np.ndarray:
        if isinstance(self.examples, ExampleColumns):
            return self.examples.labels
        return np.array([ex.label for ex in self.examples])


@dataclass(frozen=True)
class ComparatorSpec:
    """A reference predictor with its per-round values on a stream.

    ``kind`` is one of planted_span, planted_hull, best_convex_hull,
    uniform_pool_mean, zero.  ``norm1`` is the comparator's
    declared 1-norm (max(1, sum |w|)) where meaningful.
    """

    kind: str
    values: np.ndarray
    norm1: float = 1.0

    def losses(self, stream: Stream) -> np.ndarray:
        """The comparator's loss on each round of the stream, from its labels alone."""
        labels = stream.labels
        if stream.loss_class.family == "squared":
            # LossInstance.evaluate's operations, so each loss is equal bit for bit
            d = self.values - labels
            return 0.5 * d * d
        make = stream.loss_class.make
        return np.array([make(l).evaluate(float(v)) for l, v in zip(labels.tolist(), self.values)])

    def total_loss(self, stream: Stream) -> float:
        return float(sum(self.losses(stream)))


def zero_comparator(length: int) -> ComparatorSpec:
    return ComparatorSpec("zero", np.zeros(length))


# ---------------------------------------------------------------------------
# file ingestion


def _rescale(path: Path, labels: list[float], label_range: tuple[float, float]) -> list[float]:
    lo, hi = label_range
    lmin, lmax = min(labels), max(labels)
    if lmin == lmax:
        raise StreamFormatError(f"{path}: degenerate label column: all labels equal")
    if lmin == lo and lmax == hi:
        return labels  # already spans the range; keep parse/serialize exact
    scale = (hi - lo) / (lmax - lmin)
    # endpoints map exactly so the rescale is idempotent across round-trips
    return [lo if l == lmin else hi if l == lmax else lo + (l - lmin) * scale
            for l in labels]


# deletes digits and signs and writes exponent marks as "."; deleting the "."s then
# leaves " :" once per pair of a plain line
_DIGITS_SIGNS = str.maketrans("eE", "..", "0123456789+-")
_BLOCK_HINT = 1 << 16  # characters of text parsed per block
_EXACT_ID = 2.0 ** 53  # float ids below this in magnitude are exact integers


def _parse_label(path: Path, ln: int, tok: str) -> float:
    # checked here: a non-finite label would corrupt the rescale of every other label
    try:
        label = float(tok)
    except ValueError:
        raise StreamFormatError(f"{path}:{ln}: non-numeric label {tok!r}") from None
    if not math.isfinite(label):
        raise StreamFormatError(f"{path}:{ln}: non-finite label: {label!r}")
    return label


def _check_row(path: Path, ln: int, row: dict[int, float]) -> None:
    """Raise at the row's first non-finite value, in the words of ``Example.validate``."""
    if not all(map(math.isfinite, row.values())):
        try:
            Example(row).validate()
        except ValueError as e:
            raise StreamFormatError(f"{path}:{ln}: {e}") from None


def _libsvm_block(lines: list[str]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels, int64 ids, values and row ends of a block of plain lines; else None.

    A plain line is its label and single-spaced ``id:value`` pairs of plain
    numbers, with integer ids below 2**53 in magnitude, finite nonzero values
    and distinct ids; blank lines are skipped.  One ``np.fromstring`` call
    parses the whole block, so it rounds each number as ``float`` does.  Row
    i's pairs end at ``ends[i]`` in the block's ids and values.  A block with
    any other line returns None and is parsed line by line.
    """
    # blank lines hold no label, and fromstring reads a text of separators alone as [-1.0]
    if "\n" in lines or "" in lines:
        lines = [line for line in lines if line not in ("\n", "")]
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    bare = text.translate(_DIGITS_SIGNS)
    if ".:" in bare:
        return None  # an id written with a point or an exponent
    bare = bare.replace(".", "")
    if bare.replace(" :", "") != "\n" * len(lines):
        return None
    # line i of ``bare`` is " :" once per pair, then its newline
    newlines = np.flatnonzero(np.frombuffer(bare.encode(), np.uint8) == ord("\n"))
    counts = np.diff(newlines, prepend=-1) // 2
    width = 2 * counts + 1  # numbers on each line
    try:
        nums = np.fromstring(text.replace(":", " "), sep=" ")
    except ValueError:  # a token that is not one number
        return None
    if nums.size != width.sum() or not np.isfinite(nums).all():
        return None
    first = np.cumsum(width) - width
    is_pair = np.ones(nums.size, bool)
    is_pair[first] = False
    pairs = nums[is_pair]
    ids, values = pairs[0::2], pairs[1::2]
    if not values.all() or not (np.abs(ids) < _EXACT_ID).all():
        return None
    ids = ids.astype(np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    # positions whose id does not exceed the one before; only those that start a row are fine
    down = np.flatnonzero(ids[1:] <= ids[:-1]) + 1
    rows = np.searchsorted(ends, down, side="right")
    rows = np.unique(rows[down != starts[rows]])
    if rows.size:  # rows whose ids do not ascend are checked for repeats by a set
        row_ids = ids.tolist()
        for a, b in zip(starts[rows].tolist(), ends[rows].tolist()):
            if len(set(row_ids[a:b])) != b - a:
                return None
    return nums[first], ids, values, ends


def _libsvm_line(path: Path, ln: int, line: str) -> tuple[float, list[int], list[float]]:
    """A non-blank libsvm line parsed token by token, raising at its first fault.

    A repeated id keeps its first position and its last value, as a dict does.
    """
    toks = line.split()
    label = _parse_label(path, ln, toks[0])
    row: dict[int, float] = {}
    for tok in toks[1:]:
        idx, _, val = tok.partition(":")
        if not val:
            raise StreamFormatError(f"{path}:{ln}: malformed pair {tok!r}")
        try:
            k = int(idx)
            v = float(val)
        except ValueError:
            raise StreamFormatError(f"{path}:{ln}: malformed pair {tok!r}") from None
        if v != 0.0:
            row[k] = v
    _check_row(path, ln, row)
    return label, list(row), list(row.values())


def _numbered_lines(fh, start: int = 1):
    """(line number, line) of a text file, broken where ``str.splitlines`` breaks its text."""
    return enumerate((s for line in fh for s in line.splitlines()), start=start)


def parse_stream(path: str | Path, fmt: str,
                 label_range: tuple[float, float] = (-1.0, 1.0)) -> Stream:
    """Parse a dataset file into a squared-loss stream.

    Labels are affinely rescaled so the observed [min, max] maps onto
    ``label_range`` (idempotent when the data already fills the range).
    Malformed lines, non-finite labels or values and feature ids beyond
    int64 are rejected with their line number.  Explicit zero feature
    values are dropped.  A libsvm file is read in blocks of about
    ``_BLOCK_HINT`` characters of whole lines.  A block of plain lines (see
    ``_libsvm_block``) is parsed by one numpy call and appended to the
    stream's columns at once; any other block, a faulty one included, is
    parsed line by line by ``_libsvm_line``, which raises at the first
    fault with its ``path:line``.  A csv file is parsed line by line.
    Neither the text nor the rows are kept.
    """
    path = Path(path)
    if fmt not in ("libsvm", "csv"):
        raise StreamFormatError(f"unknown format {fmt!r} (choose libsvm or csv)")

    labels: list[float] = []
    ids, values, indptr = array("q"), array("d"), array("q", [0])

    def append(ln: int, label: float, keys: list[int], vals: list[float]) -> None:
        try:
            ids.fromlist(keys)
        except OverflowError:
            raise StreamFormatError(f"{path}:{ln}: feature id out of the int64 range") from None
        values.fromlist(vals)
        indptr.append(len(ids))
        labels.append(label)

    with open(path) as fh:
        if fmt == "csv":
            lines = _numbered_lines(fh)
            first = next(lines, (1, ""))[1]
            header = first.split(",")
            if len(header) < 2 or header[0].strip().lower() != "label":
                if not first.strip() and not any(line.strip() for _, line in lines):
                    raise StreamFormatError(f"{path}: empty file")
                raise StreamFormatError(f"{path}:1: csv header must start with 'label'")
            fids = [feature_id(h.strip()) for h in header[1:]]
            for ln, line in lines:
                if not line.strip():
                    continue
                parts = line.split(",")
                if len(parts) != len(header):
                    raise StreamFormatError(
                        f"{path}:{ln}: expected {len(header)} fields, got {len(parts)}")
                label = _parse_label(path, ln, parts[0])
                row: dict[int, float] = {}
                for fid, tok in zip(fids, parts[1:]):
                    try:
                        v = float(tok)
                    except ValueError:
                        raise StreamFormatError(
                            f"{path}:{ln}: non-numeric feature value {tok!r}") from None
                    if v != 0.0:
                        row[fid] = v
                _check_row(path, ln, row)
                append(ln, label, list(row), list(row.values()))
        else:
            ln = 0  # the number of the line before the block
            while block := fh.readlines(_BLOCK_HINT):
                parsed = _libsvm_block(block)
                if parsed is None:
                    for ln, line in _numbered_lines(block, ln + 1):
                        if line.strip():
                            append(ln, *_libsvm_line(path, ln, line))
                    continue
                ln += len(block)  # a plain line holds no line break but its last
                block_labels, block_ids, block_values, ends = parsed
                indptr.frombytes((ends + len(ids)).tobytes())
                ids.frombytes(block_ids.tobytes())
                values.frombytes(block_values.tobytes())
                labels.extend(block_labels.tolist())
    if not labels:
        raise StreamFormatError(f"{path}: empty file")

    labels = _rescale(path, labels, label_range)
    if not all(map(math.isfinite, labels)):  # the rescale can overflow
        i = next(i for i, l in enumerate(labels) if not math.isfinite(l))
        # example i is the i-th non-blank line after the csv header
        with open(path) as fh:
            ln = [n for n, line in _numbered_lines(fh) if line.strip()][i + (fmt == "csv")]
        raise StreamFormatError(f"{path}:{ln}: non-finite label: {labels[i]!r}")
    columns = ExampleColumns(np.frombuffer(indptr, np.int64), np.frombuffer(ids, np.int64),
                             np.frombuffer(values, np.float64), labels)
    return Stream(columns, LossClass("squared", label_range=label_range))


# ---------------------------------------------------------------------------
# synthetic pools and streams

_REGION_FID, _VALUE_FID = 0, 1


class RegionPool(FunctionPool):
    """Pool of functions with disjoint supports, read from an example's id and value arrays.

    Member k responds with the value feature (id 1) where the region feature
    (id 0) equals k, and 0 elsewhere, so any weighting of members keeps
    labels within the largest single weight.
    """

    def __init__(self, n_members: int = 8):
        self.n_members = n_members
        self.output_bound = 1.0

    def __len__(self) -> int:
        return self.n_members

    def _evaluate(self, x: Example) -> np.ndarray:
        vals = np.zeros(self.n_members)
        ids, values = x.ids.tolist(), x.values.tolist()
        region = values[ids.index(_REGION_FID)] if _REGION_FID in ids else 0.0
        # only an integral region 1..n selects a member (NaN fails both comparisons)
        if 1.0 <= region <= self.n_members and region == int(region):
            vals[int(region) - 1] = values[ids.index(_VALUE_FID)] if _VALUE_FID in ids else 0.0
        return vals


def make_region_pool(n_members: int = 8) -> RegionPool:
    return RegionPool(n_members)


def _planted_stream(pool: RegionPool, weights: np.ndarray, noise_sigma: float, rounds: int,
                    seed: int, loss_class: LossClass | None, kind: str
                    ) -> tuple[Stream, ComparatorSpec]:
    """Rows {0: region, 1: value} labeled ``weights @ pool.values(x)`` plus clipped noise.

    Row t draws from ``seeded_rng(seed, "planted", kind)`` its region in 1..n, its value
    in [-1, 1) (0.0 becomes 0.5) and, if ``noise_sigma > 0``, one standard normal; a few
    float operations on these are written straight into the columns.
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(pool):
        raise ValueError("one weight per pool member required")
    if not np.all(np.isfinite(weights)):
        raise ValueError("planted coefficients must be finite")
    rng = seeded_rng(seed, "planted", kind)
    n, w, noisy = len(pool), weights.tolist(), noise_sigma > 0
    loss_class = loss_class or LossClass("squared")
    lo, hi = loss_class.label_range
    values, labels, comp_values = np.empty(2 * rounds), np.empty(rounds), np.empty(rounds)
    feats, label_col, comp_col = memoryview(values), memoryview(labels), memoryview(comp_values)
    for t in range(rounds):
        region = int(rng.integers(1, n + 1))
        v = float(rng.uniform(-1.0, 1.0))
        if v == 0.0:
            v = 0.5
        feats[2 * t], feats[2 * t + 1] = region, v
        # weights @ pool.values(x): the row's single nonzero term, and the sum's
        # +0.0 start, which turns a zero product into +0.0 (RegionPool._evaluate)
        f = w[region - 1] * v + 0.0
        comp_col[t] = f
        label = f + noise_sigma * float(rng.standard_normal()) if noisy else f
        label_col[t] = min(max(label, lo), hi)
    columns = ExampleColumns(np.arange(0, 2 * rounds + 1, 2),
                             np.tile([_REGION_FID, _VALUE_FID], rounds), values, labels)
    return (Stream(columns.validate(), loss_class),
            ComparatorSpec(kind, comp_values, max(1.0, float(np.abs(weights).sum()))))


def planted_span_stream(pool: RegionPool, weights, noise_sigma: float, rounds: int, seed: int,
                        loss_class: LossClass | None = None) -> tuple[Stream, ComparatorSpec]:
    """Stream whose labels are a known linear combination of pool members."""
    return _planted_stream(pool, weights, noise_sigma, rounds, seed, loss_class, "planted_span")


def planted_hull_stream(pool: RegionPool, weights, noise_sigma: float, rounds: int, seed: int,
                        loss_class: LossClass | None = None) -> tuple[Stream, ComparatorSpec]:
    """Planted stream with simplex coefficients (a convex-hull comparator)."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("hull coefficients must be a probability vector")
    return _planted_stream(pool, weights, noise_sigma, rounds, seed, loss_class, "planted_hull")


def make_additive_stream(rounds: int, seed: int, n_signal: int = 5, n_noise: int = 5,
                         coeffs=(0.3, 0.25, 0.2, 0.15, 0.1), present_p: float = 0.6,
                         noise_sigma: float = 0.05) -> Stream:
    """Sparse stream whose target is a sum of per-feature components.

    Signal feature j contributes coeffs[j] * value when present; noise
    features carry no signal.  Labels are clipped to [-1, 1].  For F features
    the draws are three runs of the PCG64 stream ``seeded_rng(seed, "additive")``:
    T*F presence uniforms from word 0, T*F signs (32-bit halves) from word T*F,
    T noises from word T*F + ceil(T*F/2).  Each run has its own generator
    advanced to its start, so rows are drawn in chunks: pass 1 counts each
    row's features and pass 2 fills exactly sized columns.
    """
    if len(coeffs) != n_signal:
        raise ValueError("one coefficient per signal feature required")
    n_feat, coeffs, draws = n_signal + n_noise, np.asarray(coeffs), rounds * (n_signal + n_noise)
    counts, presence, signs, noise = rngs = [seeded_rng(seed, "additive") for _ in range(4)]
    for rng, start in zip(rngs, (0, 0, draws, draws + (draws + 1) // 2)):
        rng.bit_generator.advance(start)
    # numpy sums a one-row product in another order, so a lone last row joins the chunk before it
    bounds = [*range(0, max(rounds - 1, 1), _CHUNK_ROWS), rounds]
    indptr = np.zeros(rounds + 1, dtype=np.int64)
    for lo, hi in zip(bounds, bounds[1:]):
        indptr[lo + 1:hi + 1] = np.count_nonzero(counts.random((hi - lo, n_feat)) < present_p, 1)
    np.cumsum(indptr, out=indptr)
    ids, values, labels = np.empty(indptr[-1], np.int64), np.empty(indptr[-1]), np.empty(rounds)
    row_ids = np.tile(np.arange(1, n_feat + 1), _CHUNK_ROWS + 1)  # each row's ids, ascending
    for lo, hi in zip(bounds, bounds[1:]):
        present = presence.random((hi - lo, n_feat)) < present_p
        vals = np.where(present, (signs.integers(0, 2, present.shape) * 2 - 1).astype(float), 0.0)
        labels[lo:hi] = np.clip(vals[:, :n_signal] @ coeffs
                                + noise_sigma * noise.standard_normal(hi - lo), -1.0, 1.0)
        np.compress(present.ravel(), row_ids, out=ids[indptr[lo]:indptr[hi]])
        np.compress(present.ravel(), vals, out=values[indptr[lo]:indptr[hi]])
    return Stream(ExampleColumns(indptr, ids, values, labels).validate(), LossClass("squared"))


def make_lower_bound_stream(stages: int, rounds: int | None, seed: int,
                            pool_scale: float = 1.0 / 4000.0
                            ) -> tuple[Stream, LowerBoundPool]:
    """Adversarial stream for the budgeted-booster regret floor.

    Labels are drawn uniformly from {1/2 + eps, 1/2 - eps} with
    eps = 1/(10 sqrt(stages)); the paired pool holds M = stages/pool_scale
    label-coin functions.  The uniform pool average concentrates near the
    label, so it is a strong comparator, while any booster limited to one
    pool query per stage cannot resolve the label.  Requires at least 12*M
    rounds for the comparator concentration to hold.
    """
    pool = make_lower_bound_pool(stages, seed, pool_scale)
    m = pool.size
    min_rounds = 12 * m
    if rounds is None:
        rounds = min_rounds
    if rounds < min_rounds:
        raise ValueError(
            f"need at least 12*M = {min_rounds} rounds for pool size M = {m}, got {rounds}")
    eps = 1.0 / (10.0 * math.sqrt(stages))
    p1, p2 = 0.5 + eps, 0.5 - eps
    rng = seeded_rng(seed, "lbstream")
    labels = np.where(rng.random(rounds) < 0.5, p1, p2)
    # example t has the single feature {0: t + 1}
    columns = ExampleColumns(np.arange(rounds + 1), np.zeros(rounds, dtype=np.int64),
                             np.arange(1.0, rounds + 1.0), labels)
    return Stream(columns.validate(), LossClass("squared", label_range=(0.0, 1.0))), pool


def uniform_pool_comparator(stream: Stream, pool: LowerBoundPool) -> ComparatorSpec:
    """The uniform average of all pool members, evaluated along the stream.

    Reads the row means the pool recorded by example id, and draws only the
    rows that were never drawn.
    """
    examples = stream.examples
    if isinstance(examples, ExampleColumns):
        eids = np.arange(len(examples)) + examples.first_eid
    else:
        eids = np.array([ex.eid for ex in examples], dtype=np.int64)
    values = pool.recorded_means(eids)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        values[i] = pool.mean_value(examples[i])
    return ComparatorSpec("uniform_pool_mean", values)


# ---------------------------------------------------------------------------
# offline comparator oracles


def _pool_matrix(stream: Stream, pool: FunctionPool) -> np.ndarray:
    """The T x M matrix of pool values; a non-finite value raises, naming where."""
    V = np.empty((len(stream), len(pool)))
    for t, ex in enumerate(stream.examples):
        V[t] = pool.values(ex)
    bad = np.argwhere(~np.isfinite(V))
    if len(bad):
        t, j = bad[0]
        raise ValueError(f"pool member {j} is non-finite at example {t}: {V[t, j]!r}")
    return V


# the squared-loss oracle returns only weights whose duality gap is at most this times T
_SQUARED_GAP_TOL = 1e-9
# major cycles per pool member before the exact solver gives up (it needs about one each)
_QP_CYCLES_PER_MEMBER = 20


def _affine_minimizer(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin of w'Gw/2 - b'w subject to sum(w) = 1, from its KKT system.

    The constraint row is scaled to G's diagonal, so the system stays as
    well conditioned as G allows whatever the size of the pool values.
    """
    n = len(b)
    s = max(float(np.diag(G).max()), np.finfo(float).tiny)
    kkt = np.full((n + 1, n + 1), s)
    kkt[:n, :n] = G
    kkt[n, n] = 0.0
    return np.linalg.lstsq(kkt, np.append(b, s), rcond=None)[0][:n]


def _simplex_qp(G: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Minimize w'Gw/2 - b'w over the probability simplex (Wolfe's min-norm-point method).

    G is positive semidefinite, possibly singular, with b in its column
    space (G = V'V, b = V'y).  From the best vertex, each major cycle frees
    the member of least gradient and moves to the minimizer over the affine
    hull of the free members, stepping back to the simplex boundary and
    fixing the members that reach 0 while that minimizer is infeasible.
    Stops once the duality gap grad'w - min(grad), grad = Gw - b, is at
    most ``tol``, or when no cycle is left; the caller checks the gap.
    """
    m = len(b)
    w = np.zeros(m)
    w[np.argmin(0.5 * np.diag(G) - b)] = 1.0
    free = w > 0.0
    for _ in range(_QP_CYCLES_PER_MEMBER * m):
        grad = G @ w - b
        k = int(np.argmin(grad))
        if grad @ w - grad[k] <= tol:
            break
        free[k] = True
        while True:
            idx = np.flatnonzero(free)
            z = _affine_minimizer(G[np.ix_(idx, idx)], b[idx])
            if np.all(z > 0.0):
                w[idx] = z / z.sum()
                break
            # step from w toward z until the first free member reaches 0 (the guard
            # makes the step 0 when the member just freed has z = 0)
            wi = w[idx]
            ratio = np.full(len(idx), np.inf)
            out = z <= 0.0
            ratio[out] = wi[out] / np.maximum(wi[out] - z[out], np.finfo(float).tiny)
            j = int(np.argmin(ratio))
            wi += ratio[j] * (z - wi)
            wi[j] = 0.0
            wi[wi < 0.0] = 0.0
            w[idx] = wi
            free[idx] = wi > 0.0
    return w


def best_convex_hull_oracle(stream: Stream, pool: FunctionPool) -> tuple[np.ndarray, np.ndarray]:
    """Best fixed convex combination of pool members, in hindsight, for squared loss.

    Returns the weights w and their per-round values V @ w, with V the
    T x M matrix of pool values.

    The total is ||Vw - y||^2 / 2, a QP in M <= 64 variables.  It is solved
    exactly on G = V'V and b = V'y by an active-set method, and w is
    returned only when its duality gap grad'w - min(grad), grad = Gw - b,
    is at most 1e-9 * T; otherwise ``RuntimeError`` is raised.  A stream of
    any other loss family raises ``ValueError`` before a pool value is
    computed.
    """
    family = stream.loss_class.family
    if family != "squared":
        raise ValueError(f"the offline hull oracle solves squared loss only, got {family!r}")
    m = len(pool)
    if m > 64:
        raise ValueError(f"pool too large for the offline oracle ({m} > 64); "
                         "use uniform_pool_comparator instead")

    V = _pool_matrix(stream, pool)
    G = V.T @ V
    b = V.T @ stream.labels
    tol = _SQUARED_GAP_TOL * len(stream)
    w = _simplex_qp(G, b, tol)
    grad = G @ w - b
    gap = float(grad @ w - grad.min())
    if not gap <= tol:
        raise RuntimeError(f"hull oracle not certified: duality gap {gap:.3e} "
                           f"exceeds the tolerance {tol:.3e}")
    return w, V @ w


def hull_comparator(stream: Stream, pool: FunctionPool) -> ComparatorSpec:
    """Convex-hull oracle packaged as a comparator spec."""
    return ComparatorSpec("best_convex_hull", best_convex_hull_oracle(stream, pool)[1])


# ---------------------------------------------------------------------------
# progressive validation


@dataclass
class RunMetrics:
    """Per-round losses and regret accounting from one validated run."""

    test_losses: np.ndarray
    split: float
    comparator_losses: np.ndarray | None = None
    stage_cum_pred: np.ndarray | None = None   # per stage: sum_t fb . prediction
    stage_cum_member: np.ndarray | None = None  # per (stage, member): sum_t fb . member value

    @property
    def rounds(self) -> int:
        return len(self.test_losses)

    @property
    def tune_rounds(self) -> int:
        return int(self.split * self.rounds)

    @property
    def cum_losses(self) -> np.ndarray:
        return np.cumsum(self.test_losses)

    @property
    def total_loss(self) -> float:
        return float(self.test_losses.sum())

    @property
    def tune_loss(self) -> float:
        k = self.tune_rounds
        return float(self.test_losses[:k].mean()) if k else math.nan

    @property
    def report_loss(self) -> float:
        k = self.tune_rounds
        return float(self.test_losses[k:].mean()) if k < self.rounds else math.nan

    def cum_regret(self) -> np.ndarray:
        if self.comparator_losses is None:
            raise ValueError("no comparator recorded for this run")
        return np.cumsum(self.test_losses - self.comparator_losses)

    def measured_regret(self) -> float:
        return float(self.cum_regret()[-1])

    def stage_regrets(self) -> np.ndarray:
        """Realized linear regret of each stage against the committee."""
        if self.stage_cum_pred is None:
            raise ValueError("stage accounting was not enabled for this run")
        return self.stage_cum_pred - self.stage_cum_member.min(axis=1)

    def max_stage_regret(self) -> float:
        return float(self.stage_regrets().max())


def progressive_validate(stream: Stream, booster, split: float = 0.5,
                         comparator: ComparatorSpec | None = None,
                         committee: FunctionPool | None = None) -> RunMetrics:
    """Run strictly test-then-train over the stream.

    Every example is scored before the booster updates on it.  Losses are
    bucketed into the first ``split`` fraction (tuning) and the remainder
    (reporting).  With a ``committee`` pool, per-stage feedback is paired
    against every committee member so realized stage regrets are available
    afterwards.
    """
    if not (0.0 <= split <= 1.0):
        raise ValueError(f"split fraction must lie in [0, 1], got {split}")
    T = len(stream)
    test_losses = np.empty(T)
    cum_pred = None
    cum_member = None
    for t, (ex, loss) in enumerate(stream):
        y, trace = booster.predict(ex)
        test_losses[t] = loss.evaluate(y)
        fbs = booster.update(ex, trace, loss)
        if committee is not None:
            fb_arr = np.asarray(fbs)
            if cum_pred is None:
                cum_pred = np.zeros(len(fb_arr))
                cum_member = np.zeros((len(fb_arr), len(committee)))
            cum_pred += fb_arr * np.asarray(trace.arms)
            cum_member += fb_arr[:, None] * committee.values(ex)

    comp_losses = comparator.losses(stream) if comparator is not None else None
    return RunMetrics(test_losses, split, comp_losses, cum_pred, cum_member)


# ---------------------------------------------------------------------------
# regret bounds and reports


def span_regret_bound(delta0: float, eta: float, stages: int, norm1: float, radius: float,
                      lipschitz: float, smoothness: float, horizon: int,
                      base_regret: float) -> dict:
    """Evaluate the span booster's regret bound from measured quantities.

    Terms: geometric residual of the initial gap, the smoothness/ball
    excess, the base learners' (normalized) regret scaled back up, and the
    shrinkage tuner's worst-case regret.  ``base_regret`` is clamped at 0
    because the collapsed geometric sum is only an upper bound for
    nonnegative per-stage regret.
    """
    r = max(base_regret, 0.0)
    lead = (1.0 - eta / norm1) ** stages * delta0
    smooth_term = 3.0 * eta * smoothness * radius**2 * norm1 * horizon
    base_term = lipschitz * norm1 * r
    shrink_term = 2.0 * lipschitz * radius * norm1 * math.sqrt(horizon)
    return {
        "lead": lead,
        "smooth_term": smooth_term,
        "base_term": base_term,
        "shrink_term": shrink_term,
        "total": lead + smooth_term + base_term + shrink_term,
    }


def hull_regret_bound(stages: int, output_bound: float, smoothness: float, lipschitz: float,
                      horizon: int, base_regret: float) -> dict:
    """Evaluate the hull booster's regret bound from measured quantities."""
    r = max(base_regret, 0.0)
    mixing_term = 8.0 * smoothness * output_bound**2 * horizon / stages
    base_term = lipschitz * r
    return {"mixing_term": mixing_term, "base_term": base_term,
            "total": mixing_term + base_term}


@dataclass(frozen=True)
class RegretReport:
    measured: float
    bound: float
    terms: dict
    passed: bool

    @property
    def ratio(self) -> float:
        return self.measured / self.bound if self.bound != 0 else math.inf

    def as_dict(self) -> dict:
        return {"measured_regret": self.measured, "bound": self.bound,
                "ratio": self.ratio, "passed": self.passed, "terms": self.terms}


def regret_report(metrics: RunMetrics, bound_terms: dict) -> RegretReport:
    """Compare a run's measured regret against an evaluated bound."""
    measured = metrics.measured_regret()
    bound = bound_terms["total"]
    return RegretReport(measured, bound, bound_terms, measured <= bound)
