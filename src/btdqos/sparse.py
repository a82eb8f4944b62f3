"""Coordinate-format storage for sparse third-order QoS tensors.

Observed entries of a ``|I| x |J| x |K|`` tensor are kept as parallel arrays,
``ids[axis]`` (one int32 index array per mode, in ``MODES`` order) and
``values``, plus their int64 linear index codes ``(i * |J| + j) * |K| + k``.
The one index a tensor holds is its invariant: entries are sorted by code
and each code occurs once.  Input whose codes are strictly increasing
already (every log ``write_qos_log`` writes) is the sorted fast path of
``from_arrays``: it keeps the arrays without a sort, and int32 ids and
float64 values without a copy.  ``subset`` relies on the invariant to
slice partitions without validating again, and skips its sort for
strictly increasing positions, which is what ``data_io.split`` passes.
The partition disjointness checks (``n_shared``) look up the smaller
tensor's codes in the larger one's.  ``counts[axis][index]`` is the number of
observed entries in one slice; the update rules form their per-slice sums
with ``bincount`` over the index arrays.

Tensors are immutable after construction and safe to read concurrently.
"""

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateIndexError,
    NegativeValueError,
    OutOfBoundsError,
    check_kind,
)

#: The three tensor modes, in axis order: the one table from a mode's name
#: to its axis.  Everything per mode is indexed by axis.
MODES = ("user", "service", "time")

#: The partitions of a split, in order: the one table of their names (the
#: fields of ``SplitTensor``, the split-config keys, the partition files).
PARTITIONS = ("train", "validation", "test")


class SparseTensor3:
    """An immutable third-order tensor holding only its observed entries."""

    __slots__ = ("dims", "ids", "values", "counts", "_codes")

    def __init__(self, dims, ids, values, _codes):
        # Internal constructor: arrays are already validated and sorted by
        # code, each code once.  Use from_entries/from_arrays or subset.
        self.dims = dims
        self.ids = tuple(ids)
        self.values = values
        self._codes = _codes
        self.counts = tuple(np.bincount(idx, minlength=d).astype(np.int64)
                            for idx, d in zip(self.ids, dims))
        for arr in (*self.ids, *self.counts, values, _codes):
            arr.setflags(write=False)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_arrays(cls, dims, user_ids, service_ids, time_ids, values):
        """Build a tensor from parallel index/value arrays.

        Indices are validated against ``dims``, values must be finite and
        nonnegative, and entries are sorted lexicographically.  Duplicate
        indices carrying the same value collapse to one entry; duplicates
        with different values raise ``DuplicateIndexError`` because silent
        averaging would mask ingestion bugs.

        Input already in that order, each index once, is neither sorted nor
        copied: int32 id arrays and float64 value arrays become the
        tensor's own (as read-only views), so the caller must not write to
        them afterwards.
        """
        dims = _validated_dims(dims)
        # int32 is the stored id dtype; other ids are read as int64 and
        # range-checked before they are narrowed.
        ids = [np.asarray(x) for x in (user_ids, service_ids, time_ids)]
        ids = [np.ascontiguousarray(x, dtype=x.dtype if x.dtype == np.int32 else np.int64)
               for x in ids]
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if any(x.shape != vals.shape for x in ids) or vals.ndim != 1:
            raise OutOfBoundsError("index and value arrays must be 1-D and equal length")

        for axis, idx in enumerate(ids):
            if idx.size and (idx.min() < 0 or idx.max() >= dims[axis]):
                bad = idx[(idx < 0) | (idx >= dims[axis])][0]
                raise OutOfBoundsError(
                    f"{MODES[axis]} index {bad} out of range [0, {dims[axis]})")
        if vals.size and (not np.isfinite(vals).all() or vals.min() < 0):
            bad = vals[~(np.isfinite(vals) & (vals >= 0))][0]
            raise NegativeValueError(f"QoS values must be finite and >= 0, got {bad}")

        codes = ids[0].astype(np.int64)
        codes *= dims[1]
        codes += ids[1]
        codes *= dims[2]
        codes += ids[2]
        if _strictly_increasing(codes):
            return cls(dims, [x.astype(np.int32, copy=False).view() for x in ids],
                       vals.view(), codes)

        order = np.argsort(codes, kind="stable")
        codes, vals = codes[order], vals[order]
        ids = [x[order] for x in ids]

        if codes.size > 1:
            dup = np.nonzero(np.diff(codes) == 0)[0]
            if dup.size:
                if not np.array_equal(vals[dup], vals[dup + 1]):
                    k = dup[vals[dup] != vals[dup + 1]][0]
                    raise DuplicateIndexError(
                        f"index ({', '.join(str(x[k]) for x in ids)}) appears "
                        f"with values {vals[k]} and {vals[k + 1]}")
                keep = np.concatenate(([True], np.diff(codes) != 0))
                codes, vals = codes[keep], vals[keep]
                ids = [x[keep] for x in ids]

        return cls(dims, [x.astype(np.int32, copy=False) for x in ids], vals, codes)

    @classmethod
    def from_entries(cls, dims, entries):
        """Build a tensor from ``((i, j, k), value)`` pairs."""
        entries = list(entries)
        if not entries:
            z = np.zeros(0, dtype=np.int64)
            return cls.from_arrays(dims, z, z, z, np.zeros(0))
        idx = np.array([e[0] for e in entries], dtype=np.int64)
        vals = np.array([e[1] for e in entries], dtype=np.float64)
        if idx.ndim != 2 or idx.shape[1] != 3:
            raise OutOfBoundsError("each entry index must be an (i, j, k) triple")
        return cls.from_arrays(dims, idx[:, 0], idx[:, 1], idx[:, 2], vals)

    # -- access ----------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n_entries

    def value_at(self, i: int, j: int, k: int) -> float:
        """Value of observed entry (i, j, k); KeyError if unobserved."""
        self._check_index(i, j, k)
        code = (i * self.dims[1] + j) * self.dims[2] + k
        pos = np.searchsorted(self._codes, code)
        if pos == self._codes.size or self._codes[pos] != code:
            raise KeyError(f"entry ({i}, {j}, {k}) is not observed")
        return float(self.values[pos])

    def iter_entries(self):
        """Yield ``((i, j, k), value)`` in lexicographic order."""
        for i, j, k, v in zip(*self.ids, self.values):
            yield (int(i), int(j), int(k)), float(v)

    def entry_list(self):
        return list(self.iter_entries())

    def subset(self, positions) -> "SparseTensor3":
        """New tensor holding the entries at the given storage positions.

        Positions are sorted and repeats dropped (unless they are strictly
        increasing already), so the stored arrays are sliced in code order
        and the result keeps the sorted-unique-code invariant without being
        validated or sorted again.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1:
            raise OutOfBoundsError("positions must be a 1-D sequence")
        if not _strictly_increasing(pos):
            pos = np.sort(pos)
            pos = pos[np.concatenate(([True], pos[1:] != pos[:-1]))]
        if pos.size and (pos[0] < 0 or pos[-1] >= self.n_entries):
            bad = pos[0] if pos[0] < 0 else pos[-1]
            raise OutOfBoundsError(
                f"position {bad} out of range [0, {self.n_entries})")
        ids = [x[pos] for x in self.ids]
        values, codes = self.values[pos], self._codes[pos]
        # The positions need not live on while the counts are formed.
        del positions, pos
        return SparseTensor3(self.dims, ids, values, codes)

    def index_codes(self) -> np.ndarray:
        """Linearized (i, j, k) codes, sorted ascending, each once."""
        return self._codes

    def n_shared(self, other: "SparseTensor3") -> int:
        """How many entries, by index, this tensor and ``other`` both hold.

        Each code of the smaller tensor is looked up in the larger one's
        sorted codes, so no array of both tensors' codes is formed.
        """
        small, large = sorted((self._codes, other.index_codes()), key=len)
        if not small.size:
            return 0
        found = large.take(np.searchsorted(large, small), mode="clip")
        return int(np.count_nonzero(found == small))

    def _check_index(self, i, j, k):
        for axis, v in enumerate((i, j, k)):
            if not 0 <= v < self.dims[axis]:
                raise OutOfBoundsError(
                    f"{MODES[axis]} index {v} out of range [0, {self.dims[axis]})")

    def __repr__(self):
        return (f"SparseTensor3(dims={self.dims}, n_entries={self.n_entries})")


def _strictly_increasing(x) -> bool:
    """Whether each element of the 1-D ``x`` exceeds the one before it."""
    return bool((x[1:] > x[:-1]).all())


def _validated_dims(dims):
    """``dims`` as three positive ints; a dim that is no integer is an error."""
    dims = tuple(int(check_kind(d, numbers.Integral, "every dim")) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise OutOfBoundsError(f"dims must be three positive integers, got {dims}")
    return dims


@dataclass(frozen=True)
class SplitTensor:
    """Train/validation/test partition of one observed tensor.

    The three partitions must share dims and be pairwise disjoint by index.
    """

    train: SparseTensor3
    validation: SparseTensor3
    test: SparseTensor3

    def __post_init__(self):
        dims = self.train.dims
        if self.validation.dims != dims or self.test.dims != dims:
            raise DimMismatchError(
                f"partition dims differ: {dims}, {self.validation.dims}, {self.test.dims}")
        for (a, x), (b, y) in itertools.combinations(self.named(), 2):
            shared = x.n_shared(y)
            if shared:
                raise DuplicateIndexError(f"{a} and {b} partitions share {shared} entries")

    @property
    def dims(self):
        return self.train.dims

    def named(self):
        """``(name, tensor)`` of each partition, in ``PARTITIONS`` order."""
        return tuple((name, getattr(self, name)) for name in PARTITIONS)
