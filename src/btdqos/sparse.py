"""Coordinate-format storage for sparse third-order QoS tensors.

Observed entries of a ``|I| x |J| x |K|`` tensor are kept as parallel arrays
``(user_ids, service_ids, time_ids, values)`` plus their linear index codes
``(i * |J| + j) * |K| + k``.  The one index a tensor holds is its invariant:
entries are sorted by code and each code occurs once.  ``subset`` relies on
it to slice partitions without sorting or validating again, and the
partition disjointness checks rely on it to intersect codes without a
uniqueness pass.  Per-mode observation counts are kept as well; the update
rules form their per-slice sums with ``bincount`` over the index arrays.

Tensors are immutable after construction and safe to read concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateIndexError,
    NegativeValueError,
    OutOfBoundsError,
)

#: The three tensor modes, in axis order.
MODES = ("user", "service", "time")


def _mode_axis(mode: str) -> int:
    try:
        return MODES.index(mode)
    except ValueError:
        raise OutOfBoundsError(f"unknown mode {mode!r}, expected one of {MODES}")


class SparseTensor3:
    """An immutable third-order tensor holding only its observed entries."""

    __slots__ = ("dims", "user_ids", "service_ids", "time_ids", "values",
                 "_codes", "_counts")

    def __init__(self, dims, user_ids, service_ids, time_ids, values, _codes):
        # Internal constructor: arrays are already validated and sorted by
        # code, each code once.  Use from_entries/from_arrays or subset.
        self.dims = dims
        self.user_ids = user_ids
        self.service_ids = service_ids
        self.time_ids = time_ids
        self.values = values
        self._codes = _codes
        idx = (user_ids, service_ids, time_ids)
        self._counts = tuple(
            np.bincount(idx[a], minlength=dims[a]).astype(np.int64)
            for a in range(3)
        )
        for arr in (user_ids, service_ids, time_ids, values, _codes):
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
        """
        dims = _validated_dims(dims)
        ui = np.ascontiguousarray(user_ids, dtype=np.int64)
        si = np.ascontiguousarray(service_ids, dtype=np.int64)
        ti = np.ascontiguousarray(time_ids, dtype=np.int64)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if not (ui.shape == si.shape == ti.shape == vals.shape) or ui.ndim != 1:
            raise OutOfBoundsError("index and value arrays must be 1-D and equal length")

        for axis, idx in enumerate((ui, si, ti)):
            if idx.size and (idx.min() < 0 or idx.max() >= dims[axis]):
                bad = idx[(idx < 0) | (idx >= dims[axis])][0]
                raise OutOfBoundsError(
                    f"{MODES[axis]} index {bad} out of range [0, {dims[axis]})")
        if vals.size and (not np.isfinite(vals).all() or vals.min() < 0):
            bad = vals[~(np.isfinite(vals) & (vals >= 0))][0]
            raise NegativeValueError(f"QoS values must be finite and >= 0, got {bad}")

        codes = (ui * dims[1] + si) * dims[2] + ti
        order = np.argsort(codes, kind="stable")
        codes, ui, si, ti, vals = codes[order], ui[order], si[order], ti[order], vals[order]

        if codes.size > 1:
            dup = np.nonzero(np.diff(codes) == 0)[0]
            if dup.size:
                if not np.array_equal(vals[dup], vals[dup + 1]):
                    k = dup[vals[dup] != vals[dup + 1]][0]
                    raise DuplicateIndexError(
                        f"index ({ui[k]}, {si[k]}, {ti[k]}) appears with values "
                        f"{vals[k]} and {vals[k + 1]}")
                keep = np.concatenate(([True], np.diff(codes) != 0))
                codes, ui, si, ti, vals = (
                    codes[keep], ui[keep], si[keep], ti[keep], vals[keep])

        return cls(dims, ui.astype(np.int32), si.astype(np.int32),
                   ti.astype(np.int32), vals, codes)

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

    def slice_count(self, mode: str, index: int) -> int:
        """Number of observed entries whose ``mode`` index equals ``index``."""
        axis = _mode_axis(mode)
        if not 0 <= index < self.dims[axis]:
            raise OutOfBoundsError(
                f"{mode} index {index} out of range [0, {self.dims[axis]})")
        return int(self._counts[axis][index])

    def slice_counts(self, mode: str) -> np.ndarray:
        """Per-index observation counts for one mode (read-only array)."""
        counts = self._counts[_mode_axis(mode)]
        counts.setflags(write=False)
        return counts

    def iter_entries(self):
        """Yield ``((i, j, k), value)`` in lexicographic order."""
        for i, j, k, v in zip(self.user_ids, self.service_ids,
                              self.time_ids, self.values):
            yield (int(i), int(j), int(k)), float(v)

    def entry_list(self):
        return list(self.iter_entries())

    def subset(self, positions) -> "SparseTensor3":
        """New tensor holding the entries at the given storage positions.

        Positions are sorted and repeats dropped, so the stored arrays are
        sliced in code order and the result keeps the sorted-unique-code
        invariant without being validated or sorted again.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1:
            raise OutOfBoundsError("positions must be a 1-D sequence")
        pos = np.sort(pos)
        if pos.size and (pos[0] < 0 or pos[-1] >= self.n_entries):
            bad = pos[0] if pos[0] < 0 else pos[-1]
            raise OutOfBoundsError(
                f"position {bad} out of range [0, {self.n_entries})")
        if pos.size > 1:
            pos = pos[np.concatenate(([True], pos[1:] != pos[:-1]))]
        return SparseTensor3(self.dims, self.user_ids[pos], self.service_ids[pos],
                             self.time_ids[pos], self.values[pos], self._codes[pos])

    def index_codes(self) -> np.ndarray:
        """Linearized (i, j, k) codes, sorted ascending, each once."""
        return self._codes

    def _check_index(self, i, j, k):
        for axis, v in enumerate((i, j, k)):
            if not 0 <= v < self.dims[axis]:
                raise OutOfBoundsError(
                    f"{MODES[axis]} index {v} out of range [0, {self.dims[axis]})")

    def __repr__(self):
        return (f"SparseTensor3(dims={self.dims}, n_entries={self.n_entries})")


def _validated_dims(dims):
    dims = tuple(int(d) for d in dims)
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
        pairs = (("train", "validation"), ("train", "test"), ("validation", "test"))
        for a, b in pairs:
            # Index codes are sorted and unique within each tensor.
            common = np.intersect1d(getattr(self, a).index_codes(),
                                    getattr(self, b).index_codes(),
                                    assume_unique=True)
            if common.size:
                raise DuplicateIndexError(
                    f"{a} and {b} partitions share {common.size} entries")

    @property
    def dims(self):
        return self.train.dims
