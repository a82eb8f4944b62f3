"""Coordinate-format storage for sparse third-order QoS tensors.

Observed entries of a ``|I| x |J| x |K|`` tensor are kept as two parallel
arrays and nothing else: their int64 linear index ``codes``
``(i * |J| + j) * |K| + k`` and their float64 ``values``, 16 B per entry.
The codes are the one index a tensor holds, and its invariant: entries are
sorted by code and each code occurs once.  A tensor keeps no state derived
from them; per-slice counts, for one, are formed by the training code that
reads them.  ``ravel`` forms codes from ids and ``unravel`` is the one
place codes become ids again; ``ids`` unravels all of them on each access,
so a consumer that needs only a slice of the entries unravels that slice.
``from_codes`` validates, sorts and deduplicates; ``from_arrays`` is its
id front end, which range-checks and ravels ids first.  Input whose codes
are strictly increasing already (every log ``write_qos_log`` writes) is
kept without a sort, and float64 values (and, for ``from_codes``, int64
codes) without a copy.  ``subset`` relies on the invariant to slice
partitions without validating again: it selects by a boolean mask and
turns positions into such a mask.  ``n_shared``, the train/validation
disjointness check of a fit, looks up the smaller tensor's codes in the
larger one's.

A ``SplitTensor`` is a split as ``data_io.split`` draws it: the source
tensor plus one uint8 partition label per entry, 1 B per entry.  A
partition is formed from them, as the ``subset`` where the labels equal
its own, only where it is read as a tensor and on each access; the
partition writes and the manifest read the source through the label
masks instead.

Tensors and splits are immutable after construction and safe to read
concurrently.
"""

import math
import numbers
import numpy as np

from .errors import (
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

#: Mask elements ``subset`` handles at a time, so the positions it selects
#: never form an entry-sized array.
_CHUNK = 1 << 14


def ravel(ids, dims) -> np.ndarray:
    """The int64 codes ``(i * |J| + j) * |K| + k`` of in-range integer ``ids``.

    Built in place in one entry-sized array from int32 or int64 ids.
    """
    i, j, k = ids
    codes = np.multiply(i, dims[1], dtype=np.int64)
    codes += j
    codes *= dims[2]
    codes += k
    return codes


def unravel(codes, dims):
    """The ``(user, service, time)`` ids of int64 ``codes``, as intp arrays.

    The one place where codes become ids.  Remainders are formed by
    subtraction: numpy divides by a scalar several times faster than it
    takes ``%`` or ``divmod`` of one.
    """
    ij = codes // dims[2]
    k = ij * dims[2]
    np.subtract(codes, k, out=k)
    i = ij // dims[1]
    j = i * dims[1]
    np.subtract(ij, j, out=j)
    return i, j, k


class SparseTensor3:
    """An immutable third-order tensor holding only its observed entries."""

    __slots__ = ("dims", "codes", "values")

    def __init__(self, dims, codes, values):
        # Internal constructor: arrays are already validated and sorted by
        # code, each code once.  Use from_arrays, from_codes or subset.
        codes.setflags(write=False)
        values.setflags(write=False)
        self.dims, self.codes, self.values = dims, codes, values

    # -- construction ----------------------------------------------------

    @classmethod
    def from_arrays(cls, dims, user_ids, service_ids, time_ids, values):
        """Build a tensor from parallel index/value arrays: the id front end
        of ``from_codes``.

        Indices must be integers within ``dims``.  They are range-checked
        and ravelled to codes, to which, with the values, the rules of
        ``from_codes`` apply: entries come out in lexicographic index
        order, and a duplicate index is a repeated code.

        Input already in that order, each index once, is not sorted, and a
        float64 value array becomes the tensor's own (as a read-only view),
        so the caller must not write to it afterwards.
        """
        dims = _validated_dims(dims)
        ids = [np.asarray(x) for x in (user_ids, service_ids, time_ids)]
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if any(x.shape != vals.shape for x in ids) or vals.ndim != 1:
            raise OutOfBoundsError("index and value arrays must be 1-D and equal length")

        # Ids are range-checked in the dtype they came in, so an index past
        # int64 is reported, not wrapped or overflowed; int32 and int64 ids
        # then form the codes as they are, others are read as int64 first.
        for axis, idx in enumerate(ids):
            _check_in_range(idx, dims[axis], f"{MODES[axis]} ids", f"{MODES[axis]} index")
        codes = ravel([x if x.dtype in (np.int32, np.int64) else x.astype(np.int64)
                       for x in ids], dims)
        return cls.from_codes(dims, codes, vals)

    @classmethod
    def from_codes(cls, dims, codes, values):
        """Build a tensor from linear codes ``(i * |J| + j) * |K| + k`` and values.

        Each code must be an integer in ``[0, |I| * |J| * |K|)``, values
        must be finite and nonnegative, and entries are sorted by code.
        Repeated codes carrying the same value collapse to one entry;
        repeats with different values raise ``DuplicateIndexError``
        because silent averaging would mask ingestion bugs.  Codes in
        increasing order, each once, are not sorted, and int64 codes and
        float64 values then become the tensor's own (as read-only views),
        so the caller must not write to them afterwards.
        """
        dims = _validated_dims(dims)
        codes = np.asarray(codes)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if codes.shape != vals.shape or vals.ndim != 1:
            raise OutOfBoundsError("code and value arrays must be 1-D and equal length")
        _check_in_range(codes, math.prod(dims), "codes", "code")
        codes = np.ascontiguousarray(codes, dtype=np.int64).view()
        if vals.size and (not np.isfinite(vals).all() or vals.min() < 0):
            bad = vals[~(np.isfinite(vals) & (vals >= 0))][0]
            raise NegativeValueError(f"QoS values must be finite and >= 0, got {bad}")
        if _strictly_increasing(codes):
            return cls(dims, codes, vals.view())

        order = np.argsort(codes, kind="stable")
        codes, vals = codes[order], vals[order]
        del order
        if codes.size > 1:
            dup = np.nonzero(np.diff(codes) == 0)[0]
            if dup.size:
                if not np.array_equal(vals[dup], vals[dup + 1]):
                    k = dup[vals[dup] != vals[dup + 1]][0]
                    index = ", ".join(str(x[0]) for x in unravel(codes[k:k + 1], dims))
                    raise DuplicateIndexError(
                        f"index ({index}) appears with values {vals[k]} and {vals[k + 1]}")
                keep = np.concatenate(([True], np.diff(codes) != 0))
                codes, vals = codes[keep], vals[keep]
        return cls(dims, codes, vals)

    # -- access ----------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return int(self.values.size)

    @property
    def ids(self):
        """The ``(user, service, time)`` id arrays of all entries, in storage
        order: intp, unravelled from the codes on each access and never
        kept, so a loop should hold them in a local."""
        return unravel(self.codes, self.dims)

    def subset(self, positions) -> "SparseTensor3":
        """New tensor holding the entries where a boolean mask of
        ``n_entries`` elements is set, or those at the given storage
        positions.

        Positions must be integers in ``[0, n_entries)``; they set a mask,
        so an entry selected more than once is kept once.  The stored
        arrays are sliced in code order, so the result keeps the
        sorted-unique-code invariant without being validated or sorted
        again.  The mask's set positions are formed ``_CHUNK`` at a time,
        so none of entry size exists.
        """
        mask = np.asarray(positions)
        if mask.dtype != bool:
            if mask.ndim != 1:
                raise OutOfBoundsError("positions must be a 1-D sequence")
            _check_in_range(mask, self.n_entries, "positions", "position")
            at = mask.astype(np.intp, copy=False)
            mask = np.zeros(self.n_entries, bool)
            mask[at] = True
        if mask.shape != self.values.shape:
            raise OutOfBoundsError(
                f"a mask must have one element per entry, got shape {mask.shape}")
        size = np.count_nonzero(mask)
        codes, values = np.empty(size, np.int64), np.empty(size)
        stop = 0
        for lo in range(0, mask.size, _CHUNK):
            at = np.flatnonzero(mask[lo:lo + _CHUNK])
            at += lo
            start, stop = stop, stop + at.size
            self.codes.take(at, out=codes[start:stop])
            self.values.take(at, out=values[start:stop])
        return SparseTensor3(self.dims, codes, values)

    def n_shared(self, other: "SparseTensor3") -> int:
        """How many entries, by index, this tensor and ``other`` both hold.

        Each code of the smaller tensor is looked up in the larger one's
        sorted codes, so no array of both tensors' codes is formed.
        """
        small, large = sorted((self.codes, other.codes), key=len)
        if not small.size:
            return 0
        found = large.take(np.searchsorted(large, small), mode="clip")
        return int(np.count_nonzero(found == small))

    def __repr__(self):
        return (f"SparseTensor3(dims={self.dims}, n_entries={self.n_entries})")


def _strictly_increasing(x) -> bool:
    """Whether each element of the 1-D ``x`` exceeds the one before it."""
    return bool((x[1:] > x[:-1]).all())


def _check_in_range(x, stop, what, name):
    """Raise ``OutOfBoundsError`` unless ``x`` holds integers in ``[0, stop)``.

    Integer dtypes pass the integer check, and so do object arrays of
    Python integers (ids past int64); floats and booleans do not.  An empty
    array of any dtype passes, as ``np.asarray([])`` is float64.  The range
    is checked in ``x``'s own dtype, so a value past int64 is reported as it
    is, not wrapped.  ``what`` names the array, ``name`` one element.
    """
    if not x.size:
        return
    if x.dtype.kind not in "iu" and (
            x.dtype != object or not all(isinstance(v, numbers.Integral)
                                         and not isinstance(v, bool) for v in x.flat)):
        raise OutOfBoundsError(f"{what} must be integers, got dtype {x.dtype}")
    if x.min() < 0 or x.max() >= stop:
        bad = x[(x < 0) | (x >= stop)][0]
        raise OutOfBoundsError(f"{name} {bad} out of range [0, {stop})")


def _validated_dims(dims):
    """``dims`` as three positive ints whose product, the number of cells,
    fits in int64 so that every cell has its own code; a dim that is no
    integer is an error."""
    dims = tuple(int(check_kind(d, numbers.Integral, "every dim")) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise OutOfBoundsError(f"dims must be three positive integers, got {dims}")
    if math.prod(dims) > np.iinfo(np.int64).max:
        raise OutOfBoundsError(
            f"dims {dims} hold {math.prod(dims)} cells, more than int64 codes can index")
    return dims


class SplitTensor:
    """Train/validation/test split of one observed tensor, as a label per entry.

    ``labels`` holds one uint8 per entry of ``source``: the ``PARTITIONS``
    index of the partition the entry belongs to, or ``len(PARTITIONS)``
    for an entry left unassigned.  One label per entry makes the
    partitions disjoint, and of the source's dims, by construction.  The
    partitions (``train``, ``validation``, ``test``) are formed from the
    source on each access and never kept, so hold one in a local.
    """

    __slots__ = ("source", "labels")

    def __init__(self, source: SparseTensor3, labels):
        labels = np.asarray(labels, dtype=np.uint8)
        if labels.shape != source.values.shape:
            raise OutOfBoundsError(
                f"a split needs one label per entry ({source.n_entries}), "
                f"got shape {labels.shape}")
        labels.setflags(write=False)
        self.source, self.labels = source, labels

    @property
    def dims(self):
        return self.source.dims

    def mask(self, name) -> np.ndarray:
        """Boolean mask of the source entries in partition ``name``."""
        return self.labels == PARTITIONS.index(name)

    @property
    def counts(self) -> dict:
        """``{partition: entries}`` in ``PARTITIONS`` order, counted on the
        masks without forming a partition (``np.bincount`` would first copy
        the labels to intp, 8 B per entry)."""
        return {name: int(np.count_nonzero(self.mask(name))) for name in PARTITIONS}

    @property
    def train(self) -> SparseTensor3:
        return self.source.subset(self.mask("train"))

    @property
    def validation(self) -> SparseTensor3:
        return self.source.subset(self.mask("validation"))

    @property
    def test(self) -> SparseTensor3:
        return self.source.subset(self.mask("test"))

    def __repr__(self):
        return f"SplitTensor(source={self.source!r}, counts={self.counts})"
