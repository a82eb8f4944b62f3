"""Tests for coordinate-format sparse tensor storage."""

import numpy as np
import pytest

from _reference import entry_list, from_entries, ref_tensor_arrays, value_at
from btdqos.errors import (
    ConfigError,
    DuplicateIndexError,
    NegativeValueError,
    OutOfBoundsError,
)
from btdqos.model import BlockStructure
from btdqos.sparse import MODES, PARTITIONS, SparseTensor3, SplitTensor, unravel
from btdqos.trainer import EpochWorkspace


def test_build_two_entries():
    """dims (2,2,2) with two entries -> tensor with two observations."""
    t = from_entries((2, 2, 2), [((0, 0, 0), 1.0), ((1, 1, 1), 2.0)])
    assert t.n_entries == 2
    assert value_at(t, 0, 0, 0) == 1.0
    assert value_at(t, 1, 1, 1) == 2.0


def test_build_out_of_bounds():
    """Entry (0,0,2) does not fit dims (2,2,2)."""
    with pytest.raises(OutOfBoundsError):
        from_entries((2, 2, 2), [((0, 0, 2), 1.0)])
    with pytest.raises(OutOfBoundsError):
        from_entries((2, 2, 2), [((-1, 0, 0), 1.0)])


@pytest.mark.parametrize("dims", [(3.5, 2, 2), (3.0, 2, 2), ("3", 2, 2), (3, 2, None)])
def test_build_dims_that_are_no_integers(dims):
    """A dim that is no integer is an error, not truncated."""
    z = np.zeros(1, dtype=np.int64)
    with pytest.raises(ConfigError, match="every dim must be an integer"):
        SparseTensor3.from_arrays(dims, z, z, z, np.ones(1))


@pytest.mark.parametrize("dims", [(3_000_000,) * 3, (2 ** 21,) * 3, (2, 2 ** 62, 2)])
def test_build_dims_whose_cells_overflow_int64(dims):
    """Dims with more cells than int64 codes can index are an error, where
    codes would wrap and two cells could share one."""
    z = np.zeros(1, dtype=np.int64)
    with pytest.raises(OutOfBoundsError, match="more than int64 codes can index"):
        SparseTensor3.from_arrays(dims, z, z, z, np.ones(1))


def test_build_largest_dims_codes_and_ids_round_trip():
    """At the most cells int64 codes index, the last cell's code is exact
    and unravels to its ids."""
    dims = (2 ** 21, 2 ** 21, 2 ** 21 - 1)
    last = [np.array([d - 1]) for d in dims]
    t = SparseTensor3.from_arrays(dims, *last, [1.0])
    assert t.codes.tolist() == [dims[0] * dims[1] * dims[2] - 1]
    assert [x.tolist() for x in t.ids] == [[d - 1] for d in dims]


@pytest.mark.parametrize("bad", [[1.7], [1.0], [True], np.array([1], dtype=np.float32)])
def test_build_ids_that_are_no_integers(bad):
    """Fractional, float and boolean ids are rejected, not truncated."""
    z = [0]
    for axis in range(3):
        ids = [z, z, z]
        ids[axis] = bad
        with pytest.raises(OutOfBoundsError, match=f"{MODES[axis]} ids must be integers"):
            SparseTensor3.from_arrays((2, 2, 2), *ids, [1.0])


def test_build_empty_ids_of_any_dtype():
    """Empty arrays are accepted whatever their dtype (``np.asarray([])``
    is float64)."""
    t = SparseTensor3.from_arrays((2, 2, 2), [], np.array([], dtype=bool),
                                  np.array([], dtype=np.float32), [])
    assert t.n_entries == 0


def test_from_codes_matches_from_arrays():
    """Codes build what their ids build; sorted unique int64 codes and
    float64 values are kept without a copy."""
    t = _random_tensor(7)
    codes, values = t.codes.copy(), t.values.copy()
    kept = SparseTensor3.from_codes(t.dims, codes, values)
    _assert_same_tensor(kept, t)
    assert np.shares_memory(kept.codes, codes)
    assert np.shares_memory(kept.values, values)
    assert codes.flags.writeable and values.flags.writeable
    order = np.random.default_rng(3).permutation(codes.size)
    _assert_same_tensor(SparseTensor3.from_codes(t.dims, codes[order], values[order]), t)


@pytest.mark.parametrize("codes, message", [
    ([-1], "code -1 out of range"), ([120], "code 120 out of range"),
    ([1.0], "codes must be integers"), ([False], "codes must be integers")])
def test_from_codes_rejects_bad_codes(codes, message):
    with pytest.raises(OutOfBoundsError, match=message):
        SparseTensor3.from_codes((6, 5, 4), codes, [1.0])


def test_unravel_inverts_codes():
    dims = (6, 5, 4)
    codes = np.arange(120)
    assert [x.tolist() for x in unravel(codes, dims)] == [
        x.tolist() for x in np.unravel_index(codes, dims)]
    assert all(x.dtype == np.intp for x in unravel(codes, dims))


def test_build_negative_value():
    with pytest.raises(NegativeValueError):
        from_entries((2, 2, 2), [((0, 0, 0), -0.5)])
    with pytest.raises(NegativeValueError):
        from_entries((2, 2, 2), [((0, 0, 0), float("nan"))])


def test_duplicates_same_value_collapse():
    t = from_entries((2, 2, 2), [((0, 1, 0), 3.0), ((0, 1, 0), 3.0), ((1, 0, 0), 1.0)])
    assert t.n_entries == 2


def test_duplicates_conflicting_values_raise():
    with pytest.raises(DuplicateIndexError):
        from_entries((2, 2, 2), [((0, 1, 0), 3.0), ((0, 1, 0), 4.0)])


def test_entries_sorted_lexicographically():
    entries = [((1, 0, 1), 4.0), ((0, 1, 0), 2.0), ((0, 0, 1), 1.0), ((1, 0, 0), 3.0)]
    t = from_entries((2, 2, 2), entries)
    assert [idx for idx, _ in entry_list(t)] == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]


def test_round_trip_preserves_multiset():
    """Building from shuffled input yields exactly the input entries."""
    rng = np.random.default_rng(3)
    dims = (5, 6, 4)
    sel = rng.choice(dims[0] * dims[1] * dims[2], size=30, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    vals = rng.uniform(0, 5, 30)
    entries = list(zip(zip(ii.tolist(), jj.tolist(), kk.tolist()), vals.tolist()))
    rng.shuffle(entries)
    t = from_entries(dims, entries)
    assert sorted(entry_list(t)) == sorted(entries)
    # Deterministic order: rebuilding gives the identical sequence.
    t2 = from_entries(dims, list(reversed(entries)))
    assert entry_list(t) == entry_list(t2)


def _slice_counts(t):
    """The per-slice observation counts a fit forms for a training tensor."""
    return EpochWorkspace(t, BlockStructure(((1, 1, 1),))).counts


def test_slice_count_matches_brute_force():
    """Slice counts of a random 10x10x10 tensor equal a full scan, also
    with the last user slice left empty."""
    rng = np.random.default_rng(17)
    dims = (10, 10, 10)
    sel = rng.choice(1000, size=200, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    t = SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 1, 200))
    no_last_user = t.subset(t.ids[0] < dims[0] - 1)
    for tensor in (t, no_last_user):
        counts = _slice_counts(tensor)
        for axis in range(3):
            assert counts[axis].shape == (dims[axis],)
            for index in range(dims[axis]):
                brute = sum(1 for idx, _ in entry_list(tensor) if idx[axis] == index)
                assert counts[axis][index] == brute
    assert _slice_counts(no_last_user)[0][-1] == 0


def test_slice_counts_sum_to_entry_count():
    rng = np.random.default_rng(11)
    dims = (7, 9, 5)
    sel = rng.choice(7 * 9 * 5, size=100, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    t = SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 1, 100))
    counts = _slice_counts(t)
    assert len(counts) == len(MODES)
    for per_slice in counts:
        assert int(per_slice.sum()) == t.n_entries


def _random_tensor(seed, dims=(6, 5, 4), n=60):
    rng = np.random.default_rng(seed)
    sel = rng.choice(dims[0] * dims[1] * dims[2], size=n, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    return SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 1, n))


def _assert_same_tensor(got, want):
    """Same stored arrays (values, codes) and dtypes, read-only."""
    for g, w in zip((got.values, got.codes), (want.values, want.codes)):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
        assert not g.flags.writeable


@pytest.mark.parametrize("kind", ["shuffled", "prefix", "repeated", "empty"])
def test_subset_matches_from_arrays(kind):
    """Slicing at sorted positions gives what rebuilding the rows gives."""
    t = _random_tensor(23)
    perm = np.random.default_rng(29).permutation(t.n_entries)
    positions = {
        "shuffled": perm,
        "prefix": perm[:17],
        "repeated": np.concatenate((perm[:9], perm[3:12], perm[:2])),
        "empty": perm[:0],
    }[kind]
    _assert_same_tensor(t.subset(positions), SparseTensor3.from_arrays(
        t.dims, *(x[positions] for x in t.ids), t.values[positions]))


@pytest.mark.parametrize("repeats", [False, True], ids=["unique", "repeats"])
@pytest.mark.parametrize("id_dtype", [np.int32, np.int64])
def test_sorted_input_equals_shuffled_input(id_dtype, repeats):
    """Entries in code order build the tensor the same entries shuffled
    build, which is what the reference stores.  Float64 values of unique
    entries in code order are kept without a copy, the tensor stores the
    codes it formed, and the caller's arrays stay writable."""
    rng = np.random.default_rng(5)
    dims = (7, 9, 5)
    codes = np.sort(rng.choice(7 * 9 * 5, 120, replace=False))
    vals = rng.uniform(0, 3, codes.size)
    if repeats:
        codes, vals = np.repeat(codes, 2), np.repeat(vals, 2)
    ids = [x.astype(id_dtype) for x in np.unravel_index(codes, dims)]
    order = rng.permutation(codes.size)
    in_order = SparseTensor3.from_arrays(dims, *ids, vals)
    shuffled = SparseTensor3.from_arrays(dims, *(x[order] for x in ids), vals[order])
    _assert_same_tensor(in_order, shuffled)
    want_ids, want_values, want_codes = ref_tensor_arrays(dims, *ids, vals)
    for got, want in zip((*in_order.ids, in_order.values, in_order.codes),
                         (*want_ids, want_values, want_codes)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    kept = not repeats
    assert np.shares_memory(in_order.values, vals) == kept
    assert not any(np.shares_memory(in_order.codes, x) for x in ids)
    assert vals.flags.writeable and all(x.flags.writeable for x in ids)


@pytest.mark.parametrize("case, error", [
    ("user", OutOfBoundsError), ("time", OutOfBoundsError),
    ("negative", NegativeValueError), ("nan", NegativeValueError),
    ("duplicate", DuplicateIndexError)])
def test_sorted_and_shuffled_input_raise_alike(case, error):
    """An invalid entry raises the same error whether the entries come in
    code order or not."""
    dims = (4, 5, 6)
    codes = np.arange(0, 120, 7)
    ids = [x.astype(np.int32) for x in np.unravel_index(codes, dims)]
    vals = np.linspace(0.5, 2.0, codes.size)
    last = codes.size - 1
    if case == "user":
        ids[0][last] = dims[0]
    elif case == "time":
        ids[2][last] = dims[2]
    elif case == "negative":
        vals[last] = -0.5
    elif case == "nan":
        vals[last] = np.nan
    else:  # the entry at position 9 again, right after it, with another value
        ids = [np.insert(x, 10, x[9]) for x in ids]
        vals = np.insert(vals, 10, 7.0)
    # A rotation that keeps the repeated pair in its order, so the message,
    # which names the two values in input order, is the same.
    order = np.roll(np.arange(vals.size), 5)
    outcomes = []
    for take in (slice(None), order):
        with pytest.raises(error) as err:
            SparseTensor3.from_arrays(dims, *(x[take] for x in ids), vals[take])
        outcomes.append(str(err.value))
    assert outcomes[0] == outcomes[1]


def test_subset_of_increasing_positions_equals_sorting_path():
    """Strictly increasing positions select what the same positions
    shuffled and repeated select."""
    t = _random_tensor(23)
    rng = np.random.default_rng(31)
    for size in (1, 2, 17, t.n_entries):
        positions = np.sort(rng.choice(t.n_entries, size, replace=False))
        shuffled = rng.permutation(positions)
        _assert_same_tensor(t.subset(positions),
                            t.subset(np.concatenate((shuffled, shuffled[:1]))))


@pytest.mark.parametrize("size", [0, 1, 17, 60])
def test_subset_of_a_mask_equals_its_positions(size):
    """A boolean mask selects what its set positions select."""
    t = _random_tensor(23)
    mask = np.zeros(t.n_entries, bool)
    mask[np.random.default_rng(size).choice(t.n_entries, size, replace=False)] = True
    _assert_same_tensor(t.subset(mask), t.subset(np.flatnonzero(mask)))


def test_n_shared_counts_common_entries():
    """``n_shared`` equals a set intersection of the two index sets, in
    either order, with an empty tensor and past the larger one's codes."""
    rng = np.random.default_rng(41)
    dims = (6, 5, 4)
    for n_a, n_b in ((0, 0), (0, 9), (30, 5), (60, 60), (120, 1), (1, 120)):
        a = _random_tensor(int(rng.integers(1 << 30)), dims, n_a)
        b = _random_tensor(int(rng.integers(1 << 30)), dims, n_b)
        want = len(set(a.codes.tolist()) & set(b.codes.tolist()))
        assert a.n_shared(b) == b.n_shared(a) == want
    top = from_entries(dims, [((5, 4, 3), 1.0)])
    low = from_entries(dims, [((0, 0, 0), 1.0), ((1, 0, 0), 1.0)])
    assert top.n_shared(low) == low.n_shared(top) == 0


@pytest.mark.parametrize("positions", [[-1], [0, 60], [3, -60, 5], [[0, 1]],
                                       [True, False], np.ones(61, bool)])
def test_subset_rejects_bad_positions(positions):
    """Positions outside [0, n_entries), not a 1-D sequence, or a mask of
    another length than the entries, raise."""
    t = _random_tensor(23)
    with pytest.raises(OutOfBoundsError):
        t.subset(positions)


@pytest.mark.parametrize("positions, message", [
    ([1.9], "positions must be integers, got dtype float64"),
    (np.array([3.0]), "positions must be integers"),
    (np.array([2, 2 ** 63], dtype=np.uint64), "position 9223372036854775808 out of range"),
    ([2 ** 64], "position 18446744073709551616 out of range")])
def test_subset_rejects_positions_that_are_no_integers_in_range(positions, message):
    """A fractional position is an error, not truncated, and a position
    past int64 is reported as it is, not wrapped."""
    t = _random_tensor(23)
    with pytest.raises(OutOfBoundsError, match=message):
        t.subset(positions)


def test_arrays_are_immutable():
    """The stored arrays are read-only, and writing to the ids derived from
    them leaves the tensor unchanged."""
    t = from_entries((2, 2, 2), [((0, 0, 0), 1.0)])
    with pytest.raises(ValueError):
        t.values[0] = 5.0
    with pytest.raises(ValueError):
        t.codes[0] = 1
    ids = t.ids
    for arr in ids:
        arr[0] = 1
    assert entry_list(t) == [((0, 0, 0), 1.0)]
    with pytest.raises(TypeError):
        t.ids[0] = t.ids[1]


def test_empty_tensor_is_valid():
    t = from_entries((3, 3, 3), [])
    assert t.n_entries == 0
    assert t.codes.size == t.values.size == 0


class TestSplitTensor:
    SOURCE = [((0, 0, 0), 1.0), ((1, 1, 1), 2.0), ((1, 2, 0), 4.0), ((2, 2, 2), 3.0)]

    def test_valid_partition(self):
        """Each partition is the source's entries under its label, in storage
        order; an entry labelled ``len(PARTITIONS)`` is in none."""
        parts = SplitTensor(from_entries((3, 3, 3), self.SOURCE), np.array([2, 0, 3, 1]))
        assert parts.dims == (3, 3, 3)
        assert entry_list(parts.train) == [((1, 1, 1), 2.0)]
        assert entry_list(parts.validation) == [((2, 2, 2), 3.0)]
        assert entry_list(parts.test) == [((0, 0, 0), 1.0)]
        assert parts.counts == {"train": 1, "validation": 1, "test": 1}
        assert list(parts.counts) == list(PARTITIONS)
        with pytest.raises(ValueError):
            parts.labels[0] = 0

    @pytest.mark.parametrize("labels", [[], [0, 1, 2], [0, 1, 2, 0, 1], [[0, 1], [2, 0]]])
    def test_labels_must_match_the_entries(self, labels):
        with pytest.raises(OutOfBoundsError, match="one label per entry"):
            SplitTensor(from_entries((3, 3, 3), self.SOURCE), labels)
