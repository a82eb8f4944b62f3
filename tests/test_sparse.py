"""Tests for coordinate-format sparse tensor storage."""

import numpy as np
import pytest

from _reference import entry_list, from_entries, ref_tensor_arrays, value_at
from btdqos.errors import (
    ConfigError,
    DimMismatchError,
    DuplicateIndexError,
    NegativeValueError,
    OutOfBoundsError,
)
from btdqos.sparse import MODES, SparseTensor3, SplitTensor


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


def test_slice_count_matches_brute_force():
    """Counts on a random 10x10x10 tensor equal a full scan."""
    rng = np.random.default_rng(17)
    dims = (10, 10, 10)
    sel = rng.choice(1000, size=200, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    t = SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 1, 200))
    for axis in range(3):
        for index in range(dims[axis]):
            brute = sum(1 for idx, _ in entry_list(t) if idx[axis] == index)
            assert t.counts[axis][index] == brute


def test_slice_counts_sum_to_entry_count():
    rng = np.random.default_rng(11)
    dims = (7, 9, 5)
    sel = rng.choice(7 * 9 * 5, size=100, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    t = SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 1, 100))
    assert len(t.counts) == len(MODES)
    for counts in t.counts:
        assert int(counts.sum()) == t.n_entries


def _random_tensor(seed, dims=(6, 5, 4), n=60):
    rng = np.random.default_rng(seed)
    sel = rng.choice(dims[0] * dims[1] * dims[2], size=n, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    return SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 1, n))


def _assert_same_tensor(got, want):
    """Same stored arrays (ids, values, codes, counts) and dtypes, read-only."""
    for g, w in zip((*got.ids, got.values, got.index_codes(), *got.counts),
                    (*want.ids, want.values, want.index_codes(), *want.counts)):
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
    build, which is what the reference stores.  Unique int32 ids and
    float64 values in code order are kept without a copy, and the caller's
    arrays stay writable."""
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
    for got, want in zip((*in_order.ids, in_order.values, in_order.index_codes()),
                         (*want_ids, want_values, want_codes)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    kept = not repeats
    assert np.shares_memory(in_order.values, vals) == kept
    for got, given in zip(in_order.ids, ids):
        assert np.shares_memory(got, given) == (kept and id_dtype == np.int32)
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
    """Strictly increasing positions, which skip the sort, select what the
    same positions shuffled and repeated select."""
    t = _random_tensor(23)
    rng = np.random.default_rng(31)
    for size in (1, 2, 17, t.n_entries):
        positions = np.sort(rng.choice(t.n_entries, size, replace=False))
        shuffled = rng.permutation(positions)
        _assert_same_tensor(t.subset(positions),
                            t.subset(np.concatenate((shuffled, shuffled[:1]))))


def test_n_shared_counts_common_entries():
    """``n_shared`` equals a set intersection of the two index sets, in
    either order, with an empty tensor and past the larger one's codes."""
    rng = np.random.default_rng(41)
    dims = (6, 5, 4)
    for n_a, n_b in ((0, 0), (0, 9), (30, 5), (60, 60), (120, 1), (1, 120)):
        a = _random_tensor(int(rng.integers(1 << 30)), dims, n_a)
        b = _random_tensor(int(rng.integers(1 << 30)), dims, n_b)
        want = len(set(a.index_codes().tolist()) & set(b.index_codes().tolist()))
        assert a.n_shared(b) == b.n_shared(a) == want
    top = from_entries(dims, [((5, 4, 3), 1.0)])
    low = from_entries(dims, [((0, 0, 0), 1.0), ((1, 0, 0), 1.0)])
    assert top.n_shared(low) == low.n_shared(top) == 0


@pytest.mark.parametrize("positions", [[-1], [0, 60], [3, -60, 5], [[0, 1]]])
def test_subset_rejects_bad_positions(positions):
    """Positions outside [0, n_entries), or not a 1-D sequence, raise."""
    t = _random_tensor(23)
    with pytest.raises(OutOfBoundsError):
        t.subset(positions)


def test_arrays_are_immutable():
    t = from_entries((2, 2, 2), [((0, 0, 0), 1.0)])
    with pytest.raises(ValueError):
        t.values[0] = 5.0
    for arr in (*t.ids, *t.counts):
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(TypeError):
        t.ids[0] = t.ids[1]


def test_empty_tensor_is_valid():
    t = from_entries((3, 3, 3), [])
    assert t.n_entries == 0
    assert all(not counts.any() for counts in t.counts)


class TestSplitTensor:
    def _tensor(self, entries):
        return from_entries((3, 3, 3), entries)

    def test_valid_partition(self):
        parts = SplitTensor(
            train=self._tensor([((0, 0, 0), 1.0)]),
            validation=self._tensor([((1, 1, 1), 2.0)]),
            test=self._tensor([((2, 2, 2), 3.0)]),
        )
        assert parts.dims == (3, 3, 3)

    def test_overlap_rejected(self):
        with pytest.raises(DuplicateIndexError):
            SplitTensor(
                train=self._tensor([((0, 0, 0), 1.0)]),
                validation=self._tensor([((0, 0, 0), 1.0)]),
                test=self._tensor([((2, 2, 2), 3.0)]),
            )
        shared = [((0, 0, 0), 1.0), ((1, 2, 0), 2.0), ((2, 1, 2), 3.0)]
        with pytest.raises(DuplicateIndexError,
                           match="train and test partitions share 3 entries"):
            SplitTensor(
                train=self._tensor(shared + [((0, 1, 1), 1.0)]),
                validation=self._tensor([((1, 1, 1), 2.0)]),
                test=self._tensor([((2, 2, 2), 3.0)] + shared),
            )

    def test_dims_must_match(self):
        with pytest.raises(DimMismatchError):
            SplitTensor(
                train=self._tensor([((0, 0, 0), 1.0)]),
                validation=from_entries((2, 2, 2), []),
                test=self._tensor([((2, 2, 2), 3.0)]),
            )
