"""Tests for the block term model container and prediction paths."""

import numpy as np
import pytest

from _reference import model_params_vector, predict_entry, ref_dense
from btdqos import model as model_module
from btdqos.errors import ConfigError, InvalidStructureError
from btdqos.model import (
    BlockStructure,
    BnbtModel,
    cp_structure,
    entry_chunks,
    init_random,
    predict_entries,
    tucker_structure,
    validate_model,
)


def single_block_model(s, a, b, c, d, e, f):
    """A 1x1x1-cell model with one rank-(1,1,1) block, for hand arithmetic."""
    return BnbtModel(
        dims=(1, 1, 1),
        structure=BlockStructure(((1, 1, 1),)),
        cores=[np.array([[[s]]], dtype=float)],
        factors=[[np.array([[x]], dtype=float)] for x in (a, b, c)],
        biases=[np.array([x], dtype=float) for x in (d, e, f)],
    )


class TestBlockStructure:
    def test_validation(self):
        with pytest.raises(InvalidStructureError):
            BlockStructure(())
        with pytest.raises(InvalidStructureError):
            BlockStructure(((0, 1, 1),))
        with pytest.raises(InvalidStructureError):
            BlockStructure(((1, 1),))
        with pytest.raises(InvalidStructureError):  # not truncated to 2
            BlockStructure(((2.7, 2, 2),))
        with pytest.raises(InvalidStructureError):  # true is no rank
            BlockStructure(((True, 2, 2),))

    def test_cp_structure(self):
        assert cp_structure(3).blocks == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
        for n_blocks in (0, True, 2.5):
            with pytest.raises(InvalidStructureError):
                cp_structure(n_blocks)

    def test_tucker_structure(self):
        assert tucker_structure(3, 3, 3).blocks == ((3, 3, 3),)
        with pytest.raises(InvalidStructureError):
            tucker_structure(3, 0, 3)


class TestInitRandom:
    def test_deterministic(self):
        """Same seed twice gives bitwise-identical parameters."""
        s = BlockStructure(((2, 2, 2), (1, 2, 1)))
        m1 = init_random((4, 5, 6), s, 42)
        m2 = init_random((4, 5, 6), s, 42)
        for a, b in zip(m1.parameter_arrays(), m2.parameter_arrays()):
            assert np.array_equal(a, b)
        m3 = init_random((4, 5, 6), s, 43)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(m1.parameter_arrays(), m3.parameter_arrays()))

    def test_range(self):
        m = init_random((10, 12, 8), BlockStructure(((3, 2, 2),)), 7)
        params = model_params_vector(m)
        assert params.min() >= 0.0
        assert params.max() <= 0.05

    def test_invalid_inputs(self):
        """A dim or seed that is no integer is an error, not truncated."""
        for dims in [(0, 2, 2), (2.7, 3, 4), (True, 2, 2), (2, 2)]:
            with pytest.raises(InvalidStructureError):
                init_random(dims, BlockStructure(((1, 1, 1),)), 0)
        for seed in (2.7, True, "2"):
            with pytest.raises(ConfigError, match="seed must be an integer"):
                init_random((2, 2, 2), BlockStructure(((1, 1, 1),)), seed)

    def test_parameter_count_paper_scale(self):
        """Parameter count at the benchmark scale, against the size formula.

        Oracle: R * (|I|L + |J|M + |K|N + LMN) + |I| + |J| + |K|
              = 3 * (142*2 + 4500*2 + 64*2 + 8) + 142 + 4500 + 64 = 32966.
        """
        dims = (142, 4500, 64)
        structure = BlockStructure(((2, 2, 2),) * 3)
        expected = 3 * (142 * 2 + 4500 * 2 + 64 * 2 + 8) + 142 + 4500 + 64
        assert expected == 32966
        assert model_params_vector(init_random(dims, structure, 0)).size == expected


class TestPredictEntry:
    def test_hand_case(self):
        """2*3*0.5*1 + (0.1+0.2+0.3) = 3.6."""
        m = single_block_model(2.0, 3.0, 0.5, 1.0, 0.1, 0.2, 0.3)
        assert predict_entry(m, 0, 0, 0) == pytest.approx(3.6, abs=1e-12)

    def test_zero_model(self):
        m = single_block_model(0, 0, 0, 0, 0, 0, 0)
        assert predict_entry(m, 0, 0, 0) == 0.0


class TestDenseReconstruct:
    def test_zero_factors_leave_broadcast_biases(self):
        m = init_random((2, 3, 4), BlockStructure(((1, 1, 1),)), 0)
        for arr in m.cores + [f for family in m.factors for f in family]:
            arr[:] = 0.0
        dense = ref_dense(m)
        d, e, f = m.biases
        expected = d[:, None, None] + e[None, :, None] + f[None, None, :]
        np.testing.assert_allclose(dense, expected, atol=0)

    def test_all_ones_unit_block(self):
        """Single (1,1,1) block of ones, zero biases -> every cell is 1."""
        m = init_random((2, 2, 2), BlockStructure(((1, 1, 1),)), 0)
        for arr in m.cores + [f for family in m.factors for f in family]:
            arr[:] = 1.0
        for bias in m.biases:
            bias[:] = 0.0
        np.testing.assert_allclose(ref_dense(m), np.ones((2, 2, 2)), atol=0)

    def test_matches_predict_entry_random(self):
        """Mode-product path and quadruple loop agree to 1e-12."""
        m = init_random((3, 4, 5), BlockStructure(((2, 2, 2), (2, 2, 2))), 99)
        dense = ref_dense(m)
        worst = max(abs(predict_entry(m, i, j, k) - dense[i, j, k])
                    for i in range(3) for j in range(4) for k in range(5))
        assert worst <= 1e-12


def test_predict_entries_matches_scalar_path():
    rng = np.random.default_rng(5)
    m = init_random((4, 6, 5), BlockStructure(((2, 1, 3), (1, 2, 2))), 8)
    ii = rng.integers(0, 4, 50)
    jj = rng.integers(0, 6, 50)
    kk = rng.integers(0, 5, 50)
    batch = predict_entries(m, ii, jj, kk)
    for p in range(50):
        assert batch[p] == pytest.approx(
            predict_entry(m, int(ii[p]), int(jj[p]), int(kk[p])), abs=1e-12)


@pytest.mark.parametrize("n_entries, widths", [
    (0, []), (1, [1]), (6, [6]), (7, [7]), (13, [13]), (14, [7, 7]),
    (15, [7, 8]), (50, [7, 7, 7, 7, 7, 7, 8])])
def test_entry_chunks_split_the_entries_evenly(monkeypatch, n_entries, widths):
    """As many chunks as seven entries fit whole, covering the entries in
    order, with widths a unit apart at most: no tensor ends on a chunk much
    narrower than the rest."""
    monkeypatch.setattr(model_module, "ENTRY_CHUNK", 7)
    chunks = entry_chunks(n_entries)
    assert [c.stop - c.start for c in chunks] == widths
    assert [i for c in chunks for i in range(n_entries)[c]] == list(range(n_entries))


def test_cp_degeneration_exact():
    """Unit cores with R blocks of (1,1,1) reduce to the biased CP sum."""
    rng = np.random.default_rng(21)
    dims = (4, 5, 3)
    m = init_random(dims, cp_structure(2), 3)
    for core in m.cores:
        core[:] = 1.0
    (a, b, c), (d, e, f) = m.factors, m.biases
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                expected = sum(a[r][i, 0] * b[r][j, 0] * c[r][k, 0]
                               for r in range(2))
                expected += d[i] + e[j] + f[k]
                assert predict_entry(m, i, j, k) == expected


def test_block_permutation_symmetry():
    m = init_random((4, 4, 4), BlockStructure(((2, 2, 2), (1, 2, 1), (2, 1, 1))), 6)
    permuted = m.copy()
    order = [2, 0, 1]
    permuted.structure = BlockStructure(tuple(m.structure.blocks[r] for r in order))
    permuted.cores = [m.cores[r].copy() for r in order]
    permuted.factors = [[family[r].copy() for r in order] for family in m.factors]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert predict_entry(m, i, j, k) == pytest.approx(
                    predict_entry(permuted, i, j, k), abs=1e-12)


def test_validate_model_catches_violations():
    m = init_random((3, 3, 3), BlockStructure(((2, 2, 2),)), 0)
    validate_model(m)
    bad = m.copy()
    bad.biases[0] = bad.biases[0][:2]
    with pytest.raises(InvalidStructureError):
        validate_model(bad)
    bad = m.copy()
    bad.cores[0][0, 0, 0] = -1e-9
    import btdqos.errors as errors
    with pytest.raises(errors.NegativeValueError):
        validate_model(bad)
