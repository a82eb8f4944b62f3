"""Tests for the regularized objective and multiplicative-update training."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _reference import (
    exact_fit_instance,
    from_entries,
    model_params_vector,
    planted_tensor,
    random_instance,
    ref_epoch,
    ref_gradient,
    ref_gradient_fd,
    ref_objective,
)
from btdqos import model as model_module
from btdqos import trainer
from btdqos.evaluation import rmse_and_mae
from btdqos.errors import (
    ConfigError,
    DimMismatchError,
    DuplicateIndexError,
    EmptyInputError,
    NonFiniteError,
    ValidationError,
)
from btdqos.model import (
    ENTRY_CHUNK,
    BlockStructure,
    cp_structure,
    init_random,
    predict_entries,
)
from btdqos.sparse import SparseTensor3
from btdqos.trainer import (
    EPSILON_GUARD,
    EpochWorkspace,
    TrainConfig,
    epoch,
    error_sums,
    fit,
    grid_search,
    objective,
)
from test_model import single_block_model

ZERO_REG = TrainConfig(stop_on="train_loss")

#: Three blocks of differing ranks, two of them with distinct L, M and N.
THREE_BLOCKS = BlockStructure(((1, 2, 3), (2, 2, 2), (3, 1, 2)))


def set_chunk(monkeypatch, chunk):
    """Run the epoch's contractions and ``predict_entries`` over chunks of
    about ``chunk`` entries (workspaces made from now on)."""
    monkeypatch.setattr(model_module, "ENTRY_CHUNK", chunk)


def _small_instance():
    """A random tensor of at most 6 x 6 x 6."""
    dims, _, tensor, _ = random_instance(41, max_dim=6)
    return dims, tensor


def _uniform_instance():
    """5,000 entries of a 142 x 500 x 64 tensor, uniform codes and values."""
    rng = np.random.default_rng(3)
    dims = (142, 500, 64)
    codes = rng.choice(np.prod(dims), size=5000, replace=False)
    return dims, SparseTensor3.from_arrays(
        dims, *np.unravel_index(codes, dims), rng.uniform(0.1, 3.0, codes.size))


def _arrays(items):
    """The numpy arrays among ``items``, looking into lists and tuples."""
    for item in items:
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, (list, tuple)):
            yield from _arrays(item)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_iter == 1000
        assert cfg.tol == 1e-5
        assert EPSILON_GUARD == 1e-12
        assert cfg.bias_enabled

    @pytest.mark.parametrize("kwargs", [
        dict(lambda1=-0.1), dict(max_iter=0), dict(tol=0.0), dict(stop_on="nope"),
        dict(lambda1=float("inf")), dict(lambda2=float("nan")),
        dict(lambda3=float("inf")),
    ], ids=[f"kwargs{n}" for n in (0, 1, 2, 4, 5, 6, 7)])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestObjective:
    def test_single_entry_unregularized(self):
        """y=2 predicted as 1 with all lambdas zero -> loss 1."""
        m = single_block_model(1, 1, 1, 1, 0, 0, 0)  # predicts 1.0
        t = from_entries((1, 1, 1), [((0, 0, 0), 2.0)])
        assert objective(m, t, ZERO_REG) == pytest.approx(1.0, abs=1e-15)

    def test_empty_observations(self):
        m = single_block_model(1, 1, 1, 1, 0, 0, 0)
        t = from_entries((1, 1, 1), [])
        assert objective(m, t, ZERO_REG) == 0.0

    def test_matches_reference_with_regularization(self):
        """Vectorized loss equals the quadruple-loop oracle on 4x4x4.

        Distinct lambdas, and each one alone at zero, show a penalty
        weight paired with the wrong kind of parameter."""
        for lambdas in ((0.01, 0.02, 0.005), (0, 0.02, 0), (0.03, 0, 0.01)):
            cfg = TrainConfig(*lambdas, stop_on="train_loss")
            for seed in range(5):
                dims, structure, tensor, model = random_instance(
                    seed, max_dim=4, max_blocks=2, max_rank=2)
                fast = objective(model, tensor, cfg)
                slow = ref_objective(model, tensor, cfg)
                assert fast == pytest.approx(slow, rel=1e-10), lambdas

    def test_dim_mismatch(self):
        m = single_block_model(1, 1, 1, 1, 0, 0, 0)
        t = from_entries((2, 2, 2), [((0, 0, 0), 1.0)])
        with pytest.raises(DimMismatchError):
            objective(m, t, ZERO_REG)

    def test_workspace_scores_like_the_bare_tensor(self):
        """A workspace's counts give the loss the tensor's own counts give,
        and its predictions stand in only for the model its last epoch
        returned: a workspace without an epoch, or one scored for another
        model, predicts.  A workspace of another tensor is rejected."""
        cfg = TrainConfig(0.01, 0.02, 0.005, stop_on="train_loss")
        dims, structure, tensor, model = random_instance(45, max_dim=6)
        workspace = EpochWorkspace(tensor, structure)
        assert objective(model, tensor, cfg, workspace) == objective(model, tensor, cfg)
        new = epoch(model, tensor, cfg, workspace)
        assert objective(model, tensor, cfg, workspace) == objective(model, tensor, cfg)
        assert objective(new, tensor, cfg, workspace) == pytest.approx(
            objective(new, tensor, cfg), rel=1e-12)
        other = tensor.subset(np.arange(tensor.n_entries - 1))
        with pytest.raises(ValueError, match="another tensor"):
            objective(model, other, cfg, workspace)


class TestGradient:
    def test_zero_at_perfect_fit(self):
        tensor, model = exact_fit_instance(1)
        for coord in [("core", 0, 0, 0, 0), ("user", 0, 0, 0),
                      ("service", 0, 1, 1), ("time", 0, 2, 0),
                      ("user_bias", 0), ("service_bias", 2), ("time_bias", 1)]:
            assert ref_gradient(model, tensor, ZERO_REG, coord) == pytest.approx(0.0, abs=1e-9)

    def test_hand_case(self):
        """s=a=b=c=1, no biases, y=2 -> direction for a is -(2-1)*1 = -1."""
        m = single_block_model(1, 1, 1, 1, 0, 0, 0)
        t = from_entries((1, 1, 1), [((0, 0, 0), 2.0)])
        assert ref_gradient(m, t, ZERO_REG, ("user", 0, 0, 0)) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_finite_differences(self):
        """The bracket is half the objective derivative (documented convention)."""
        rng = np.random.default_rng(0)
        cfg = TrainConfig(lambda1=0.02, lambda2=0.05, lambda3=0.01,
                          stop_on="train_loss")
        for seed in range(4):
            dims, structure, tensor, model = random_instance(
                seed + 100, max_dim=5, max_blocks=2, max_rank=2)
            from _reference import all_coords
            coords = all_coords(model)
            for coord in [coords[int(rng.integers(0, len(coords)))] for _ in range(12)]:
                analytic = 2.0 * ref_gradient(model, tensor, cfg, coord)
                fd = ref_gradient_fd(model, tensor, cfg, coord, objective)
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_invalid_coordinates(self):
        tensor, model = exact_fit_instance(2)
        for coord in [("core", 5, 0, 0, 0), ("user", 0, 99, 0),
                      ("user", 0, 0, 99), ("nope", 1), ("user_bias", -1)]:
            with pytest.raises(ValueError):
                ref_gradient(model, tensor, ZERO_REG, coord)


class TestEpoch:
    def test_fixed_point_at_exact_fit(self):
        """With zero residuals and zero lambdas every ratio is ~1."""
        tensor, model = exact_fit_instance(7)
        after = epoch(model, tensor, ZERO_REG)
        before_vec = model_params_vector(model)
        after_vec = model_params_vector(after)
        # Drift is bounded by the denominator guard only.
        assert np.max(np.abs(after_vec - before_vec)) <= 1e-9

    def test_bias_update_hand_case(self):
        """One user, two entries with yhat=1 each and y=2,4: d 0.5 -> 1.5."""
        m = single_block_model(0, 0, 0, 0, 0.5, 0.25, 0.25)
        m.dims = (1, 1, 2)
        m.factors[2] = [np.zeros((2, 1))]
        m.biases[2] = np.array([0.25, 0.25])
        t = from_entries((1, 1, 2), [((0, 0, 0), 2.0), ((0, 0, 1), 4.0)])
        after = epoch(m, t, ZERO_REG)
        assert after.biases[0][0] == pytest.approx(1.5, rel=1e-9)

    def test_matches_reference_epoch(self):
        """Optimized epoch equals the per-coordinate loop on 4x5x6."""
        cfg = TrainConfig(lambda1=0.01, lambda2=0.02, lambda3=0.005,
                          stop_on="train_loss")
        rng = np.random.default_rng(12)
        dims = (4, 5, 6)
        sel = rng.choice(120, size=55, replace=False)
        ii, jj, kk = np.unravel_index(sel, dims)
        tensor = SparseTensor3.from_arrays(dims, ii, jj, kk, rng.uniform(0, 2, 55))
        model = init_random(dims, BlockStructure(((2, 2, 2), (2, 2, 2))), 4)
        fast = model_params_vector(epoch(model, tensor, cfg))
        slow = model_params_vector(ref_epoch(model, tensor, cfg))
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(bias_enabled=False), id="kwargs0"),
        pytest.param(dict(lambda1=0.0), id="kwargs2"),
        # Distinct L, M, N: a wrong axis order in a per-mode reshape of the
        # core only shows when the three ranks differ.
        pytest.param(dict(lambda1=0.01, blocks=((1, 2, 3), (3, 1, 2))),
                     id="kwargs3")])
    def test_matches_reference_epoch_variants(self, kwargs):
        kwargs = dict(kwargs)
        blocks = kwargs.pop("blocks", None)
        cfg = TrainConfig(lambda2=0.01, lambda3=0.01, stop_on="train_loss", **kwargs)
        dims, structure, tensor, model = random_instance(31, max_dim=5,
                                                         max_blocks=2, max_rank=2)
        if blocks is not None:
            model = init_random(dims, BlockStructure(blocks), 31)
        fast = model_params_vector(epoch(model, tensor, cfg))
        slow = model_params_vector(ref_epoch(model, tensor, cfg))
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_nonnegativity_preserved(self):
        cfg = TrainConfig(lambda1=0.001, lambda2=0.001, lambda3=0.001,
                          stop_on="train_loss")
        for seed in range(5):
            dims, structure, tensor, model = random_instance(seed + 50)
            for _ in range(20):
                model = epoch(model, tensor, cfg)
            assert model_params_vector(model).min() >= 0.0

    def test_unobserved_slices_keep_initialization(self):
        """Rows without observations are never touched by an epoch."""
        dims = (3, 2, 2)
        t = from_entries(dims, [((0, 0, 0), 1.0), ((0, 1, 1), 2.0)])
        model = init_random(dims, BlockStructure(((1, 1, 1),)), 9)
        after = epoch(model, t, ZERO_REG)
        np.testing.assert_array_equal(after.factors[0][0][1:], model.factors[0][0][1:])
        np.testing.assert_array_equal(after.biases[0][1:], model.biases[0][1:])
        assert not np.array_equal(after.factors[0][0][0], model.factors[0][0][0])

    def test_empty_tensor_is_identity(self):
        model = init_random((2, 2, 2), BlockStructure(((1, 1, 1),)), 1)
        t = from_entries((2, 2, 2), [])
        after = epoch(model, t, ZERO_REG)
        np.testing.assert_array_equal(model_params_vector(after),
                                      model_params_vector(model))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_model_raises(self, monkeypatch):
        """A non-finite parameter is a runtime failure (exit 3), raised
        before any arithmetic on it, so no RuntimeWarning escapes either:
        also not from the one-entry-at-a-time products of a tiny chunk."""
        for chunk in (ENTRY_CHUNK, 7, 1):
            set_chunk(monkeypatch, chunk)
            tensor, model = exact_fit_instance(3)
            model.cores[0][0, 0, 0] = np.inf
            with pytest.raises(NonFiniteError) as raised:
                epoch(model, tensor, ZERO_REG)
            assert not isinstance(raised.value, ValidationError)

    @pytest.mark.parametrize("bias_enabled, blocks, lambdas, instance, seed", [
        pytest.param(False, ((2, 2, 2),), (0.01, 0.02, 0.005), _small_instance, 41,
                     id="no-bias"),
        pytest.param(True, THREE_BLOCKS.blocks, (0.01, 0.02, 0.005), _small_instance,
                     41, id="three-blocks"),
        pytest.param(True, ((2, 2, 2),) * 3, (0.001,) * 3, _uniform_instance, 1,
                     id="btd3x222-5k"),
    ])
    def test_yhat_buffer_holds_final_predictions(self, bias_enabled, blocks, lambdas,
                                                 instance, seed):
        """The workspace's prediction buffer ends holding the new model's
        predictions bitwise, also when the workspace is reused epoch after
        epoch: the epoch and ``predict_entries`` add the same block rows and
        biases in the same order."""
        cfg = TrainConfig(*lambdas, bias_enabled=bias_enabled, stop_on="train_loss")
        dims, tensor = instance()
        model = init_random(dims, BlockStructure(blocks), seed)
        if not bias_enabled:
            model.biases = [np.zeros(dim) for dim in dims]
        workspace = EpochWorkspace(tensor, model.structure)
        for _ in range(3):
            model = epoch(model, tensor, cfg, workspace)
            np.testing.assert_array_equal(workspace.yhat,
                                          predict_entries(model, *tensor.ids))

    def test_warm_epoch_allocates_no_entry_sized_buffer(self, monkeypatch):
        """An epoch handed the model its workspace's last epoch returned
        allocates less than one entry-sized float64 row: the ids, gathered
        rows, prediction rows and scratch all come from the workspace.
        The tensor spans more than one chunk, at the default chunk and at
        seven entries."""
        rng = np.random.default_rng(7)
        dims = (40, 40, 40)
        codes = rng.choice(np.prod(dims), size=25_000, replace=False)
        tensor = SparseTensor3.from_arrays(dims, *np.unravel_index(codes, dims),
                                           rng.uniform(0.5, 2.0, codes.size))
        cfg = TrainConfig(lambda1=0.01, lambda2=0.02, lambda3=0.005)
        for chunk in (ENTRY_CHUNK, 7):
            set_chunk(monkeypatch, chunk)
            model = init_random(dims, BlockStructure(((1, 2, 3), (3, 3, 3))), 7)
            workspace = EpochWorkspace(tensor, model.structure)
            assert len(workspace.chunks) > 1
            model = epoch(model, tensor, cfg, workspace)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                epoch(model, tensor, cfg, workspace)
                growth = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert growth < 8 * tensor.n_entries, chunk

    @pytest.mark.parametrize("structure, budget", [
        pytest.param(cp_structure(3), 136, id="cp3"),
        pytest.param(BlockStructure(((3, 3, 3),)), 152, id="tucker333"),
        pytest.param(BlockStructure(((2, 2, 2),) * 3), 216, id="btd3x222"),
    ])
    def test_entry_sized_bytes_per_entry(self, structure, budget):
        """The workspace arrays that scale with the training entries hold at
        most ``budget`` bytes per entry: the ids, the gathered rows, one
        contraction scratch, one weighted row and three prediction rows.
        Both tensors span whole chunks of the same width, so the chunk
        scratch does not grow between them."""
        def workspace_bytes(n_entries):
            rng = np.random.default_rng(n_entries)
            dims = (40, 40, 64)
            codes = rng.choice(np.prod(dims), size=n_entries, replace=False)
            tensor = SparseTensor3.from_arrays(
                dims, *np.unravel_index(codes, dims), rng.uniform(0.5, 2.0, n_entries))
            workspace = EpochWorkspace(tensor, structure)
            held = {k: v for k, v in vars(workspace).items() if k not in ("train", "model")}
            return sum(a.nbytes for a in _arrays(held.values()))

        n_entries = 8 * ENTRY_CHUNK
        growth = workspace_bytes(2 * n_entries) - workspace_bytes(n_entries)
        assert growth <= budget * n_entries

    @pytest.mark.parametrize("chunk, n_entries", [
        pytest.param(ENTRY_CHUNK, 150_000, id="default-chunk"),
        pytest.param(7, 20_000, id="chunk-7"),
    ])
    def test_scoring_allocates_no_entry_sized_buffer(self, monkeypatch, chunk,
                                                     n_entries):
        """After an epoch, the validation RMSE's error sums, the objective
        with the workspace and without it, and ``rmse_and_mae`` together
        allocate less than one float64 row of the tensor they score: errors
        are summed and slices counted chunk by chunk, so what they hold is
        chunk-sized."""
        set_chunk(monkeypatch, chunk)
        rng = np.random.default_rng(8)
        dims = (60, 60, 64)
        codes = rng.choice(np.prod(dims), size=n_entries, replace=False)
        tensor = SparseTensor3.from_arrays(dims, *np.unravel_index(codes, dims),
                                           rng.uniform(0.5, 2.0, n_entries))
        cfg = TrainConfig(lambda1=0.01, lambda2=0.02, lambda3=0.005)
        model = init_random(dims, BlockStructure(((1, 2, 3), (3, 3, 3))), 8)
        workspace = EpochWorkspace(tensor, model.structure)
        assert len(workspace.chunks) > 1
        model = epoch(model, tensor, cfg, workspace)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            error_sums(model, tensor)
            objective(model, tensor, cfg, workspace)
            objective(model, tensor, cfg)
            rmse_and_mae(model, tensor)
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert growth < 8 * tensor.n_entries

    def test_workspace_of_another_tensor_rejected(self):
        dims, structure, tensor, model = random_instance(44, max_dim=6)
        other = tensor.subset(np.arange(tensor.n_entries - 1))
        with pytest.raises(ValueError, match="another tensor or structure"):
            epoch(model, tensor, ZERO_REG, EpochWorkspace(other, structure))
        with pytest.raises(ValueError, match="another tensor or structure"):
            epoch(model, tensor, ZERO_REG,
                  EpochWorkspace(tensor, BlockStructure(((1, 1, 1),))))

    @pytest.mark.parametrize("relaid", [
        pytest.param(np.asfortranarray, id="fortran"),
        pytest.param(lambda a: np.repeat(a, 2, axis=-1)[..., ::2], id="strided"),
    ])
    def test_parameter_layout_does_not_change_the_epoch(self, relaid):
        """The epoch writes its copy of the cores and factors in place, so
        Fortran-ordered or strided parameters give the C-ordered result."""
        cfg = TrainConfig(lambda1=0.01, lambda2=0.02, lambda3=0.005,
                          stop_on="train_loss")
        dims, _, tensor, _ = random_instance(43, max_dim=6)
        model = init_random(dims, BlockStructure(((1, 2, 3), (2, 2, 2))), 43)
        other = model.copy()
        other.cores = [relaid(core) for core in model.cores]
        other.factors = [[relaid(f) for f in family] for family in model.factors]
        other.biases = [relaid(b) for b in model.biases]
        assert not any(a.flags.c_contiguous for a in other.cores)
        want = EpochWorkspace(tensor, model.structure)
        got = EpochWorkspace(tensor, model.structure)
        expected = epoch(model, tensor, cfg, want)
        actual = epoch(other, tensor, cfg, got)
        np.testing.assert_array_equal(model_params_vector(actual),
                                      model_params_vector(expected))
        np.testing.assert_array_equal(got.yhat, want.yhat)

    def test_objective_non_increasing(self):
        """Empirical descent over the seeded fixture suite (short check)."""
        cfg = TrainConfig(lambda1=0.01, lambda2=0.01, lambda3=0.01,
                          stop_on="train_loss")
        for seed in range(20):
            dims, structure, tensor, model = random_instance(seed)
            prev = objective(model, tensor, cfg)
            for _ in range(30):
                model = epoch(model, tensor, cfg)
                current = objective(model, tensor, cfg)
                assert current <= prev * (1 + 1e-9), f"seed {seed}"
                prev = current


class TestChunkedEpoch:
    """At seven entries per chunk every contraction over an outer product
    spans many chunks, of two widths."""

    def _instance(self, bias_enabled):
        cfg = TrainConfig(lambda1=0.01, lambda2=0.02, lambda3=0.005,
                          bias_enabled=bias_enabled, stop_on="train_loss")
        dims, _, tensor, _ = random_instance(46, max_dim=6)
        model = init_random(dims, THREE_BLOCKS, 46)
        chunks = EpochWorkspace(tensor, THREE_BLOCKS).chunks
        assert len(chunks) > 3 and tensor.n_entries % len(chunks)
        if not bias_enabled:
            model.biases = [np.zeros(dim) for dim in dims]
        return cfg, tensor, model

    @pytest.mark.parametrize("bias_enabled", [True, False], ids=["bias", "no-bias"])
    def test_matches_reference_epoch(self, monkeypatch, bias_enabled):
        set_chunk(monkeypatch, 7)
        cfg, tensor, model = self._instance(bias_enabled)
        fast = model_params_vector(epoch(model, tensor, cfg))
        slow = model_params_vector(ref_epoch(model, tensor, cfg))
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    @pytest.mark.parametrize("bias_enabled", [True, False], ids=["bias", "no-bias"])
    def test_warm_epochs_equal_cold_epochs(self, monkeypatch, bias_enabled):
        """The time pass refreshes a block's table row with the chunked
        contraction of the first fill, so a warm epoch ends bitwise where a
        cold one does, in its model and in its predictions."""
        set_chunk(monkeypatch, 7)
        cfg, tensor, model = self._instance(bias_enabled)
        workspace = EpochWorkspace(tensor, model.structure)
        warm = cold = model
        for _ in range(3):
            fresh = EpochWorkspace(tensor, model.structure)
            warm = epoch(warm, tensor, cfg, workspace)
            cold = epoch(cold.copy(), tensor, cfg, fresh)
            np.testing.assert_array_equal(model_params_vector(warm),
                                          model_params_vector(cold))
            np.testing.assert_array_equal(workspace.yhat, fresh.yhat)

    def test_predictions_do_not_depend_on_the_chunk(self, monkeypatch):
        dims, _, tensor, _ = random_instance(47, max_dim=6)
        model = init_random(dims, THREE_BLOCKS, 47)
        want = predict_entries(model, *tensor.ids)
        set_chunk(monkeypatch, 7)
        np.testing.assert_allclose(predict_entries(model, *tensor.ids), want,
                                   rtol=1e-14)


class TestSliceSums:
    """The user sums add each user's run of entries with one reduceat; they
    equal per-row ``bincount`` over the ids, as the other modes' sums do."""

    @staticmethod
    def _tensor(dims, seed, keep_users=None):
        rng = np.random.default_rng(seed)
        cells = int(np.prod(dims))
        codes = rng.choice(cells, size=max(1, cells // 2), replace=False)
        ids = np.unravel_index(codes, dims)
        keep = np.isin(ids[0], keep_users) if keep_users is not None else slice(None)
        return SparseTensor3.from_arrays(dims, *(x[keep] for x in ids),
                                         rng.uniform(0.5, 2.0, codes.size)[keep])

    @pytest.mark.parametrize("tensor", [
        pytest.param(lambda: TestSliceSums._tensor((7, 6, 5), 1, keep_users=[1, 2, 5]),
                     id="users-without-entries"),
        pytest.param(lambda: TestSliceSums._tensor((1, 6, 5), 2), id="one-user"),
        pytest.param(lambda: from_entries((3, 4, 2), [((2, 1, 0), 1.5)]),
                     id="one-entry"),
    ])
    def test_equal_per_row_bincount(self, tensor):
        tensor = tensor()
        workspace = EpochWorkspace(tensor, THREE_BLOCKS)
        weights = np.random.default_rng(3).uniform(0.0, 2.0, (3, tensor.n_entries))
        for axis, (idx, dim) in enumerate(zip(tensor.ids, tensor.dims)):
            want = np.stack([np.bincount(idx, weights=row, minlength=dim)
                             for row in weights], axis=1)
            got = np.stack([workspace.slice_sums(axis, row) for row in weights],
                           axis=1)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_users_without_entries_keep_their_parameters(self):
        tensor = self._tensor((7, 6, 5), 1, keep_users=[1, 2, 5])
        cfg = TrainConfig(lambda1=0.01, lambda2=0.02, lambda3=0.005,
                          stop_on="train_loss")
        model = init_random(tensor.dims, THREE_BLOCKS, 5)
        after = epoch(model, tensor, cfg)
        idle = [0, 3, 4, 6]
        for before, now in zip(model.factors[0], after.factors[0]):
            np.testing.assert_array_equal(now[idle], before[idle])
            assert not np.array_equal(now[[1, 2, 5]], before[[1, 2, 5]])
        np.testing.assert_array_equal(after.biases[0][idle], model.biases[0][idle])


class TestFit:
    def _split_instance(self, seed, dims=(8, 8, 8), structure=None, density=0.4):
        structure = structure or BlockStructure(((2, 2, 2),))
        tensor, truth, signal_std, _ = planted_tensor(seed, dims, structure, density)
        rng = np.random.default_rng(seed + 999)
        perm = rng.permutation(tensor.n_entries)
        n_val = tensor.n_entries // 10
        val = tensor.subset(perm[:n_val])
        train = tensor.subset(perm[n_val:])
        return train, val, truth, signal_std

    def test_deterministic(self):
        train, val, _, _ = self._split_instance(0)
        cfg = TrainConfig(max_iter=20, tol=1e-12, seed=5)
        m1, r1 = fit(train, val, BlockStructure(((2, 2, 2),)), cfg)
        m2, r2 = fit(train, val, BlockStructure(((2, 2, 2),)), cfg)
        assert r1.loss_trajectory == r2.loss_trajectory
        assert r1.validation_rmse_trajectory == r2.validation_rmse_trajectory
        np.testing.assert_array_equal(model_params_vector(m1), model_params_vector(m2))

    def test_infinite_tol_stops_after_one_epoch(self):
        train, val, _, _ = self._split_instance(1)
        cfg = TrainConfig(tol=float("inf"), seed=1)
        _, report = fit(train, val, BlockStructure(((2, 2, 2),)), cfg)
        assert report.epochs_run == 1
        assert report.stop_reason == "tol"
        assert len(report.loss_trajectory) == 1
        assert len(report.validation_rmse_trajectory) == 1

    def test_max_iter_bound(self):
        train, val, _, _ = self._split_instance(2)
        cfg = TrainConfig(max_iter=7, tol=1e-15, seed=2)
        _, report = fit(train, val, BlockStructure(((2, 2, 2),)), cfg)
        assert report.epochs_run == 7
        assert report.stop_reason == "max_iter"

    @pytest.mark.parametrize("kwargs, reason, epochs", [
        (dict(tol=float("inf")), "tol", 1),
        (dict(max_iter=4, tol=1e-15), "max_iter", 4),
    ])
    def test_stop_reason(self, caplog, kwargs, reason, epochs):
        train, val, _, _ = self._split_instance(3)
        with caplog.at_level("INFO", logger="btdqos.trainer"):
            _, report = fit(train, val, BlockStructure(((2, 2, 2),)),
                            TrainConfig(seed=3, **kwargs))
        assert report.stop_reason == reason
        assert report.epochs_run == epochs
        assert f"fit: {epochs} epochs, stopped on {reason}," in caplog.text

    def test_loss_trajectory_matches_objective_of_replayed_models(self):
        """The objective fit scores from the epoch's predictions equals a
        fresh prediction pass over each epoch's model, and fit's warm epochs
        end bitwise at the model of standalone epochs, with and without the
        bias passes."""
        train, val, _, _ = self._split_instance(3)
        structure = BlockStructure(((2, 2, 2), (1, 2, 1)))
        # Without biases the fit at lambda = 0.01 stalls within two epochs,
        # so that case trains at lambda = 0.001.
        for lam, bias_enabled in ((0.01, True), (0.001, False)):
            cfg = TrainConfig(lambda1=lam, lambda2=lam, lambda3=lam, max_iter=8,
                              tol=1e-15, seed=3, bias_enabled=bias_enabled)
            fitted, report = fit(train, val, structure, cfg)
            assert report.epochs_run == 8
            model = init_random(train.dims, structure, cfg.seed)
            if not bias_enabled:
                model.biases = [np.zeros(dim) for dim in train.dims]
            for loss in report.loss_trajectory:
                model = epoch(model, train, cfg)
                assert loss == objective(model, train, cfg)
            np.testing.assert_array_equal(model_params_vector(fitted),
                                          model_params_vector(model))

    def test_noiseless_recovery(self):
        """Planted noiseless data: training RMSE under 1% of data std."""
        train, val, _, _ = self._split_instance(2, dims=(12, 10, 8), density=0.5)
        cfg = TrainConfig(max_iter=2200, tol=1e-14, seed=2, stop_on="train_loss")
        model, report = fit(train, val, BlockStructure(((2, 2, 2),)), cfg)
        pred = predict_entries(model, *train.ids)
        train_rmse = float(np.sqrt(np.mean((train.values - pred) ** 2)))
        assert train_rmse <= 0.01 * float(train.values.std())

    def test_bias_disabled_keeps_biases_zero(self):
        train, val, _, _ = self._split_instance(4)
        cfg = TrainConfig(max_iter=5, tol=1e-15, seed=4, bias_enabled=False)
        model, _ = fit(train, val, BlockStructure(((2, 2, 2),)), cfg)
        for bias in model.biases:
            assert not bias.any()

    @pytest.mark.parametrize("zeroed", [(), (("core", 0),), (("core", 0), ("core", 1)),
                                        (("time", 1),)])
    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_dead_blocks_count_the_all_zero_cores(self, monkeypatch, caplog,
                                                  lam, zeroed):
        """The report counts the returned model's blocks whose core sum
        times their factors' maxima is at most EPSILON_GUARD, and the fit
        warns, naming its lambdas, exactly when that is every block and
        some lambda is positive.  The blocks ``zeroed`` start with a zero
        core or time factor, which no multiplicative update leaves, so
        they count as dead."""
        structure = BlockStructure(((2, 2, 2), (1, 1, 1)))
        train, val, _, _ = self._split_instance(3, structure=structure)

        def init(*args):
            model = init_random(*args)
            for part, r in zeroed:
                (model.cores if part == "core" else model.factors[2])[r][...] = 0.0
            return model

        monkeypatch.setattr(trainer, "init_random", init)
        cfg = TrainConfig(lambda1=lam, lambda2=2 * lam, lambda3=3 * lam,
                          max_iter=20, seed=3)
        with caplog.at_level("WARNING", logger="btdqos.trainer"):
            model, report = fit(train, val, structure, cfg)
        bounds = [core.sum() * a.max() * b.max() * c.max()
                  for core, a, b, c in zip(model.cores, *model.factors)]
        assert report.dead_blocks == sum(bound <= EPSILON_GUARD for bound in bounds)
        assert all(bounds[r] <= EPSILON_GUARD for _, r in zeroed)
        warned = report.dead_blocks == len(structure.blocks) and lam > 0
        assert ("blocks are dead" in caplog.text) is warned
        assert (f"lambda=({lam:g}, {2 * lam:g}, {3 * lam:g})" in caplog.text) is warned

    def test_validation_stopping_requires_validation(self):
        train, _, _, _ = self._split_instance(5)
        empty = from_entries(train.dims, [])
        with pytest.raises(EmptyInputError):
            fit(train, empty, BlockStructure(((2, 2, 2),)), TrainConfig())

    def test_train_loss_stopping_allows_empty_validation(self):
        train, _, _, _ = self._split_instance(6)
        empty = from_entries(train.dims, [])
        cfg = TrainConfig(max_iter=3, tol=1e-15, stop_on="train_loss")
        _, report = fit(train, empty, BlockStructure(((2, 2, 2),)), cfg)
        assert report.epochs_run == 3
        assert all(np.isnan(v) for v in report.validation_rmse_trajectory)

    def test_overlapping_sets_rejected(self):
        train, _, _, _ = self._split_instance(7)
        with pytest.raises(DuplicateIndexError):
            fit(train, train, BlockStructure(((2, 2, 2),)), TrainConfig())

    def test_dim_mismatch(self):
        train, _, _, _ = self._split_instance(8)
        val = from_entries((9, 9, 9), [((8, 8, 8), 1.0)])
        with pytest.raises(DimMismatchError):
            fit(train, val, BlockStructure(((2, 2, 2),)), TrainConfig())


class TestGridSearch:
    def _instance(self, seed):
        tensor, _, _, _ = planted_tensor(seed, (8, 8, 6), BlockStructure(((2, 2, 2),)), 0.5)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(tensor.n_entries)
        n_val = tensor.n_entries // 5
        return tensor.subset(perm[n_val:]), tensor.subset(perm[:n_val])

    def test_single_point(self):
        train, val = self._instance(0)
        cfg = TrainConfig(max_iter=5, tol=1e-15, seed=0)
        best, _, _ = grid_search(train, val, BlockStructure(((2, 2, 2),)),
                                 ((0.25,), (0.5,), (0.75,)), cfg)
        assert (best.lambda1, best.lambda2, best.lambda3) == (0.25, 0.5, 0.75)

    def test_noiseless_data_prefers_no_regularization(self):
        """On noiseless exactly-ranked data any penalty only hurts.

        Needs enough epochs that every combination is near its own
        optimum; early in training a core penalty can masquerade as
        useful because factor scale migrates between cores and factors.
        """
        train, val = self._instance(2)
        cfg = TrainConfig(max_iter=800, tol=1e-15, seed=2)
        best, _, _ = grid_search(train, val, BlockStructure(((2, 2, 2),)),
                                 ((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), cfg)
        assert (best.lambda1, best.lambda2, best.lambda3) == (0.0, 0.0, 0.0)

    def test_enumeration_order_invariant(self):
        train, val = self._instance(2)
        cfg = TrainConfig(max_iter=5, tol=1e-15, seed=2)
        grids_a = ((0.0, 0.1), (0.05, 0.0), (0.0,))
        grids_b = ((0.1, 0.0), (0.0, 0.05), (0.0,))
        best_a, _, _ = grid_search(train, val,
                                   BlockStructure(((2, 2, 2),)), grids_a, cfg)
        best_b, _, _ = grid_search(train, val,
                                   BlockStructure(((2, 2, 2),)), grids_b, cfg)
        assert (best_a.lambda1, best_a.lambda2, best_a.lambda3) == \
               (best_b.lambda1, best_b.lambda2, best_b.lambda3)

    def test_returns_the_fit_of_its_winner(self):
        """The winner's model and report are those a fresh fit of the
        returned config gives, bit for bit."""
        train, val = self._instance(4)
        structure = BlockStructure(((2, 2, 2),))
        cfg = TrainConfig(max_iter=6, tol=1e-15, seed=4, bias_enabled=False)
        # Without biases lambda3 changes nothing: each lambda3 pair ties.
        # The winner is neither the first nor the last point enumerated.
        best, model, report = grid_search(train, val, structure,
                                          ((0.0, 0.1), (0.0, 1.0), (0.5, 0.0)), cfg)
        assert (best.lambda1, best.lambda2, best.lambda3) == (0.1, 0.0, 0.0)
        _, tied = fit(train, val, structure, replace(best, lambda3=0.5))
        assert tied.validation_rmse_trajectory == report.validation_rmse_trajectory

        fresh_model, fresh = fit(train, val, structure, best)
        got, want = model.parameter_arrays(), fresh_model.parameter_arrays()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert report.loss_trajectory == fresh.loss_trajectory
        assert report.validation_rmse_trajectory == fresh.validation_rmse_trajectory
        assert (report.epochs_run, report.stop_reason) == (fresh.epochs_run, fresh.stop_reason)

    def test_no_grid_trains_the_config_as_given(self):
        """Without a grid the config is the one candidate: it comes back
        unchanged (integer lambdas stay integers) with the model and
        report of a plain fit, bit for bit."""
        train, val = self._instance(5)
        structure = BlockStructure(((2, 2, 2),))
        cfg = TrainConfig(lambda1=0, lambda2=1, lambda3=0.5, max_iter=6,
                          tol=1e-15, seed=5)
        best, model, report = grid_search(train, val, structure, None, cfg)
        assert best == cfg and repr(best) == repr(cfg)
        fresh_model, fresh = fit(train, val, structure, cfg)
        for a, b in zip(model.parameter_arrays(), fresh_model.parameter_arrays(),
                        strict=True):
            np.testing.assert_array_equal(a, b)
        assert report.loss_trajectory == fresh.loss_trajectory
        assert report.validation_rmse_trajectory == fresh.validation_rmse_trajectory
        assert (report.epochs_run, report.stop_reason) == (6, fresh.stop_reason)

    def test_empty_grid_rejected(self):
        train, val = self._instance(3)
        with pytest.raises(ConfigError):
            grid_search(train, val, BlockStructure(((2, 2, 2),)),
                        ((), (0.0,), (0.0,)), TrainConfig())


def test_cp_emulation_trains():
    """Unit-rank blocks train as a biased CP model end to end."""
    tensor, _, _, _ = planted_tensor(11, (8, 8, 6), cp_structure(3), 0.5)
    rng = np.random.default_rng(11)
    perm = rng.permutation(tensor.n_entries)
    n_val = tensor.n_entries // 5
    cfg = TrainConfig(max_iter=50, tol=1e-15, seed=11)
    model, report = fit(tensor.subset(perm[n_val:]), tensor.subset(perm[:n_val]),
                        cp_structure(3), cfg)
    assert report.loss_trajectory[-1] < report.loss_trajectory[0]
    assert model_params_vector(model).min() >= 0.0
