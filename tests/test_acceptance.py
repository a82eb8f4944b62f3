"""Acceptance suite: one test per criterion, with a printed PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 9 needs the public WS-DREAM dynamic dataset (see README)
and is skipped when it is absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from _reference import (
    exact_fit_instance,
    model_params_vector,
    planted_tensor,
    random_instance,
    ref_dense,
    ref_epoch,
    ref_gradient,
    ref_gradient_fd,
    all_coords,
)
from btdqos.data_io import parse_qos_log
from btdqos.evaluation import rmse_and_mae, run_benchmark
from btdqos.model import (
    BlockStructure,
    cp_structure,
    init_random,
    predict_entries,
    tucker_structure,
)
from btdqos.sparse import SparseTensor3
from btdqos.trainer import TrainConfig, epoch, fit, objective


def _report(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          f"{' (' + detail + ')' if detail else ''}")
    assert ok, f"{name} failed: {detail}"


def _fixture_suite():
    """The 20 seeded random fixtures shared by criteria 4 and 5."""
    cfg = TrainConfig(lambda1=0.01, lambda2=0.01, lambda3=0.01,
                      stop_on="train_loss")
    for seed in range(20):
        dims, structure, tensor, model = random_instance(seed)
        yield seed, tensor, model, cfg


def test_c1_oracle_equivalence():
    """predict_entries equals the dense mode-product oracle on 200 instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        blocks = tuple(tuple(int(x) for x in rng.integers(1, 4, size=3))
                       for _ in range(int(rng.integers(1, 4))))
        model = init_random(dims, BlockStructure(blocks),
                            int(rng.integers(0, 2 ** 31)))
        pred = predict_entries(model, *np.indices(dims).reshape(3, -1))
        worst = max(worst, float(np.abs(pred - ref_dense(model).ravel()).max()))
    elapsed = time.perf_counter() - started
    _report("C1 oracle equivalence",
            worst <= 1e-10 and elapsed < 10.0,
            f"max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_c2_update_rule_equivalence():
    """Optimized epoch matches the naive per-coordinate reference."""
    started = time.perf_counter()
    cfg = TrainConfig(lambda1=0.01, lambda2=0.02, lambda3=0.005,
                      stop_on="train_loss")
    worst = 0.0
    for seed in range(50):
        dims, structure, tensor, model = random_instance(
            seed + 2000, max_dim=5, max_blocks=2, max_rank=2, density=0.5)
        fast = model_params_vector(epoch(model, tensor, cfg))
        slow = model_params_vector(ref_epoch(model, tensor, cfg))
        scale = np.maximum(np.abs(slow), 1e-300)
        worst = max(worst, float(np.max(np.abs(fast - slow) / scale)))
    elapsed = time.perf_counter() - started
    _report("C2 update-rule equivalence",
            worst <= 1e-10 and elapsed < 30.0,
            f"max rel diff {worst:.2e}, {elapsed:.1f}s")


def test_c3_gradient_check():
    """Analytic update directions vs central finite differences.

    The analytic bracket is half the objective derivative (the documented
    absorbed-constant convention), so 2x the bracket is compared against
    the central finite difference with step 1e-2.  The objective is
    quadratic along each coordinate, so that difference has no truncation
    error, and the large step keeps cancellation error far below the
    bound (see ``ref_gradient_fd``).
    """
    started = time.perf_counter()
    cfg = TrainConfig(lambda1=0.02, lambda2=0.05, lambda3=0.01,
                      stop_on="train_loss")
    rng = np.random.default_rng(3003)
    worst = 0.0
    for seed in range(20):
        dims, structure, tensor, model = random_instance(
            seed + 3000, max_dim=6, max_blocks=2, max_rank=3, density=0.5)
        coords = all_coords(model)
        picks = rng.choice(len(coords), size=50, replace=False) \
            if len(coords) >= 50 else range(len(coords))
        for pick in picks:
            coord = coords[int(pick)]
            analytic = 2.0 * ref_gradient(model, tensor, cfg, coord)
            fd = ref_gradient_fd(model, tensor, cfg, coord, objective, step=1e-2)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    _report("C3 gradient check",
            worst <= 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_c4_nonnegativity_and_fixed_point():
    """100 epochs keep parameters >= 0; exact fit is a fixed point."""
    min_param = np.inf
    for seed, tensor, model, cfg in _fixture_suite():
        for _ in range(100):
            model = epoch(model, tensor, cfg)
        min_param = min(min_param, model_params_vector(model).min())

    zero_reg = TrainConfig(stop_on="train_loss")
    tensor, model = exact_fit_instance(41)
    drift = 0.0
    for _ in range(5):
        after = epoch(model, tensor, zero_reg)
        drift = max(drift, float(np.max(np.abs(
            model_params_vector(after) - model_params_vector(model)))))
        model = after
    _report("C4 nonnegativity and fixed point",
            min_param >= 0.0 and drift <= 1e-9,
            f"min param {min_param:.2e}, fixed-point drift {drift:.2e}")


def test_c5_empirical_descent():
    """Training objective is non-increasing across 200 epochs, 20 fixtures."""
    worst_rise = 0.0
    for seed, tensor, model, cfg in _fixture_suite():
        prev = objective(model, tensor, cfg)
        for _ in range(200):
            model = epoch(model, tensor, cfg)
            current = objective(model, tensor, cfg)
            worst_rise = max(worst_rise, (current - prev) / max(prev, 1e-300))
            prev = current
    _report("C5 empirical descent", worst_rise <= 1e-9,
            f"worst relative rise {worst_rise:.2e}")


def test_c6_synthetic_recovery():
    """Planted 2-block data is recovered to the noise floor inside 2 min."""
    started = time.perf_counter()
    dims = (30, 40, 20)
    structure = BlockStructure(((2, 2, 2), (2, 2, 2)))
    tensor, truth, signal_std, noise_std = planted_tensor(
        C6_SEED, dims, structure, density=0.10, noise_frac=0.01, bias_high=1.0)
    rng = np.random.default_rng(C6_SEED + 5000)
    perm = rng.permutation(tensor.n_entries)
    n_test = int(0.2 * tensor.n_entries)
    n_val = int(0.1 * tensor.n_entries)
    test = tensor.subset(perm[:n_test])
    train = tensor.subset(perm[n_test + n_val:])

    cfg = TrainConfig(seed=C6_SEED, stop_on="train_loss")
    model = init_random(dims, structure, C6_SEED)
    target = 1.2 * noise_std
    score = np.inf
    epochs = 0
    while epochs < C6_MAX_EPOCHS and time.perf_counter() - started < 110.0:
        for _ in range(250):
            model = epoch(model, train, cfg)
        epochs += 250
        score, _ = rmse_and_mae(model, test)
        if score <= target:
            break
    elapsed = time.perf_counter() - started
    _report("C6 synthetic recovery",
            score <= target and elapsed < 120.0,
            f"test rmse {score:.5f} vs target {target:.5f} "
            f"after {epochs} epochs, {elapsed:.0f}s")


C6_SEED = 0
C6_MAX_EPOCHS = 12000


def test_c7_structural_ordering():
    """Mean test RMSE: matched block term <= parameter-matched CP."""
    dims = (14, 12, 10)
    planted = BlockStructure(((2, 2, 2), (2, 2, 2)))
    # 2 x (2,2,2) has 4(I+J+K)+16 parameters; CP with 4 unit blocks has
    # 4(I+J+K)+4, the closest unit-rank match.
    configs = {"btd": planted, "cp": cp_structure(4)}
    scores = {"btd": [], "cp": []}
    for seed in range(10):
        tensor, _, _, _ = planted_tensor(seed, dims, planted, density=0.3,
                                         noise_frac=0.05)
        rng = np.random.default_rng(seed + 777)
        perm = rng.permutation(tensor.n_entries)
        n_test = int(0.25 * tensor.n_entries)
        n_val = int(0.1 * tensor.n_entries)
        test = tensor.subset(perm[:n_test])
        val = tensor.subset(perm[n_test:n_test + n_val])
        train = tensor.subset(perm[n_test + n_val:])
        for label, structure in configs.items():
            cfg = TrainConfig(max_iter=300, tol=1e-14, seed=seed,
                              stop_on="train_loss")
            model, _ = fit(train, val, structure, cfg)
            scores[label].append(rmse_and_mae(model, test)[0])
    btd_mean = float(np.mean(scores["btd"]))
    cp_mean = float(np.mean(scores["cp"]))
    _report("C7 structural ordering", btd_mean <= cp_mean,
            f"mean test rmse btd {btd_mean:.4f} vs cp {cp_mean:.4f}")


def test_c8_complexity_scaling():
    """Per-entry epoch time grows <= 2.5x across a 10x entry range."""
    dims = (50, 120, 40)
    structure = BlockStructure(((2, 2, 2),) * 3)
    cfg = TrainConfig(lambda1=0.01, lambda2=0.01, lambda3=0.01,
                      stop_on="train_loss")

    def mean_epoch_time(n_entries):
        rng = np.random.default_rng(88)
        sel = rng.choice(dims[0] * dims[1] * dims[2], size=n_entries,
                         replace=False)
        ii, jj, kk = np.unravel_index(sel, dims)
        tensor = SparseTensor3.from_arrays(dims, ii, jj, kk,
                                           rng.uniform(0, 2, n_entries))
        model = init_random(dims, structure, 88)
        model = epoch(model, tensor, cfg)  # warmup
        started = time.perf_counter()
        for _ in range(10):
            model = epoch(model, tensor, cfg)
        return (time.perf_counter() - started) / 10

    t_small = mean_epoch_time(10_000)
    t_large = mean_epoch_time(100_000)
    ratio = t_large / t_small
    # Linear cost means ratio ~10; allow 2.5x degradation per entry.
    _report("C8 complexity scaling", ratio <= 25.0,
            f"epoch time {t_small * 1e3:.0f}ms -> {t_large * 1e3:.0f}ms, "
            f"ratio {ratio:.1f} (per-entry growth {ratio / 10:.2f}x)")


def _dataset_path():
    root = os.environ.get("BTDQOS_DATA_DIR")
    if not root:
        return None
    path = Path(root) / "d1.txt"
    return path if path.exists() else None


@pytest.mark.skipif(_dataset_path() is None,
                    reason="WS-DREAM dynamic dataset not available "
                           "($BTDQOS_DATA_DIR/d1.txt)")
def test_c9_paper_number_reproduction():
    """Benchmark on the public dataset (smoke subsample; full run opt-in).

    Context for the full protocol: the published anchor is RMSE 2.9871 and
    MAE 1.3752 for the block term model on the 10% split, with the CP
    baseline implied around RMSE 3.28; the assertion band is +/-15%.
    """
    started = time.perf_counter()
    path = _dataset_path()
    full = parse_qos_log(path, (142, 4500, 64)).tensor

    # 500-service subsample smoke run.
    keep = full.ids[1] < 500
    smoke_tensor = SparseTensor3.from_arrays(
        (142, 500, 64), *(x[keep] for x in full.ids), full.values[keep])
    cfg = TrainConfig(lambda1=0.01, lambda2=0.01, lambda3=0.01,
                      max_iter=60, tol=1e-5)
    report = run_benchmark(
        smoke_tensor, [("D1.1-smoke", (0.1, 0.1, 0.8))],
        [("M3-bnbt", BlockStructure(((2, 2, 2),) * 3))],
        cfg, repeats=1)
    cell = report.cells[0]
    smoke_ok = (np.isfinite(cell.rmse) and np.isfinite(cell.mae)
                and cell.rmse > 0 and cell.mae > 0)
    elapsed = time.perf_counter() - started
    if not os.environ.get("BTDQOS_FULL_ACCEPTANCE"):
        _report("C9 paper-number reproduction (smoke)",
                smoke_ok and elapsed < 900.0,
                f"rmse {cell.rmse:.4f} mae {cell.mae:.4f} in {elapsed:.0f}s; "
                "set BTDQOS_FULL_ACCEPTANCE=1 for the full protocol")
        return

    full_cfg = TrainConfig(max_iter=1000, tol=1e-5)
    grids = ((0.005, 0.02, 0.08), (0.005, 0.02, 0.08), (0.005, 0.02, 0.08))
    full_report = run_benchmark(
        full, [("D1.1", (0.1, 0.1, 0.8))],
        [("M1-emulated", cp_structure(3)),
         ("M2-emulated", tucker_structure(3, 3, 3)),
         ("M3-bnbt", BlockStructure(((2, 2, 2),) * 3))],
        full_cfg, repeats=10, grids=grids)
    bnbt = next(a for a in full_report.aggregates if a.model == "M3-bnbt")
    rmse_ok = abs(bnbt.rmse_mean - 2.9871) / 2.9871 <= 0.15
    mae_ok = abs(bnbt.mae_mean - 1.3752) / 1.3752 <= 0.15
    _report("C9 paper-number reproduction (full)",
            smoke_ok and rmse_ok and mae_ok,
            f"rmse {bnbt.rmse_mean:.4f} (target 2.9871 +/-15%), "
            f"mae {bnbt.mae_mean:.4f} (target 1.3752 +/-15%)")
