"""Tests for metrics and the benchmark harness."""

import csv

import numpy as np
import pytest

from _reference import from_entries, planted_tensor, random_instance
from btdqos.errors import ConfigError, EmptyTestSetError
from btdqos.evaluation import (
    AGGREGATE_COLUMNS,
    DETAIL_COLUMNS,
    rmse_and_mae,
    run_benchmark,
)
from btdqos.model import BlockStructure, cp_structure, tucker_structure
from btdqos.sparse import SparseTensor3
from btdqos.trainer import TrainConfig
from test_model import single_block_model


def bias_only_model(dims, d, e, f):
    """A model predicting d+e+f everywhere (factors all zero)."""
    from btdqos.model import init_random

    m = init_random(dims, BlockStructure(((1, 1, 1),)), 0)
    for arr in m.cores + [f for family in m.factors for f in family]:
        arr[:] = 0.0
    for bias, value in zip(m.biases, (d, e, f)):
        bias[:] = value
    return m


class TestMetrics:
    def test_unit_residuals(self):
        """Residuals {+1, -1} -> RMSE 1, MAE 1."""
        m = bias_only_model((2, 1, 1), 2.0, 0.0, 0.0)  # predicts 2 everywhere
        t = from_entries((2, 1, 1), [((0, 0, 0), 3.0), ((1, 0, 0), 1.0)])
        assert rmse_and_mae(m, t) == (pytest.approx(1.0, abs=1e-15),
                                      pytest.approx(1.0, abs=1e-15))

    def test_perfect_model(self):
        m = bias_only_model((2, 1, 1), 1.5, 0.0, 0.0)
        t = from_entries((2, 1, 1), [((0, 0, 0), 1.5), ((1, 0, 0), 1.5)])
        assert rmse_and_mae(m, t) == (0.0, 0.0)

    def test_mixed_residuals(self):
        """Residuals {0, 2} -> RMSE sqrt(2), MAE 1."""
        m = bias_only_model((2, 1, 1), 1.0, 0.0, 0.0)
        t = from_entries((2, 1, 1), [((0, 0, 0), 1.0), ((1, 0, 0), 3.0)])
        assert rmse_and_mae(m, t) == (pytest.approx(np.sqrt(2.0), abs=1e-12),
                                      pytest.approx(1.0, abs=1e-15))

    def test_empty_test_set(self):
        m = bias_only_model((2, 1, 1), 1.0, 0.0, 0.0)
        t = from_entries((2, 1, 1), [])
        with pytest.raises(EmptyTestSetError):
            rmse_and_mae(m, t)

    def test_rmse_at_least_mae(self):
        """Quadratic mean dominates the mean of absolute residuals."""
        for seed in range(10):
            dims, structure, tensor, model = random_instance(seed, max_dim=5)
            test_rmse, test_mae = rmse_and_mae(model, tensor)
            assert test_rmse >= test_mae - 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        dims = (5, 5, 5)
        sel = rng.choice(125, 40, replace=False)
        ii, jj, kk = np.unravel_index(sel, dims)
        vals = rng.uniform(0, 2, 40)
        t1 = SparseTensor3.from_arrays(dims, ii, jj, kk, vals)
        order = rng.permutation(40)
        t2 = SparseTensor3.from_arrays(dims, ii[order], jj[order], kk[order],
                                       vals[order])
        m = bias_only_model(dims, 0.3, 0.3, 0.3)
        assert rmse_and_mae(m, t1) == rmse_and_mae(m, t2)


class TestRunBenchmark:
    def _source(self, seed=0):
        tensor, _, _, _ = planted_tensor(
            seed, (10, 9, 8), BlockStructure(((2, 2, 2),)), 0.4, noise_frac=0.05)
        return tensor

    def _cfg(self):
        return TrainConfig(max_iter=15, tol=1e-15)

    def test_identical_seeds_identical_cells(self):
        """repeats=[7, 7] trains the same cell twice, bit for bit."""
        report = run_benchmark(
            self._source(),
            [("toy.1", (0.5, 0.2, 0.3))],
            [("cp", cp_structure(2))],
            self._cfg(),
            repeats=[7, 7],
        )
        a, b = report.cells
        assert (a.rmse, a.mae, a.epochs) == (b.rmse, b.mae, b.epochs)

    def test_row_counts(self):
        """3 configs x 2 seeds -> 6 detail cells and 3 aggregates."""
        report = run_benchmark(
            self._source(),
            [("toy.1", (0.5, 0.2, 0.3))],
            [("M1-emulated", cp_structure(2)),
             ("M2-emulated", tucker_structure(2, 2, 2)),
             ("M3-bnbt", BlockStructure(((2, 2, 2), (2, 2, 2))))],
            self._cfg(),
            repeats=2,
        )
        assert len(report.cells) == 6
        assert len(report.aggregates) == 3

    def test_aggregates_match_cells(self):
        report = run_benchmark(
            self._source(),
            [("toy.1", (0.5, 0.2, 0.3))],
            [("cp", cp_structure(2))],
            self._cfg(),
            repeats=3,
        )
        rmses = np.array([c.rmse for c in report.cells])
        agg = report.aggregates[0]
        assert agg.rmse_mean == pytest.approx(float(rmses.mean()), rel=1e-12)
        assert agg.rmse_std == pytest.approx(float(rmses.std(ddof=1)), rel=1e-12)

    def test_single_repeat_zero_std(self):
        report = run_benchmark(
            self._source(), [("toy.1", (0.5, 0.2, 0.3))],
            [("cp", cp_structure(2))], self._cfg(), repeats=1)
        assert report.aggregates[0].rmse_std == 0.0

    def test_threads_match_serial(self):
        args = (self._source(), [("toy.1", (0.5, 0.2, 0.3))],
                [("cp", cp_structure(2)), ("tucker", tucker_structure(2, 2, 2))],
                self._cfg())
        serial = run_benchmark(*args, repeats=2, threads=1)
        threaded = run_benchmark(*args, repeats=2, threads=4)

        def key(cell):
            # Everything except wall time, which is not deterministic.
            return (cell.dataset, cell.model, cell.seed, cell.lambda1,
                    cell.lambda2, cell.lambda3, cell.epochs, cell.rmse, cell.mae)

        assert [key(c) for c in serial.cells] == [key(c) for c in threaded.cells]

    @pytest.mark.parametrize("threads, pools", [(64, [2]), (1, [])])
    def test_worker_count_is_capped_by_cells(self, monkeypatch, threads, pools):
        """At most one worker process per cell; one worker starts no pool."""
        import concurrent.futures.process

        from btdqos import evaluation

        started = []

        class InProcessPool:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers, initializer, initargs, **kwargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                            InProcessPool)
        monkeypatch.setattr(evaluation, "_worker_shared", None)
        report = run_benchmark(
            self._source(), [("toy.1", (0.5, 0.2, 0.3))],
            [("cp", cp_structure(2)), ("tucker", tucker_structure(2, 2, 2))],
            self._cfg(), repeats=1, threads=threads)
        assert [c.model for c in report.cells] == ["cp", "tucker"]
        assert started == pools

    def test_grid_search_integration(self):
        report = run_benchmark(
            self._source(), [("toy.1", (0.5, 0.2, 0.3))],
            [("cp", cp_structure(2))], self._cfg(), repeats=1,
            grids=((0.0, 0.05), (0.0,), (0.0,)))
        cell = report.cells[0]
        assert cell.lambda1 in (0.0, 0.05)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            run_benchmark(self._source(), [], [("cp", cp_structure(2))],
                          self._cfg(), repeats=1)
        with pytest.raises(ConfigError):
            run_benchmark(self._source(), [("s", (0.5, 0.2, 0.3))], [],
                          self._cfg(), repeats=1)
        with pytest.raises(ConfigError):
            run_benchmark(self._source(), [("s", (0.5, 0.2, 0.3))],
                          [("cp", cp_structure(2))], self._cfg(), repeats=0)

    def test_csv_outputs(self, tmp_path):
        report = run_benchmark(
            self._source(), [("toy.1", (0.5, 0.2, 0.3))],
            [("cp", cp_structure(2))], self._cfg(), repeats=2)
        detail = tmp_path / "detail.csv"
        aggregate = tmp_path / "aggregate.csv"
        report.write_detail_csv(detail)
        report.write_aggregate_csv(aggregate)
        with detail.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(DETAIL_COLUMNS)
        assert len(rows) == 3
        with aggregate.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(AGGREGATE_COLUMNS)
        assert len(rows) == 2
        # Values survive the CSV round trip exactly.
        assert float(rows[1][2]) == report.aggregates[0].rmse_mean
