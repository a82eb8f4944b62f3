"""Prediction metrics and the cross-density benchmark harness.

The harness trains one model per (sub-dataset, model config, repeat) cell,
scoring each on the held-out test partition:

    RMSE = sqrt(mean((y - yhat)^2))      MAE = mean(|y - yhat|)

Detail rows and per-model aggregates are exported as CSV with the columns
``dataset,model,seed,lambda1,lambda2,lambda3,epochs,rmse,mae,wall_time_s``
and ``dataset,model,rmse_mean,rmse_std,mae_mean,mae_std``.

The harness keeps each (sub-dataset, repeat) split as the source tensor's
partition labels, 1 B per source entry, and a cell forms its partitions
itself: train and validation for the fit, and the test partition only
once they are dropped.  So no partition outlives the cell that reads it.
"""

import logging
import math
import numbers
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .data_io import SplitSpec, split, write_csv
from .errors import ConfigError, EmptyTestSetError, check_kind
from .model import BlockStructure, BnbtModel
from .rng import derive_seed
from .sparse import SparseTensor3
from .trainer import TrainConfig, error_sums, grid_search

logger = logging.getLogger(__name__)


def rmse_and_mae(model: BnbtModel, test: SparseTensor3) -> tuple:
    """``(rmse, mae)`` from one prediction pass over the test entries: the
    error sums of ``trainer.error_sums``, which forms no entry-sized
    residual."""
    squared, absolute = error_sums(model, test)
    if not test.n_entries:
        raise EmptyTestSetError("metrics need at least one test entry")
    return math.sqrt(squared / test.n_entries), absolute / test.n_entries


@dataclass(frozen=True)
class BenchmarkCell:
    """Metrics of one trained model on one sub-dataset for one seed."""

    dataset: str
    model: str
    seed: int
    lambda1: float
    lambda2: float
    lambda3: float
    epochs: int
    rmse: float
    mae: float
    wall_time_s: float


@dataclass(frozen=True)
class ModelAggregate:
    """Mean and sample standard deviation of a model's cells."""

    dataset: str
    model: str
    rmse_mean: float
    rmse_std: float
    mae_mean: float
    mae_std: float


#: The CSV columns: a row is its dataclass's fields, in order.
DETAIL_COLUMNS = tuple(f.name for f in fields(BenchmarkCell))
AGGREGATE_COLUMNS = tuple(f.name for f in fields(ModelAggregate))


@dataclass
class MetricsReport:
    cells: list
    aggregates: list

    def write_detail_csv(self, path):
        write_csv(path, DETAIL_COLUMNS, map(astuple, self.cells))

    def write_aggregate_csv(self, path):
        write_csv(path, AGGREGATE_COLUMNS, map(astuple, self.aggregates))


def _aggregate(cells):
    # Dicts keep insertion order: groups come out in first-seen order.
    groups = {}
    for cell in cells:
        groups.setdefault((cell.dataset, cell.model), []).append(cell)
    out = []
    for (dataset, model_label), group in groups.items():
        rs = np.array([c.rmse for c in group])
        ms = np.array([c.mae for c in group])
        out.append(ModelAggregate(
            dataset=dataset,
            model=model_label,
            rmse_mean=float(rs.mean()),
            rmse_std=float(rs.std(ddof=1)) if rs.size > 1 else 0.0,
            mae_mean=float(ms.mean()),
            mae_std=float(ms.std(ddof=1)) if ms.size > 1 else 0.0,
        ))
    return out


#: ``(splits, cfg, grids)`` of the benchmark a worker process serves, set
#: once per worker by the pool's initializer.
_worker_shared = None


def _share_with_worker(splits, cfg, grids):
    global _worker_shared
    _worker_shared = (splits, cfg, grids)


def _run_cell(task, shared=None):
    """Train and score one ``(label, model_label, structure, run_seed)`` cell.

    ``shared`` is ``(splits, cfg, grids)``; a pool worker passes None and
    uses what its initializer gave it.
    """
    splits, cfg, grids = shared or _worker_shared
    label, model_label, structure, run_seed = task
    parts = splits[(label, run_seed)]
    cell_cfg = replace(cfg, seed=derive_seed(run_seed, label, model_label, "train"))
    train, validation = parts.train, parts.validation
    cell_cfg, model, report = grid_search(train, validation, structure, grids, cell_cfg)
    del train, validation  # the test partition is formed once they are gone
    test_rmse, test_mae = rmse_and_mae(model, parts.test)
    cell = BenchmarkCell(
        dataset=label,
        model=model_label,
        seed=run_seed,
        lambda1=cell_cfg.lambda1,
        lambda2=cell_cfg.lambda2,
        lambda3=cell_cfg.lambda3,
        epochs=report.epochs_run,
        rmse=test_rmse,
        mae=test_mae,
        wall_time_s=report.wall_time,
    )
    logger.info("cell %s/%s seed=%d: rmse=%.4f mae=%.4f (%d epochs)",
                label, model_label, run_seed, cell.rmse, cell.mae, cell.epochs)
    return cell


def check_labels(pairs, what):
    """A ConfigError unless every ``(label, _)`` of ``pairs`` has a string
    label that no other pair uses: cells and aggregates are keyed by them."""
    seen = set()
    for label, _ in pairs:
        if check_kind(label, str, f"every {what} label") in seen:
            raise ConfigError(f"duplicate {what} label {label!r}")
        seen.add(label)


def run_benchmark(source: SparseTensor3, split_specs, model_configs,
                  cfg: TrainConfig, repeats, grids=None,
                  threads: int = 1) -> MetricsReport:
    """Train and score every (sub-dataset, model, repeat) cell.

    ``split_specs`` maps sub-dataset labels to ratio triples, as a list of
    ``(label, (train, validation, test))``.  ``model_configs`` is a list of
    ``(label, BlockStructure)``; the labels of each list must be distinct
    strings (``check_labels``).  ``repeats`` is either a run count or an
    explicit list of per-run seeds, integers either way (not bools); all per-cell randomness (the split
    shuffle and the model init) is derived from the run seed and the cell
    labels, so the same seed always reproduces the same cell.  Each split
    is drawn once and kept as its labels; each cell forms its own
    partitions from them and drops them when it is done.  Each cell
    trains through ``grid_search`` with ``grids`` (a lambda-grid triple,
    or None for ``cfg``'s own lambdas alone), and the winning fit is the
    cell's model: its lambdas, epochs, test metrics and wall time fill the
    cell.  Cells are independent: with ``threads`` > 1 they are trained in
    ``min(threads, cells)`` worker processes (forked where the platform
    can), otherwise one after another in this process.  An error raised by
    a cell propagates either way, and the report order is fixed.
    """
    if not split_specs:
        raise ConfigError("need at least one split spec")
    if not model_configs:
        raise ConfigError("need at least one model config")
    check_labels(split_specs, "split")
    check_labels(model_configs, "model")
    seeds = (list(range(check_kind(repeats, numbers.Integral, "repeats")))
             if isinstance(repeats, numbers.Number)
             else [int(check_kind(s, numbers.Integral, "every run seed")) for s in repeats])
    if not seeds:
        raise ConfigError("need at least one repeat")

    splits = {}
    for label, ratios in split_specs:
        for run_seed in seeds:
            spec = SplitSpec(*ratios, seed=derive_seed(run_seed, label, "split"))
            splits[(label, run_seed)] = split(source, spec)

    tasks = [(label, model_label, structure, run_seed)
             for label, _ in split_specs
             for model_label, structure in model_configs
             for run_seed in seeds]

    shared = (splits, cfg, grids)
    workers = min(threads, len(tasks))
    if workers > 1:
        # Imported here: the process-pool modules would add 12-20 ms to the
        # start-up of every other command.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # Forked workers inherit `shared` (the source and its split labels) instead of
        # unpickling a copy each; elsewhere each worker gets one copy.
        context = (multiprocessing.get_context("fork")
                   if "fork" in multiprocessing.get_all_start_methods() else None)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                 initializer=_share_with_worker,
                                 initargs=shared) as pool:
            cells = list(pool.map(_run_cell, tasks))
    else:
        cells = [_run_cell(task, shared) for task in tasks]

    return MetricsReport(cells=cells, aggregates=_aggregate(cells))
