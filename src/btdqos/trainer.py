"""Regularized objective and nonnegative multiplicative-update training.

Training minimizes, over the observed entry set, the squared prediction
error plus L2 penalties whose weights ride inside the per-entry sum::

    loss = sum_obs [ delta^2
                     + lambda1 * sum(core^2)
                     + lambda2 * (sum(A[i,:]^2) + sum(B[j,:]^2) + sum(C[k,:]^2))
                     + lambda3 * (d[i]^2 + e[j]^2 + f[k]^2) ]

so each parameter's penalty is weighted by how many observed entries touch
it.  One epoch applies, in order, multiplicative updates to the cores, the
three factor families and the three bias vectors; each rule is a ratio of
the per-slice "observed" and "predicted" weighted sums, e.g. for a user
factor entry::

    a <- a * sum_{obs(i)} y * g / (sum_{obs(i)} yhat * g + lambda2 * |obs(i)| * a)

with g the core/factor contraction for that entry, and for a user bias::

    d <- d * sum_{obs(i)} y / (sum_{obs(i)} yhat + lambda3 * |obs(i)| * d)

Ratios of nonnegative sums keep every parameter nonnegative without any
projection step.  The prediction cache is refreshed after each of the seven
update passes (cores, A, B, C, d, e, f), not after every coordinate, and
never by a full prediction pass: the epoch keeps one prediction vector per
block plus the bias sum.  A core or factor pass already holds, per block,
the contraction g of the core with the other two gathered factor families;
the dot of the updated rows with g is that block's new prediction.  A bias
pass moves only the bias sum.  Every denominator gets a small additive
guard so empty or all-zero slices cannot divide by zero; parameters of
slices with no observations are left untouched.

``fit`` hands one prediction buffer to every epoch and scores the training
objective from the predictions the epoch left there, so a training
iteration predicts the training set only inside the epoch.
``grid_search`` trains one model per regularization triple and returns the
winner's model and report, so the winning fit is never trained twice;
without a grid, the config's own triple is the one candidate.
"""

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np

from .errors import (
    ConfigError,
    DimMismatchError,
    DuplicateIndexError,
    EmptyInputError,
    NonFiniteError,
    check_kind,
)
from .model import (
    BnbtModel,
    check_dims,
    gather_rows,
    init_random,
    predict_block,
    predict_entries,
    row_outer,
)
from .sparse import SparseTensor3

logger = logging.getLogger(__name__)

#: Stopping metrics for ``fit``.
STOP_ON_VALIDATION = "validation_rmse"
STOP_ON_TRAIN_LOSS = "train_loss"

#: What a ``TrainConfig`` field of each annotated type accepts.
_FIELD_KINDS = {float: numbers.Real, int: numbers.Integral, bool: bool, str: str}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and loop controls for one training run."""

    lambda1: float = 0.0        # core penalty
    lambda2: float = 0.0        # factor penalty
    lambda3: float = 0.0        # bias penalty
    max_iter: int = 1000
    tol: float = 1e-5
    seed: int = 0
    epsilon_guard: float = 1e-12
    bias_enabled: bool = True
    stop_on: str = STOP_ON_VALIDATION

    def __post_init__(self):
        for f in fields(self):
            check_kind(getattr(self, f.name), _FIELD_KINDS[f.type], f.name)
        lambdas = (self.lambda1, self.lambda2, self.lambda3)
        if not all(math.isfinite(x) and x >= 0 for x in lambdas):
            raise ConfigError("regularization coefficients must be finite and >= 0")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ConfigError("tol must be > 0")
        if not (math.isfinite(self.epsilon_guard) and self.epsilon_guard > 0):
            raise ConfigError("epsilon_guard must be finite and > 0")
        if self.stop_on not in (STOP_ON_VALIDATION, STOP_ON_TRAIN_LOSS):
            raise ConfigError(f"unknown stop_on {self.stop_on!r}")


#: Why ``fit`` stopped: the stop metric settled, or the epoch cap was hit.
STOP_TOL = "tol"
STOP_MAX_ITER = "max_iter"


@dataclass
class TrainReport:
    """Bookkeeping for one ``fit`` run."""

    loss_trajectory: list = field(default_factory=list)
    validation_rmse_trajectory: list = field(default_factory=list)
    stop_reason: str = STOP_MAX_ITER
    wall_time: float = 0.0

    @property
    def epochs_run(self) -> int:
        return len(self.loss_trajectory)

    @property
    def converged(self) -> bool:
        return self.stop_reason == STOP_TOL


# -- objective ------------------------------------------------------------

def _dot(a, b) -> float:
    # The dot of two vectors, summed in this thread: `a @ b` hands a long
    # dot to BLAS, whose threads then spin on the cores of the other
    # benchmark workers.
    return float(np.einsum("p,p->", a, b))


def residual_rmse(resid: np.ndarray) -> float:
    """Root mean square of a residual vector."""
    return float(np.sqrt(_dot(resid, resid) / resid.size))


def objective(model: BnbtModel, train: SparseTensor3, cfg: TrainConfig,
              yhat=None) -> float:
    """Regularized training loss over the observed entries.

    ``yhat``, when given, holds the model's predictions of the entries of
    ``train`` (as ``epoch`` leaves them) and replaces a prediction pass.
    """
    check_dims(model, train.dims)
    if yhat is None:
        yhat = predict_entries(model, *train.ids)
    resid = train.values - yhat
    loss = _dot(resid, resid)
    if cfg.lambda1 > 0.0:
        core_sq = sum(float((s * s).sum()) for s in model.cores)
        loss += cfg.lambda1 * train.n_entries * core_sq
    if cfg.lambda2 > 0.0:
        for family, cnt in zip(model.factors, train.counts):
            row_sq = sum((f * f).sum(axis=1) for f in family)
            loss += cfg.lambda2 * _dot(cnt, row_sq)
    if cfg.lambda3 > 0.0:
        for bias, cnt in zip(model.biases, train.counts):
            loss += cfg.lambda3 * _dot(cnt, bias * bias)
    return loss


# -- one training epoch ---------------------------------------------------

def _segment_sums(idx, weights, dim):
    # Segment-sum each row of `weights` (one rank component per row) by
    # `idx` into a (dim, rank) array.  bincount accumulates in entry order,
    # so the sums follow the tensor's lexicographic order.
    out = np.empty((dim, weights.shape[0]), dtype=np.float64)
    for k, row in enumerate(weights):
        out[:, k] = np.bincount(idx, weights=row, minlength=dim)
    return out


def epoch(model: BnbtModel, train: SparseTensor3, cfg: TrainConfig,
          yhat=None) -> BnbtModel:
    """One full multiplicative-update pass; returns a new model.

    Pass order is cores, user factors, service factors, time factors, then
    the three biases; every pass sees the predictions left by the one
    before.  The epoch gathers each block's factor rows once (re-gathering
    only the family a pass updates) and keeps one prediction vector per
    block.  Each pass contracts a block's core with the outer product of
    the two other gathered families in one matrix product; after the
    update, the dot of the new rows with that same contraction is the
    block's new prediction, and a bias pass changes only the bias sum.
    Predictions are the bias sum plus the block predictions, never a full
    recomputation.  Parameters whose slice has no observations keep their
    current values.

    ``yhat``, when given, is an ``(n_entries,)`` float64 array the epoch
    uses as its prediction buffer; it ends holding the returned model's
    predictions of the entries of ``train``.  They match ``predict_entries``
    up to rounding in the last bits.
    """
    check_dims(model, train.dims)
    m = model.copy()
    if train.n_entries == 0:
        return m

    ids = train.ids
    y = train.values
    n_obs = train.n_entries
    guard = cfg.epsilon_guard
    blocks = m.structure.blocks
    # rows[axis][r]: block r's factor rows of one family, as (rank, n_obs).
    rows = [[gather_rows(f, idx) for f in family]
            for family, idx in zip(m.factors, ids)]

    # Scratch shared by every pass and block (outer products, contractions,
    # contractions weighted by y or yhat), allocated once per epoch instead
    # of as fresh entry-sized temporaries per block and pass.
    widest = max(max(l * mm, l * n, mm * n) for l, mm, n in blocks)
    top_rank = max(max(b) for b in blocks)
    outer_buf = np.empty(widest * n_obs, dtype=np.float64)
    contr_buf = np.empty(top_rank * n_obs, dtype=np.float64)
    weighted_buf = np.empty(top_rank * n_obs, dtype=np.float64)

    def scratch(buf, n_rows):
        return buf[:n_rows * n_obs].reshape(n_rows, n_obs)

    def take_into(values, idx, out):
        # The tensor's indices are in range, so "clip" never clips; the
        # default mode="raise" would stage the result in a fresh array.
        return np.take(values, idx, axis=values.ndim - 1, out=out, mode="clip")

    def updated(x, num, den, weight, observed):
        # The SLF-NMUT ratio; values whose slice is unobserved are kept.
        den += weight * x
        return np.where(observed, x * num / (den + guard), x)

    bias_sum = np.zeros(n_obs, dtype=np.float64)
    for bias, idx in zip(m.biases, ids):
        bias_sum += take_into(bias, idx, scratch(weighted_buf, 1)[0])
    block_pred = np.empty((len(blocks), n_obs), dtype=np.float64)
    for r, (l, mm, n) in enumerate(blocks):
        ab = row_outer(rows[0][r], rows[1][r], out=scratch(outer_buf, l * mm))
        predict_block(m.cores[r], ab, rows[2][r], out=block_pred[r],
                      work=scratch(contr_buf, n))
    if yhat is None:
        yhat = np.empty(n_obs, dtype=np.float64)

    def refresh():
        np.sum(block_pred, axis=0, out=yhat)
        np.add(yhat, bias_sum, out=yhat)

    refresh()
    if not np.isfinite(yhat).all():
        raise NonFiniteError("model predictions are non-finite before the epoch")

    for r, (l, mm, n) in enumerate(blocks):
        a, b, c = (rows[axis][r] for axis in range(3))
        ab = row_outer(a, b, out=scratch(outer_buf, l * mm))
        core = m.cores[r]
        weighted = np.multiply(c, y, out=scratch(weighted_buf, n))
        num = (ab @ weighted.T).reshape(core.shape)
        np.multiply(c, yhat, out=weighted)
        den = (ab @ weighted.T).reshape(core.shape)
        m.cores[r] = updated(core, num, den, cfg.lambda1 * n_obs, True)
        predict_block(m.cores[r], ab, c, out=block_pred[r],
                      work=scratch(contr_buf, n))
    refresh()

    for axis, (idx, factors, cnt) in enumerate(zip(ids, m.factors, train.counts)):
        observed = cnt[:, None] > 0
        for r, core in enumerate(m.cores):
            rank = core.shape[axis]
            x, z = (rows[k][r] for k in range(3) if k != axis)
            xz = row_outer(x, z, out=scratch(outer_buf, x.shape[0] * z.shape[0]))
            # Mode `axis` first, the other two in order, matching row_outer(x, z).
            unfolded = np.moveaxis(core, axis, 0).reshape(rank, -1)
            contr = np.matmul(unfolded, xz, out=scratch(contr_buf, rank))
            weighted = scratch(weighted_buf, rank)
            f = factors[r]
            num = _segment_sums(idx, np.multiply(contr, y, out=weighted), f.shape[0])
            den = _segment_sums(idx, np.multiply(contr, yhat, out=weighted), f.shape[0])
            factors[r] = updated(f, num, den, cfg.lambda2 * cnt[:, None], observed)
            take_into(factors[r].T, idx, rows[axis][r])
            np.einsum("kp,kp->p", rows[axis][r], contr, out=block_pred[r])
        refresh()

    if cfg.bias_enabled:
        for axis, (idx, cnt) in enumerate(zip(ids, train.counts)):
            bias = m.biases[axis]
            num = np.bincount(idx, weights=y, minlength=bias.size)
            den = np.bincount(idx, weights=yhat, minlength=bias.size)
            m.biases[axis] = updated(bias, num, den, cfg.lambda3 * cnt, cnt > 0)
            bias_sum += take_into(m.biases[axis] - bias, idx, scratch(weighted_buf, 1)[0])
            refresh()

    for arr in m.parameter_arrays():
        if not np.isfinite(arr).all():
            raise NonFiniteError("update produced a non-finite parameter")
    return m


# -- training loop --------------------------------------------------------

def _validation_rmse(model, validation):
    pred = predict_entries(model, *validation.ids)
    return residual_rmse(validation.values - pred)


def fit(train: SparseTensor3, validation: SparseTensor3, structure,
        cfg: TrainConfig):
    """Train a fresh model until the stop metric settles.

    The model starts from ``init_random(train.dims, structure, cfg.seed)`` and
    runs epochs until the absolute change of the stop metric between two
    consecutive epochs drops below ``cfg.tol`` or ``cfg.max_iter`` is
    reached; ``TrainReport.stop_reason`` says which.  The default metric
    is RMSE on the validation partition; ``stop_on="train_loss"`` switches
    to the training objective.  Each epoch leaves its training predictions
    in one buffer, from which the epoch's objective is scored.

    Returns ``(model, TrainReport)``.
    """
    if validation.dims != train.dims:
        raise DimMismatchError(
            f"validation dims {validation.dims} differ from train dims {train.dims}")
    # Index codes are sorted and unique within each tensor.
    overlap = np.intersect1d(train.index_codes(), validation.index_codes(),
                             assume_unique=True)
    if overlap.size:
        raise DuplicateIndexError(
            f"train and validation sets share {overlap.size} entries")
    if train.n_entries == 0:
        raise EmptyInputError("training set is empty")
    use_validation = cfg.stop_on == STOP_ON_VALIDATION
    if use_validation and validation.n_entries == 0:
        raise EmptyInputError(
            "validation set is empty; use stop_on='train_loss' instead")

    started = time.perf_counter()
    model = init_random(train.dims, structure, cfg.seed)
    if not cfg.bias_enabled:
        model.biases = [np.zeros(dim) for dim in train.dims]

    losses = []
    val_rmses = []
    prev = (_validation_rmse(model, validation) if use_validation
            else objective(model, train, cfg))
    stop_reason = STOP_MAX_ITER
    yhat = np.empty(train.n_entries, dtype=np.float64)
    for n in range(cfg.max_iter):
        model = epoch(model, train, cfg, yhat)
        losses.append(objective(model, train, cfg, yhat))
        val_rmses.append(_validation_rmse(model, validation)
                         if validation.n_entries else float("nan"))
        current = val_rmses[-1] if use_validation else losses[-1]
        if n % 100 == 0:
            logger.debug("epoch %d: loss=%.6g metric=%.6g", n + 1, losses[-1], current)
        if abs(current - prev) < cfg.tol:
            stop_reason = STOP_TOL
            break
        prev = current

    report = TrainReport(
        loss_trajectory=losses,
        validation_rmse_trajectory=val_rmses,
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - started,
    )
    logger.info("fit: %d epochs, stopped on %s, final loss %.6g",
                report.epochs_run, stop_reason, losses[-1])
    return model, report


def grid_search(train: SparseTensor3, validation: SparseTensor3, structure,
                grids, cfg: TrainConfig):
    """Train one model per regularization triple and keep the best.

    ``grids`` is a (lambda1_grid, lambda2_grid, lambda3_grid) triple of
    candidate sequences; None makes ``cfg``'s own triple the one candidate.
    One model is trained per combination with ``fit``, scored by its last
    stop metric (validation RMSE, or the training objective under
    ``stop_on="train_loss"``); ties are broken toward the lexicographically
    smallest triple, so the result does not depend on grid enumeration order.

    Returns ``(config, model, TrainReport)`` of the winning fit, which is
    what ``fit(train, validation, structure, config)`` would return.
    """
    axes = ([[cfg.lambda1], [cfg.lambda2], [cfg.lambda3]] if grids is None
            else [sorted(set(float(v) for v in g)) for g in grids])
    if any(not axis for axis in axes):
        raise ConfigError("every lambda grid must be nonempty")
    best_key = None
    best = None
    for l1, l2, l3 in product(*axes):
        candidate = replace(cfg, lambda1=l1, lambda2=l2, lambda3=l3)
        model, report = fit(train, validation, structure, candidate)
        score = (report.validation_rmse_trajectory[-1]
                 if candidate.stop_on == STOP_ON_VALIDATION
                 else report.loss_trajectory[-1])
        key = (score, l1, l2, l3)
        logger.info("grid point lambda=(%g, %g, %g): score %.6g", l1, l2, l3, score)
        if best_key is None or key < best_key:
            best_key, best = key, (candidate, model, report)
    logger.info("grid search selected lambda=(%g, %g, %g)",
                best[0].lambda1, best[0].lambda2, best[0].lambda3)
    return best
