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
projection step.  ``penalty_weights`` is the one table of the lambda * count
weights, one entry per pass: the MU denominators and ``objective`` both read
it.  The slice counts ``|obs(i)|`` are formed from the training ids in this
module and nowhere else, once per fit.  The prediction cache is refreshed
after each of the seven update passes (cores, A, B, C, d, e, f), not after
every coordinate, and never by a full prediction pass: the epoch keeps a
prediction table with one row per block and one per mode's gathered bias,
and the predictions are its column sums.

All seven passes run one step, which applies the ratio above and
refreshes the updated parameters' table rows; a pass differs from another
only in the terms it hands the step (see ``epoch``).  The table's first
fill is the same row refresh.  Every denominator gets the additive guard
``EPSILON_GUARD`` so empty or all-zero slices cannot divide by zero;
parameters of slices with no observations are left untouched.

Every entry-sized buffer of an epoch lives in an ``EpochWorkspace``: the
training ids as ``np.intp``, the gathered factor rows, the prediction
table, the outer-product, contraction and weighted scratch, and the
predictions.  The workspace also holds the slice counts of the training
ids.  ``fit`` makes one workspace when it starts and hands it to every
epoch, so an epoch allocates no entry-sized buffer.  An epoch whose input
model is the one the same workspace's last epoch returned is warm: it
skips the gathers and the table's first fill, whose results the last epoch
left in the workspace, bitwise.  ``fit`` scores the training objective
from the predictions and counts the workspace holds, so a training
iteration predicts the training set only inside the epoch.  A standalone
``epoch`` call makes a fresh workspace.  ``residuals`` is the one scoring
loop of held-out entries: ``fit``'s validation RMSE and
``evaluation.rmse_and_mae`` both read it.
``grid_search`` trains one model per regularization triple and returns the
winner's model and report, so the winning fit is never trained twice;
without a grid, the config's own triple is the one candidate.
"""

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from itertools import chain, product

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
    PREDICT_CHUNK,
    BnbtModel,
    check_dims,
    init_random,
    predict_entries,
    row_outer,
)
from .sparse import SparseTensor3, unravel

logger = logging.getLogger(__name__)

#: Stopping metrics for ``fit``.
STOP_ON_VALIDATION = "validation_rmse"
STOP_ON_TRAIN_LOSS = "train_loss"

#: Added to every multiplicative-update denominator.
EPSILON_GUARD = 1e-12

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


# -- objective ------------------------------------------------------------

def _dot(a, b) -> float:
    # The dot of two vectors, summed in this thread: `a @ b` hands a long
    # dot to BLAS, whose threads then spin on the cores of the other
    # benchmark workers.
    return float(np.einsum("p,p->", a, b))


def residual_rmse(resid: np.ndarray) -> float:
    """Root mean square of a residual vector."""
    return float(np.sqrt(_dot(resid, resid) / resid.size))


def residuals(model: BnbtModel, tensor: SparseTensor3) -> np.ndarray:
    """The values of ``tensor`` minus the model's predictions of them.

    The entries go through ``PREDICT_CHUNK`` at a time, so only one chunk's
    codes are unravelled to ids at once.
    """
    check_dims(model, tensor.dims)
    codes, values = tensor.codes, tensor.values
    resid = np.empty(tensor.n_entries)
    for lo in range(0, resid.size, PREDICT_CHUNK):
        hi = lo + PREDICT_CHUNK
        np.subtract(values[lo:hi],
                    predict_entries(model, *unravel(codes[lo:hi], tensor.dims)),
                    out=resid[lo:hi])
    return resid


def _slice_counts(ids, dims):
    """``|obs(i)|`` of every slice: per axis, how many of the entries with
    the given intp ``ids`` lie in each of its ``dims[axis]`` slices."""
    return tuple(np.bincount(idx, minlength=dim) for idx, dim in zip(ids, dims))


def penalty_weights(train: SparseTensor3, counts, cfg: TrainConfig):
    """Each update pass's penalty weight, in pass order: the cores, each
    mode's factors, then each mode's bias.

    A parameter's penalty is its lambda times the number of observed
    entries it touches: every entry for a core, the entries of its slice
    (``counts[axis]``, the ``_slice_counts`` of ``train``) for a factor row
    or a bias.  The weights of a per-slice pass are ``(dim, 1)`` columns,
    one per slice, so a bias pairs with them as the one-column factor
    ``bias[:, None]``.
    """
    return [cfg.lambda1 * train.n_entries,
            *(cfg.lambda2 * cnt[:, None] for cnt in counts),
            *(cfg.lambda3 * cnt[:, None] for cnt in counts)]


def objective(model: BnbtModel, train: SparseTensor3, cfg: TrainConfig,
              workspace=None) -> float:
    """Regularized training loss over the observed entries.

    ``workspace``, when given, is an ``EpochWorkspace`` of ``train``: its
    ids and slice counts are used instead of unravelling and counting, and
    if its last epoch returned ``model``, its predictions replace a
    prediction pass.
    """
    check_dims(model, train.dims)
    if workspace is None:
        ids = train.ids
        counts, yhat = _slice_counts(ids, train.dims), predict_entries(model, *ids)
    elif workspace.train is not train:
        raise ValueError("the workspace was made for another tensor")
    else:
        counts = workspace.counts
        yhat = (workspace.yhat if workspace.model is model
                else predict_entries(model, *workspace.ids))
    resid = train.values - yhat
    loss = _dot(resid, resid)
    passes = [model.cores, *model.factors, *([b[:, None]] for b in model.biases)]
    for weight, params in zip(penalty_weights(train, counts, cfg), passes):
        loss += sum(float((weight * x * x).sum()) for x in params)
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


class EpochWorkspace:
    """The entry-sized buffers of ``epoch`` for one training tensor and block
    structure, made once and reused by every epoch handed the workspace.

    It holds the tensor's ids, unravelled once from its codes as ``np.intp``
    (so ``bincount`` and ``take`` convert no ids), their ``_slice_counts``
    ``counts[axis]``, formed once here, the gathered factor rows
    ``rows[axis][r]`` as ``(rank, n_entries)`` arrays, the prediction table
    ``pred`` (one row per block, then one per mode's gathered bias), the
    outer-product, contraction and weighted scratch, and the predictions
    ``yhat``.

    ``model`` is the model the workspace's last epoch returned, or None.
    The rows, the table and ``yhat`` are consistent with it, so an epoch
    handed that same model object is warm: it skips the gathers and the
    table's first fill.  The model must not be changed in place in between.
    """

    def __init__(self, train: SparseTensor3, structure):
        n_obs = train.n_entries
        blocks = structure.blocks
        self.train = train
        self.structure = structure
        self.ids = train.ids
        self.counts = _slice_counts(self.ids, train.dims)
        self.rows = [[np.empty((b[axis], n_obs)) for b in blocks] for axis in range(3)]
        widest = max(max(l * m, l * n, m * n) for l, m, n in blocks)
        top_rank = max(max(b) for b in blocks)
        self.outer = np.empty(widest * n_obs)
        self.contr = np.empty(top_rank * n_obs)
        self.weighted = np.empty(top_rank * n_obs)
        self.pred = np.empty((len(blocks) + 3, n_obs))
        self.yhat = np.empty(n_obs)
        self.model = None


def epoch(model: BnbtModel, train: SparseTensor3, cfg: TrainConfig,
          workspace: EpochWorkspace | None = None) -> BnbtModel:
    """One full multiplicative-update pass; returns a new model.

    Pass order is cores, user factors, service factors, time factors, then
    the three biases; every pass sees the predictions left by the one
    before.  The epoch gathers each block's factor rows once (re-gathering
    only the family a pass updates) and keeps a prediction table: one row
    per block, then one row per mode's gathered bias.  The predictions are
    the table's column sums, never a full recomputation.

    All seven passes run one step over their terms.  A term is a parameter
    matrix x, its contraction ``contr`` (a row per column of x, a column per
    entry), its table row, a ``scatter`` of entry-wise rows onto x's shape
    and a ``gather`` of x back onto the entries.  The step multiplies x by
    the SLF-NMUT ratio of ``scatter(contr * y)`` over
    ``scatter(contr * yhat)`` plus the penalty weight times x, sets the
    term's table row to the per-entry dot of ``gather(x)`` with ``contr``,
    and after the pass re-sums the predictions.

    - A factor's contraction is its block's core with the outer product of
      the two other gathered families; it scatters by per-slice sums over
      the mode's ids and gathers by taking its updated rows.
    - A bias is a one-column factor whose contraction is a row of ones.
    - A core is an ``(L*M, N)`` matrix whose contraction is its block's
      time rows.  With ``ab`` the outer product of the user and service
      rows, it scatters by ``ab @ w.T`` and gathers by ``x.T @ ab``.

    The table's first fill is the same row refresh over the core and bias
    terms, with no update.  Parameters whose slice has no observations keep
    their current values.  Every MU denominator reads its penalty weight
    from ``penalty_weights`` over the workspace's slice counts.

    The rows, the table, the scratch and the predictions live in
    ``workspace``, an ``EpochWorkspace`` made for ``train`` and the model's
    structure; without one the epoch makes its own.  The epoch is warm when
    ``model`` is the model the workspace's last epoch returned: the rows and
    the table it left are then the ones a fresh gather and first fill would
    give (the time pass refreshes a block row with the first fill's
    contraction), so the epoch skips both and its result is bitwise the
    same.  ``workspace.yhat`` ends holding the returned model's predictions
    of the entries of ``train``; they match ``predict_entries`` up to
    rounding in the last bits.
    """
    check_dims(model, train.dims)
    m = model.copy()
    if train.n_entries == 0:
        return m
    ws = EpochWorkspace(train, m.structure) if workspace is None else workspace
    if ws.train is not train or ws.structure != m.structure:
        raise ValueError("the workspace was made for another tensor or structure")
    # Until this epoch returns, its buffers match no model.
    warm, ws.model = ws.model is model, None

    ids, rows, pred, yhat = ws.ids, ws.rows, ws.pred, ws.yhat
    y = train.values
    n_obs = train.n_entries
    blocks = m.structure.blocks

    def scratch(buf, n_rows):
        return buf[:n_rows * n_obs].reshape(n_rows, n_obs)

    def take_into(values, idx, out):
        # The tensor's indices are in range, so "clip" never clips; the
        # default mode="raise" would stage the result in a fresh array.
        return values.take(idx, axis=values.ndim - 1, out=out, mode="clip")

    def slice_term(axis, x, contr, k, gathered):
        # A factor or bias term: per-slice sums over the mode's ids, and the
        # take of the updated rows into `gathered`.
        idx = ids[axis]
        return (x, contr, k, lambda w: _segment_sums(idx, w, x.shape[0]),
                lambda new: take_into(new.T, idx, gathered),
                ws.counts[axis][:, None] > 0)

    def core_terms():
        for r, (l, mm, n) in enumerate(blocks):
            ab = row_outer(rows[0][r], rows[1][r], out=scratch(ws.outer, l * mm))
            # The reshape is a view, so the step writes the core in place:
            # BnbtModel.copy() returns C-contiguous arrays.
            yield (m.cores[r].reshape(l * mm, n), rows[2][r], r,
                   lambda w: ab @ w.T,
                   lambda new: np.matmul(new.T, ab, out=scratch(ws.contr, n)),
                   True)

    def factor_terms(axis):
        others = [k for k in range(3) if k != axis]
        for r, core in enumerate(m.cores):
            rank = core.shape[axis]
            x, z = (rows[k][r] for k in others)
            xz = row_outer(x, z, out=scratch(ws.outer, x.shape[0] * z.shape[0]))
            # Mode `axis` first, the other two in order, matching row_outer(x, z).
            unfolded = core.transpose(axis, *others).reshape(rank, -1)
            contr = np.matmul(unfolded, xz, out=scratch(ws.contr, rank))
            yield slice_term(axis, m.factors[axis][r], contr, r, rows[axis][r])

    ones = np.broadcast_to(1.0, (1, n_obs))  # a read-only view: no entry-sized buffer

    def bias_terms(axis):
        # The bias as a one-column factor, updated in place.  Its gathered
        # values only feed its prediction row, so they go to free scratch.
        yield slice_term(axis, m.biases[axis][:, None], ones,
                         len(blocks) + axis, scratch(ws.outer, 1))

    def pass_step(terms, weight=None):
        # Terms are taken one at a time, as they share the scratch buffers.
        # Without a weight the step only refreshes the terms' table rows.
        for x, contr, k, scatter, gather, observed in terms:
            if weight is not None:
                weighted = scratch(ws.weighted, x.shape[1])
                num = scatter(np.multiply(contr, y, out=weighted))
                den = scatter(np.multiply(contr, yhat, out=weighted)) + weight * x
                x[...] = np.where(observed, x * num / (den + EPSILON_GUARD), x)
            np.einsum("kp,kp->p", gather(x), contr, out=pred[k])
        np.sum(pred, axis=0, out=yhat)

    if not warm:
        for family, idx, gathered in zip(m.factors, ids, rows):
            for f, out in zip(family, gathered):
                take_into(f.T, idx, out)
        pass_step(chain(core_terms(), *map(bias_terms, range(3))))
    if not np.isfinite(yhat).all():
        raise NonFiniteError("model predictions are non-finite before the epoch")
    passes = [core_terms(), *map(factor_terms, range(3))]
    if cfg.bias_enabled:
        passes += map(bias_terms, range(3))
    for terms, weight in zip(passes, penalty_weights(train, ws.counts, cfg)):
        pass_step(terms, weight)

    for arr in m.parameter_arrays():
        if not np.isfinite(arr).all():
            raise NonFiniteError("update produced a non-finite parameter")
    ws.model = m
    return m


# -- training loop --------------------------------------------------------

def fit(train: SparseTensor3, validation: SparseTensor3, structure,
        cfg: TrainConfig):
    """Train a fresh model until the stop metric settles.

    The model starts from ``init_random(train.dims, structure, cfg.seed)`` and
    runs epochs until the absolute change of the stop metric between two
    consecutive epochs drops below ``cfg.tol`` or ``cfg.max_iter`` is
    reached; ``TrainReport.stop_reason`` says which.  The default metric
    is RMSE on the validation partition; ``stop_on="train_loss"`` switches
    to the training objective.  The fit makes one ``EpochWorkspace`` and
    hands it to every epoch, so every epoch after the first is warm (see
    ``epoch``); each epoch leaves its training predictions in the
    workspace, whose predictions and slice counts score the epoch's
    objective.  The validation RMSE is scored through ``residuals``.

    Returns ``(model, TrainReport)``.
    """
    if validation.dims != train.dims:
        raise DimMismatchError(
            f"validation dims {validation.dims} differ from train dims {train.dims}")
    overlap = train.n_shared(validation)
    if overlap:
        raise DuplicateIndexError(f"train and validation sets share {overlap} entries")
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
    workspace = EpochWorkspace(train, model.structure)
    prev = (residual_rmse(residuals(model, validation)) if use_validation
            else objective(model, train, cfg, workspace))
    stop_reason = STOP_MAX_ITER
    for n in range(cfg.max_iter):
        model = epoch(model, train, cfg, workspace)
        losses.append(objective(model, train, cfg, workspace))
        val_rmses.append(residual_rmse(residuals(model, validation))
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
