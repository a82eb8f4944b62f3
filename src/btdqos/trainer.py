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
it.  The slice counts ``|obs(i)|`` are formed from the training codes by
``_slice_counts``, in this module and nowhere else, once per fit.

``epoch`` runs the seven SLF-NMUT passes in the paper's order (cores,
A, B, C, d, e, f) as plain loops over one step, the ratio above with the
additive guard ``EPSILON_GUARD`` in its denominator, so empty or all-zero
slices cannot divide by zero; parameters of slices with no observations
are left untouched.  The predictions are re-formed after each pass, not
after every coordinate, and never by a full prediction pass: the epoch
keeps two partial sums of them, the blocks' sum and the biases' sum, and
the predictions are the sum of the two.  Both sums are formed by the
prediction kernel of ``model`` (``contract``, ``add_block_row``,
``sum_biases``), the one ``predict_entries`` runs, so the epoch's
predictions are bitwise the ones ``predict_entries`` gives.

Every entry-sized buffer of an epoch lives in an ``EpochWorkspace``.
``fit`` makes one when it starts and hands it to every epoch, so an
epoch allocates no entry-sized buffer.  An epoch whose input model is the
one the same workspace's last epoch returned is warm: it skips the
gathers and the sums' first fill, whose results the last epoch left in
the workspace, bitwise.  ``fit`` scores the training objective from the
predictions and counts the workspace holds, so a training iteration
predicts the training set only inside the epoch.  A standalone ``epoch``
call makes a fresh workspace.

``error_sums`` is the one scoring loop: ``objective``, ``fit``'s
validation RMSE and ``evaluation.rmse_and_mae`` all add their errors
through it, chunk by chunk, so none allocates an entry-sized residual.
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
    add_block_row,
    check_dims,
    contract,
    entry_chunks,
    gather,
    init_random,
    predict_entries,
    row_outer,
    sum_biases,
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
    """Bookkeeping for one ``fit`` run.

    ``dead_blocks`` counts the blocks of the returned model that add at
    most ``EPSILON_GUARD`` to any prediction: those whose core sum times
    the largest entry of each of their three factors, a bound on the
    block's term at every cell as no parameter is negative, is at most
    ``EPSILON_GUARD``.  A block with an all-zero core or factor is one.
    """

    loss_trajectory: list = field(default_factory=list)
    validation_rmse_trajectory: list = field(default_factory=list)
    stop_reason: str = STOP_MAX_ITER
    wall_time: float = 0.0
    dead_blocks: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.loss_trajectory)


# -- objective ------------------------------------------------------------

def _dot(a, b) -> float:
    # The dot of two vectors, summed in this thread: `a @ b` hands a long
    # dot to BLAS, whose threads then spin on the cores of the other
    # benchmark workers.
    return float(np.einsum("p,p->", a, b))


def error_sums(model: BnbtModel, tensor: SparseTensor3, predictions=None):
    """``(squared, absolute)``: the sums of the squared and of the absolute
    errors of the model's predictions of the entries of ``tensor``.

    The entries go through in the chunks of ``entry_chunks``, and each
    chunk's errors are formed and summed in a chunk-sized buffer, so no
    entry-sized residual is allocated.  ``predictions``, when given, holds
    the model's predictions of the entries (an ``EpochWorkspace``'s
    ``yhat``); otherwise each chunk's codes are unravelled and predicted.
    """
    check_dims(model, tensor.dims)
    codes, values = tensor.codes, tensor.values
    squared = absolute = 0.0
    for chunk in entry_chunks(tensor.n_entries):
        yhat = (predictions[chunk] if predictions is not None
                else predict_entries(model, *unravel(codes[chunk], tensor.dims)))
        resid = np.subtract(values[chunk], yhat)
        squared += _dot(resid, resid)
        absolute += float(np.abs(resid, out=resid).sum())
    return squared, absolute


def _rmse(model: BnbtModel, tensor: SparseTensor3) -> float:
    return math.sqrt(error_sums(model, tensor)[0] / tensor.n_entries)


def _slice_counts(tensor: SparseTensor3):
    """``|obs(i)|`` of every slice: per axis, how many entries of ``tensor``
    lie in each of its ``dims[axis]`` slices.

    The codes are unravelled and counted over the chunks of
    ``entry_chunks``, so no entry-sized id array is formed.
    """
    counts = [np.zeros(dim, np.intp) for dim in tensor.dims]
    for chunk in entry_chunks(tensor.n_entries):
        for cnt, idx in zip(counts, unravel(tensor.codes[chunk], tensor.dims)):
            cnt += np.bincount(idx, minlength=cnt.size)
    return tuple(counts)


def penalty_weights(train: SparseTensor3, counts, cfg: TrainConfig):
    """Each update pass's penalty weight, in pass order: the cores, each
    mode's factors, then each mode's bias.

    A parameter's penalty is its lambda times the number of observed
    entries it touches: every entry for a core, the entries of its slice
    (``counts[axis]``, the ``_slice_counts`` of ``train``) for a factor row
    or a bias.  A factor pass's weights are ``(dim, 1)`` columns, one per
    row of its ``(dim, rank)`` factors; a bias pass's are a ``(dim,)``
    vector, like its bias.
    """
    return [cfg.lambda1 * train.n_entries,
            *(cfg.lambda2 * cnt[:, None] for cnt in counts),
            *(cfg.lambda3 * cnt for cnt in counts)]


def objective(model: BnbtModel, train: SparseTensor3, cfg: TrainConfig,
              workspace=None) -> float:
    """Regularized training loss over the observed entries.

    The squared errors are summed by ``error_sums``, chunk by chunk.
    ``workspace``, when given, is an ``EpochWorkspace`` of ``train``: its
    slice counts are used instead of counting, and if its last epoch
    returned ``model``, its predictions replace a prediction pass.
    Counting and predicting run chunk by chunk too, so the objective
    allocates no entry-sized buffer, with a workspace or without.
    """
    check_dims(model, train.dims)
    if workspace is None:
        counts, yhat = _slice_counts(train), None
    elif workspace.train is not train:
        raise ValueError("the workspace was made for another tensor")
    else:
        counts = workspace.counts
        yhat = workspace.yhat if workspace.model is model else None
    loss, _ = error_sums(model, train, yhat)
    passes = [model.cores, *model.factors, *([b] for b in model.biases)]
    for weight, params in zip(penalty_weights(train, counts, cfg), passes):
        loss += sum(float((weight * x * x).sum()) for x in params)
    return loss


# -- one training epoch ---------------------------------------------------

class EpochWorkspace:
    """The entry-sized buffers of ``epoch`` for one training tensor and block
    structure, made once and reused by every epoch handed the workspace.

    It holds the tensor's ids, unravelled once from its codes as ``np.intp``
    (so ``bincount`` and ``take`` convert no ids), the tensor's
    ``_slice_counts`` ``counts[axis]`` and the per-slice sums of the values
    ``value_sums[axis]`` (the bias passes' MU numerators, which no epoch
    changes), formed once here, the gathered factor rows ``rows[axis][r]``
    as ``(rank, n_entries)`` arrays, the contraction scratch ``contr``
    and the one-row ``weighted`` scratch, and three prediction rows: the
    predictions ``yhat``, the blocks' sum ``block_sum`` and the biases'
    sum ``bias_sum``.  The outer-product scratch ``outer`` spans the
    widest of the ``chunks``, the slices of ``model.entry_chunks`` taken
    when the workspace is made, not all the entries.  The entries are
    sorted user-major, so each user's entries are one run; ``run_users``
    are the users with entries and ``run_starts`` where their runs begin,
    formed from the counts.

    Entry-sized buffers, in float64 or intp rows of 8 B per entry: the ids
    (3), the rows (sum of L + M + N over the blocks), the contraction
    scratch (the largest rank), ``weighted`` (1) and the prediction rows
    (3).  That is 17 rows, 136 B per entry, for cp3 (3 x (1,1,1)); 19
    rows, 152 B, for tucker333 ((3,3,3)); and 27 rows, 216 B, for
    btd3x222 (3 x (2,2,2)), beside the tensor's own 16 B.

    ``model`` is the model the workspace's last epoch returned, or None.
    The rows and the prediction rows are consistent with it, so an epoch
    handed that same model object is warm: it skips the gathers and the
    first fill of the prediction rows.  The model must not be changed in
    place in between.
    """

    def __init__(self, train: SparseTensor3, structure):
        n_obs = train.n_entries
        blocks = structure.blocks
        self.train = train
        self.structure = structure
        self.ids = train.ids
        self.counts = _slice_counts(train)
        per_user = self.counts[0]
        self.run_users = np.flatnonzero(per_user)
        self.run_starts = (np.cumsum(per_user) - per_user)[self.run_users]
        self.value_sums = [self.slice_sums(axis, train.values) for axis in range(3)]
        self.chunks = list(entry_chunks(n_obs))
        width = max((c.stop - c.start for c in self.chunks), default=0)
        self.rows = [[np.empty((b[axis], n_obs)) for b in blocks] for axis in range(3)]
        widest = max(max(l * m, l * n, m * n) for l, m, n in blocks)
        top_rank = max(max(b) for b in blocks)
        self.outer = np.empty(widest * width)
        self.contr = np.empty(top_rank * n_obs)
        self.weighted = np.empty(n_obs)
        self.yhat = np.empty(n_obs)
        self.block_sum = np.empty(n_obs)
        self.bias_sum = np.empty(n_obs)
        self.model = None

    def slice_sums(self, axis, weights):
        """Per-slice sums of the entry row ``weights`` (one value per entry)
        as a ``(dims[axis],)`` vector; a slice without entries sums to 0.

        The user sums add each user's run with one ``np.add.reduceat``.  The
        service and time sums ``bincount`` the row by the mode's ids, which
        accumulates in entry order.
        """
        dim = self.train.dims[axis]
        if axis == 0:
            out = np.zeros(dim)
            out[self.run_users] = np.add.reduceat(weights, self.run_starts)
            return out
        return np.bincount(self.ids[axis], weights=weights, minlength=dim)


def _check_finite(model: BnbtModel, what: str):
    if not all(np.isfinite(arr).all() for arr in model.parameter_arrays()):
        raise NonFiniteError(what)


def epoch(model: BnbtModel, train: SparseTensor3, cfg: TrainConfig,
          workspace: EpochWorkspace | None = None) -> BnbtModel:
    """One full multiplicative-update pass; returns a new model.

    The epoch runs the seven SLF-NMUT passes in order: the cores, the
    user, service and time factors, then the user, service and time
    biases.  Each pass is a loop over one ``step``, which multiplies a
    parameter array x by the ratio of its numerator sums over its
    denominator sums plus its ``penalty_weights`` weight times x.

    - The core pass steps each block's core as an ``(L*M, N)`` matrix,
      with sums ``ab @ (c * y).T`` and ``ab @ (c * yhat).T`` for ``ab``
      the outer product of the user and service rows and ``c`` the time
      rows, and then refreshes that block's row of the blocks' sum.
    - A factor pass forms each block's contraction ``contr``, its core
      unfolded along the mode times the outer product of the two other
      gathered families; its sums are the per-slice sums of ``contr * y``
      and ``contr * yhat``.  It steps the factor, re-gathers its rows and
      adds the block's row, their per-entry dot with ``contr``.
    - A bias pass's sums are the per-slice sums of the values and of the
      predictions.  It steps the bias vector and re-forms the biases' sum
      ``d[u] + e[s] + f[t]``, never updating it in place.

    Every pass ends by re-forming the predictions as the blocks' sum plus
    the biases' sum, so the blocks of a pass all read the predictions the
    pass before left (a Jacobi step over the blocks).  Block rows go into
    the blocks' sum by ``model.add_block_row``: block 0 writes it, a later
    block adds its row.  Every product with an outer product of two
    gathered families runs over the workspace's ``chunks``, so no such
    outer product is entry-sized.

    The buffers live in ``workspace``, an ``EpochWorkspace`` made for
    ``train`` and the model's structure; without one the epoch makes its
    own.  A cold epoch gathers the factor rows and fills the two sums
    first, the blocks' rows by the core pass's refresh.  The epoch is warm
    when ``model`` is the model the workspace's last epoch returned: it
    skips the gathers and the fill, whose results that epoch left, so its
    result is bitwise a cold epoch's.  That holds because the last pass
    to refresh the block rows, the time pass, forms each one as the fill
    and ``predict_entries`` do: the core unfolded along the time mode,
    contracted with the user and service rows over the same chunks, dotted
    with the time rows.  So ``workspace.yhat`` ends holding the returned
    model's predictions of the entries of ``train``, bitwise equal to
    ``predict_entries`` of their ids.  A model with a non-finite parameter
    raises ``NonFiniteError`` before any arithmetic on it.
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

    ids, rows, yhat, weighted = ws.ids, ws.rows, ws.yhat, ws.weighted
    y = train.values
    n_obs = train.n_entries
    blocks = m.structure.blocks

    def scratch(buf, n_rows, n_cols=n_obs):
        return buf[:n_rows * n_cols].reshape(n_rows, n_cols)

    def factor_sums(axis, contr):
        # Per-slice sums of contr * y and contr * yhat, one rank component
        # at a time in the weighted row.
        sums = np.empty((2, train.dims[axis], len(contr)))
        for k, row in enumerate(contr):
            for out, v in zip(sums, (y, yhat)):
                out[:, k] = ws.slice_sums(axis, np.multiply(row, v, out=weighted))
        return sums

    def core_sums(a, b, c):
        # ab @ (c * y).T and ab @ (c * yhat).T, summed over the chunks, so
        # each chunk's outer product serves both.  The products go to the
        # contraction scratch, which the core pass only uses to refresh.
        num = den = 0
        for part in ws.chunks:
            ab = row_outer(a[:, part], b[:, part], ws.outer)
            cv = scratch(ws.contr, len(c), ab.shape[1])
            num = num + ab @ np.multiply(c[:, part], y[part], out=cv).T
            den = den + ab @ np.multiply(c[:, part], yhat[part], out=cv).T
        return num, den

    def step(x, num, den, weight, observed):
        x[...] = np.where(observed, x * num / (den + weight * x + EPSILON_GUARD), x)

    def refresh_block(r):
        l, mm, n = blocks[r]
        a, b, c = (family[r] for family in rows)
        contr = contract(m.cores[r].reshape(l * mm, n).T, a, b,
                         scratch(ws.contr, n), ws.chunks, ws.outer)
        add_block_row(r, c, contr, ws.block_sum, weighted)

    if not warm:
        _check_finite(m, "the model has a non-finite parameter")
        for family, idx, gathered in zip(m.factors, ids, rows):
            for f, out in zip(family, gathered):
                gather(f.T, idx, out)
        sum_biases(m.biases, ids, ws.bias_sum, weighted)
        for r in range(len(blocks)):
            refresh_block(r)
        np.add(ws.block_sum, ws.bias_sum, out=yhat)
    if not np.isfinite(yhat).all():
        raise NonFiniteError("model predictions are non-finite before the epoch")
    weights = penalty_weights(train, ws.counts, cfg)

    for r, (l, mm, n) in enumerate(blocks):
        # The reshape is a view, so the step writes the core in place:
        # BnbtModel.copy() returns C-contiguous arrays.
        step(m.cores[r].reshape(l * mm, n),
             *core_sums(*(family[r] for family in rows)), weights[0], True)
        refresh_block(r)
    np.add(ws.block_sum, ws.bias_sum, out=yhat)

    for axis in range(3):
        others = [k for k in range(3) if k != axis]
        observed = ws.counts[axis][:, None] > 0
        for r, core in enumerate(m.cores):
            rank = core.shape[axis]
            # Mode `axis` first, the other two in order, matching row_outer.
            unfolded = core.transpose(axis, *others).reshape(rank, -1)
            contr = contract(unfolded, *(rows[k][r] for k in others),
                             scratch(ws.contr, rank), ws.chunks, ws.outer)
            x = m.factors[axis][r]
            step(x, *factor_sums(axis, contr), weights[1 + axis], observed)
            add_block_row(r, gather(x.T, ids[axis], rows[axis][r]), contr,
                          ws.block_sum, weighted)
        np.add(ws.block_sum, ws.bias_sum, out=yhat)

    if cfg.bias_enabled:
        for axis in range(3):
            step(m.biases[axis], ws.value_sums[axis], ws.slice_sums(axis, yhat),
                 weights[4 + axis], ws.counts[axis] > 0)
            sum_biases(m.biases, ids, ws.bias_sum, weighted)
            np.add(ws.block_sum, ws.bias_sum, out=yhat)

    _check_finite(m, "update produced a non-finite parameter")
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
    objective.  The validation RMSE is scored from ``error_sums``, so
    scoring an epoch allocates no entry-sized buffer.  The report counts
    the dead blocks of the returned model; when every block is dead while
    some lambda is positive, the fit logs a warning naming the lambdas, as
    the model is then its biases alone.

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
    prev = (_rmse(model, validation) if use_validation
            else objective(model, train, cfg, workspace))
    stop_reason = STOP_MAX_ITER
    for n in range(cfg.max_iter):
        model = epoch(model, train, cfg, workspace)
        losses.append(objective(model, train, cfg, workspace))
        val_rmses.append(_rmse(model, validation)
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
        dead_blocks=int(sum(core.sum() * a.max() * b.max() * c.max() <= EPSILON_GUARD
                            for core, a, b, c in zip(model.cores, *model.factors))),
    )
    logger.info("fit: %d epochs, stopped on %s, final loss %.6g",
                report.epochs_run, stop_reason, losses[-1])
    lambdas = (cfg.lambda1, cfg.lambda2, cfg.lambda3)
    if report.dead_blocks == len(model.cores) and any(lambdas):
        logger.warning("fit: all %d blocks are dead (none adds more than %g to "
                       "any prediction) at lambda=(%g, %g, %g)",
                       report.dead_blocks, EPSILON_GUARD, *lambdas)
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
