"""Biased nonnegative block term model: parameters and prediction.

The approximation of an observed tensor is a sum of R Tucker-structured
blocks plus per-mode linear biases::

    yhat[i,j,k] = sum_r sum_{l,m,n} core_r[l,m,n] * A_r[i,l] * B_r[j,m] * C_r[k,n]
                  + d[i] + e[j] + f[k]

where block r has a dense ``L_r x M_r x N_r`` core, factor matrices
``A_r (|I| x L_r)``, ``B_r (|J| x M_r)``, ``C_r (|K| x N_r)``, and d, e, f
are the user/service/time bias vectors.  Every parameter is nonnegative.

A model indexes its per-mode parameters by axis, in ``sparse.MODES`` order:
``factors[axis][r]`` is block r's factor matrix of that mode (A_r, B_r or
C_r) and ``biases[axis]`` its bias vector (d, e or f).
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidStructureError,
    NegativeValueError,
    check_kind,
)
from .sparse import MODES, checked_ids

#: Entries per chunk of every per-entry contraction.  ``predict_entries``,
#: ``trainer.error_sums``, the trainer's slice counts and its epoch (its
#: outer-product scratch and the products over it) go through the entries in the chunks of
#: ``entry_chunks``, so their temporaries stay cache-sized however many
#: entries there are.  Chosen by measurement on 2 cores: every size from
#: 4096 to 32768 made a 1M-entry warm epoch faster than whole-tensor
#: products, but a fit's peak memory grows with the chunk:
#: ``predict_entries`` of a (3,3,3) block, which ``fit`` runs to score the
#: validation set, peaks at 22.1 chunk-sized rows, its output included
#: (``tracemalloc`` over one 4096-entry chunk; 18.1 at commit 0eca63d,
#: before it ran the epoch's kernel with a chunk-sized contraction row).
#: At 4096 a 50k-entry ``btdqos train`` peaked 1.2 MiB below whole-tensor
#: scratch, at 8192 0.6 MiB below, at 16384 0.8 MiB above (at commit
#: f5d8634).
ENTRY_CHUNK = 4096


def entry_chunks(n: int):
    """The chunks ``n`` entries go through, yielded as slices in entry
    order, so a loop over them holds one chunk's slice at a time.

    There are as many chunks as ``ENTRY_CHUNK`` fits whole, at least one,
    and their widths differ by at most one entry.  A chunk thus spans
    ``ENTRY_CHUNK`` to ``2 * ENTRY_CHUNK - 1`` entries, or all of them when
    there are fewer.  The even split keeps a tensor a little over one chunk
    from ending on a tiny one: split 4096 + 904, a 5k-entry epoch of
    (3,3,3) or 3 x (2,2,2) took 1.11 or 1.15 times as long as one
    whole-tensor pass; as one chunk, 0.99-1.05 or 0.91-0.93 times.
    """
    count = max(1, n // ENTRY_CHUNK)
    for k in range(count):
        lo, hi = k * n // count, (k + 1) * n // count
        if hi > lo:
            yield slice(lo, hi)


def _positive_int(x) -> bool:
    # true and false are no sizes, although bool subclasses int.
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 1


@dataclass(frozen=True)
class BlockStructure:
    """Shape descriptor: one (L, M, N) rank triple per block."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(b) for b in self.blocks)
        if not blocks:
            raise InvalidStructureError("a block structure needs at least one block")
        for b in blocks:
            if len(b) != 3 or not all(map(_positive_int, b)):
                raise InvalidStructureError(f"invalid block ranks {b}")
        object.__setattr__(self, "blocks", tuple(tuple(map(int, b)) for b in blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def cp_structure(n_blocks: int) -> BlockStructure:
    """Structure of ``n_blocks`` rank-(1,1,1) blocks.

    With unit blocks the model degenerates to a weighted biased CP sum,
    which is how the CP baseline is emulated.
    """
    if not _positive_int(n_blocks):
        raise InvalidStructureError(f"need a positive integer block count, got {n_blocks!r}")
    return BlockStructure(((1, 1, 1),) * n_blocks)


def tucker_structure(l: int, m: int, n: int) -> BlockStructure:
    """Single-block structure of rank (l, m, n), i.e. biased Tucker."""
    return BlockStructure(((l, m, n),))


@dataclass
class BnbtModel:
    """Parameter container for the biased nonnegative block term model."""

    dims: tuple
    structure: BlockStructure
    cores: list     # per block: (L_r, M_r, N_r) array
    factors: list   # per axis, per block: (dims[axis], rank of that axis)
    biases: list    # per axis: (dims[axis],) vector

    def copy(self) -> "BnbtModel":
        return BnbtModel(
            dims=self.dims,
            structure=self.structure,
            cores=[s.copy() for s in self.cores],
            factors=[[f.copy() for f in family] for family in self.factors],
            biases=[b.copy() for b in self.biases],
        )

    def parameter_arrays(self):
        """All parameter arrays, in a fixed (block-major) order: the cores,
        each mode's factors, then the biases."""
        return [*self.cores, *(f for family in self.factors for f in family),
                *self.biases]


def validate_model(model: BnbtModel):
    """Check shape consistency and nonnegativity; raise on violation."""
    blocks = model.structure.blocks
    if not len(model.dims) == len(model.factors) == len(model.biases) == 3:
        raise InvalidStructureError("a model needs dims, factors and biases for three modes")
    if any(len(x) != len(blocks) for x in (model.cores, *model.factors)):
        raise InvalidStructureError("per-block array lists disagree with structure")
    for r, ranks in enumerate(blocks):
        if model.cores[r].shape != ranks:
            raise InvalidStructureError(f"core {r} has shape {model.cores[r].shape}, want {ranks}")
    for axis, (mode, dim, bias) in enumerate(zip(MODES, model.dims, model.biases)):
        for r, (f, ranks) in enumerate(zip(model.factors[axis], blocks)):
            want = (dim, ranks[axis])
            if f.shape != want:
                raise InvalidStructureError(f"{mode} factor {r} has shape {f.shape}, want {want}")
        if bias.shape != (dim,):
            raise InvalidStructureError(f"{mode} bias has shape {bias.shape}, want {(dim,)}")
    for a in model.parameter_arrays():
        if not np.isfinite(a).all() or (a.size and a.min() < 0):
            raise NegativeValueError("model parameters must be finite and >= 0")


def init_random(dims, structure: BlockStructure, seed: int) -> BnbtModel:
    """Draw every parameter independently and uniformly from [0, 0.05].

    The draw order is fixed (cores block by block, then user, service and
    time factors, then the three bias vectors) so one seed always yields
    one bitwise-identical model.  ``seed`` must be an integer (not a bool).
    """
    check_kind(seed, numbers.Integral, "the init seed")
    dims = tuple(dims)
    if len(dims) != 3 or not all(map(_positive_int, dims)):
        raise InvalidStructureError(f"dims must be three positive integers, got {dims}")
    dims = tuple(map(int, dims))
    rng = np.random.default_rng(int(seed) % (2 ** 64))
    u = lambda *shape: rng.uniform(0.0, 0.05, shape)
    return BnbtModel(
        dims=dims,
        structure=structure,
        cores=[u(*ranks) for ranks in structure.blocks],
        factors=[[u(dim, ranks[axis]) for ranks in structure.blocks]
                 for axis, dim in enumerate(dims)],
        biases=[u(dim) for dim in dims],
    )


def gather(values, ids, out=None):
    """``values[..., ids]``: the last axis of ``values`` taken at ``ids``.

    A bias vector gathers one value per entry, a transposed factor
    ``factor.T`` its rows laid out as a ``(rank, p)`` array, one row per
    rank component and one column per entry, so every component is
    contiguous over the entries: the layout ``row_outer`` and the trainer's
    per-slice sums read.  The ids must be in range (``sparse.checked_ids``),
    so ``mode="clip"`` never clips; the default ``mode="raise"`` would stage
    the result in a fresh array even when ``out`` is given.
    """
    return values.take(ids, axis=-1, out=out, mode="clip")


def row_outer(x: np.ndarray, y: np.ndarray, buf=None) -> np.ndarray:
    """Per-entry outer product of gathered rows ``x (a, p)`` and ``y (b, p)``.

    Returns ``(a * b, p)`` whose row ``i * b + j`` is ``x[i] * y[j]``: the
    row order of a C-order reshape of a core whose leading axes are the
    modes of ``x`` and ``y``, in that order.  It is formed in the first
    ``a * b * p`` elements of the flat scratch ``buf`` when one is given.
    """
    a, p = x.shape
    b = y.shape[0]
    out = np.empty((a * b, p)) if buf is None else buf[:a * b * p].reshape(a * b, p)
    np.multiply(x[:, None, :], y[None, :, :], out=out.reshape(a, b, p))
    return out


def contract(left, x, z, out, chunks, buf=None):
    """``out = left @ row_outer(x, z)`` over the entries of ``chunks``, one
    chunk at a time, each chunk's outer product formed in the flat scratch
    ``buf`` (or a fresh array).

    A one-column ``left`` (two rank-1 families) makes the product a
    broadcast multiply, which runs several times faster than numpy's
    matmul of that shape.
    """
    product = np.multiply if left.shape[1] == 1 else np.matmul
    for part in chunks:
        product(left, row_outer(x[:, part], z[:, part], buf), out=out[:, part])
    return out


def add_block_row(r, gathered, contr, out, spare=None):
    """Block ``r``'s row, the per-entry dot of its gathered rows with their
    contraction, into the blocks' sum ``out``: block 0 writes it, a later
    block adds its row, formed in the ``spare`` row (or a fresh one)."""
    if r == 0:
        return np.einsum("kp,kp->p", gathered, contr, out=out)
    out += np.einsum("kp,kp->p", gathered, contr, out=spare)
    return out


def sum_biases(biases, ids, out, spare=None):
    """The biases' sum ``d[u] + e[s] + f[t]`` into ``out``, adding the user,
    then the service, then the time bias; a bias is gathered into the
    ``spare`` row (or a fresh one) before it is added."""
    gather(biases[0], ids[0], out)
    for bias, idx in zip(biases[1:], ids[1:]):
        out += gather(bias, idx, spare)
    return out


def predict_entries(model: BnbtModel, user_ids, service_ids, time_ids) -> np.ndarray:
    """Vectorized predictions for parallel 1-d index arrays.

    The ids must be integers within ``model.dims``, in three 1-D arrays of
    one length (``sparse.checked_ids``); otherwise ``OutOfBoundsError``
    names the mode.  Entries go through in the chunks of ``entry_chunks``,
    so the temporaries stay chunk-sized however many entries are asked for.
    Each chunk runs the epoch's own kernel: per block, ``contract`` of
    ``core.reshape(L*M, N).T`` with the user and service rows, and
    ``add_block_row`` of its dot with the time rows into the blocks' sum,
    which is added to ``sum_biases``.  So the predictions of a training
    tensor's ids equal, bitwise, the ones an epoch leaves in its
    ``EpochWorkspace.yhat``.
    """
    ids = checked_ids(model.dims, (user_ids, service_ids, time_ids))
    (a, b, c), out = model.factors, np.empty(ids[0].size)
    for chunk in entry_chunks(out.size):
        u, s, t = idx = [x[chunk] for x in ids]
        block_sum = np.empty(u.size)
        for r, core in enumerate(model.cores):
            l, m, n = core.shape
            # The user and service rows are freed once contracted.
            contr = contract(core.reshape(l * m, n).T, gather(a[r].T, u),
                             gather(b[r].T, s), np.empty((n, u.size)), [slice(None)])
            add_block_row(r, gather(c[r].T, t), contr, block_sum)
        np.add(block_sum, sum_biases(model.biases, idx, out[chunk]), out=out[chunk])
    return out


def check_dims(model: BnbtModel, tensor_dims):
    if tuple(model.dims) != tuple(tensor_dims):
        raise DimMismatchError(f"model dims {model.dims} != tensor dims {tuple(tensor_dims)}")
