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
from .sparse import MODES

#: Entries per chunk of every per-entry contraction.  ``predict_entries``,
#: ``trainer.error_sums``, the trainer's slice counts and its epoch (its
#: outer-product scratch and the products over it) go through the entries in the chunks of
#: ``entry_chunks``, so their temporaries stay cache-sized however many
#: entries there are.  Chosen by measurement on 2 cores: every size from
#: 4096 to 32768 made a 1M-entry warm epoch faster than whole-tensor
#: products, but a fit's peak memory grows with the chunk
#: (``predict_entries`` holds up to about 18 chunk-sized rows of a (3,3,3)
#: block while ``fit`` scores the validation set).  At 4096 a 50k-entry
#: ``btdqos train`` peaked 1.2 MiB below whole-tensor scratch, at 8192
#: 0.6 MiB below, at 16384 0.8 MiB above (at commit f5d8634).
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


def gather_rows(factor: np.ndarray, ids) -> np.ndarray:
    """Rows ``factor[ids]`` laid out transposed, as a ``(rank, p)`` array.

    One row per rank component and one column per entry keeps every
    component contiguous over the entries: the layout ``row_outer``,
    ``predict_entries`` and the trainer's per-slice sums read.
    """
    return np.take(factor.T, ids, axis=1)


def row_outer(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Per-entry outer product of gathered rows ``x (a, p)`` and ``y (b, p)``.

    Returns ``(a * b, p)`` whose row ``i * b + j`` is ``x[i] * y[j]``: the
    row order of a C-order reshape of a core whose leading axes are the
    modes of ``x`` and ``y``, in that order.
    """
    a, p = x.shape
    b = y.shape[0]
    if out is None:
        out = np.empty((a * b, p), dtype=np.float64)
    np.multiply(x[:, None, :], y[None, :, :], out=out.reshape(a, b, p))
    return out


def predict_entries(model: BnbtModel, user_ids, service_ids, time_ids) -> np.ndarray:
    """Vectorized predictions for parallel 1-d index arrays.

    Each block costs one factored contraction over the gathered factor
    rows, on top of the three gathered biases: ``core.reshape(L*M, N).T``
    times ``row_outer`` of the user and service rows contracts the core
    with those rows in one matrix product, and its per-entry dot with the
    time rows is the block term.  Entries go through in the chunks of
    ``entry_chunks``, so the temporaries stay small and cache-resident
    however many entries are asked for.  A block's temporaries are
    released as soon as the next step has read them: the gathered user and
    service rows once their outer product is formed, the outer product
    once it is contracted, so about the largest of ``L + M + L*M``,
    ``L*M + N`` and ``2N + 1`` chunk-sized rows are live beside the
    output.
    """
    ids = [np.asarray(x) for x in (user_ids, service_ids, time_ids)]
    (a, b, c), (d, e, f) = model.factors, model.biases
    out = np.empty(ids[0].shape, dtype=np.float64)
    for chunk in entry_chunks(out.size):
        u, s, t = (x[chunk] for x in ids)
        part = out[chunk]
        d.take(u, out=part)
        part += e[s]
        part += f[t]
        for r, (l, m, n) in enumerate(model.structure.blocks):
            # One expression, so no temporary outlives its one use.
            part += np.einsum(
                "np,np->p",
                model.cores[r].reshape(l * m, n).T
                @ row_outer(gather_rows(a[r], u), gather_rows(b[r], s)),
                gather_rows(c[r], t))
    return out


def check_dims(model: BnbtModel, tensor_dims):
    if tuple(model.dims) != tuple(tensor_dims):
        raise DimMismatchError(f"model dims {model.dims} != tensor dims {tuple(tensor_dims)}")
