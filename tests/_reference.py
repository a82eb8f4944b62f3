"""Naive reference implementations used as independent test oracles.

The oracles recompute results along paths that share no accumulation code
with the package's vectorized ones:

- ``predict_entry``: the scalar oracle, one cell's prediction by direct
  quadruple summation, against which ``predict_entries`` is checked;
- ``ref_objective`` and ``ref_epoch``: plain Python loops over entries;
- ``ref_dense``: the full approximation tensor from mode products;
- ``ref_gradient``: the analytic descent direction of one coordinate,
  checked in turn against ``ref_gradient_fd``, a finite difference of the
  objective;
- ``ref_write_qos_log``: one formatted line and one write per entry;
- ``ref_tensor_arrays``: a tensor's stored arrays from a Python dict and
  ``sorted``;
- ``ref_split_positions``: a split's storage positions from slices of the
  seeded permutation, each sorted.

Plain helpers build and read small tensors entry by entry:
``from_entries`` builds one from ``((i, j, k), value)`` pairs,
``entry_list`` lists those pairs in storage order, and ``value_at`` looks
one up.

Slow by construction; use only at small sizes.
"""

import math

import numpy as np

from btdqos.model import (
    BlockStructure,
    BnbtModel,
    check_dims,
    init_random,
    predict_entries,
)
from btdqos.sparse import MODES, SparseTensor3
from btdqos.trainer import EPSILON_GUARD

#: Coordinate kinds of the bias vectors, in axis order.
BIAS_KINDS = tuple(f"{mode}_bias" for mode in MODES)


def from_entries(dims, entries):
    """A tensor built from ``((i, j, k), value)`` pairs."""
    entries = list(entries)
    idx = np.array([e[0] for e in entries], dtype=np.int64).reshape(-1, 3)
    return SparseTensor3.from_arrays(dims, *idx.T, [e[1] for e in entries])


def entry_list(tensor):
    """``((i, j, k), value)`` of every stored entry, in storage order."""
    return [((int(i), int(j), int(k)), float(v))
            for i, j, k, v in zip(*tensor.ids, tensor.values)]


def value_at(tensor, i, j, k):
    """Value of observed entry (i, j, k); KeyError if unobserved."""
    return dict(entry_list(tensor))[(i, j, k)]


def predict_entry(model, i, j, k):
    """Predicted value at one in-range cell, by direct quadruple summation."""
    cell = (i, j, k)
    total = 0.0
    for r in range(model.structure.n_blocks):
        core = model.cores[r]
        a, b, c = (family[r][v] for family, v in zip(model.factors, cell))
        ll, mm, nn = core.shape
        for l in range(ll):
            for m in range(mm):
                for n in range(nn):
                    total += core[l, m, n] * a[l] * b[m] * c[n]
    d, e, f = (bias[v] for bias, v in zip(model.biases, cell))
    return total + float(d + e + f)


def ref_objective(model, tensor, cfg):
    """Quadruple-loop evaluation of the regularized training loss."""
    total = 0.0
    for (i, j, k), y in entry_list(tensor):
        delta = y - predict_entry(model, i, j, k)
        total += delta * delta
        for r in range(model.structure.n_blocks):
            a, b, c = (family[r] for family in model.factors)
            total += cfg.lambda1 * float((model.cores[r] ** 2).sum())
            total += cfg.lambda2 * float((a[i] ** 2).sum())
            total += cfg.lambda2 * float((b[j] ** 2).sum())
            total += cfg.lambda2 * float((c[k] ** 2).sum())
        d, e, f = model.biases
        total += cfg.lambda3 * float(d[i] ** 2 + e[j] ** 2 + f[k] ** 2)
    return total


def _yhat_list(model, entries):
    return [predict_entry(model, i, j, k) for (i, j, k), _ in entries]


def ref_epoch(model, tensor, cfg):
    """Per-coordinate reference epoch with the same refresh schedule.

    Each of the seven passes recomputes every coordinate's numerator and
    denominator by looping over the observed entries in lexicographic
    order; the prediction cache is rebuilt with ``predict_entry`` after
    each pass, exactly like the optimized trainer.
    """
    m = model.copy()
    entries = entry_list(tensor)
    if not entries:
        return m
    n_obs = len(entries)
    g = EPSILON_GUARD
    yhat = _yhat_list(m, entries)

    new_cores = []
    for r in range(m.structure.n_blocks):
        core = m.cores[r]
        a, b, c = (family[r] for family in m.factors)
        new = np.empty_like(core)
        for l in range(core.shape[0]):
            for mm in range(core.shape[1]):
                for n in range(core.shape[2]):
                    num = den = 0.0
                    for ((i, j, k), y), yh in zip(entries, yhat):
                        w = a[i, l] * b[j, mm] * c[k, n]
                        num += y * w
                        den += yh * w
                    den += cfg.lambda1 * n_obs * core[l, mm, n]
                    new[l, mm, n] = core[l, mm, n] * num / (den + g)
        new_cores.append(new)
    m.cores = new_cores
    yhat = _yhat_list(m, entries)

    for mode_axis in range(3):
        updated = []
        for r in range(m.structure.n_blocks):
            core = m.cores[r]
            a, b, c = (family[r] for family in m.factors)
            f = m.factors[mode_axis][r]
            new = f.copy()
            for idx in range(f.shape[0]):
                rows = [(pos, (i, j, k), y)
                        for pos, ((i, j, k), y) in enumerate(entries)
                        if (i, j, k)[mode_axis] == idx]
                if not rows:
                    continue
                for rank in range(f.shape[1]):
                    num = den = 0.0
                    for pos, (i, j, k), y in rows:
                        if mode_axis == 0:
                            contr = sum(core[rank, mm, n] * b[j, mm] * c[k, n]
                                        for mm in range(core.shape[1])
                                        for n in range(core.shape[2]))
                        elif mode_axis == 1:
                            contr = sum(core[l, rank, n] * a[i, l] * c[k, n]
                                        for l in range(core.shape[0])
                                        for n in range(core.shape[2]))
                        else:
                            contr = sum(core[l, mm, rank] * a[i, l] * b[j, mm]
                                        for l in range(core.shape[0])
                                        for mm in range(core.shape[1]))
                        num += y * contr
                        den += yhat[pos] * contr
                    den += cfg.lambda2 * len(rows) * f[idx, rank]
                    new[idx, rank] = f[idx, rank] * num / (den + g)
            updated.append(new)
        m.factors[mode_axis] = updated
        yhat = _yhat_list(m, entries)

    if cfg.bias_enabled:
        for mode_axis in range(3):
            bias = m.biases[mode_axis]
            new = bias.copy()
            for idx in range(bias.size):
                rows = [(pos, y) for pos, ((i, j, k), y) in enumerate(entries)
                        if (i, j, k)[mode_axis] == idx]
                if not rows:
                    continue
                num = sum(y for _, y in rows)
                den = sum(yhat[pos] for pos, _ in rows)
                den += cfg.lambda3 * len(rows) * bias[idx]
                new[idx] = bias[idx] * num / (den + g)
            m.biases[mode_axis] = new
            yhat = _yhat_list(m, entries)

    return m


def ref_dense(model):
    """Materialize the full approximation tensor.

    Each block is assembled by three successive mode products of its core
    with the factor matrices, then blocks are summed and biases broadcast
    on top.  This path shares no summation code with ``predict_entries``
    or ``predict_entry``, which is what makes it a useful cross-check.
    """
    out = np.zeros(model.dims, dtype=np.float64)
    for r in range(model.structure.n_blocks):
        a, b, c = (family[r] for family in model.factors)
        t = np.tensordot(a, model.cores[r], axes=(1, 0))  # (I, M, N)
        t = np.tensordot(b, t, axes=(1, 1))               # (J, I, N)
        t = np.tensordot(c, t, axes=(1, 2))               # (K, J, I)
        out += t.transpose(2, 1, 0)
    d, e, f = model.biases
    out += d[:, None, None]
    out += e[None, :, None]
    out += f[None, None, :]
    return out


def ref_gradient(model, tensor, cfg, coord):
    """Analytic descent direction for one parameter coordinate.

    Returns the additive-rule bracket, which equals exactly half of
    ``d objective / d coord`` (the squared-error term is differentiated
    without its factor 2; the same convention rescales the eliminated
    per-parameter learning rate and cancels in the multiplicative rules).
    A slice's entries are picked with a mask on the tensor's index arrays,
    which keeps them in storage order.

    Coordinates: ("core", r, l, m, n), ("user", r, i, l),
    ("service", r, j, m), ("time", r, k, n), ("user_bias", i),
    ("service_bias", j), ("time_bias", k).  A coordinate that does not
    exist in the model raises ``ValueError``.
    """
    check_dims(model, tensor.dims)
    kind, rest = coord[0], coord[1:]
    blocks = model.structure.blocks

    def _check(cond, msg):
        if not cond:
            raise ValueError(f"{coord}: {msg}")

    def _slice(axis, idx):
        mask = tensor.ids[axis] == idx
        return (*(x[mask] for x in tensor.ids), tensor.values[mask])

    if kind == "core":
        _check(len(rest) == 4, "expected (r, l, m, n)")
        r, l, m, n = rest
        _check(0 <= r < len(blocks), "block out of range")
        _check(all(0 <= x < d for x, d in zip((l, m, n), blocks[r])), "rank index out of range")
        u, s, t = tensor.ids
        y = tensor.values
        a, b, c = (family[r] for family in model.factors)
        w = a[u, l] * b[s, m] * c[t, n]
        delta = y - predict_entries(model, u, s, t)
        return cfg.lambda1 * float(model.cores[r][l, m, n]) * tensor.n_entries - float(delta @ w)

    if kind in MODES:
        _check(len(rest) == 3, "expected (r, index, rank)")
        r, idx, rank = rest
        _check(0 <= r < len(blocks), "block out of range")
        axis = MODES.index(kind)
        _check(0 <= rank < blocks[r][axis], "rank index out of range")
        _check(0 <= idx < model.dims[axis], "slice index out of range")
        u, s, t, y = _slice(axis, idx)
        core = model.cores[r]
        a, b, c = (family[r] for family in model.factors)
        if kind == "user":
            contr = np.einsum("mn,pm,pn->p", core[rank], b[s], c[t])
        elif kind == "service":
            contr = np.einsum("ln,pl,pn->p", core[:, rank, :], a[u], c[t])
        else:
            contr = np.einsum("lm,pl,pm->p", core[:, :, rank], a[u], b[s])
        delta = y - predict_entries(model, u, s, t)
        value = float(model.factors[axis][r][idx, rank])
        return cfg.lambda2 * value * y.size - float(delta @ contr)

    if kind in BIAS_KINDS:
        _check(len(rest) == 1, "expected (index,)")
        (idx,) = rest
        axis = BIAS_KINDS.index(kind)
        _check(0 <= idx < model.dims[axis], "slice index out of range")
        bias = model.biases[axis]
        u, s, t, y = _slice(axis, idx)
        delta = y - predict_entries(model, u, s, t)
        return cfg.lambda3 * float(bias[idx]) * y.size - float(delta.sum())

    raise ValueError(f"unknown coordinate kind {kind!r}")


def ref_gradient_fd(model, tensor, cfg, coord, objective_fn, step=1e-2):
    """Central finite difference of the objective along one coordinate.

    Along any single coordinate the objective is exactly quadratic: every
    prediction is multilinear in the parameters, so affine in one of
    them, and every loss and penalty term is a square of such an affine
    function.  For a quadratic ``q`` the central difference
    ``(q(x + h) - q(x - h)) / 2h`` equals ``q'(x)`` for every ``h``, so
    the step carries no truncation error and its only error is floating
    point cancellation, about ``eps * |objective| / h``.  A large step
    therefore gives the more exact oracle: on the C3 instances the worst
    relative error is 2.6e-4 at ``h = 1e-6`` and 2.1e-7 at ``h = 1e-2``.
    """
    plus = model.copy()
    minus = model.copy()
    _shift_param(plus, coord, step)
    _shift_param(minus, coord, -step)
    return (objective_fn(plus, tensor, cfg) - objective_fn(minus, tensor, cfg)) / (2 * step)


def _param_site(model, coord):
    """The array holding coordinate ``coord`` and its index in that array."""
    kind, rest = coord[0], coord[1:]
    if kind == "core":
        return model.cores[rest[0]], tuple(rest[1:])
    if kind in MODES:
        return model.factors[MODES.index(kind)][rest[0]], tuple(rest[1:])
    if kind in BIAS_KINDS:
        return model.biases[BIAS_KINDS.index(kind)], tuple(rest)
    raise ValueError(f"unknown coordinate {coord}")


def _shift_param(model, coord, delta):
    array, index = _param_site(model, coord)
    array[index] += delta


def all_coords(model):
    """Every parameter coordinate of a model, in a stable order."""
    coords = []
    for r, (l, m, n) in enumerate(model.structure.blocks):
        coords += [("core", r, a, b, c) for a in range(l)
                   for b in range(m) for c in range(n)]
    for r, ranks in enumerate(model.structure.blocks):
        for mode, dim, rank in zip(MODES, model.dims, ranks):
            coords += [(mode, r, a, b) for a in range(dim) for b in range(rank)]
    for kind, dim in zip(BIAS_KINDS, model.dims):
        coords += [(kind, a) for a in range(dim)]
    return coords


def get_param(model, coord):
    array, index = _param_site(model, coord)
    return float(array[index])


def model_params_vector(model):
    return np.concatenate([a.ravel() for a in model.parameter_arrays()])


# -- instance generators ---------------------------------------------------

def random_instance(seed, max_dim=6, max_blocks=3, max_rank=3, density=0.5,
                    value_high=2.0):
    """A random observed tensor plus a freshly initialized model."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, max_dim + 1, size=3))
    n_blocks = int(rng.integers(1, max_blocks + 1))
    blocks = tuple(tuple(int(x) for x in rng.integers(1, max_rank + 1, size=3))
                   for _ in range(n_blocks))
    structure = BlockStructure(blocks)
    cells = dims[0] * dims[1] * dims[2]
    n = max(1, int(density * cells))
    sel = rng.choice(cells, size=n, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    vals = rng.uniform(0.0, value_high, size=n)
    tensor = SparseTensor3.from_arrays(dims, ii, jj, kk, vals)
    model = init_random(dims, structure, int(rng.integers(0, 2 ** 31)))
    return dims, structure, tensor, model


def planted_model(seed, dims, structure, factor_low=0.0, factor_high=1.0,
                  bias_high=0.2, spiky_factors=False):
    """A model with parameters large enough to produce O(1) signals.

    Factors are drawn from [0, 1]: letting entries reach zero keeps the
    planted factor columns from being nearly collinear (all-positive
    vectors are strongly coherent), which multiplicative updates punish
    with very slow tail convergence.  ``spiky_factors`` squares the draws,
    concentrating mass near zero; the resulting low-DC, high-variance
    signals are the instances multiplicative updates fit fastest (large
    constant offsets push every update ratio toward 1).
    """
    rng = np.random.default_rng(seed)

    def u(lo, hi, *shape):
        draw = rng.uniform(lo, hi, shape)
        return draw ** 2 / hi if spiky_factors else draw

    return BnbtModel(
        dims=tuple(dims),
        structure=structure,
        cores=[u(factor_low, factor_high, *ranks) for ranks in structure.blocks],
        factors=[[u(factor_low, factor_high, dim, ranks[axis])
                  for ranks in structure.blocks]
                 for axis, dim in enumerate(dims)],
        biases=[rng.uniform(0.0, bias_high, dim) for dim in dims],
    )


def planted_tensor(seed, dims, structure, density, noise_frac=0.0,
                   bias_high=0.2):
    """Observations sampled from a planted model, plus the signal stats.

    Returns ``(tensor, truth_model, signal_std, noise_std)`` where the
    noise standard deviation is ``noise_frac`` times the clean signal's
    standard deviation over the sampled cells.  Values are clipped at zero
    to respect the nonnegativity of QoS observations.
    """
    rng = np.random.default_rng(seed)
    truth = planted_model(seed + 1, dims, structure, bias_high=bias_high)
    cells = dims[0] * dims[1] * dims[2]
    n = max(1, int(round(density * cells)))
    sel = rng.choice(cells, size=n, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    clean = predict_entries(truth, ii, jj, kk)
    signal_std = float(clean.std())
    noise_std = noise_frac * signal_std
    vals = clean
    if noise_frac > 0.0:
        vals = clean + rng.normal(0.0, noise_std, size=n)
    vals = np.maximum(vals, 0.0)
    tensor = SparseTensor3.from_arrays(dims, ii, jj, kk, vals)
    return tensor, truth, signal_std, noise_std


def exact_fit_instance(seed, dims=(4, 4, 4), structure=None, density=0.5):
    """A tensor whose values equal a model's own predictions (zero residual)."""
    if structure is None:
        structure = BlockStructure(((2, 2, 2),))
    rng = np.random.default_rng(seed)
    model = planted_model(seed, dims, structure)
    cells = dims[0] * dims[1] * dims[2]
    n = max(1, int(density * cells))
    sel = rng.choice(cells, size=n, replace=False)
    ii, jj, kk = np.unravel_index(sel, dims)
    vals = predict_entries(model, ii, jj, kk)
    tensor = SparseTensor3.from_arrays(dims, ii, jj, kk, vals)
    return tensor, model


def ref_write_qos_log(tensor, path, header=None):
    """Row-by-row QoS log writer: the bytes ``write_qos_log`` must produce."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for i, j, k, v in zip(*tensor.ids, tensor.values):
            fh.write(f"{i} {j} {k} {float(v)!r}\n")


def ref_tensor_arrays(dims, ii, jj, kk, vals):
    """``(ids, values, codes)`` a tensor built from these entries must store.

    Entries are collected in a dict keyed by ``(i, j, k)`` and sorted with
    ``sorted``; a repeated index must repeat its value (else ``ValueError``).
    """
    entries = {}
    for i, j, k, v in zip(*(np.asarray(x).tolist() for x in (ii, jj, kk, vals))):
        if entries.setdefault((i, j, k), v) != v:
            raise ValueError(f"index {(i, j, k)} has two values")
    keys = sorted(entries)
    ids = [np.array([key[axis] for key in keys], dtype=np.int32) for axis in range(3)]
    values = np.array([entries[key] for key in keys], dtype=np.float64)
    codes = np.array([(i * dims[1] + j) * dims[2] + k for i, j, k in keys], dtype=np.int64)
    return ids, values, codes


def ref_split_positions(n, spec):
    """Sorted storage positions of each partition that ``split`` must pick:
    consecutive slices of the seeded permutation, sized by the floor rule."""
    perm = np.random.default_rng(int(spec.seed) % (2 ** 64)).permutation(n)
    sizes = [math.floor(r * n + 1e-9) for r in (spec.train_ratio, spec.validation_ratio)]
    total = math.floor(
        (spec.train_ratio + spec.validation_ratio + spec.test_ratio) * n + 1e-9)
    bounds = (0, sizes[0], sizes[0] + sizes[1], total)
    return [np.sort(perm[a:b]) for a, b in zip(bounds, bounds[1:])]
