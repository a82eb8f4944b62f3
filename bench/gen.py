"""Seeded synthetic QoS logs with WS-DREAM's shape.

A planted biased nonnegative block term model is sampled on a random set of
distinct (user, service, time) cells.  The log is written in the WS-DREAM
text layout the ``btdqos`` parser reads: one ``user service time value``
record per line in (user, service, time) order, ``-1`` sentinel records for
unobserved cells mixed in, plus ``#`` comment lines and blank lines.

Columns are right-aligned in fixed-width fields so that a whole log is
rendered with a handful of numpy operations; leading spaces are ordinary
field separators to the parser.  Values carry four decimals, so the value
the parser reads back is exactly ``ticks / 10**4``.

Only the standard library and numpy are used.
"""

from dataclasses import dataclass

import numpy as np

#: Decimal places of every written value.
DECIMALS = 4
_SCALE = 10 ** DECIMALS

#: One comment line and one blank line are inserted about every this many
#: records, at seeded positions.
NOISE_EVERY = 50_000


@dataclass
class Planted:
    """The generated observations and the counts a parser must report."""

    dims: tuple
    user_ids: np.ndarray      # observed cells, lexicographic order
    service_ids: np.ndarray
    time_ids: np.ndarray
    values: np.ndarray        # exactly the values the log holds
    records: int              # data lines, sentinels included
    dropped: int              # sentinel lines

    @property
    def kept(self) -> int:
        return self.records - self.dropped

    def counts(self) -> dict:
        return {"records": self.records, "dropped": self.dropped,
                "kept": self.kept, "dims": list(self.dims)}


def _digits(x, width):
    """Right-aligned, space-padded decimal digits of nonnegative ints."""
    x = np.asarray(x, dtype=np.int64)
    if x.size and x.max() >= 10 ** width:
        raise ValueError(f"value does not fit in {width} digits")
    out = np.empty((x.size, width), dtype=np.uint8)
    rest = x.copy()
    for col in range(width - 1, -1, -1):
        out[:, col] = rest % 10
        rest //= 10
    out += ord("0")
    for col in range(width - 1):
        # Column `col` holds the 10**(width-1-col) digit.
        out[x < 10 ** (width - 1 - col), col] = ord(" ")
    return out


def _distinct(x):
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _planted_values(rng, dims, blocks, ui, si, ti, noise):
    """Evaluate a random nonnegative BTD model plus biases at the cells."""
    i, j, k = dims
    user_time, service = [], []
    for l, m, n in blocks:
        core = rng.uniform(0.0, 1.0, (l, m, n))
        a = rng.uniform(0.0, 1.0, (i, l))
        b = rng.uniform(0.0, 1.0, (j, m))
        c = rng.uniform(0.0, 1.0, (k, n))
        # Contract the core with the small user and time factors first:
        # (i, k, m) is tiny, so each cell needs one m-long dot product.
        user_time.append(np.einsum("il,lmn,kn->ikm", a, core, c))
        service.append(b)
    user_time = np.concatenate(user_time, axis=2).reshape(i * k, -1)
    service = np.concatenate(service, axis=1)
    out = np.einsum("pm,pm->p", user_time[ui * k + ti], service[si])
    out += rng.uniform(0.0, 1.0, i)[ui]
    out += rng.uniform(0.0, 1.5, j)[si]
    out += rng.uniform(0.0, 0.3, k)[ti]
    out += rng.normal(0.0, noise, ui.size)
    return np.maximum(out, 0.0)


def generate(path, seed, dims, n_observed, sentinel_share=0.05,
             blocks=((2, 2, 2),) * 3, noise=0.05) -> Planted:
    """Write a planted log to ``path`` and return what it holds.

    ``n_observed`` distinct cells carry values; ``sentinel_share`` times as
    many extra records carry the ``-1`` sentinel at random cells.
    """
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    cells = dims[0] * dims[1] * dims[2]
    if n_observed > cells // 2:
        raise ValueError("n_observed must be at most half of the cells")

    codes = _distinct(rng.integers(0, cells, int(n_observed * 1.1) + 64))
    while codes.size < n_observed:
        codes = _distinct(np.concatenate(
            (codes, rng.integers(0, cells, n_observed))))
    codes = np.sort(rng.choice(codes, n_observed, replace=False))
    ui, si, ti = np.unravel_index(codes, dims)
    ticks = np.rint(_planted_values(rng, dims, blocks, ui, si, ti, noise)
                    * _SCALE).astype(np.int64)

    n_sentinel = int(round(n_observed * sentinel_share))
    s_codes = rng.integers(0, cells, n_sentinel)
    all_codes = np.concatenate((codes, s_codes))
    order = np.argsort(all_codes, kind="stable")
    is_sentinel = order >= n_observed
    au, asv, at = np.unravel_index(all_codes[order], dims)

    int_width = max(len(str(int(ticks.max()) // _SCALE)), 2)
    cols = [_digits(au, len(str(dims[0] - 1)) + 1),
            _digits(asv, len(str(dims[1] - 1)) + 1),
            _digits(at, len(str(dims[2] - 1)) + 1)]
    t_all = np.zeros(order.size, dtype=np.int64)
    t_all[~is_sentinel] = ticks[order[~is_sentinel]]
    whole = _digits(t_all // _SCALE, int_width + 1)
    frac = _digits(t_all % _SCALE + _SCALE, DECIMALS + 1)[:, 1:]
    dot = np.full((order.size, 1), ord("."), dtype=np.uint8)
    value = np.hstack((whole, dot, frac))
    sentinel = np.full(value.shape[1], ord(" "), dtype=np.uint8)
    sentinel[-2:] = np.frombuffer(b"-1", dtype=np.uint8)
    value[is_sentinel] = sentinel
    newline = np.full((order.size, 1), ord("\n"), dtype=np.uint8)
    rows = np.hstack(cols + [value, newline])
    width = rows.shape[1]
    body = rows.tobytes()

    n_rows = order.size
    breaks = np.sort(rng.choice(n_rows, max(1, n_rows // NOISE_EVERY),
                                replace=False))
    with open(path, "wb") as fh:
        fh.write(f"# synthetic WS-DREAM-shaped QoS log, seed {seed}\n"
                 f"# dims {dims[0]} x {dims[1]} x {dims[2]}\n\n".encode())
        start = 0
        for n, stop in enumerate(breaks):
            fh.write(body[start * width:stop * width])
            fh.write(f"# block {n}\n\n".encode())
            start = stop
        fh.write(body[start * width:])

    return Planted(dims=dims,
                   user_ids=ui.astype(np.int64), service_ids=si.astype(np.int64),
                   time_ids=ti.astype(np.int64), values=ticks / _SCALE,
                   records=n_rows, dropped=n_sentinel)
