"""Ingestion of dynamic QoS logs, seeded splits, and model checkpoints.

Log format: plain UTF-8 text, one observation per line as
``user_id service_id time_slice value`` (whitespace separated, 0-based ids,
decimal value).  Lines whose first non-blank character is ``#`` and blank
lines are ignored; a ``#`` after data is a parse error.  Values below zero
follow the WS-DREAM missing-data convention and are dropped (but counted).
See docs/formats.md for the checkpoint and manifest layouts.  Every
artifact is written through ``atomic_write`` (CSV files through
``write_csv``, which uses it): it creates the missing parent directories,
and a write that fails part-way leaves the previous file in place.

``parse_qos_log(path, dims)`` reads a log into a tensor of the given dims
(every id must lie within them) in chunks of about 64 KiB of whole lines,
each converted to rows by numpy's C tokenizer (``np.loadtxt``) and its
kept records written straight into the tensor's final columns (int64
codes, float64 values), which are sized from the file.  A log in (user,
service, time) order without repeats, as the partition files are, then
becomes the tensor without a sort or another copy
(``SparseTensor3.from_codes``), so ingest holds about 16 B per entry for
the tensor plus one chunk.  A chunk is first screened for
the two spellings ``loadtxt`` reads otherwise than ``int``/``float`` do (a
``#`` after data, a ``_`` digit separator).  A failed screen, a
``loadtxt`` error or warning (other than the one for a chunk without
data), or an id out of range makes it parse the whole file again with
``_parse_lines``, one line at a time.  So that path runs only
for non-canonical or invalid input, and it raises every error with the
line number of the file.  The file is decoded with ``surrogateescape``, so
a byte that is not UTF-8 reaches the parsers as a lone surrogate: the
screen sends its chunk to ``_parse_lines``, which names the line.
``split`` labels each entry with its partition, one byte per entry, and
copies no entry: a partition is formed from the labels only where it is
read as a tensor.  ``write_qos_log`` renders a window of entries at a time
with whole-array numpy operations, and with a mask (``where``) renders
only the entries the mask selects, so the partition files are written
straight from the source tensor through its label masks.  Ids,
unravelled from the window's codes, come from per-mode tables of id
bytes, and each value's shortest round-trip digits, the ones ``repr``
prints, are found on a grid of 15 significant digits (``_repr_digits``).
A value that needs more digits, or that ``repr`` prints in exponent form,
is left to ``repr`` itself, row by row, so the file is always what
``f"{i} {j} {k} {v!r}"`` would write.
"""

import csv
import json
import math
import numbers
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CorruptCheckpointError,
    EmptyInputError,
    OutOfBoundsError,
    ParseError,
    check_kind,
)
from .model import BlockStructure, BnbtModel, validate_model
from .sparse import (
    MODES,
    PARTITIONS,
    SparseTensor3,
    SplitTensor,
    _validated_dims,
    ravel,
    unravel,
)

CHECKPOINT_VERSION = 1

#: Checkpoint keys of the per-mode parameters, in axis order.
_FACTOR_KEYS = tuple(f"{mode}_factors" for mode in MODES)
_BIAS_KEYS = tuple(f"{mode}_bias" for mode in MODES)


@contextmanager
def atomic_write(path, newline=None):
    """Open ``path`` for writing text so that it changes all at once or not at all.

    The parent directories of ``path`` are created first if missing.  The
    text goes to a new file in the same directory, which is flushed,
    synced to disk and then moved onto ``path``; if anything fails before
    the move, the new file is removed and ``path`` keeps its old content.
    The file is created like ``open(path, "w")`` would create it, so it
    gets the same permissions.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with tmp.open("x", encoding="utf-8", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, columns, rows):
    """Write a header of ``columns`` and then ``rows`` (sequences) as CSV.

    ``csv`` writes a float as its ``repr``, so the floats read back bitwise.
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


@dataclass(frozen=True)
class SplitSpec:
    """Entry-level split ratios plus the shuffle seed."""

    train_ratio: float
    validation_ratio: float
    test_ratio: float
    seed: int = 0

    def __post_init__(self):
        ratios = (self.train_ratio, self.validation_ratio, self.test_ratio)
        for r in ratios:
            check_kind(r, numbers.Real, "every split ratio")
        check_kind(self.seed, numbers.Integral, "the split seed")
        if any(not 0.0 < r <= 1.0 for r in ratios):
            raise ConfigError(f"split ratios must lie in (0, 1], got {ratios}")
        if sum(ratios) > 1.0 + 1e-9:
            raise ConfigError(f"split ratios sum to {sum(ratios)}, which exceeds 1")


@dataclass
class IngestResult:
    """A parsed tensor plus the ingest bookkeeping counts.

    ``records`` counts the data lines seen, ``dropped`` the sentinel
    (negative-valued) records among them, and ``kept = records - dropped``.
    The tensor may hold fewer than ``kept`` entries if exact duplicates
    were collapsed.
    """

    tensor: SparseTensor3
    records: int
    kept: int
    dropped: int


#: Characters of log text handed to ``np.loadtxt`` at a time.  Peak RSS of
#: the CLI with 64 KiB / 256 KiB / 1 MiB chunks (3 runs each, 2 vCPUs):
#: ingest of 1M records 98.9-99.0 / 99.8 / 100.5-100.6 MiB, train of 0.5M
#: 67.5-67.6 / 68.0-68.2 / 69.7-69.9 MiB, the 100k-record benchmark
#: 42.0-42.2 / 42.0-42.1 / 45.3-45.5 MiB; parsing the 1M-record log took a
#: median 0.42 / 0.43 / 0.46 s.
_PARSE_CHUNK = 1 << 16
#: Source entries read per window, and most entries rendered per ``write``,
#: by ``write_qos_log``.  ``btdqos ingest`` of a 1M-record log split
#: 0.1/0.1/0.8, with 8k / 16k / 32k / 64k (2 vCPUs): peak RSS 56.1 / 56.6
#: / 59.3 / 64.6 MiB, where the split alone reaches 56.0; the split and
#: the three partition writes took 0.27-0.31 / 0.22-0.26 / 0.25-0.27 /
#: 0.33-0.35 s (medians of 7, two or more runs each).
_WRITE_CHUNK = 1 << 14
_RECORD_DTYPE = np.dtype([("i", "i8"), ("j", "i8"), ("k", "i8"), ("v", "f8")])
#: What ``surrogateescape`` decodes a byte that is not UTF-8 to.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class _NotCanonical(Exception):
    """The input needs the per-line parser to be read exactly."""


def parse_qos_log(path, dims, one_based: bool = False) -> IngestResult:
    """Read a QoS log file into a sparse tensor of shape ``dims``.

    ``dims`` are checked before the file is opened.  ``one_based`` shifts
    all ids down by one for logs that count from 1.
    """
    dims = _validated_dims(dims)
    shift = 1 if one_based else 0
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            codes, values, records = _parse_chunks(fh, dims, shift)
        except (_NotCanonical, ValueError, Warning):
            fh.seek(0)
            return _parse_lines(fh, dims, shift)
    return _ingest_result(SparseTensor3.from_codes(dims, codes, values), values.size,
                          records)


def _parse_chunks(fh, dims, shift):
    """Kept codes and values plus the record count, through numpy's C tokenizer.

    Each chunk's kept records are range-checked and written straight into
    the returned columns (int64 codes, float64 values).  Whenever a chunk
    does not fit, ``ndarray.resize`` sizes them for the records the rest of
    the file would hold at the density read so far, plus a 1/64 margin;
    they are cut to size at the end, so no chunk's rows outlive it.  Raises
    ``_NotCanonical``, or whatever ``np.loadtxt`` raises, for input it
    might read otherwise than ``_parse_lines``.  Its warnings are raised
    too: numpy before 2.0 reads an id of ``1.0`` as 1 with a
    DeprecationWarning.  A chunk of comment and blank lines only is no
    such input: it holds no records either way.
    """
    codes, values = np.zeros(0, np.int64), np.zeros(0, np.float64)
    file_size = os.fstat(fh.fileno()).st_size
    size = records = read = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # Whole lines: the text read so far plus the rest of its last line.
        while text := fh.read(_PARSE_CHUNK) + fh.readline():
            read += len(text)
            _screen(text)
            # Newlines were translated on reading, so these are the lines
            # _parse_lines would see (plus a blank one at the end).
            rows = np.loadtxt(text.split("\n"), comments="#", dtype=_RECORD_DTYPE,
                              ndmin=1)
            records += rows.size
            rows = rows[~(rows["v"] < 0)]  # WS-DREAM sentinel; NaN is kept
            stop = size + rows.size
            if stop > codes.size:
                # Room for the records the rest of the file would hold at
                # the density read so far (by half again for a file of
                # unknown size, such as a pipe).
                expected = stop * file_size // read or codes.size * 3 // 2
                for column in (codes, values):
                    # No view of a column is alive here.
                    column.resize(max(stop, expected + expected // 64), refcheck=False)
            ids = [rows[name] - shift for name in _RECORD_DTYPE.names[:3]]
            for x, d in zip(ids, dims):
                if x.size and (x.min() < 0 or x.max() >= d):
                    raise _NotCanonical("an id is out of range")
            codes[size:stop] = ravel(ids, dims)
            values[size:stop] = rows["v"]
            size = stop
    for column in (codes, values):
        column.resize(size, refcheck=False)
    return codes, values, records


def _screen(text):
    """Raise ``_NotCanonical`` where ``np.loadtxt`` and ``int``/``float`` differ.

    ``loadtxt`` ends a record at any ``#``, but a ``#`` starts a comment
    only as the first non-blank character of its line; and ``int`` and
    ``float`` accept digit separators (``1_000``) that ``loadtxt`` does not.
    Text that was not UTF-8 is an error only ``_parse_lines`` can place.
    """
    if "_" in text:
        raise _NotCanonical("digit separator")
    if not text.isascii() and _UNDECODABLE.search(text):
        raise _NotCanonical("not UTF-8")
    at = text.find("#")
    while at >= 0:
        if text[text.rfind("\n", 0, at) + 1:at].strip():
            raise _NotCanonical("'#' after data")
        at = text.find("#", text.find("\n", at) + 1 or len(text))


def _parse_lines(lines, dims, shift) -> IngestResult:
    """Parse log lines one at a time: the reference reading of every input.

    ``parse_qos_log`` runs this only for input its fast path might read
    otherwise, so every ``ParseError`` and ``OutOfBoundsError`` of a log
    comes from here, naming the line of the file.  ``lines`` are decoded
    with ``surrogateescape``; a line holding bytes that are not UTF-8,
    comment lines included, is a ``ParseError``.
    """
    columns = ([], [], [])
    values = []
    records = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line.isascii() and _UNDECODABLE.search(line):
            raise ParseError("not valid UTF-8", line_no, line)
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}",
                             line_no, line)
        try:
            ids = [int(x) - shift for x in fields[:3]]
            v = float(fields[3])
        except ValueError as exc:
            raise ParseError(str(exc), line_no, line) from None
        records += 1
        if v < 0:  # WS-DREAM sentinel for "not observed"
            continue
        for axis, (x, d) in enumerate(zip(ids, dims)):
            if not 0 <= x < d:
                raise OutOfBoundsError(
                    f"line {line_no}: {MODES[axis]} index {x} out of range [0, {d})")
            columns[axis].append(x)
        values.append(v)
    return _ingest_result(SparseTensor3.from_arrays(dims, *columns, values),
                          len(values), records)


def _ingest_result(tensor, kept, records) -> IngestResult:
    return IngestResult(tensor=tensor, records=records, kept=kept,
                        dropped=records - kept)


def write_qos_log(tensor: SparseTensor3, path, header: str | None = None, where=None):
    """Serialize a tensor in the log format, losslessly.

    Every line is ``f"{i} {j} {k} {v!r}\\n"``, after one ``# `` comment line
    per line of ``header`` (split by ``str.splitlines``).  With a boolean
    ``where`` of one element per entry, only the entries it selects are
    written, the bytes ``write_qos_log(tensor.subset(where), path, header)``
    writes.  Entries are read in windows of ``_WRITE_CHUNK``, and the
    entries that consecutive windows select are rendered together
    (``_render_lines``), at most ``_WRITE_CHUNK`` per ``write``: a sparse
    mask then renders full batches, not a small one per window.  Only a
    batch's codes are unravelled to ids.
    """
    codes, values = tensor.codes, tensor.values
    if where is not None and np.shape(where) != codes.shape:
        raise OutOfBoundsError(
            f"a mask must have one element per entry, got shape {np.shape(where)}")
    tables = []
    for d in tensor.dims:
        names = np.array([f"{x} " for x in range(d)], dtype=bytes)
        tables.append(names.view(np.uint8).reshape(d, names.itemsize).T.copy())
    with atomic_write(path) as fh:
        if header:
            fh.write("".join(f"# {line}\n" for line in header.splitlines()))
        batch, size = [], 0
        for start in range(0, codes.size, _WRITE_CHUNK):
            window = slice(start, start + _WRITE_CHUNK)
            keep = slice(None) if where is None else where[window]
            piece = codes[window][keep], values[window][keep]
            if size + piece[1].size > _WRITE_CHUNK:
                _write_batch(fh, tables, tensor.dims, batch)
                batch, size = [], 0
            batch.append(piece)
            size += piece[1].size
        _write_batch(fh, tables, tensor.dims, batch)


def _write_batch(fh, tables, dims, pieces):
    """Render the ``(codes, values)`` pieces as one ``write``; nothing if
    they hold no entry, as ``_render_lines`` needs one."""
    if pieces:
        codes, values = (np.concatenate(x) for x in zip(*pieces))
        if values.size:
            fh.write(_render_lines(tables, unravel(codes, dims), values))


#: Exact powers of ten, 10**0 ... 10**18, as float64 and as int64.
_POW10 = 10.0 ** np.arange(19)
_IPOW10 = 10 ** np.arange(19, dtype=np.int64)
#: The two bytes of "%r", one per matrix row, that stand for a value left
#: to ``repr``.
_REPR_MARK = np.array([[ord("%")], [ord("r")]], np.uint8)


def _render_lines(tables, ids, values) -> str:
    """The log lines of one chunk of entries, as one string.

    The lines are built in a byte matrix with one row per character
    position and one column per line, so that each position is written as
    one contiguous array; zero bytes pad the shorter fields and are
    deleted at the end.  Ids are gathered from ``tables``, per mode the
    ``"<id> "`` bytes of every id, one column each.  Values come from
    ``_repr_digits``; one it cannot render becomes a ``%r`` conversion,
    filled in with ``repr`` of that value.
    """
    ok, whole, frac, decimals = _repr_digits(values)
    n_whole = len(str(whole.max()))
    n_frac = int(decimals.max())
    # Rows: the ids with their spaces, the value's integer digits, its point
    # and fraction digits, the newline.
    id_rows = sum(table.shape[0] for table in tables)
    value = slice(id_rows, id_rows + n_whole + 1 + n_frac)
    mat = np.empty((value.stop + 1, values.size), np.uint8)
    row = 0
    for table, idx in zip(tables, ids):
        mat[row:row + table.shape[0]] = np.take(table, idx, axis=1)
        row += table.shape[0]
    digits = mat[row:row + n_whole]
    _put_digits(digits, whole)
    # Blank the leading zeros of the integer part, all but the units digit.
    digits[:-1] *= whole >= _IPOW10[n_whole - 1:0:-1, None]
    mat[row + n_whole] = ord(".")
    digits = mat[row + n_whole + 1:value.stop]
    _put_digits(digits, frac * np.take(_IPOW10, n_frac - decimals))
    # Blank the columns past each value's own decimals.
    digits *= decimals > np.arange(n_frac)[:, None]
    mat[-1] = ord("\n")
    # A value left to repr becomes a "%r" conversion, for the only "%"
    # the text holds.
    mat[value] *= ok
    np.copyto(mat[value.start:value.start + 2], _REPR_MARK, where=~ok)
    text = mat.T.tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(values[~ok].tolist()) if not ok.all() else text


def _put_digits(rows, x):
    """Write the decimal digits of int64 ``x`` down ``rows``, units last, as ASCII."""
    for digit in rows[::-1]:
        quot = x // 10
        np.subtract(x, quot * 10, out=digit, casting="unsafe")
        x = quot
    rows += ord("0")


def _repr_digits(values):
    """``repr``'s digits of each value, where numpy can find them exactly.

    Returns ``(ok, whole, frac, decimals)``: where ``ok`` is set,
    ``repr(v)`` is ``f"{whole}.{frac:0{decimals}d}"``; elsewhere the other
    three are placeholders.  ``ok`` is set for ``0.0`` and for the values
    in ``[1e-4, 1e15)`` that some decimal of at most 15 significant digits
    round-trips to; others (16 or 17 digits, ``-0.0``, exponent form) need
    ``repr``.

    Each value ``v`` is put on the grid of 15 significant digits,
    ``10**-m`` with ``m = 14 - floor(log10(v))``: ``s = rint(v * 10**m)``,
    and ``v`` is accepted if exactly one of ``(s - 1, s, s + 1) / 10**m``
    equals ``v`` and ``s < 1e15``.  That division is exact arithmetic on
    exact operands (``s + 1 < 2**53``, ``m <= 18``), so it is correctly
    rounded, just as ``float()`` of that decimal is.  With ``s < 1e15`` the
    grid step exceeds the width of the interval of reals that round to
    ``v``, so the decimal found is the only one on the grid that
    round-trips, and no shorter decimal lies off the grid: it is ``repr``'s
    shortest round-trip decimal, whose fixed notation ``repr`` prints for
    ``1e-4 <= v < 1e16``.  An off-by-one ``log10`` only changes the grid
    to 14 or 16 digits, which the checks still make exact or reject.
    """
    # 0.0 is the value whose bits are all zero (-0.0 has the sign bit).
    ok = ((values >= 1e-4) & (values < 1e15)) | (values.view(np.int64) == 0)
    v = np.where(ok, values, 0.0)
    m = (14 - np.floor(np.log10(np.where(v > 0, v, 1.0)))).clip(0, 18).astype(np.intp)
    scale = np.take(_POW10, m)
    s = np.rint(v * scale)
    below, at, above = ((s + step) / scale == v for step in (-1.0, 0.0, 1.0))
    ok &= (below.view(np.int8) + at.view(np.int8) + above.view(np.int8) == 1) & (s < 1e15)
    # The decimal's integer part is floor(v): an integer between the two
    # would round to v as well, so it would be v.
    whole = np.floor(v).astype(np.int64)
    frac = (s + above - below).astype(np.int64) - whole * np.take(_IPOW10, m)
    # Rows left to repr render as 0.0, so they widen no column.
    frac *= ok
    whole *= ok
    # Strip trailing zeros: find how many by halving (frac < 1e15).
    decimals = m
    for q in (8, 4, 2, 1):
        quot = frac // _IPOW10[q]
        zeros = quot * _IPOW10[q] == frac
        np.copyto(frac, quot, where=zeros)
        decimals = decimals - zeros * q
    # An integer (frac == 0) has lost more than m zeros: print it as "X.0".
    return ok, whole, frac, np.maximum(decimals, 1)


def split(tensor: SparseTensor3, spec: SplitSpec) -> SplitTensor:
    """Shuffle observed entries with a seeded RNG and partition by ratio.

    Train and validation sizes are the floors of their ratio shares; the
    test partition receives its floor share plus whatever the floors left
    over, so ratios summing to one always cover the input exactly.  Ratios
    summing below one leave the surplus entries unassigned.

    The shuffled order assigns each entry a one-byte partition label and
    is then dropped; the split is the tensor plus those labels, and copies
    no entry.  The order is ``Generator.permutation(n)``, which is
    ``arange(n)`` shuffled, drawn as an int32 ``arange`` (int64 past
    2**31 entries): ``shuffle`` makes the same swaps whatever the item
    size, so that costs 4 B per entry, not 8.
    """
    n = tensor.n_entries
    if n == 0:
        raise EmptyInputError("cannot split a tensor with no observed entries")
    perm = np.arange(n, dtype=np.int32 if n - 1 <= np.iinfo(np.int32).max else np.int64)
    np.random.default_rng(int(spec.seed) % (2 ** 64)).shuffle(perm)
    n_train = math.floor(spec.train_ratio * n + 1e-9)
    n_val = math.floor(spec.validation_ratio * n + 1e-9)
    total = math.floor(
        (spec.train_ratio + spec.validation_ratio + spec.test_ratio) * n + 1e-9)
    # Entries past `total` keep the label of no partition.
    labels = np.full(n, len(PARTITIONS), np.uint8)
    bounds = (0, n_train, n_train + n_val, total)
    for label, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        labels[perm[start:stop]] = label
    return SplitTensor(tensor, labels)


def write_split_manifest(parts: SplitTensor, path, extra: dict | None = None,
                         include_indices: bool = False):
    """Write a JSON audit manifest for one split.

    The counts come from the split's labels; ``include_indices`` unravels
    each partition's codes, picked from the source by its label mask.  The
    JSON is compact, as in ``save_model``: with ``indent``, the
    ``(i, j, k)`` triples of ``include_indices`` would go through
    ``json.dumps``'s pure-Python encoder.
    """
    doc = {"dims": list(parts.dims), "counts": parts.counts}
    if extra:
        doc.update(extra)
    if include_indices:
        codes = parts.source.codes
        doc["partitions"] = {
            name: np.stack(unravel(codes[parts.mask(name)], parts.dims), axis=1).tolist()
            for name in PARTITIONS}
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


# -- checkpoints -----------------------------------------------------------

def save_model(model: BnbtModel, path):
    """Write a model checkpoint (versioned JSON, lossless floats).

    The JSON is compact: with ``indent``, ``json.dumps`` would run its
    pure-Python encoder.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "dims": list(model.dims),
        "blocks": [list(b) for b in model.structure.blocks],
        "cores": [s.tolist() for s in model.cores],
    }
    for key, family in zip(_FACTOR_KEYS, model.factors):
        doc[key] = [f.tolist() for f in family]
    for key, bias in zip(_BIAS_KEYS, model.biases):
        doc[key] = bias.tolist()
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_model(path) -> BnbtModel:
    """Load a checkpoint, enforcing shape and nonnegativity invariants."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpointError(f"{path}: not valid checkpoint JSON ({exc})")
    if not isinstance(doc, dict):
        raise CorruptCheckpointError(f"{path}: checkpoint root must be an object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CorruptCheckpointError(
            f"{path}: unsupported format_version {doc.get('format_version')!r}")
    required = ("dims", "blocks", "cores", *_FACTOR_KEYS, *_BIAS_KEYS)
    missing = [key for key in required if key not in doc]
    if missing:
        raise CorruptCheckpointError(f"{path}: missing fields {missing}")
    try:
        model = BnbtModel(
            dims=tuple(check_kind(d, numbers.Integral, "every dim") for d in doc["dims"]),
            structure=BlockStructure(doc["blocks"]),
            cores=[np.array(s, dtype=np.float64) for s in doc["cores"]],
            factors=[[np.array(f, dtype=np.float64) for f in doc[key]]
                     for key in _FACTOR_KEYS],
            biases=[np.array(doc[key], dtype=np.float64) for key in _BIAS_KEYS],
        )
        validate_model(model)
    except CorruptCheckpointError:
        raise
    except Exception as exc:
        raise CorruptCheckpointError(f"{path}: invalid checkpoint ({exc})")
    return model
