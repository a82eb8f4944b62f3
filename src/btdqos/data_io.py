"""Ingestion of dynamic QoS logs, seeded splits, and model checkpoints.

Log format: plain UTF-8 text, one observation per line as
``user_id service_id time_slice value`` (whitespace separated, 0-based ids,
decimal value).  Lines starting with ``#`` and blank lines are ignored.
Values below zero follow the WS-DREAM missing-data convention and are
dropped (but counted).  See docs/formats.md for the checkpoint and
manifest layouts.  Every artifact is written through ``atomic_write``, so a
write that fails part-way leaves the previous file in place.
"""

import json
import math
import os
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
)
from .model import BlockStructure, BnbtModel, validate_model
from .sparse import MODES, SparseTensor3, SplitTensor

CHECKPOINT_VERSION = 1

#: Checkpoint keys of the per-mode parameters, in axis order.
_FACTOR_KEYS = tuple(f"{mode}_factors" for mode in MODES)
_BIAS_KEYS = tuple(f"{mode}_bias" for mode in MODES)

QOS_TYPES = ("response_time", "throughput")


@contextmanager
def atomic_write(path, newline=None):
    """Open ``path`` for writing text so that it changes all at once or not at all.

    The text goes to a new file in the same directory, which is flushed,
    synced to disk and then moved onto ``path``; if anything fails before
    the move, the new file is removed and ``path`` keeps its old content.
    The file is created like ``open(path, "w")`` would create it, so it
    gets the same permissions.
    """
    path = Path(path)
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


@dataclass(frozen=True)
class DatasetDescriptor:
    """Identifies one QoS dataset and its declared tensor dimensions."""

    name: str
    qos_type: str
    dims: tuple
    source_path: str | None = None

    def __post_init__(self):
        if self.qos_type not in QOS_TYPES:
            raise ConfigError(f"qos_type must be one of {QOS_TYPES}, got {self.qos_type!r}")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ConfigError(f"dims must be three positive integers, got {dims}")
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class SplitSpec:
    """Entry-level split ratios plus the shuffle seed."""

    train_ratio: float
    validation_ratio: float
    test_ratio: float
    seed: int = 0

    def __post_init__(self):
        ratios = (self.train_ratio, self.validation_ratio, self.test_ratio)
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


def parse_qos_log(path, descriptor: DatasetDescriptor,
                  one_based: bool = False) -> IngestResult:
    """Read a QoS log file into a sparse tensor.

    ``one_based`` shifts all ids down by one for logs that count from 1.
    """
    path = Path(path)
    dims = descriptor.dims
    users, services, times, values = [], [], [], []
    records = dropped = 0
    shift = 1 if one_based else 0
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ParseError(f"expected 4 fields, got {len(fields)}",
                                 line_no, line)
            try:
                i = int(fields[0]) - shift
                j = int(fields[1]) - shift
                k = int(fields[2]) - shift
                v = float(fields[3])
            except ValueError as exc:
                raise ParseError(str(exc), line_no, line) from None
            records += 1
            if v < 0:  # WS-DREAM sentinel for "not observed"
                dropped += 1
                continue
            for axis, (x, d) in enumerate(zip((i, j, k), dims)):
                if not 0 <= x < d:
                    raise OutOfBoundsError(
                        f"line {line_no}: {MODES[axis]} index {x} out of range [0, {d})")
            users.append(i)
            services.append(j)
            times.append(k)
            values.append(v)
    tensor = SparseTensor3.from_arrays(dims, np.array(users, dtype=np.int64),
                                       np.array(services, dtype=np.int64),
                                       np.array(times, dtype=np.int64),
                                       np.array(values, dtype=np.float64))
    return IngestResult(tensor=tensor, records=records,
                        kept=records - dropped, dropped=dropped)


def write_qos_log(tensor: SparseTensor3, path, header: str | None = None):
    """Serialize a tensor in the log format, losslessly (repr floats)."""
    with atomic_write(path) as fh:
        if header:
            fh.write(f"# {header}\n")
        for i, j, k, v in zip(*tensor.ids, tensor.values):
            fh.write(f"{i} {j} {k} {float(v)!r}\n")


def split(tensor: SparseTensor3, spec: SplitSpec) -> SplitTensor:
    """Shuffle observed entries with a seeded RNG and partition by ratio.

    Train and validation sizes are the floors of their ratio shares; the
    test partition receives its floor share plus whatever the floors left
    over, so ratios summing to one always cover the input exactly.  Ratios
    summing below one leave the surplus entries unassigned.
    """
    n = tensor.n_entries
    if n == 0:
        raise EmptyInputError("cannot split a tensor with no observed entries")
    rng = np.random.default_rng(int(spec.seed) % (2 ** 64))
    perm = rng.permutation(n)
    n_train = math.floor(spec.train_ratio * n + 1e-9)
    n_val = math.floor(spec.validation_ratio * n + 1e-9)
    total = math.floor(
        (spec.train_ratio + spec.validation_ratio + spec.test_ratio) * n + 1e-9)
    n_test = total - n_train - n_val
    return SplitTensor(
        train=tensor.subset(perm[:n_train]),
        validation=tensor.subset(perm[n_train:n_train + n_val]),
        test=tensor.subset(perm[n_train + n_val:n_train + n_val + n_test]),
    )


def write_split_manifest(parts: SplitTensor, path, extra: dict | None = None,
                         include_indices: bool = False):
    """Write a JSON audit manifest for one split."""
    doc = {
        "dims": list(parts.dims),
        "counts": {
            "train": parts.train.n_entries,
            "validation": parts.validation.n_entries,
            "test": parts.test.n_entries,
        },
    }
    if extra:
        doc.update(extra)
    if include_indices:
        doc["partitions"] = {
            name: [[int(i), int(j), int(k)] for (i, j, k), _ in part.iter_entries()]
            for name, part in (("train", parts.train),
                               ("validation", parts.validation),
                               ("test", parts.test))
        }
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# -- checkpoints -----------------------------------------------------------

def save_model(model: BnbtModel, path):
    """Write a model checkpoint (versioned JSON, lossless floats)."""
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
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


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
            dims=tuple(int(d) for d in doc["dims"]),
            structure=BlockStructure(tuple(tuple(b) for b in doc["blocks"])),
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
