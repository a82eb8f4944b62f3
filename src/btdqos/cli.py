"""Command-line entry point: ingest, train, evaluate, predict, benchmark.

Experiment settings live in JSON config files (see docs/formats.md);
command-line flags override config values.  Exit codes: 0 on success, 2 on
usage or validation problems, 3 on runtime or numerical failures.
"""

import argparse
import dataclasses
import json
import logging
import numbers
import os
import sys
from pathlib import Path

from .data_io import (
    SplitSpec,
    load_model,
    parse_qos_log,
    save_model,
    split,
    write_csv,
    write_qos_log,
    write_split_manifest,
)
from .errors import VALIDATION_ERRORS, BtdqosError, ConfigError, check_kind
from .evaluation import rmse_and_mae, run_benchmark
from .model import BlockStructure, cp_structure, predict_entries
from .rng import derive_seed
from .sparse import PARTITIONS, SparseTensor3
from .trainer import TrainConfig, grid_search

logger = logging.getLogger(__name__)

#: Default dataset root for relative data paths.
DATA_DIR_ENV = "BTDQOS_DATA_DIR"

#: The QoS measures a dataset may hold (``dataset.qos_type``, ``--qos-type``).
QOS_TYPES = ("response_time", "throughput")

#: Default benchmark model set: a CP emulation and a Tucker emulation of the
#: usual baselines, plus the native block term model.  Three blocks of rank
#: (2, 2, 2) is the block term default at block count 3.
DEFAULT_BENCHMARK_MODELS = (
    ("M1-emulated", {"cp": 3}),
    ("M2-emulated", {"tucker": [3, 3, 3]}),
    ("M3-bnbt", {"blocks": [[2, 2, 2], [2, 2, 2], [2, 2, 2]]}),
)


def _resolve_input(path_str, config_dir=None):
    """Resolve a data path against the config dir, then $BTDQOS_DATA_DIR."""
    path = Path(path_str)
    if path.is_absolute():
        candidates = [path]
    else:
        candidates = [Path.cwd() / path]
        if config_dir is not None:
            candidates.append(Path(config_dir) / path)
        data_dir = os.environ.get(DATA_DIR_ENV)
        if data_dir:
            candidates.append(Path(data_dir) / path)
    for cand in candidates:
        if cand.exists():
            return cand
    raise ConfigError(f"input file not found: {path_str}")


def _section(doc, key):
    """Config section ``key`` (an empty object when absent)."""
    return check_kind(doc.get(key, {}), dict, f"config section {key!r}")


def _list_of(value, kind, where):
    """``value`` if it is a JSON list of ``kind``; otherwise a ConfigError."""
    for x in check_kind(value, list, where):
        check_kind(x, kind, f"every entry of {where}")
    return value


def _fields(d, keys, where):
    """The values of ``keys`` in the object ``d``; a ConfigError names a missing one."""
    try:
        return tuple(d[key] for key in keys)
    except KeyError as exc:
        raise ConfigError(f"{where} is missing {exc}")


def _check_labels(pairs, what):
    """A ConfigError unless every ``(label, _)`` of ``pairs`` has a string
    label that no other pair uses: cells and aggregates are keyed by them."""
    seen = set()
    for label, _ in pairs:
        if check_kind(label, str, f"every {what} label") in seen:
            raise ConfigError(f"duplicate {what} label {label!r}")
        seen.add(label)


def _load_dataset(doc, config_dir):
    """``(name, IngestResult)`` of the log that a config's dataset section names."""
    d = _section(doc, "dataset")
    path, *dims = _fields(d, ("path", "users", "services", "slices"),
                          "dataset config")
    name = check_kind(d.get("name", "dataset"), str, "dataset.name")
    qos_type = d.get("qos_type", "response_time")
    if qos_type not in QOS_TYPES:
        raise ConfigError(f"qos_type must be one of {QOS_TYPES}, got {qos_type!r}")
    one_based = check_kind(d.get("one_based", False), bool, "dataset.one_based")
    data_path = _resolve_input(check_kind(path, str, "dataset.path"), config_dir)
    return name, parse_qos_log(data_path, dims, one_based=one_based)


def _write_partitions(parts, out_dir, name):
    """Write each partition of a split to ``<out_dir>/<partition>.txt``
    under a ``# <name> <partition> partition`` header, straight from the
    source through the partition's label mask; ``{partition: file name}``."""
    files = {}
    for part_name in PARTITIONS:
        file_path = Path(out_dir) / f"{part_name}.txt"
        write_qos_log(parts.source, file_path, header=f"{name} {part_name} partition",
                      where=parts.mask(part_name))
        files[part_name] = file_path.name
    return files


def _output(out_doc, key, default):
    """Path ``key`` of the ``output`` section, ``default`` when absent or null.

    An empty path names no file, so it is a ConfigError, except for a key
    whose default is empty: there ``""`` is the "off" value (``splits_dir``).
    """
    value = out_doc.get(key)
    if value is None:
        return default
    if not check_kind(value, str, f"output.{key}") and default:
        raise ConfigError(f"output.{key} must not be empty")
    return value


def _structure_from_dict(d) -> BlockStructure:
    kinds = [kind for kind in ("blocks", "cp", "tucker") if kind in d]
    if len(kinds) != 1:
        raise ConfigError("structure needs exactly one of 'blocks', 'cp' or "
                          f"'tucker', got {kinds}")
    if "blocks" in d:
        return BlockStructure(tuple(
            tuple(_list_of(b, numbers.Integral, "every structure.blocks entry"))
            for b in check_kind(d["blocks"], list, "structure.blocks")))
    if "cp" in d:
        return cp_structure(check_kind(d["cp"], numbers.Integral, "structure.cp"))
    return BlockStructure((tuple(_list_of(d["tucker"], numbers.Integral,
                                          "structure.tucker")),))


def _train_config_from_dict(d) -> TrainConfig:
    unknown = set(d) - {f.name for f in dataclasses.fields(TrainConfig)}
    if unknown:
        raise ConfigError(f"unknown train config fields: {sorted(unknown)}")
    return TrainConfig(**d)


def _grids_from_config(doc):
    if doc.get("grid") is None:
        return None
    keys = ("lambda1", "lambda2", "lambda3")
    grids = _fields(_section(doc, "grid"), keys, "grid config")
    return tuple(_list_of(g, numbers.Real, f"grid.{key}") for key, g in zip(keys, grids))


def _load_config(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return doc, path.parent


# -- commands ---------------------------------------------------------------

def cmd_ingest(args) -> int:
    try:
        ratios = tuple(float(x) for x in args.split.split(","))
        if len(ratios) != 3:
            raise ValueError
    except ValueError:
        raise ConfigError(f"--split must be three comma-separated ratios, got {args.split!r}")
    seed = args.seed if args.seed is not None else 0
    spec = SplitSpec(*ratios, seed=seed)
    name = args.name or Path(args.data).stem
    data_path = _resolve_input(args.data)
    result = parse_qos_log(data_path, (args.users, args.services, args.slices),
                           one_based=args.one_based)
    logger.info("ingested %s: %d records, %d kept, %d dropped",
                data_path, result.records, result.kept, result.dropped)
    counts = {key: getattr(result, key) for key in ("records", "kept", "dropped")}
    parts = split(result.tensor, spec)

    out_dir = Path(args.out)
    files = _write_partitions(parts, out_dir, name)
    write_split_manifest(
        parts, out_dir / "manifest.json",
        extra={
            "dataset": name,
            "qos_type": args.qos_type,
            "source": str(args.data),
            "seed": seed,
            "ratios": list(ratios),
            **counts,
            "files": files,
        },
        include_indices=args.manifest_indices,
    )
    logger.info("wrote partitions %s and manifest.json to %s",
                sorted(files.values()), out_dir)
    return 0


def cmd_train(args) -> int:
    doc, config_dir = _load_config(args.config)
    split_doc = _section(doc, "split")
    if not split_doc:
        raise ConfigError("train config needs a split section")
    spec = SplitSpec(*_fields(split_doc, PARTITIONS, "split config"),
                     seed=split_doc.get("seed", 0))
    structure = _structure_from_dict(_section(doc, "structure"))

    train_doc = dict(_section(doc, "train"))
    for key in ("max_iter", "tol", "seed", "lambda1", "lambda2", "lambda3"):
        value = getattr(args, key)
        if value is not None:
            train_doc[key] = value
    if args.no_bias:
        train_doc["bias_enabled"] = False
    cfg = _train_config_from_dict(train_doc)

    out_doc = _section(doc, "output")
    checkpoint_path = Path(args.checkpoint or _output(out_doc, "checkpoint", "model.json"))
    trajectory_path = Path(args.trajectory
                           or _output(out_doc, "trajectory_csv", "trajectory.csv"))
    splits_dir = _output(out_doc, "splits_dir", "")

    name, result = _load_dataset(doc, config_dir)
    parts = split(result.tensor, spec)
    del result
    train, validation = parts.train, parts.validation
    logger.info("training on %d entries (validation %d, test %d held out)",
                *parts.counts.values())
    # Written before the fit, so the source can go: a failed fit leaves them.
    if splits_dir:
        _write_partitions(parts, splits_dir, name)
    del parts  # the fit needs train and validation only

    _, model, report = grid_search(train, validation, structure,
                                   _grids_from_config(doc), cfg)

    save_model(model, checkpoint_path)
    write_csv(trajectory_path, ("epoch", "objective", "validation_rmse"),
              zip(range(1, report.epochs_run + 1), report.loss_trajectory,
                  report.validation_rmse_trajectory))
    logger.info("stopped on %s after %d epochs; checkpoint %s, trajectory %s",
                report.stop_reason, report.epochs_run, checkpoint_path,
                trajectory_path)
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(_resolve_input(args.checkpoint))
    result = parse_qos_log(_resolve_input(args.data), model.dims,
                           one_based=args.one_based)
    test_rmse, test_mae = rmse_and_mae(model, result.tensor)
    print(f"rmse={test_rmse:.6f} mae={test_mae:.6f}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(_resolve_input(args.checkpoint))
    cell = SparseTensor3.from_arrays(model.dims, [args.i], [args.j], [args.k], [0.0])
    print(format(predict_entries(model, *cell.ids)[0], "#.6g"))
    return 0


def cmd_benchmark(args) -> int:
    doc, config_dir = _load_config(args.config)
    split_specs = []
    for entry in check_kind(doc.get("splits", []), list, "splits"):
        label, *ratios = _fields(check_kind(entry, dict, "every splits entry"),
                                 ("label", *PARTITIONS),
                                 "split spec")
        split_specs.append((label, tuple(ratios)))
    if not split_specs:
        raise ConfigError("benchmark config needs a nonempty splits list")
    _check_labels(split_specs, "split")

    models_doc = doc.get("models")
    if models_doc is None:
        models_doc = [dict(label=label, **structure)
                      for label, structure in DEFAULT_BENCHMARK_MODELS]
    model_configs = []
    for entry in check_kind(models_doc, list, "models"):
        if "label" not in check_kind(entry, dict, "every models entry"):
            raise ConfigError("every model config needs a label")
        structure = _structure_from_dict(entry)
        model_configs.append((entry["label"], structure))
    _check_labels(model_configs, "model")

    repeats = (args.repeats if args.repeats is not None
               else check_kind(doc.get("repeats", 1), numbers.Integral, "repeats"))
    top_seed = (args.seed if args.seed is not None
                else check_kind(doc.get("seed", 0), numbers.Integral, "seed"))
    run_seeds = [derive_seed(top_seed, "run", r) for r in range(repeats)]
    cfg = _train_config_from_dict(_section(doc, "train"))
    grids = _grids_from_config(doc)

    out_doc = _section(doc, "output")
    detail_path = Path(args.out_detail
                       or _output(out_doc, "detail_csv", "benchmark_detail.csv"))
    aggregate_path = Path(args.out_aggregate
                          or _output(out_doc, "aggregate_csv", "benchmark_aggregate.csv"))

    name, result = _load_dataset(doc, config_dir)
    logger.info("benchmark source %s: %d observed entries",
                name, result.tensor.n_entries)
    report = run_benchmark(result.tensor, split_specs, model_configs, cfg,
                           repeats=run_seeds, grids=grids,
                           threads=max(1, args.threads))

    report.write_detail_csv(detail_path)
    report.write_aggregate_csv(aggregate_path)
    logger.info("wrote %d detail rows to %s and %d aggregate rows to %s",
                len(report.cells), detail_path, len(report.aggregates),
                aggregate_path)
    return 0


# -- argument parsing --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="only warnings and errors on stderr")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None,
                        help="top-level random seed (overrides config)")

    parser = argparse.ArgumentParser(
        prog="btdqos",
        description="Sparse tensor completion benchmarks for dynamic QoS prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[seeded],
                       help="parse a QoS log and write split partitions")
    p.add_argument("--data", required=True, help="QoS log file")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--services", type=int, required=True)
    p.add_argument("--slices", type=int, required=True)
    p.add_argument("--split", required=True,
                   help="train,validation,test ratios, e.g. 0.1,0.1,0.8")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--qos-type", default="response_time", choices=QOS_TYPES)
    p.add_argument("--name", default=None, help="dataset label")
    p.add_argument("--one-based", action="store_true",
                   help="input ids count from 1")
    p.add_argument("--manifest-indices", action="store_true",
                   help="list every entry index in the manifest")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", parents=[seeded],
                       help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--no-bias", action="store_true",
                   help="train without the linear bias vectors")
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--lambda3", type=float, default=None)
    p.add_argument("--checkpoint", default=None, help="checkpoint output path")
    p.add_argument("--trajectory", default=None, help="trajectory CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score a checkpoint on a test tensor file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="test partition log file")
    p.add_argument("--one-based", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[common],
                       help="predict one (i, j, k) cell from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", parents=[seeded],
                       help="run the cross-density model comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for benchmark cells")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--out-detail", default=None)
    p.add_argument("--out-aggregate", default=None)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (*VALIDATION_ERRORS, OSError) as exc:
        logger.error("error: %s", exc)
        return 2
    except BtdqosError as exc:
        logger.error("runtime error: %s", exc)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort guard
        logger.exception("unexpected failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
