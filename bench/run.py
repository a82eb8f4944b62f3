"""Benchmark of the btdqos command line on WS-DREAM-shaped synthetic logs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Each workload generates a seeded planted-model QoS log plus its JSON
configs, then drives the real CLI as a closed loop: one client, one command
at a time, each command in a child process started from this process, until
``--seconds`` have passed.  Outputs are checked after every command
sequence.

With ``--trace 0`` (default) the end-to-end metrics are measured.  With
``--trace 1`` the same command sequence is replayed in this process through
``btdqos.cli.main``, once untraced and once with timing wrappers on the
library's module attributes (see tracer.py), and the per-layer metrics are
reported instead.

End-to-end metrics (medians over the iterations of a run):

    setup_s               s     generating the log and configs (median of
                                several generations)
    wall_s                s     wall time of the command sequence, interpreter
                                start-up included
    peak_rss_mb           MiB   peak resident memory of the largest command
    ingest_records_per_s  1/s   log records parsed by the commands / wall_s
    train_entry_epochs_per_s 1/s  training entries x epochs over all fits / wall_s
    test_rmse, test_mae   QoS   evaluate's scores (train-ws) or the mean over
                                the detail rows (bench-density)
    error_rate            ratio failed / attempted operations; a command
                                fails on a non-zero exit or a failed check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; its metrics are the
first four above with --trace 0 and the per-layer metrics of tracer.py with
--trace 1.  A full record of the run (environment, samples, every metric)
is written under ``bench/.work/results/``; a traced run also writes its
spans there.
"""

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORK = BENCH_DIR / ".work"
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402

#: Inputs are generated at least SETUP_REPS times and until SETUP_MIN_S
#: have been spent; setup_s is the median.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
#: Children still running this long after the run started are killed.
RUN_DEADLINE_S = 160.0
#: A new iteration starts only if, judged by the last one, it ends within
#: this multiple of --seconds.
OVERRUN = 1.25

WS_DIMS = (142, 4500, 64)
BTD_BLOCKS = [[2, 2, 2]] * 3
#: Fixed epoch counts: tol is tiny, so every fit runs to max_iter, which
#: the checks confirm.  Workload sizes and epoch counts keep one iteration
#: near 8 s on 2 cores, so that a 30 s run takes the median of about four:
#: on a shared host single iterations swing by a quarter.
TRAIN_EPOCHS = 6
BENCH_EPOCHS = 12

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PYTHONHASHSEED")

END_TO_END = {  # name -> unit, for --trace 0
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ingest_records_per_s": "1/s",
}
#: Printed by name and unit and kept in the run record, but left out of the
#: JSON line, which carries only metrics that every workload has and that
#: never read 0: ingest-ws trains nothing, and error_rate is 0 when all is
#: well (the line's attempted/failed carry it).
WORKLOAD_ONLY = {
    "train_entry_epochs_per_s": "1/s",
    "test_rmse": "QoS",
    "test_mae": "QoS",
    "error_rate": "ratio",
}

# -- workloads ---------------------------------------------------------------

class Workload:
    """Inputs, command sequence and output checks of one workload."""

    name = ""
    why = ""
    dims = WS_DIMS
    n_observed = 0

    def write_inputs(self, workdir, seed):
        planted = gen.generate(workdir / "log.txt", seed, self.dims,
                               self.n_observed)
        self.write_config(workdir, seed)
        return planted

    def write_config(self, workdir, seed):
        pass

    def commands(self, seed):
        raise NotImplementedError

    def check(self, workdir, planted, outputs):
        """Return (failures, facts) for one completed command sequence."""
        raise NotImplementedError


def _dataset(dims):
    return {"name": "synthetic", "qos_type": "response_time",
            "users": dims[0], "services": dims[1], "slices": dims[2],
            "path": "log.txt"}


def _read_log(path):
    """(ids as an (n, 3) int array, values) of a partition file."""
    rows = np.loadtxt(path, comments="#", ndmin=2)
    return rows[:, :3].astype(np.int64), rows[:, 3]


def _codes(ids, dims):
    return (ids[:, 0] * dims[1] + ids[:, 1]) * dims[2] + ids[:, 2]


def _planted_codes(planted):
    ids = np.stack((planted.user_ids, planted.service_ids, planted.time_ids), 1)
    return _codes(ids, planted.dims)


class TrainWS(Workload):
    name = "train-ws"
    why = ("One 50k-entry fit inside train + evaluate of a 0.5M-record log: "
           "trainer changes (epoch, predict_entries) show here, ingest "
           "changes only diluted.")
    n_observed = 500_000

    def write_config(self, workdir, seed):
        doc = {
            "dataset": _dataset(self.dims),
            "split": {"train": 0.1, "validation": 0.1, "test": 0.8, "seed": seed},
            "structure": {"blocks": BTD_BLOCKS},
            "train": {"lambda1": 0.01, "lambda2": 0.01, "lambda3": 0.01,
                      "max_iter": TRAIN_EPOCHS, "tol": 1e-12, "seed": seed},
            "output": {"checkpoint": "out/model.json",
                       "trajectory_csv": "out/trajectory.csv",
                       "splits_dir": "out/splits"},
        }
        (workdir / "train.json").write_text(json.dumps(doc, indent=1))

    def commands(self, seed):
        return [["train", "--config", "train.json", "--quiet"],
                ["evaluate", "--checkpoint", "out/model.json",
                 "--data", "out/splits/test.txt", "--quiet"]]

    def check(self, workdir, planted, outputs):
        failures = []
        out = workdir / "out"
        with (out / "trajectory.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(r["objective"]) for r in rows]
        if len(losses) != TRAIN_EPOCHS:
            failures.append(f"epochs_run {len(losses)} != {TRAIN_EPOCHS}")
        # Multiplicative updates never raise the objective; the slack only
        # absorbs rounding in the last place.
        if any(b > a * (1 + 1e-12) for a, b in zip(losses, losses[1:])):
            failures.append(f"objective increased: {losses}")

        ckpt = json.loads((out / "model.json").read_text())
        if ckpt.get("dims") != list(self.dims):
            failures.append(f"checkpoint dims {ckpt.get('dims')}")
        params = np.concatenate([np.ravel(np.asarray(ckpt[key], dtype=float))
                                 for key in ("cores", "user_factors",
                                             "service_factors", "time_factors",
                                             "user_bias", "service_bias",
                                             "time_bias")])
        if not (np.isfinite(params).all() and params.min() >= 0):
            failures.append("checkpoint has negative or non-finite parameters")

        fields = dict(kv.split("=") for kv in outputs[1].split())
        test_rmse, test_mae = float(fields["rmse"]), float(fields["mae"])
        train_ids, train_vals = _read_log(out / "splits" / "train.txt")
        val_ids, _ = _read_log(out / "splits" / "validation.txt")
        held = np.isin(_planted_codes(planted),
                       np.concatenate((_codes(train_ids, self.dims),
                                       _codes(val_ids, self.dims))))
        test_vals = planted.values[~held]
        baseline = float(np.sqrt(np.mean((test_vals - train_vals.mean()) ** 2)))
        if not test_rmse < baseline:
            failures.append(f"test_rmse {test_rmse} does not beat the training "
                            f"mean ({baseline})")
        facts = {"test_rmse": test_rmse, "test_mae": test_mae,
                 "records": planted.records + test_vals.size,
                 "entry_epochs": train_vals.size * len(losses)}
        return failures, facts


class IngestWS(Workload):
    name = "ingest-ws"
    why = ("ingest of a 1M-record log: data_io and sparse do all the work "
           "(parse, split, partition writes), so a trainer change must read "
           "no change here.")
    n_observed = 1_000_000

    def commands(self, seed):
        d = self.dims
        return [["ingest", "--data", "log.txt", "--users", str(d[0]),
                 "--services", str(d[1]), "--slices", str(d[2]),
                 "--split", "0.1,0.1,0.8", "--seed", str(seed),
                 "--out", "out", "--quiet"]]

    def check(self, workdir, planted, outputs):
        failures = []
        out = workdir / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("records", "dropped", "kept"):
            want = getattr(planted, key)
            if manifest.get(key) != want:
                failures.append(f"manifest {key} {manifest.get(key)} != {want}")
        codes, values = [], []
        for part in ("train", "validation", "test"):
            ids, vals = _read_log(out / f"{part}.txt")
            if manifest["counts"][part] != vals.size:
                failures.append(f"{part}: manifest count "
                                f"{manifest['counts'][part]} != {vals.size} rows")
            codes.append(_codes(ids, self.dims))
            values.append(vals)
        codes, values = np.concatenate(codes), np.concatenate(values)
        order = np.argsort(codes, kind="stable")
        codes, values = codes[order], values[order]
        if codes.size > 1 and not (np.diff(codes) > 0).all():
            failures.append("partitions are not disjoint")
        if not (np.array_equal(codes, _planted_codes(planted))
                and np.array_equal(values, planted.values)):
            failures.append("partitions do not re-parse to the generated tensor")
        return failures, {"records": planted.records}


class BenchDensity(Workload):
    name = "bench-density"
    why = ("benchmark --threads 2: 18 small fits of rank 1, (3,3,3) and "
           "3x(2,2,2) under grid search, so a change tuned for one large fit "
           "that slows these shows.")
    dims = (142, 500, 64)
    n_observed = 100_000
    splits = (("d05", 0.05, 0.05, 0.2), ("d10", 0.10, 0.05, 0.2))
    n_models = 3
    grid = {"lambda1": [0.01], "lambda2": [0.01, 0.1], "lambda3": [0.01]}

    def write_config(self, workdir, seed):
        doc = {
            "dataset": _dataset(self.dims),
            "splits": [{"label": label, "train": tr, "validation": va, "test": te}
                       for label, tr, va, te in self.splits],
            "repeats": 1,
            "seed": seed,
            "train": {"max_iter": BENCH_EPOCHS, "tol": 1e-12},
            "grid": self.grid,
            "output": {"detail_csv": "out/detail.csv",
                       "aggregate_csv": "out/aggregate.csv"},
        }
        (workdir / "bench.json").write_text(json.dumps(doc, indent=1))

    def commands(self, seed):
        return [["benchmark", "--config", "bench.json", "--threads", "2",
                 "--quiet"]]

    def check(self, workdir, planted, outputs):
        failures = []
        with (workdir / "out" / "detail.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        with (workdir / "out" / "aggregate.csv").open() as fh:
            aggregates = list(csv.DictReader(fh))
        cells = len(self.splits) * self.n_models
        if len(rows) != cells or len(aggregates) != cells:
            failures.append(f"{len(rows)} detail and {len(aggregates)} aggregate "
                            f"rows, want {cells} each")
        # The mean predictor's RMSE over the whole observed tensor.
        baseline = float(planted.values.std())
        rmses = [float(r["rmse"]) for r in rows]
        maes = [float(r["mae"]) for r in rows]
        for r, value in zip(rows, rmses):
            if not (math.isfinite(value) and value < baseline):
                failures.append(f"{r['dataset']}/{r['model']}: rmse {value} "
                                f"does not beat the mean predictor ({baseline})")
        if any(int(r["epochs"]) != BENCH_EPOCHS for r in rows):
            failures.append("a fit stopped before the epoch cap")
        grid_points = math.prod(len(v) for v in self.grid.values())
        # split() sizes a partition as the floor of its ratio share.
        entry_epochs = sum(math.floor(tr * planted.kept + 1e-9)
                           for _, tr, _, _ in self.splits)
        entry_epochs *= self.n_models * (grid_points + 1) * BENCH_EPOCHS
        facts = {"test_rmse": statistics.fmean(rmses) if rmses else math.nan,
                 "test_mae": statistics.fmean(maes) if maes else math.nan,
                 "records": planted.records, "entry_epochs": entry_epochs}
        return failures, facts


WORKLOADS = {w.name: w for w in (TrainWS(), IngestWS(), BenchDensity())}


# -- running commands ------------------------------------------------------------

def child_env():
    """The caller's environment with the absolute src path on PYTHONPATH.

    A relative entry would break children that run in another directory.
    """
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def run_cli(argv, workdir, deadline):
    """Run ``python -m btdqos argv`` through child.py.

    Returns (exit code, wall_s, peak_rss_mb, stdout).
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    peak_path = workdir / "peak_kib.txt"
    peak_path.unlink(missing_ok=True)
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(peak_path), *argv],
            cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    try:
        peak = int(peak_path.read_text()) / 1024.0
    except (OSError, ValueError):
        peak = math.nan
    return proc.returncode, wall, peak, out_path.read_text()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(workload, seed, reps, min_s=0.0):
    """Generate the inputs at least ``reps`` times and for ``min_s``.

    Returns (planted, workdir, per-generation times).
    """
    workdir = WORK / workload.name
    times = []
    while len(times) < reps or sum(times) < min_s:
        fresh_dir(workdir)
        start = time.perf_counter()
        planted = workload.write_inputs(workdir, seed)
        times.append(time.perf_counter() - start)
    return planted, workdir, times


def checked(workload, workdir, planted, outputs):
    try:
        return workload.check(workdir, planted, outputs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output check could not run: {exc!r}"], {}


def measure(workload, seed, seconds, started):
    """Closed loop of CLI command sequences; returns the run record."""
    planted, workdir, setup_times = setup(workload, seed, SETUP_REPS,
                                            SETUP_MIN_S)
    deadline = started + RUN_DEADLINE_S
    samples, failures = [], []
    attempted = failed = 0
    first_quality = None
    loop_start = time.monotonic()
    while True:
        iter_start = time.monotonic()
        shutil.rmtree(workdir / "out", ignore_errors=True)
        walls, rss, outputs, ok = [], [], [], True
        for argv in workload.commands(seed):
            attempted += 1
            code, wall, peak, stdout = run_cli(argv, workdir, deadline)
            walls.append(wall)
            rss.append(peak)
            outputs.append(stdout)
            if code != 0:
                failed += 1
                failures.append(f"{argv[0]} exited with {code}")
                ok = False
                break
        if ok:
            problems, facts = checked(workload, workdir, planted, outputs)
            quality = (facts.get("test_rmse"), facts.get("test_mae"))
            if first_quality is None:
                first_quality = quality
            elif quality != first_quality:
                problems.append(f"quality {quality} differs from the first "
                                f"iteration's {first_quality}")
            if problems:
                failed += 1
                failures.extend(problems)
            else:
                samples.append({"wall_s": sum(walls), "peak_rss_mb": max(rss),
                                **facts})
        elapsed = time.monotonic() - loop_start
        last = time.monotonic() - iter_start
        if (elapsed >= seconds or elapsed + last > OVERRUN * seconds
                or time.monotonic() + last > deadline or not ok):
            break

    metrics = {"setup_s": statistics.median(setup_times)}
    workload_only = {}
    if samples:
        med = lambda key: statistics.median(s[key] for s in samples)
        metrics["wall_s"] = med("wall_s")
        metrics["peak_rss_mb"] = med("peak_rss_mb")
        metrics["ingest_records_per_s"] = statistics.median(
            s["records"] / s["wall_s"] for s in samples)
        if "entry_epochs" in samples[0]:
            workload_only["train_entry_epochs_per_s"] = statistics.median(
                s["entry_epochs"] / s["wall_s"] for s in samples)
        if "test_rmse" in samples[0]:
            workload_only["test_rmse"] = med("test_rmse")
            workload_only["test_mae"] = med("test_mae")
    workload_only["error_rate"] = failed / attempted if attempted else 0.0
    return {
        "correct": not failures and bool(samples),
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics, "workload_only": workload_only,
        "samples": samples, "setup_samples": setup_times,
        "expected": planted.counts(),
    }


# -- traced replay ---------------------------------------------------------------

def replay(workload, seed, workdir, tracer, run_id, threads):
    """Run the command sequence in-process through ``btdqos.cli.main``.

    ``threads`` replaces the value of a ``--threads`` flag when not None.
    Returns (wall_s, exit codes, captured standard output per command).
    """
    from btdqos import cli

    codes, outputs = [], []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        shutil.rmtree("out", ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        for argv in workload.commands(seed):
            if threads is not None:
                argv = [threads if prev == "--threads" else arg
                        for prev, arg in zip([None] + argv, argv)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    codes.append(cli.main(argv))
                else:
                    tracer.run = run_id
                    codes.append(tracer.record("cli.main", cli.main, argv))
            outputs.append(buf.getvalue())
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return wall, codes, outputs


def traced_run(workload, seed):
    """Untraced and traced in-process replays; returns the run record.

    Layer metrics and trace_overhead come from single-threaded replays, so
    that span times hold no waits for the interpreter lock; a workload with
    a ``--threads`` flag is also replayed traced at its own thread count for
    evaluation.thread_speedup.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    planted, workdir, _ = setup(workload, seed, 1)
    threaded = "--threads" in workload.commands(seed)[0]
    single = "1" if threaded else None
    tracer = tracing.Tracer()
    record = {"attempted": 0, "failed": 0, "failures": []}

    def play(run_id, threads, traced=True):
        wall, codes, outputs = replay(workload, seed, workdir,
                                      tracer if traced else None, run_id, threads)
        record["attempted"] += len(codes)
        if any(codes):
            problems = [f"exit codes {codes}"]
        else:
            problems, _ = checked(workload, workdir, planted, outputs)
        if problems:
            record["failed"] += 1
            record["failures"].extend(f"{run_id}: {p}" for p in problems)
        return wall

    plain_wall = play("untraced", single, traced=False)
    with tracer.installed():
        traced_wall = play("traced", single)
        if threaded:
            play("traced-threads", None)

    def bench_s(run):
        return sum(s.duration for s in tracer.spans
                   if s.run == run and s.name == "evaluation.run_benchmark")

    metrics = tracing.layer_metrics(tracer.spans, "traced")
    metrics["evaluation.thread_speedup"] = (
        bench_s("traced") / bench_s("traced-threads") if threaded else 0.0)
    metrics["trace_overhead"] = traced_wall / plain_wall
    record.update(correct=not record["failures"], metrics=metrics,
                  walls={"untraced": plain_wall, "traced": traced_wall},
                  expected=planted.counts(), spans=tracer.dump())
    return record


# -- reporting ---------------------------------------------------------------------

def environment():
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        blas = {lib: {k: v for k, v in deps.get(lib, {}).items()
                      if k in ("name", "version", "openblas configuration")}
                for lib in ("blas", "lapack")}
    except TypeError as exc:  # numpy before 1.25 has no dict mode
        blas = {"error": repr(exc)}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def report(name, record, trace):
    print(f"== {name}: {record['attempted']} operations, {record['failed']} failed")
    for problem in record["failures"]:
        print(f"   FAILED {problem}")
    if trace:
        units = tracing.PER_LAYER
    else:
        units = dict(END_TO_END, **WORKLOAD_ONLY)
        n = len(record["samples"])
        print(f"   (medians of {n} iterations, "
              f"{len(record['setup_samples'])} set-ups)")
    values = dict(record["metrics"], **record.get("workload_only", {}))
    for key, value in values.items():
        print(f"   {key:42s} {value:16.6g} {units[key]}")
    if not trace:
        print(f"   error_rate base: {record['attempted']} operations")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "btdqos" / "__init__.py").is_file():
        print(f"error: the btdqos sources are missing ({SRC / 'btdqos'})",
              file=sys.stderr)
        return 2
    # A terminated run unwinds through run_cli, which stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = environment()
    blas = env["blas"].get("blas") or {}
    print(f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {blas.get('name')} {blas.get('version')}, "
          f"thread env {env['thread_env'] or 'unset'}")
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            record = traced_run(workload, args.seed)
            spans = record.pop("spans")
            (results / f"{name}-seed{args.seed}-spans.json").write_text(
                json.dumps(spans))
        else:
            record = measure(workload, args.seed, args.seconds, started)
            started = time.monotonic()
        record.update(workload=name, why=workload.why, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, environment=env)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        report(name, record, args.trace)
        units = tracing.PER_LAYER if args.trace else END_TO_END
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in record["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
