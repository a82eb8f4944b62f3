"""Check that two source trees of ``btdqos`` write the same outputs.

For each tree, the script runs ``python3 -m btdqos`` in a fresh temporary
directory, with ``PYTHONPATH`` set to the tree's absolute ``src``
directory alone, on the bundled fixtures:

- ``train --config fixtures/train8.json``, with and without ``--no-bias``,
  each followed by ``evaluate`` of its checkpoint on its test partition
  and ``predict`` of two cells;
- ``ingest`` of ``fixtures/qos8.txt`` with ``--manifest-indices``;
- a two-repeat ``benchmark --threads 1`` on ``fixtures/qos8.txt``, from a
  config the script writes (two splits, two models, a two-point grid).

Every file the runs write and every command's stdout are compared byte
for byte, except that the benchmark's detail CSV is compared without its
``wall_time_s`` column, a measured time.  stderr is not compared: it
holds timings.  The script prints each difference and exits 1 if there
is any, or if a command fails in either tree; otherwise it exits 0.

Usage: ``python3 tools/same_outputs.py OLD_SRC NEW_SRC``, e.g. a checkout
of the parent commit's ``src`` against this tree's ``src``.
"""

import csv
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: The measured column that the detail CSV is compared without.
_TIMED_COLUMN = "wall_time_s"

BENCHMARK_CONFIG = {
    "dataset": {"name": "fixture8", "users": 8, "services": 8, "slices": 8,
                "path": str(FIXTURES / "qos8.txt")},
    "splits": [{"label": "a", "train": 0.5, "validation": 0.2, "test": 0.3},
               {"label": "b", "train": 0.3, "validation": 0.2, "test": 0.5}],
    "models": [{"label": "cp1", "cp": 1}, {"label": "btd1x222", "blocks": [[2, 2, 2]]}],
    "repeats": 2,
    "seed": 0,
    "train": {"max_iter": 200, "tol": 1e-5},
    "grid": {"lambda1": [0, 0.01], "lambda2": [0.01], "lambda3": [0.01]},
    "output": {"detail_csv": "detail.csv", "aggregate_csv": "aggregate.csv"},
}


def _without_timed_column(data: bytes) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or _TIMED_COLUMN not in rows[0]:
        return data
    drop = rows[0].index(_TIMED_COLUMN)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        row[:drop] + row[drop + 1:] for row in rows)
    return out.getvalue().encode("utf-8")


def outputs(src) -> dict:
    """What the runs on the tree ``src`` write: each file, by its path
    relative to the temporary directory, and each command's stdout, by
    ``stdout of <command>``, mapped to its bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def btdqos(cwd, *argv):
            cwd.mkdir(exist_ok=True)
            proc = subprocess.run([sys.executable, "-m", "btdqos", *argv],
                                  cwd=cwd, env=env, capture_output=True)
            command = f"{cwd.name}: btdqos {' '.join(argv)}"
            if proc.returncode:
                sys.exit(f"{src}: {command} exited {proc.returncode}\n"
                         f"{proc.stderr.decode(errors='replace')}")
            found[f"stdout of {command}"] = proc.stdout

        for name, flags in (("train", []), ("train-no-bias", ["--no-bias"])):
            run = work / name
            btdqos(run, "train", "--config", str(FIXTURES / "train8.json"), *flags)
            btdqos(run, "evaluate", "--checkpoint", "out/model.json",
                   "--data", "out/splits/test.txt")
            for cell in (("0", "0", "3"), ("7", "5", "1")):
                btdqos(run, "predict", "--checkpoint", "out/model.json",
                       *(x for pair in zip(("-i", "-j", "-k"), cell) for x in pair))
        btdqos(work / "ingest", "ingest", "--data", str(FIXTURES / "qos8.txt"),
               "--users", "8", "--services", "8", "--slices", "8",
               "--split", "0.7,0.1,0.2", "--out", "out", "--manifest-indices")
        bench = work / "benchmark"
        bench.mkdir()
        (bench / "config.json").write_text(json.dumps(BENCHMARK_CONFIG, indent=2))
        btdqos(bench, "benchmark", "--config", "config.json", "--threads", "1")

        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == BENCHMARK_CONFIG["output"]["detail_csv"]:
                data = _without_timed_column(data)
            found[path.relative_to(work).as_posix()] = data
    return found


def differences(old: dict, new: dict):
    """One message per output that is missing from one side or differs,
    each difference with the first lines of its diff."""
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            yield f"only in OLD: {key}"
        elif key not in old:
            yield f"only in NEW: {key}"
        elif old[key] != new[key]:
            diff = difflib.unified_diff(
                old[key].decode(errors="replace").splitlines(),
                new[key].decode(errors="replace").splitlines(),
                "OLD", "NEW", n=0, lineterm="")
            yield "\n".join([f"differs: {key}", *list(diff)[:12]])


def main(argv) -> int:
    if len(argv) != 3:
        sys.exit("usage: python3 tools/same_outputs.py OLD_SRC NEW_SRC")
    old, new = outputs(argv[1]), outputs(argv[2])
    found = list(differences(old, new))
    for message in found:
        print(message)
    print(f"{len(found)} of {len(old.keys() | new.keys())} outputs differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
