"""Fold run records into one trajectory entry.

    python3 bench/summarize.py --label NAME --out bench/trajectory/BENCH_NAME.json \
        bench/.work/results/*-trace*.json

Every record written by run.py contributes its metrics; the entry keeps,
per workload and metric, each run's value (in seed order), the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
quartile distance as a share of the median.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(values):
    values = [float(v) for v in values]
    med = statistics.median(values)
    out = {"n": len(values), "median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    p.add_argument("--out", required=True)
    p.add_argument("records", nargs="+")
    args = p.parse_args(argv)

    runs = {}
    environment = None
    for path in args.records:
        if path.endswith("-spans.json"):
            continue
        rec = json.loads(Path(path).read_text())
        environment = rec["environment"]
        mode = "per_layer" if rec["trace"] else "end_to_end"
        runs.setdefault(rec["workload"], {}).setdefault(mode, []).append(rec)

    entry = {"label": args.label, "environment": environment, "workloads": {}}
    for workload, modes in sorted(runs.items()):
        out = entry["workloads"][workload] = {}
        for mode, recs in modes.items():
            recs.sort(key=lambda r: r["seed"])
            metrics = {}
            for rec in recs:
                values = dict(rec["metrics"], **rec.get("workload_only", {}))
                for key, value in values.items():
                    metrics.setdefault(key, []).append(value)
            out[mode] = {
                "seeds": [r["seed"] for r in recs],
                "seconds": recs[0]["seconds"],
                "attempted": sum(r["attempted"] for r in recs),
                "failed": sum(r["failed"] for r in recs),
                "metrics": {k: summarize(v) for k, v in metrics.items()},
            }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
