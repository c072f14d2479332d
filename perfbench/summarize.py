"""Combine ``run.py --record`` files into one result per workload.

    python3 perfbench/summarize.py OUT.json RECORD.json [RECORD.json ...]

For every workload and metric it gives the median over the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median. Spreads of the
end-to-end metrics are compared with the bounds in ``BENCHMARK.json``. The
machine description of each workload's first run is kept with its result.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values), "spread": (q3 - q1) / abs(median) if median else 0.0}


def summarize(records):
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], "traced" if rec["trace"] else "untraced")].append(rec)
    out = {}
    for (workload, kind), recs in sorted(groups.items()):
        values = defaultdict(list)
        for rec in recs:
            for name, row in rec["summary"].items():
                values[name].append(row["median"])
        units = {name: row["unit"] for rec in recs for name, row in rec["summary"].items()}
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        metrics = {}
        for name, vals in values.items():
            metrics[name] = {"unit": units[name], **_stats(vals)}
            if name in bounds and kind == "untraced":
                metrics[name]["bound"] = bounds[name]
        out.setdefault(workload, {})[kind] = {
            "runs": len(recs),
            "seeds": [r["environment"]["seed"] for r in recs],
            "seconds": recs[0]["seconds"],
            "correct": all(r["correct"] for r in recs),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else None,
            "environment": recs[0]["environment"],
            "metrics": metrics,
        }
    return out


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(Path(p).read_text()) for p in argv[1:]]
    result = summarize(records)
    Path(argv[0]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    worst = 0.0
    for workload, kinds in result.items():
        for kind, res in kinds.items():
            print(f"{workload} ({kind}, {res['runs']} runs, error_rate {res['error_rate']:.3g} "
                  f"= {res['failed']}/{res['attempted']})")
            for name, m in res["metrics"].items():
                bound = m.get("bound")
                note = ""
                if bound is not None and name != "setup_s":
                    worst = max(worst, m["spread"] / bound)
                    note = f"  bound {bound}, spread/bound {m['spread'] / bound:.2f}"
                print(f"  {name:32s} {m['median']:12.6g} {m['unit']:6s} "
                      f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}{note}")
    print(f"largest spread/bound (setup_s excepted): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
