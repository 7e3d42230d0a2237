"""Summarize benchmark result files, or compare a parent with a change.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds result files written by run.py (its
.perfbench_runs/results/).  For every workload and end-to-end metric the
median, quartiles and run count are printed; traced runs add the median of
each per-layer metric.  Given a second directory, each end-to-end metric
also gets the change's median relative to the parent's, the bound from
BENCHMARK.json, the pairs the change won (runs paired in file order) and a
verdict:

* ``regression`` - the change's median is worse by more than the bound;
* ``unresolved`` - the parent's own spread (quartile distance over median)
  exceeds the bound, and not every change run beats every parent run;
* ``no regression`` - otherwise.

A gain needs more than ``no regression``: see README.md.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory) -> dict:
    """{(workload, trace): {metric: [values in file order]}} of full-size runs."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("smoke") or not doc["summary"]["correct"]:
            continue
        key = (doc["workload"], bool(doc["trace"]))
        for name, metric in doc["summary"]["metrics"].items():
            out[key][name].append(metric["value"])
    return out


def spread(values) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def summarize(runs: dict) -> None:
    for (workload, trace), metrics in sorted(runs.items()):
        print(f"== {workload} ({'traced' if trace else 'untraced'})")
        for name, values in metrics.items():
            med, q1, q3 = spread(values)
            print(f"  {name:<44} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)}")


def verdict(base: list, change: list, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0
    b_med, b_q1, b_q3 = spread(base)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - b_med) / b_med
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    if worse_by > bound:
        label = "regression"
    elif (b_q3 - b_q1) / b_med > bound and not sign * max(change) < sign * min(base):
        label = "unresolved"
    else:
        label = "no regression"
    return b_med, c_med, worse_by, wins, label


def compare(base: dict, change: dict) -> None:
    print("== parent vs change, end-to-end (worse_by > 0 means the change is worse)")
    for workload in sorted({w for w, t in base if not t}):
        b, c = base[(workload, False)], change.get((workload, False), {})
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            if not b.get(name) or not c.get(name):
                print(f"  {workload:<22} {name:<12} missing runs")
                continue
            b_med, c_med, worse_by, wins, label = verdict(
                b[name], c[name], metric["better"], metric["bound"])
            pairs = min(len(b[name]), len(c[name]))
            print(f"  {workload:<22} {name:<12} parent {b_med:<10.5g} change {c_med:<10.5g} "
                  f"worse_by {worse_by:+.4f} bound {metric['bound']} "
                  f"wins {wins}/{pairs} {label}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    runs = [load(d) for d in args]
    for k, r in enumerate(runs):
        if len(runs) == 2:
            print(f"#### {('parent', 'change')[k]}: {args[k]}")
        summarize(r)
    if len(runs) == 2:
        compare(*runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
