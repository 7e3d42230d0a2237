"""One repetition of a workload in a fresh interpreter.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 \
        --out DIR --result FILE [--spans FILE] [--setup-only] [--smoke]

It times set-up (import of ``semilind.harness``, config parsing, model
build), calls the harness's public entry point with its artifacts under
DIR, checks the artifacts and writes one JSON document to FILE.  Only the
standard library is imported before the set-up clock starts.  Last, it
times a fixed probe (``probe``), which measures how fast the machine runs
at that moment: after the entry-point call and the memory reading, or
after set-up in a set-up-only worker.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def _artifacts(root: Path) -> dict:
    files = [p for p in root.rglob("*") if p.is_file()]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}


def _versions() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config),
        "scipy_openblas": blas(scipy.show_config),
    }


# The probe after a repetition runs for at least this share of the
# repetition's wall time, so that a long repetition gets a long sample of
# the machine's speed, and for at least PROBE_MIN_UNITS units.
PROBE_SHARE = 0.1
PROBE_MIN_UNITS = 4


def probe(min_s: float = 0.0) -> dict:
    """Repeat a fixed unit of work for at least ``min_s`` seconds; time it.

    A unit is an interpreter loop, 450 products of 56x56 complex matrices
    and 50 of 160x160 real ones, standing for the workloads' kinds of
    work: symbolic and integrator glue, 56-level density-matrix products
    and larger dense linear algebra.  The probe calls nothing from
    ``semilind``, so a change to the program cannot move it.  Returns the
    number of units and the seconds they took, in all and per part.
    """
    import numpy as np

    a = (np.arange(56 * 56).reshape(56, 56) % 7 - 3) * 0.1 + 0.05j
    c = a.T.copy()
    b = np.empty_like(a)
    m = np.arange(160 * 160, dtype=float).reshape(160, 160) % 11 * 0.01
    r = np.empty_like(m)
    parts = {"python_s": 0.0, "matmul56_s": 0.0, "matmul160_s": 0.0}
    units = 0
    start = time.perf_counter()
    while units < PROBE_MIN_UNITS or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(75_000):
            k = i & 1023
            acc[k] = acc.get(k, 0) + i % 7
        t1 = time.perf_counter()
        for _ in range(450):
            np.matmul(a, c, out=b)
        t2 = time.perf_counter()
        for _ in range(50):
            np.matmul(m, m, out=r)
        t3 = time.perf_counter()
        parts["python_s"] += t1 - t0
        parts["matmul56_s"] += t2 - t1
        parts["matmul160_s"] += t3 - t2
        units += 1
    return {"units": units, "s": sum(parts.values()), **parts}


def run(args) -> dict:
    tracer = tracing.Tracer(run_id=Path(args.result).stem) if args.trace else None
    t0 = time.perf_counter()
    from semilind.harness.config import ExperimentConfig
    from semilind.harness.experiments import run_experiment, run_portrait

    import_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.install()
    doc = workloads.config_dict(args.workload, args.seed, smoke=args.smoke)
    parse = ExperimentConfig.from_dict
    config = (tracer.wrap("harness.config", parse) if tracer else parse)(doc)
    config.model.build(config.hbar)
    setup_s = time.perf_counter() - t0
    out = {"workload": args.workload, "import_s": import_s, "setup_s": setup_s}
    if args.setup_only:
        out.update(passed=True, probe=probe())
        return out

    portrait = workloads.WORKLOADS[args.workload]["kind"] == "portrait"
    entry = run_portrait if portrait else run_experiment
    if tracer is not None:
        entry = tracer.wrap(tracing.ROOT, entry)
    t1, c1 = time.perf_counter(), time.process_time()
    report, outdir = entry(config, root=args.out)
    wall_s = time.perf_counter() - t1
    cpu_s = time.process_time() - c1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["probe"] = probe(PROBE_SHARE * wall_s)

    import checks as gated

    checks = gated.gated_checks(args.workload, doc, outdir, report.entries)
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        checks=checks,
        passed=all(c["passed"] for c in checks),
        ungated=gated.ungated_values(args.workload, report.entries),
        artifacts=_artifacts(Path(args.out)),
        versions=_versions(),
    )
    if tracer is not None:
        out["trace"] = tracing.summarize(tracer.spans, tracer.counts)
        out["trace"]["missing_targets"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run(args)
        code = 0
    except Exception:  # reported to run.py, which counts the repetition as failed
        result = {"workload": args.workload, "passed": False, "error": traceback.format_exc()}
        code = 1
    result["pid"] = os.getpid()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
