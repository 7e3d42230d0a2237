"""semilind benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload limit_cycle --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition is a fresh interpreter
(worker.py) with BLAS pinned to BLAS_THREADS threads and its artifacts in
a temporary directory under .perfbench_runs/.  With ``--trace 0`` the
run repeats the workload until ``--seconds`` would be exceeded and reports
wall time and set-up time scaled to a reference machine speed, and the
median memory of its repetitions; with ``--trace 1`` it makes one
untraced and one traced repetition and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full result file,
with the environment and every repetition, goes to
.perfbench_runs/results/.  The exit code is 0 only when every repetition
passed its gated checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

# One BLAS thread on the 2-core machine the benchmark was defined on: the
# worker keeps one core and the other absorbs this process and the rest of
# the machine, which made repeated runs steadier than two threads.
BLAS_THREADS = 1

# Set-up time is a median over at least this many fresh interpreters.
MIN_SETUP_SAMPLES = 5

# Every run ends within this many seconds; a worker still going is killed.
RUN_DEADLINE_S = 170.0

# One unit of the probe (worker.probe) took about this long on the machine
# the benchmark was defined on, in its faster stretches.  ``wall_norm_s``
# and ``setup_s`` are times scaled to a machine on which a unit takes this
# long.
PROBE_UNIT_REF_S = 0.04

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "calls": "count", "nfev": "count", "s": "s", "us_per_call": "us",
    "s_per_frame": "s", "traj_per_s": "1/s", "jumps_per_traj": "count",
    "per_drift_x": "ratio", "artifact_bytes": "bytes", "artifact_files": "count",
    "overhead_s": "s", "wall_s": "s", "accounted_share": "ratio",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _environment(seed: int, workload: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
        "seed_used": workloads.WORKLOADS[workload]["seeded"],
    }


class Runner:
    """Starts worker processes for one benchmark run and keeps their results."""

    def __init__(self, workload: str, seed: int, smoke: bool, stamp: str):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.stamp = stamp
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.results: list[dict] = []
        self.raw: dict = {}
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def rep(self, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one worker to completion; returns its result document."""
        (RUNS / "tmp").mkdir(parents=True, exist_ok=True)
        k = len(self.results)
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=RUNS / "tmp"))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(trace)),
               "--out", str(tmp / "out"), "--result", str(tmp / "result.json")]
        if trace:
            (RUNS / "spans").mkdir(parents=True, exist_ok=True)
            cmd += ["--spans", str(RUNS / "spans" / f"{self.stamp}-{k}.json")]
        if setup_only:
            cmd.append("--setup-only")
        if self.smoke:
            cmd.append("--smoke")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - started))
            stderr, code = proc.stderr, proc.returncode
        except subprocess.TimeoutExpired:
            stderr, code = "worker timed out", None
        try:
            result = json.loads((tmp / "result.json").read_text())
        except (OSError, ValueError):
            result = {"passed": False}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        result.update(exit_code=code, setup_only=setup_only,
                      duration_s=time.monotonic() - started)
        if code != 0 or not result.get("passed"):
            result["passed"] = False
            result["stderr_tail"] = stderr[-4000:]
            print(f"  repetition {k} FAILED (exit {code})\n{stderr[-2000:]}", file=sys.stderr)
        self.results.append(result)
        return result

    @property
    def failed(self) -> int:
        return sum(not r["passed"] for r in self.results)

    def measure(self, seconds: float) -> dict:
        """Repeat the workload within ``seconds``; the end-to-end metrics.

        The machine is shared, and its speed drifts by up to a factor of
        about 1.5 over stretches of seconds to minutes, whatever the
        benchmark does.  Every worker therefore ends by timing a fixed
        probe, for at least a tenth of its wall time.  ``wall_norm_s`` is
        the mean wall time of the repetitions times PROBE_UNIT_REF_S over
        the run's mean time per probe unit: the wall time on a machine of
        reference speed.  ``setup_s`` is the median over the workers of
        set-up time scaled by the worker's own probe.  The probe runs
        nothing from the program, so a change to the program moves both
        as it moves the unscaled times.  Memory is a median.
        """
        start = time.monotonic()
        while True:
            r = self.rep()
            if not r["passed"]:
                break
            elapsed = time.monotonic() - start
            if elapsed + r["duration_s"] > seconds:
                break
        full = [r for r in self.results if r["passed"]]
        while self.failed == 0 and len(self.results) < MIN_SETUP_SAMPLES:
            self.rep(setup_only=True)
        if self.failed:
            return {}
        wall_s = statistics.fmean(r["wall_s"] for r in full)
        unit_s = (sum(r["probe"]["s"] for r in self.results)
                  / sum(r["probe"]["units"] for r in self.results))
        self.raw = {"wall_s": wall_s, "probe_unit_s": unit_s,
                    "setup_s": statistics.median(r["setup_s"] for r in self.results)}
        return {
            "wall_norm_s": wall_s * PROBE_UNIT_REF_S / unit_s,
            "setup_s": statistics.median(
                r["setup_s"] * PROBE_UNIT_REF_S * r["probe"]["units"] / r["probe"]["s"]
                for r in self.results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        }

    def measure_traced(self) -> dict:
        """One untraced and one traced repetition; the per-layer metrics."""
        plain = self.rep()
        if not plain["passed"]:
            return {}
        traced = self.rep(trace=True)
        if not traced["passed"]:
            return {}
        metrics = tracing.layer_metrics(traced["trace"], plain["wall_s"])
        metrics["harness.artifact_bytes"] = traced["artifacts"]["bytes"]
        metrics["harness.artifact_files"] = traced["artifacts"]["files"]
        return metrics


def run_workload(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    stamp = f"{workload}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    env = _environment(seed, workload)
    runner = Runner(workload, seed, smoke, stamp)
    values = runner.measure_traced() if trace else runner.measure(seconds)
    units = {m: per_layer_unit(m) for m in values} if trace else END_TO_END
    attempted, failed = len(runner.results), runner.failed
    summary = {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in values},
    }
    doc = {"workload": workload, "seconds": seconds, "trace": trace, "smoke": smoke,
           "environment": env, "failed_share": failed / attempted, "summary": summary,
           "unscaled": runner.raw, "repetitions": runner.results}
    if trace and values:
        unaccounted = 1.0 - values["trace.accounted_share"]
        doc["trace_accounting"] = {
            "unaccounted_share": unaccounted,
            "max_unaccounted_share": tracing.MAX_UNACCOUNTED_SHARE,
            "ok": unaccounted <= tracing.MAX_UNACCOUNTED_SHARE,
        }
    path = RUNS / "results" / f"{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1))
    _print_report(doc)
    print(f"  result file: {path}")
    return doc


def _print_report(doc: dict) -> None:
    summary = doc["summary"]
    env = doc["environment"]
    print(f"== {doc['workload']}  seed={env['seed']} (used: {env['seed_used']})  "
          f"nproc={env['nproc']} blas_threads={env['blas_threads']} "
          f"loadavg={env['loadavg_start'][0]:.2f} commit={env['git_commit'][:12]}")
    for name, m in summary["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, value in doc["unscaled"].items():
        print(f"  {'unscaled.' + name:<44} {value:>14.6g} s (not a declared metric)")
    print(f"  {'failed_share':<44} {doc['failed_share']:>14.6g} "
          f"({summary['failed']}/{summary['attempted']} repetitions)")
    reps = [r for r in doc["repetitions"] if not r["setup_only"]]
    for r in reps:
        for c in r.get("checks", []):
            if not c["passed"]:
                print(f"  GATED CHECK FAILED: {c['check']} value={c.get('value')}")
    ungated = reps[0].get("ungated") if reps else None
    if ungated:  # the same seed gives the same values in every repetition
        vals = ", ".join(f"{k}={v['value']}" for k, v in ungated.items() if k != "note")
        print(f"  ungated C11 values: {vals} ({ungated['note']})")
    acct = doc.get("trace_accounting")
    if acct:
        status = "ok" if acct["ok"] else "TOO LARGE"
        print(f"  trace accounting: unaccounted share {acct['unaccounted_share']:.4f} "
              f"(at most {acct['max_unaccounted_share']}) {status}")
        missing = [t for r in reps if r.get("trace") for t in r["trace"]["missing_targets"]]
        if missing:
            print(f"  trace targets not found: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    if not (ROOT / "src" / "semilind" / "__init__.py").is_file():
        print(f"error: no semilind sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.smoke and not set(names) <= set(workloads.SMOKE_OVERRIDES):
        parser.error(f"--smoke sizes exist only for {sorted(workloads.SMOKE_OVERRIDES)}")
    docs = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in names]
    if len(docs) == 1:
        summary = docs[0]["summary"]
    else:
        summary = {
            "correct": all(d["summary"]["correct"] for d in docs),
            "attempted": sum(d["summary"]["attempted"] for d in docs),
            "failed": sum(d["summary"]["failed"] for d in docs),
            "metrics": {f"{d['workload']}.{m}": v for d in docs
                        for m, v in d["summary"]["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
