"""Fast tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from semilind.harness.compare import ObservableSeries, write_observables  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"nproc", "loadavg_start", "blas_threads", "git_commit", "seed", "seed_used"}
VERSION_KEYS = {"python", "numpy", "scipy", "numpy_openblas", "scipy_openblas"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(proc) -> dict:
    line = next(ln for ln in proc.stdout.splitlines() if ln.strip().startswith("result file:"))
    return json.loads(Path(line.split(":", 1)[1].strip()).read_text())


def test_spec_lists_the_workloads_and_end_to_end_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_untraced_schema():
    proc = bench("--workload", "portrait_limit_cycle", "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == RESULT_KEYS
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= run.MIN_SETUP_SAMPLES
    assert {n: m["unit"] for n, m in out["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())
    doc = result_file(proc)
    assert set(doc["environment"]) == ENV_KEYS
    assert doc["environment"]["seed"] == 3 and not doc["environment"]["seed_used"]
    assert doc["failed_share"] == 0
    reps = doc["repetitions"]
    assert all(r["probe"]["units"] >= 4 and r["probe"]["s"] > 0 for r in reps)
    raw = doc["unscaled"]
    assert out["metrics"]["wall_norm_s"]["value"] == pytest.approx(
        raw["wall_s"] * run.PROBE_UNIT_REF_S / raw["probe_unit_s"])
    assert out["metrics"]["setup_s"]["value"] == pytest.approx(statistics.median(
        r["setup_s"] * run.PROBE_UNIT_REF_S * r["probe"]["units"] / r["probe"]["s"]
        for r in reps))
    full = [r for r in doc["repetitions"] if not r["setup_only"]]
    assert full and set(full[0]["versions"]) == VERSION_KEYS
    assert {c["check"] for c in full[0]["checks"]} == {
        "row_counts", "finite_values", "starts_approach_ring"}


def test_smoke_traced_layer_metrics():
    proc = bench("--workload", "cat_anharmonic", "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == RESULT_KEYS and out["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in out["metrics"].items()} == units
    values = {n: m["value"] for n, m in out["metrics"].items()}
    assert values["doubled.build_k.calls"] == 1
    assert values["doubled.nfev"] > 0 and values["quantum.master.nfev"] > 0
    assert values["symbols.PolyBatch.calls"] >= values["doubled.nfev"]
    assert values["quantum.wigner_of_density.s_per_frame"] > 0
    assert values["quantum.quantum_jump.s"] == 0
    doc = result_file(proc)
    assert doc["trace_accounting"]["ok"]
    traced = next(r for r in doc["repetitions"] if r.get("trace"))
    assert traced["trace"]["missing_targets"] == []
    self_total = sum(values[f"self.{layer}.s"] for layer in ("symbols", "gaussian",
                     "semiclassical", "doubled", "quantum", "harness"))
    assert self_total == pytest.approx(values["trace.wall_s"] + values["harness.config.s"],
                                       rel=1e-6)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("--workload", "cat_anharmonic", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- gated checks against synthetic artifacts ------------------------------------


def series(t, **values):
    return {name: ObservableSeries(t, np.asarray(v, dtype=float)) for name, v in values.items()}


def limit_cycle_artifacts(out: Path, corrupt: bool):
    t = np.linspace(0.0, 150.0, 301)
    a_sc = 1.0 + 0.1 * t
    phys = np.full(t.size, 0.1)
    if corrupt:
        phys[100] = -0.5
    write_observables(series(t, alpha_cov=a_sc, min_eig_physicality=phys),
                      out / "semiclassical" / "observables.csv")
    write_observables(series(t, alpha_cov=1.0 + 0.1 * np.minimum(t, 20.0)),
                      out / "master" / "observables.csv")
    return ["physicality_min_eig", "alpha_relative_error_short_times", "alpha_final_slopes"]


def lattice_artifacts(out: Path, corrupt: bool):
    t = np.linspace(0.0, 2.0, 41)
    total = 20.0 * np.exp(-t)
    jumps_total = total.copy()
    if corrupt:
        jumps_total[20] = jumps_total[19] + 0.1
    imb = np.zeros_like(t)
    write_observables(series(t, total_number=total, imbalance=imb),
                      out / "semiclassical" / "observables.csv")
    write_observables(series(t, total_number=jumps_total, imbalance=imb),
                      out / "jumps" / "observables.csv")
    return ["total_number_monotone_decay", "total_number_initial_truncation_match",
            "imbalance_initial_truncation_match"]


def cat_artifacts(out: Path, corrupt: bool):
    t = np.linspace(0.0, 2.5, 126)
    cross = np.exp(-t)
    if corrupt:
        cross[60] = 2.0
    q, p = 4.0 * np.cos(t), -4.0 * np.sin(t)
    write_observables(series(t, cross_magnitude=cross, q_mean=q, p_mean=p),
                      out / "doubled" / "observables.csv")
    write_observables(series(t, q_mean=q, p_mean=p), out / "master" / "observables.csv")
    return ["cross_magnitude_monotone", "q_mean_rms_relative_error", "p_mean_rms_relative_error"]


@pytest.mark.parametrize(
    "workload, make",
    [("limit_cycle", limit_cycle_artifacts), ("lattice_jumps", lattice_artifacts),
     ("cat_anharmonic", cat_artifacts)],
)
def test_corrupted_series_fails_its_gated_check(tmp_path, workload, make):
    doc = workloads.config_dict(workload, seed=1)
    names = make(tmp_path / "clean", corrupt=False)
    make(tmp_path / "bad", corrupt=True)
    entries = [{"check": n, "passed": True} for n in names]
    clean = checks.gated_checks(workload, doc, tmp_path / "clean", entries)
    assert [c["check"] for c in clean] == names and all(c["passed"] for c in clean)
    bad = checks.gated_checks(workload, doc, tmp_path / "bad", entries)
    assert [c["passed"] for c in bad].count(False) == 1
    # a harness verdict of failure fails the check even with clean artifacts
    entries[0]["passed"] = False
    assert not checks.gated_checks(workload, doc, tmp_path / "clean", entries)[0]["passed"]


def test_portrait_non_finite_value_fails(tmp_path):
    doc = workloads.config_dict("portrait_limit_cycle", seed=1, smoke=True)
    port = doc["portrait"]
    field = ["q,p,dq,dp,speed"] + ["0.0,0.0,1.0,1.0,1.4"] * (port["n_q"] * port["n_p"])
    rows = ["trajectory,t,q,p"]
    for idx, (q0, p0) in enumerate(port["starts"]):
        for k in range(port["n_out"]):
            shrink = math.sqrt(5.0) / math.hypot(q0, p0)
            w = k / (port["n_out"] - 1)
            rows.append(f"{idx},{k},{q0 * (1 - w + w * shrink)},{p0 * (1 - w + w * shrink)}")
    (tmp_path / "field.csv").write_text("\n".join(field) + "\n")
    (tmp_path / "trajectories.csv").write_text("\n".join(rows) + "\n")
    assert all(c["passed"] for c in checks.gated_checks("portrait_limit_cycle", doc, tmp_path, []))
    rows[5] = rows[5].rsplit(",", 1)[0] + ",nan"
    (tmp_path / "trajectories.csv").write_text("\n".join(rows) + "\n")
    result = {c["check"]: c["passed"]
              for c in checks.gated_checks("portrait_limit_cycle", doc, tmp_path, [])}
    assert not result["finite_values"]
