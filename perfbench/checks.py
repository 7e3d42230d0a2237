"""Gated output checks of the workloads.

The gated checks are the harness's own oracle checks that pass at the
commit that defined this benchmark.  Each is evaluated twice: the entry
in the harness's report must say it passed, and the benchmark recomputes
it from the artifacts on disk, so a run whose written outputs are wrong
fails even when the in-memory verdict is right.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

# Classical ring of the limit-cycle model, |alpha|^2 = (amp^2 - g1^2) / (2 g2^2)
# = (0.15 - 0.1) / (2 * 0.01) for the registered rates.
RING_ABS_A_SQ = 2.5

# Sub-checks of the lattice experiment that fail at the defining commit
# (ROADMAP.md, open item 1).  Their values are recorded, never gated.
UNGATED_LATTICE = {
    "g12_decay": "value",
    "total_number_within_stderr_band": "worst_ratio",
    "imbalance_within_stderr_band": "worst_ratio",
}


def read_observables(path) -> dict:
    """Parse a ``t,obs_name,value,stderr`` CSV into {name: (times, values)}."""
    rows: dict[str, tuple[list, list]] = {}
    with open(path) as fh:
        if fh.readline().strip() != "t,obs_name,value,stderr":
            raise ValueError(f"{path}: not an observable CSV")
        for line in fh:
            if not line.strip():
                continue
            t, name, value, _ = line.rstrip("\n").split(",")
            ts, vs = rows.setdefault(name, ([], []))
            ts.append(float(t))
            vs.append(float(value))
    return {name: (np.array(ts), np.array(vs)) for name, (ts, vs) in rows.items()}


def _slope(t, v) -> float:
    return float(np.polyfit(t, v, 1)[0])


def _limit_cycle(doc, out: Path) -> list:
    tol = doc["tolerances"]
    sc = read_observables(out / "semiclassical" / "observables.csv")
    qm = read_observables(out / "master" / "observables.csv")
    t, phys = sc["min_eig_physicality"]
    _, a_sc = sc["alpha_cov"]
    _, a_q = qm["alpha_cov"]
    mask = (t > 0) & (t <= tol.get("t_short", 15.0))
    rel = float(np.max(np.abs(a_sc[mask] - a_q[mask]) / np.abs(a_q[mask])))
    wmask = t >= t[-1] - tol.get("slope_window", 30.0)
    s_sc, s_q = _slope(t[wmask], a_sc[wmask]), _slope(t[wmask], a_q[wmask])
    flat = tol.get("slope_flat_ratio", 0.2)
    return [
        {"check": "physicality_min_eig", "value": float(phys.min()),
         "passed": bool(phys.min() >= -1e-9)},
        {"check": "alpha_relative_error_short_times", "value": rel,
         "passed": rel <= tol["alpha_rel_short"]},
        {"check": "alpha_final_slopes", "value": [s_sc, s_q],
         "passed": bool(s_sc > 0 and abs(s_q) <= flat * s_sc)},
    ]


def _lattice(doc, out: Path) -> list:
    tol = doc["tolerances"]
    sc = read_observables(out / "semiclassical" / "observables.csv")
    jq = read_observables(out / "jumps" / "observables.csv")
    total = jq["total_number"][1]
    checks = [{"check": "total_number_monotone_decay", "value": float(np.max(np.diff(total))),
               "passed": bool(np.all(np.diff(total) < 0))}]
    for name in ("total_number", "imbalance"):
        diff = abs(float(sc[name][1][0] - jq[name][1][0]))
        checks.append({"check": f"{name}_initial_truncation_match", "value": diff,
                       "passed": diff <= tol.get("initial_match", 2e-3)})
    return checks


def _cat(doc, out: Path) -> list:
    tol = doc["tolerances"]
    dd = read_observables(out / "doubled" / "observables.csv")
    qm = read_observables(out / "master" / "observables.csv")
    _, cross = dd["cross_magnitude"]
    slack = tol.get("cross_monotone_slack", 1e-9)
    rise = float(np.max(np.diff(cross)))
    checks = [{"check": "cross_magnitude_monotone", "value": rise,
               "passed": rise <= slack * max(cross[0], 1e-300)}]
    t = dd["q_mean"][0]
    mask = t <= tol.get("t_short", 1.0) + 1e-12
    for name in ("q_mean", "p_mean"):
        sc_vals, q_vals = dd[name][1][mask], qm[name][1][mask]
        rel = float(np.sqrt(np.mean((sc_vals - q_vals) ** 2)) / np.sqrt(np.mean(q_vals**2)))
        checks.append({"check": f"{name}_rms_relative_error", "value": rel,
                       "passed": rel <= tol["moment_rms_rel"]})
    return checks


def _read_rows(path: Path, header: str, width: int):
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: unexpected header")
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows must have {width} fields")
    return [[float(x) for x in r] for r in rows]


def _portrait(doc, out: Path) -> list:
    port = doc["portrait"]
    field = _read_rows(out / "field.csv", "q,p,dq,dp,speed", 5)
    traj = _read_rows(out / "trajectories.csv", "trajectory,t,q,p", 4)
    n_field = port["n_q"] * port["n_p"]
    n_traj = len(port["starts"]) * port["n_out"]
    finite = all(math.isfinite(x) for row in field + traj for x in row)
    closer = []
    for idx, (q0, p0) in enumerate(port["starts"]):
        start = 0.5 * (q0 * q0 + p0 * p0) - RING_ABS_A_SQ
        ends = [r for r in traj if int(r[0]) == idx]
        if abs(start) < 1e-9:
            continue
        if not ends:
            closer.append(False)
            continue
        end = 0.5 * (ends[-1][2] ** 2 + ends[-1][3] ** 2) - RING_ABS_A_SQ
        closer.append(abs(end) < abs(start))
    return [
        {"check": "row_counts", "value": [len(field), len(traj)],
         "passed": len(field) == n_field and len(traj) == n_traj},
        {"check": "finite_values", "passed": finite},
        {"check": "starts_approach_ring", "value": closer, "passed": all(closer)},
    ]


_ARTIFACT_CHECKS = {
    "limit_cycle": _limit_cycle,
    "lattice_jumps": _lattice,
    "cat_anharmonic": _cat,
    "portrait_limit_cycle": _portrait,
}


def gated_checks(workload: str, doc: dict, out: Path, entries: list) -> list:
    """Gated checks of one run: artifact recomputation and harness verdict.

    ``entries`` are the harness report entries.  For experiments each gated
    check must also appear there with ``passed`` true; portraits report no
    oracle checks of their own.
    """
    checks = _ARTIFACT_CHECKS[workload](doc, Path(out))
    harness = {e.get("check"): e for e in entries}
    for c in checks:
        c["passed"] = bool(c["passed"])
        if WORKLOADS[workload]["kind"] == "experiment":
            entry = harness.get(c["check"])
            c["harness_passed"] = bool(entry is not None and entry.get("passed", False))
            c["passed"] = c["passed"] and c["harness_passed"]
    return checks


def ungated_values(workload: str, entries: list) -> dict:
    """C11 sub-check values of a lattice run, recorded without gating."""
    if workload != "lattice_jumps":
        return {}
    harness = {e.get("check"): e for e in entries}
    out = {"note": "ungated; fails at the defining commit, see ROADMAP.md open item 1"}
    for name, key in UNGATED_LATTICE.items():
        entry = harness.get(name, {})
        out[name] = {"value": entry.get(key), "passed": entry.get("passed")}
    return out
