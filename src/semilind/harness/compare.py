"""Cross-solver comparison metrics and the observable CSV format.

Observable files are long-format CSV: ``t,obs_name,value,stderr`` with the
stderr field empty for deterministic solvers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ObservableSeries",
    "ComparisonReport",
    "write_observables",
    "read_observables",
    "compare_series",
    "compare_dirs",
]


@dataclass(frozen=True)
class ObservableSeries:
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None


def write_observables(series: dict, path) -> None:
    lines = ["t,obs_name,value,stderr"]
    for name in sorted(series):
        s = series[name]
        for k, t in enumerate(s.times):
            err = "" if s.stderr is None else repr(float(s.stderr[k]))
            lines.append(f"{float(t)!r},{name},{float(s.values[k])!r},{err}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def read_observables(path) -> dict:
    rows = Path(path).read_text().splitlines()
    if not rows or rows[0] != "t,obs_name,value,stderr":
        raise ValueError(f"{path}: not an observable CSV")
    data: dict[str, list] = {}
    for row in rows[1:]:
        if not row.strip():
            continue
        t_str, name, val_str, err_str = row.split(",")
        data.setdefault(name, []).append(
            (float(t_str), float(val_str), float(err_str) if err_str else None)
        )
    out = {}
    for name, entries in data.items():
        entries.sort(key=lambda e: e[0])
        times = np.array([e[0] for e in entries])
        values = np.array([e[1] for e in entries])
        if all(e[2] is not None for e in entries):
            stderr = np.array([e[2] for e in entries])
        else:
            stderr = None
        out[name] = ObservableSeries(times=times, values=values, stderr=stderr)
    return out


@dataclass
class ComparisonReport:
    """Per-observable error metrics with pass/fail against tolerances."""

    entries: list = field(default_factory=list)
    runtime_s: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.get("passed", True) for e in self.entries)

    def add(self, **entry):
        self.entries.append(entry)

    def to_dict(self):
        return {
            "passed": self.passed,
            "entries": self.entries,
            "runtime_s": self.runtime_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def compare_series(a: ObservableSeries, b: ObservableSeries):
    """Sup and RMS difference of two series on their common time range.

    b is linearly resampled onto a's grid inside the overlap; disjoint
    ranges are an error.
    """
    t0 = max(a.times[0], b.times[0])
    t1 = min(a.times[-1], b.times[-1])
    if t1 <= t0:
        raise ValueError("series have disjoint time ranges")
    mask = (a.times >= t0 - 1e-12) & (a.times <= t1 + 1e-12)
    ta = a.times[mask]
    va = a.values[mask]
    vb = np.interp(ta, b.times, b.values)
    diff = va - vb
    return {
        "sup_error": float(np.max(np.abs(diff))),
        "rms_error": float(np.sqrt(np.mean(diff**2))),
        "n_points": int(ta.size),
    }


def _check_tolerances(tolerances) -> None:
    """A tolerance document maps each observable name to {"sup": x, "rms": y},
    either key optional, with finite numbers x and y."""
    if not isinstance(tolerances, dict):
        raise ValueError(f"tolerances must map observable names to bounds, got {tolerances!r}")
    for name, tol in tolerances.items():
        if not isinstance(tol, dict):
            raise ValueError(f"tolerances[{name!r}] must map 'sup' or 'rms' to a number, "
                             f"got {tol!r}")
        bad_keys = sorted(set(tol) - {"sup", "rms"})
        if bad_keys:
            raise ValueError(f"tolerances[{name!r}]: unknown tolerance metrics {bad_keys}; "
                             f"use 'sup' or 'rms'")
        for key, bound in tol.items():
            number = isinstance(bound, (int, float)) and not isinstance(bound, bool)
            if not (number and math.isfinite(bound)):
                raise ValueError(f"tolerances[{name!r}][{key!r}] must be a finite number, "
                                 f"got {bound!r}")


def compare_dirs(dir_a, dir_b, tolerances: dict) -> ComparisonReport:
    """Compare observables.csv files from two solver directories.

    `tolerances` maps an observable common to both directories to bounds
    {"sup": x, "rms": y}; any other observable name or metric key, or a
    bound that is not a finite number, raises before anything is compared.
    """
    _check_tolerances(tolerances)
    sa = read_observables(Path(dir_a) / "observables.csv")
    sb = read_observables(Path(dir_b) / "observables.csv")
    common = sorted(set(sa) & set(sb))
    if not common:
        raise ValueError("no common observables to compare")
    unmatched = sorted(set(tolerances) - set(common))
    if unmatched:
        raise ValueError(f"tolerances name no common observable: {unmatched}; "
                         f"common observables are {common}")
    report = ComparisonReport()
    for name in common:
        metrics = compare_series(sa[name], sb[name])
        tol = tolerances.get(name, {})
        passed = all(metrics[f"{key}_error"] <= bound for key, bound in tol.items())
        report.add(observable=name, **metrics, tolerance=tol, passed=passed)
    return report
