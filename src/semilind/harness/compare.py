"""Every artifact format of the harness, and the cross-solver comparison.

A table is comma-separated: a header of column names, then one line per row,
each float as its shortest round-trip ``repr``.  `csv_text` builds each one:

* ``observables.csv``: ``t,obs_name,value,stderr``, stderr empty for
  deterministic solvers (`write_observables`, `read_observables`);
* ``trajectory.csv``: ``t``, centre ``X_i``, width upper triangle ``G_ij``,
  ``min_eig_physicality`` (`trajectory_to_csv`);
* ``component_<i>.csv``: ``t``, ``X_i``, ``Y_i``, ``ReB_ij``, ``ImB_ij``,
  ``re_alpha,im_alpha,weight_re,weight_im`` (`component_csv`);
* a portrait's ``field.csv`` (``q,p,dq,dp,speed``) and ``trajectories.csv``
  (``trajectory,t,q,p``, with an integer trajectory index).

`write_text` writes these, ``report.json`` and ``config.json``.  A Wigner
frame is one ``wigner_t<t>.npy`` (`frame_name`, `write_frame`): the
``values[i_q, i_p]`` array in NumPy's ``.npy`` format, with its dtype, shape
and every bit of every value.  Its axes are those of the ``grid`` section of
the run's ``config.json`` (``GridSpec(**grid).axes()``).
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
    "csv_text",
    "write_text",
    "frame_name",
    "write_frame",
    "write_observables",
    "read_observables",
    "trajectory_to_csv",
    "component_csv",
    "compare_series",
    "compare_dirs",
]


@dataclass(frozen=True)
class ObservableSeries:
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None


def csv_text(header, rows) -> str:
    """CSV text of a header and rows of Python floats, ints and strings; the
    ``str`` of a Python float (from ``ndarray.tolist()``) is its ``repr``."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """Write one artifact, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def frame_name(t: float) -> str:
    """File name of the Wigner frame at output time t."""
    return f"wigner_t{t:g}.npy"


def write_frame(path, values: np.ndarray) -> None:
    """Write one Wigner frame as ``.npy``, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.save(path, values, allow_pickle=False)


def write_observables(series: dict, path) -> None:
    rows = []
    for name in sorted(series):
        s = series[name]
        times = np.asarray(s.times, dtype=float).tolist()
        values = np.asarray(s.values, dtype=float).tolist()
        errs = [""] * len(times) if s.stderr is None else np.asarray(s.stderr, dtype=float).tolist()
        rows.extend(zip(times, [name] * len(times), values, errs))
    write_text(path, csv_text(["t", "obs_name", "value", "stderr"], rows))


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


def trajectory_to_csv(traj) -> str:
    """A `Trajectory` of Gaussian states as ``trajectory.csv``."""
    dim = traj.x.shape[1]
    iu = np.triu_indices(dim)
    header = (["t"] + [f"X_{i+1}" for i in range(dim)]
              + [f"G_{i+1}{j+1}" for i, j in zip(*iu)] + ["min_eig_physicality"])
    table = np.column_stack([traj.times, traj.x, traj.g[:, iu[0], iu[1]],
                             traj.min_physicality])
    return csv_text(header, table.tolist())


def component_csv(series, idx: int) -> str:
    """Component ``idx`` of a `SuperpositionSeries` as ``component_<idx>.csv``,
    read from its stacked arrays."""
    n2 = series.z.shape[-1] // 2
    iu = np.triu_indices(n2)
    header = (["t"] + [f"{v}_{i+1}" for v in "XY" for i in range(n2)]
              + [f"{part}B_{i+1}{j+1}" for part in ("Re", "Im") for i, j in zip(*iu)]
              + ["re_alpha", "im_alpha", "weight_re", "weight_im"])
    bu = series.b[:, idx, iu[0], iu[1]]
    alpha, weight = series.alpha[:, idx], series.weights[:, idx]
    table = np.column_stack([series.times, series.z[:, idx], bu.real, bu.imag, alpha.real,
                             alpha.imag, weight.real, weight.imag])
    return csv_text(header, table.tolist())


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
