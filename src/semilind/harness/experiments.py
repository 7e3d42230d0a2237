"""Named, config-driven experiments: solver rows by kind, one observable map
per experiment, and check rows.

``ExperimentDef.solvers`` maps a row name, as a config lists it under
``solvers``, to a row kind ``fn(config, model, t_eval) -> SolverRun``
(``t_eval`` is None for a config without ``times``): ``_gaussian``,
``_doubled``, ``_master``, ``_jumps`` or ``_flow``.  The gaussian, master
and doubled kinds return one `Moments` record stacked over the output
times; ``run_experiment`` turns it into observables through the
experiment's one map, ``ExperimentDef.observables``, which reads its
columns.  A series only one kind has, such as ``min_eig_physicality`` or
the jump ensemble's means with their standard errors, the kind adds
itself.  Every Fock row builds its initial state in ``_initial_vector``.
What a row needs of its config (the initial kinds
``_TAKES`` lists for it, hbar = 1 and a unit-width one-mode cat for the
``_FOCK_KINDS``, the experiment's ``n_modes``) is checked for every
requested row by ``_check_rows`` before the first row solves, so the kinds
do not check it.  So a new row kind is one function and its ``_TAKES``
entry, usable by every experiment whose initial state it takes.  A
``SolverRun``'s frames are saved as ``wigner_t<t>.npy`` at each configured
frame when the config has a ``grid`` (single-mode models only),
after ``_wigner_frames`` checks them; their axes are the ``grid`` of
``config.json``.  Its ``events``, a copy of its solver's events to which
``_wigner_frames`` adds clipped frames, become one ``solver_events`` entry
per kind.

``ExperimentDef.checks`` lists ``(needed solvers, fn(config, t_eval, runs) ->
entries)``, with ``runs`` mapping solver name to ``SolverRun``; each check
whose solvers all ran adds its entries to ``report.json``.  Checks read their
bounds from ``config.tolerances``, which holds every key the experiment's
defaults register and no other, each read through the converter of its
meaning in ``_TOLERANCES``, and compare frames only through
``SolverRun.grids``: the configured frames, each computed once and written.
A phase portrait's one row, ``flow``, writes the sampled drift and a
trajectory fan and states the flow's class (see `_flow`); ``run_portrait``
stays only because ``perfbench/worker.py`` imports it.

``run_experiment`` alone runs, times and saves the solvers, every file
through `compare.write_text` or `compare.write_frame`; `compare` owns every
file format.  Every top-level config field left unset takes the experiment's
registered value.
Re-running with the same config and seed reproduces every file but
``report.json`` (which holds run times) byte for byte.  Row kinds still call
the library (``integrate``, ``moments``, ``eval_wigner``, ...) through this
module's globals, so a name replaced here, as ``perfbench/tracing.py`` does,
is the one every run calls.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..doubled import propagate_superposition
from ..gaussian import (
    Moments,
    cat_decompose,
    coherent,
    eval_wigner,
    moments,
)
from ..ode import solve_ivp
from ..quantum import (
    _INITIAL_LEAKAGE,
    DensityMatrix,
    FockSpace,
    integrate_master,
    moments_of_density,
    quantum_jump,
    wigner_of_density,
)
from ..semiclassical import _PHYS_TOL, classify_flow, drift_x, integrate
from ..symbols import Chart
from .compare import (ComparisonReport, ObservableSeries, component_csv, csv_text,
                      frame_name, trajectory_to_csv, write_frame, write_observables,
                      write_text)
from .config import ConfigError, ExperimentConfig, _convert, _non_negative, _positive, dump_config

__all__ = ["EXPERIMENTS", "ExperimentDef", "SolverRun", "default_config", "run_experiment",
           "run_portrait"]


@dataclass
class SolverRun:
    """What a row kind returns; see the module docstring."""

    moments: Moments | None = None  # one record over the output times, for the map
    observables: dict = field(default_factory=dict)  # name -> ObservableSeries
    files: dict = field(default_factory=dict)  # file name -> text
    frames: Callable | None = None  # output indices -> their WignerGrids, in order
    entries: list = field(default_factory=list)
    events: list = field(default_factory=list)  # the solver's, then clipped frames
    grids: dict = field(default_factory=dict)  # output index -> WignerGrid, set by _wigner_frames


@dataclass(frozen=True)
class ExperimentDef:
    description: str
    defaults: Callable
    solvers: dict = field(default_factory=dict)  # name -> row kind
    observables: Callable | None = None  # fn(t_eval, Moments) -> name -> ObservableSeries
    checks: tuple = ()  # (needed solver names, fn(config, t_eval, runs) -> entries)
    n_modes: int | None = None  # the one model size its rows and map read, if any


def _wigner_frames(outdir: Path, times, indices, run: SolverRun):
    """Store the grids of ``run.frames(indices)`` in ``run.grids`` by index.
    A grid with a non-finite value raises, naming the directory it would be
    written to; a grid whose border exceeds 1e-6 of its peak, so that it
    cuts off part of the state, adds a ``grid_clipping`` event to
    ``run.events``."""
    for k, grid in zip(indices, run.frames(indices), strict=True):
        run.grids[k] = grid
        vals = np.abs(grid.values)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{outdir}: Wigner frame at t={times[k]:g} has non-finite values")
        peak = vals.max()
        border = max(vals[0].max(), vals[-1].max(), vals[:, 0].max(), vals[:, -1].max())
        if peak > 0 and border > 1e-6 * peak:
            run.events.append({"t": float(times[k]), "kind": "grid_clipping"})


def _event_entries(solver: str, events) -> list:
    """Informational report entries of a row's events (physicality
    violations, trace renormalizations, leakage, component collapses,
    clipped Wigner frames): one per kind, with its count and first time."""
    times = {}
    for ev in events:
        times.setdefault(ev["kind"], []).append(ev["t"])
    return [{"check": "solver_events", "solver": solver, "kind": kind, "count": len(ts),
             "first_t": min(ts), "passed": True} for kind, ts in times.items()]


def _bounded(check: str, value, tolerance, **extra) -> dict:
    """Report entry of a value that passes when it is at most the tolerance."""
    return dict(check=check, value=float(value), tolerance=tolerance,
                passed=bool(value <= tolerance), **extra)


def _initial_vector(config: ExperimentConfig, fock: FockSpace) -> np.ndarray:
    """A Fock row's initial state: the product coherent state, or the cat's packets."""
    init = config.initial
    if init.kind == "coherent":
        return fock.coherent_vector(np.array(init.amplitudes))
    return sum(complex(c) * fock.packet_vector(q0, p0)
               for c, (q0, p0) in zip(init.coefficients, init.centres))


def _gaussian(config: ExperimentConfig, model, t_eval) -> SolverRun:
    """The centre and width flow from a coherent state, and its physicality."""
    state0 = coherent(model.n_modes, np.array(config.initial.amplitudes), config.hbar)
    traj = integrate(model, state0, t_eval, rtol=config.ode_rtol, atol=config.ode_atol)
    return SolverRun(
        moments=moments(traj),
        observables={"min_eig_physicality": ObservableSeries(t_eval, traj.min_physicality)},
        files={"trajectory.csv": trajectory_to_csv(traj)},
        frames=lambda ks: [eval_wigner(traj.state(k), config.grid) for k in ks],
        entries=[{"check": "semiclassical_solver", "nfev": traj.nfev, "steps": traj.steps,
                  "rejected": traj.rejected, "passed": True}],
        events=list(traj.events),
    )


def _master(config: ExperimentConfig, model, t_eval) -> SolverRun:
    """The master equation from a coherent state or a cat."""
    fock = FockSpace([config.fock_levels] * model.n_modes)
    rho0 = DensityMatrix.from_state(_initial_vector(config, fock), fock)
    mtraj = integrate_master(rho0, model, t_eval, rtol=config.ode_rtol, atol=config.ode_atol)
    return SolverRun(
        moments=moments_of_density(mtraj),
        frames=lambda ks: wigner_of_density([mtraj.density(k) for k in ks], config.grid),
        entries=[{"check": "master_solver", "method": mtraj.method, "nfev": mtraj.nfev,
                  "steps": mtraj.steps, "rejected": mtraj.rejected,
                  "superoperator": "real_hermitian", "nnz": mtraj.nnz, "blocks": mtraj.blocks,
                  "max_block": mtraj.max_block, "passed": True}],
        events=list(mtraj.events),
    )


def _doubled(config: ExperimentConfig, model, t_eval) -> SolverRun:
    """The doubled-phase-space superposition of a cat, and its interference terms."""
    init = config.initial
    cat = cat_decompose(init.centres, init.coefficients, np.array([[init.width]]), hbar=config.hbar)
    series = propagate_superposition(model, cat, t_eval, rtol=config.ode_rtol,
                                     atol=config.ode_atol)
    return SolverRun(
        moments=series.moments(),
        observables={"raw_norm": ObservableSeries(t_eval, series.raw_norms),
                     "cross_magnitude": ObservableSeries(t_eval, series.cross_magnitudes())},
        files={f"component_{idx}.csv": component_csv(series, idx)
               for idx in range(len(cat.components))},
        frames=lambda ks: [eval_wigner(series.state(k), config.grid) for k in ks],
        entries=[{"check": "doubled_solver", "nfev": series.nfev, "steps": series.steps,
                  "rejected": series.rejected, "passed": True}],
        events=list(series.events),
    )


def _jumps(config: ExperimentConfig, model, t_eval) -> SolverRun:
    """The jump ensemble of a two-mode model: occupations and g12, with errors."""
    fock = FockSpace([config.fock_levels] * model.n_modes)
    ens = quantum_jump(model, _initial_vector(config, fock), t_eval,
                       n_traj=config.n_trajectories, seed=config.seed, fock=fock)
    o1, o2 = ens.series["occ_1"], ens.series["occ_2"]
    g12, g12_err = _g12_with_stderr(o1, o2, ens.series["re_adag_a_1_2"],
                                    ens.series["im_adag_a_1_2"])

    def agg(arr):
        return ObservableSeries(
            t_eval, arr.mean(axis=1), arr.std(axis=1, ddof=1) / np.sqrt(config.n_trajectories)
        )

    return SolverRun(
        observables={
            "occ_1": agg(o1),
            "occ_2": agg(o2),
            "total_number": agg(o1 + o2),
            "imbalance": agg(o1 - o2),
            "g12": ObservableSeries(t_eval, g12, g12_err),
        },
        entries=[{"check": "jump_solver", "jumps_per_traj": float(ens.jump_counts.mean()),
                  "norm_evals_per_jump": ens.norm_evals / max(int(ens.jump_counts.sum()), 1),
                  "max_norm_evals": ens.max_norm_evals,
                  "n_blocks": ens.n_blocks, "max_block": ens.max_block,
                  "max_leakage": ens.max_leakage, "passed": True}],
    )


# -- what a run needs of its config ---------------------------------------------

# The initial kinds each row kind takes (``_flow`` takes none), and the row
# kinds that solve in a truncated Fock basis, which is built at hbar = 1 and
# holds a cat only as unit-width packets of one mode.  The master row also
# needs its initial state inside the truncation (`integrate_master`'s
# `_INITIAL_LEAKAGE` bound); the jump ensemble has no such bound.
_TAKES = {_gaussian: ("coherent",), _master: ("coherent", "cat"), _jumps: ("coherent", "cat"),
          _doubled: ("cat",)}
_FOCK_KINDS = (_master, _jumps)

# The meaning of each tolerance an experiment registers: the bounds, windows
# and ratios are positive, a slack is not negative.
_TOLERANCES = {
    "alpha_rel_short": _positive, "t_short": _positive, "slope_window": _positive,
    "slope_flat_ratio": _positive, "stderr_band": _positive, "g12_min_decay": _positive,
    "initial_match": _positive, "moment_rms_rel": _positive,
    "cross_monotone_slack": _non_negative,
}


def _check_rows(config: ExperimentConfig, exp: ExperimentDef) -> None:
    """Every requested row's preconditions, in one pass before any row
    solves; each failure is a `ConfigError` naming the key and the row."""
    n, init = config.model.n_modes, config.initial
    if exp.n_modes is not None and n != exp.n_modes:
        raise ConfigError(f"model.n_modes: {config.experiment!r} is written for "
                          f"{exp.n_modes} modes, got {n}")
    for name in config.solvers:
        kind = exp.solvers[name]
        if kind not in _TAKES:
            continue
        if init.kind not in _TAKES[kind]:
            raise ConfigError(f"initial.kind: the {name} row takes a {_TAKES[kind][0]!r} "
                              f"initial state, not {init.kind!r}")
        if init.kind == "coherent" and len(init.amplitudes) != n:
            raise ConfigError(f"initial.amplitudes: the {name} row needs one amplitude per "
                              f"mode, {n} in all, got {len(init.amplitudes)}")
        if init.kind == "cat" and n != 1:
            raise ConfigError(f"initial.kind: the {name} row takes a 'cat' initial state only "
                              f"on a single-mode model, not on {n} modes")
        if kind in _FOCK_KINDS:
            if config.hbar != 1.0:
                raise ConfigError(f"hbar: the {name} row solves in a Fock basis, defined at "
                                  f"hbar = 1, got {config.hbar:g}")
            if init.kind == "cat" and abs(init.width - 1j) > 1e-12:
                raise ConfigError(f"initial.width: the {name} row takes unit packet width only "
                                  f"([0, 1]), got {init.width}")
        if kind is _master:
            fock = FockSpace([config.fock_levels] * n)
            vec = _initial_vector(config, fock)
            leak = fock.leakage(vec / np.linalg.norm(vec))
            if leak > _INITIAL_LEAKAGE:
                raise ConfigError(f"fock_levels: the {name} row's initial state puts {leak:.2e} "
                                  f"in the top of {config.fock_levels} levels, above the "
                                  f"{_INITIAL_LEAKAGE:g} the master equation starts from")


def _check_windows(config: ExperimentConfig, t_eval) -> None:
    """A time window among the tolerances must hold the output times its check
    reads: ``t_short`` one after t = 0, ``slope_window`` two for a slope."""
    tol = config.tolerances
    if "t_short" in tol and not np.any((t_eval > 0) & (t_eval <= tol["t_short"])):
        raise ConfigError(f"config.tolerances.t_short: {tol['t_short']:g} holds no output time "
                          f"after t = 0; the first is {t_eval[1]:g}")
    if "slope_window" in tol and np.count_nonzero(t_eval >= t_eval[-1] - tol["slope_window"]) < 2:
        raise ConfigError(f"config.tolerances.slope_window: {tol['slope_window']:g} holds fewer "
                          f"than two output times; they are {t_eval[1]:g} apart")


# -- limit cycle ---------------------------------------------------------------


def _limit_cycle_defaults():
    sq = {"g1": float(np.sqrt(0.1)), "g2": float(np.sqrt(0.01)), "amp": float(np.sqrt(0.15))}
    return {
        "experiment": "limit_cycle",
        "seed": 1,
        "hbar": 1.0,
        "output_dir": "out",
        "solvers": ["semiclassical", "master"],
        "ode_rtol": 1e-8,
        "ode_atol": 1e-11,
        "model": {
            "n_modes": 1,
            "chart": "complex",
            "hamiltonian": "1.0*a1 a1bar - 0.5",
            "lindblads": [
                f"{sq['g1']!r}*a1",
                f"{sq['g2']!r}*a1^2",
                f"{sq['amp']!r}*a1bar",
            ],
        },
        "initial": {
            "kind": "coherent",
            "amplitudes": [[2.8284271247461903, 2.8284271247461903]],
        },
        "times": {"t_end": 150.0, "n_out": 301, "frames": [13.0, 50.0, 150.0]},
        "grid": {"q_min": -10.0, "q_max": 10.0, "n_q": 200,
                 "p_min": -10.0, "p_max": 10.0, "n_p": 200},
        "fock_levels": 56,
        "tolerances": {
            "alpha_rel_short": 0.10,
            "t_short": 15.0,
            "slope_window": 30.0,
            "slope_flat_ratio": 0.2,
        },
    }


def _ring_observables(t_eval, moms: Moments) -> dict:
    """Mode amplitude <a> and its covariance at each output time; |<a>| is
    `np.hypot`, which rounds as the scalar `abs` does."""
    amp = moms.modes[:, 0]
    return {
        "re_a": ObservableSeries(t_eval, amp.real),
        "im_a": ObservableSeries(t_eval, amp.imag),
        "abs_a_sq": ObservableSeries(t_eval, np.hypot(amp.real, amp.imag) ** 2),
        "alpha_cov": ObservableSeries(t_eval, moms.alpha_block[:, 0, 0].real),
    }


def _limit_cycle_flow_checks(config: ExperimentConfig, t_eval, runs) -> list:
    phys = runs["semiclassical"].observables["min_eig_physicality"].values.min()
    return [{"check": "physicality_min_eig", "value": float(phys), "tolerance": _PHYS_TOL,
             "passed": bool(phys >= _PHYS_TOL)}]


def _limit_cycle_cross_checks(config: ExperimentConfig, t_eval, runs) -> list:
    tol = config.tolerances
    sc = runs["semiclassical"].observables["alpha_cov"].values
    q = runs["master"].observables["alpha_cov"].values
    mask = (t_eval > 0) & (t_eval <= tol["t_short"])
    rel = np.abs(sc[mask] - q[mask]) / np.abs(q[mask])
    wmask = t_eval >= t_eval[-1] - tol["slope_window"]
    slope_sc, slope_q = (float(np.polyfit(t_eval[wmask], v[wmask], 1)[0]) for v in (sc, q))
    return [
        _bounded("alpha_relative_error_short_times", rel.max(), tol["alpha_rel_short"]),
        {"check": "alpha_final_slopes", "semiclassical_slope": slope_sc, "quantum_slope": slope_q,
         "passed": bool(slope_sc > 0 and abs(slope_q) <= tol["slope_flat_ratio"] * slope_sc)},
    ]


# -- lattice with two-body losses ----------------------------------------------


def _bose_hubbard_defaults():
    sq = float(np.sqrt(0.05))
    amp = float(np.sqrt(10.0))
    return {
        "experiment": "bose_hubbard_losses",
        "seed": 20260810,
        "hbar": 1.0,
        "output_dir": "out",
        "solvers": ["semiclassical", "jumps"],
        "ode_rtol": 1e-9,
        "ode_atol": 1e-12,
        "model": {
            "n_modes": 2,
            "chart": "complex",
            "hamiltonian": (
                "-1.0*a1bar a2 - 1.0*a1 a2bar"
                " + 0.025*a1^2 a1bar^2 - 0.05*a1 a1bar + 0.0125"
                " + 0.025*a2^2 a2bar^2 - 0.05*a2 a2bar + 0.0125"
            ),
            "lindblads": [f"{sq!r}*a1^2", f"{sq!r}*a2^2"],
        },
        "initial": {"kind": "coherent", "amplitudes": [[0.0, float(amp)], [float(amp), 0.0]]},
        "times": {"t_end": 2.0, "n_out": 41, "frames": []},
        "fock_levels": 26,
        "n_trajectories": 5000,
        "tolerances": {
            "stderr_band": 3.0,
            "g12_min_decay": 0.05,
            "initial_match": 2e-3,
        },
    }


def _g12_with_stderr(o1, o2, re12, im12):
    """Ensemble g12 = |<a1^dag a2>| / sqrt(<n1><n2>) and its standard error.

    Arguments are per-trajectory series of shape (n_times, n_traj).  The
    error is the delta method's: the spread over trajectories of each
    trajectory's linearised influence on g12, divided by sqrt(n_traj).
    """
    m1, m2, mr, mi = (s.mean(axis=1, keepdims=True) for s in (o1, o2, re12, im12))
    cross = np.hypot(mr, mi)
    g12 = cross / np.sqrt(m1 * m2)
    influence = g12 * (
        (mr * (re12 - mr) + mi * (im12 - mi)) / cross**2
        - 0.5 * (o1 - m1) / m1
        - 0.5 * (o2 - m2) / m2
    )
    return g12[:, 0], influence.std(axis=1, ddof=1) / np.sqrt(o1.shape[1])


def _lattice_observables(t_eval, moms: Moments) -> dict:
    """Mean-field occupations |<a_j>|^2, N, imbalance, g12, and N with the widths."""
    occ = np.abs(moms.modes) ** 2
    return {
        "occ_1": ObservableSeries(t_eval, occ[:, 0]),
        "occ_2": ObservableSeries(t_eval, occ[:, 1]),
        "total_number": ObservableSeries(t_eval, occ.sum(axis=1)),
        "imbalance": ObservableSeries(t_eval, occ[:, 0] - occ[:, 1]),
        "g12": ObservableSeries(t_eval, moms.g1(0, 1)),
        "total_number_gauss": ObservableSeries(t_eval, moms.occupation(0) + moms.occupation(1)),
    }


def _lattice_jump_checks(config: ExperimentConfig, t_eval, runs) -> list:
    jq = runs["jumps"].observables
    decay = float(jq["g12"].values[0] - jq["g12"].values[-1])
    min_decay = config.tolerances["g12_min_decay"]
    return [
        {"check": "total_number_monotone_decay",
         "passed": bool(np.all(np.diff(jq["total_number"].values) < 0))},
        {"check": "g12_decay", "value": decay, "tolerance": min_decay,
         "passed": bool(decay >= min_decay)},
    ]


def _lattice_cross_checks(config: ExperimentConfig, t_eval, runs) -> list:
    tol = config.tolerances
    sc, jq = runs["semiclassical"].observables, runs["jumps"].observables
    band = tol["stderr_band"]
    entries = []
    for name in ("total_number", "imbalance"):
        diff = np.abs(sc[name].values - jq[name].values)
        allowed = band * jq[name].stderr
        inside = diff[1:] <= allowed[1:]
        worst = float(np.max(diff[1:] / np.maximum(allowed[1:], 1e-300)))
        entries.append({"check": f"{name}_within_stderr_band", "worst_ratio": worst,
                        "band": band, "passed": bool(np.all(inside))})
        entries.append(_bounded(f"{name}_initial_truncation_match", diff[0],
                                tol["initial_match"]))
    diffg = np.abs(sc["total_number_gauss"].values - jq["total_number"].values)
    entries.append({
        "check": "total_number_gaussian_corrected_info",
        "worst_ratio": float(
            np.max(diffg[1:] / np.maximum(band * jq["total_number"].stderr[1:], 1e-300))
        ),
        "max_abs": float(diffg.max()),
        "passed": True,  # informational
    })
    return entries


# -- cat state in the damped anharmonic oscillator ------------------------------


def _cat_defaults():
    sq = float(np.sqrt(0.15))
    return {
        "experiment": "cat_anharmonic",
        "seed": 1,
        "hbar": 1.0,
        "output_dir": "out",
        "solvers": ["doubled", "master"],
        "ode_rtol": 1e-9,
        "ode_atol": 1e-12,
        "model": {
            "n_modes": 1,
            "chart": "realqp",
            "hamiltonian": "0.5*q1^2 + 0.5*p1^2 + 0.025*q1^4",
            "lindblads": [f"{sq!r}*q1 + {sq!r}j*p1"],
        },
        "initial": {
            "kind": "cat",
            "centres": [[4.0, 3.0], [4.0, -3.0]],
            "coefficients": [[1.0, 0.0], [1.0, 0.0]],
            # packet width A: the interference example uses unit width, which
            # in this parametrization is Im A = 1, Re A = 0
            "width": [0.0, 1.0],
        },
        "times": {"t_end": 2.5, "n_out": 126, "frames": [0.5, 1.5, 2.5]},
        "grid": {"q_min": -8.0, "q_max": 8.0, "n_q": 200,
                 "p_min": -8.0, "p_max": 8.0, "n_p": 200},
        "fock_levels": 61,
        "tolerances": {
            "moment_rms_rel": 0.05,
            "t_short": 1.0,
            "cross_monotone_slack": 1e-9,
        },
    }


def _cat_observables(t_eval, moms: Moments) -> dict:
    return {"q_mean": ObservableSeries(t_eval, moms.x[:, 0]),
            "p_mean": ObservableSeries(t_eval, moms.x[:, 1])}


def _cat_doubled_checks(config: ExperimentConfig, t_eval, runs) -> list:
    cross = runs["doubled"].observables["cross_magnitude"].values
    slack = config.tolerances["cross_monotone_slack"]
    monotone = bool(np.all(np.diff(cross) <= slack * max(cross[0], 1e-300)))
    return [{"check": "cross_magnitude_monotone", "passed": monotone}]


def _cat_moment_checks(config: ExperimentConfig, t_eval, runs) -> list:
    tol = config.tolerances
    mask = t_eval <= tol["t_short"] + 1e-12
    entries = []
    for name in ("q_mean", "p_mean"):
        sc_vals = runs["doubled"].observables[name].values
        q_vals = runs["master"].observables[name].values
        num = np.sqrt(np.mean((sc_vals[mask] - q_vals[mask]) ** 2))
        den = np.sqrt(np.mean(q_vals[mask] ** 2))
        entries.append(_bounded(f"{name}_rms_relative_error", float(num / den),
                                tol["moment_rms_rel"]))
    return entries


def _cat_fringe_entries(config: ExperimentConfig, t_eval, runs) -> list:
    """Informational: the doubled-phase-space Wigner function against the
    master equation's at each frame, as sup and L2 errors relative to the
    master's peak and norm, and the minimum (negativity) of each."""
    entries = []
    for k, doubled in runs["doubled"].grids.items():
        wd, wm = doubled.values, runs["master"].grids[k].values
        entries.append({
            "check": "wigner_fringe_info", "at_time": float(t_eval[k]),
            "sup_rel_error": float(np.max(np.abs(wd - wm)) / np.max(np.abs(wm))),
            "l2_rel_error": float(np.linalg.norm(wd - wm) / np.linalg.norm(wm)),
            "min_doubled": float(wd.min()), "min_master": float(wm.min()),
            "passed": True,  # informational
        })
    return entries


# -- portraits -------------------------------------------------------------------


def _portrait_defaults(experiment: str, model: dict, portrait: dict) -> dict:
    return {"experiment": experiment, "seed": 0, "hbar": 1.0, "output_dir": "out",
            "solvers": ["flow"], "ode_rtol": 1e-9, "ode_atol": 1e-12, "model": model,
            "portrait": portrait, "tolerances": {}}


def _portrait_nonlinear_defaults():
    sq = float(np.sqrt(0.1))
    model = {"n_modes": 1, "chart": "realqp", "hamiltonian": "0.0",
             "lindblads": [f"{sq!r}*q1^2 + {sq!r}j*p1^2"]}
    return _portrait_defaults("portrait_nonlinear_loss", model, {
        "q_min": -4.0, "q_max": 4.0, "n_q": 21,
        "p_min": -4.0, "p_max": 4.0, "n_p": 21,
        "t_end": 6.0, "n_out": 61,
        # where q p < 0 the flow runs out along p/q = const and blows up at
        # t = 1 / (4 * 0.1 * |q0 p0|): (0.5, -0.5) at t = 10, after t_end
        "starts": [[3.0, 1.0], [3.0, 2.0], [3.0, 3.0], [-3.0, -1.0],
                   [-3.0, -2.0], [1.5, 3.0], [-1.5, -3.0], [0.5, -0.5]],
    })


def _portrait_limit_cycle_defaults():
    return _portrait_defaults("portrait_limit_cycle", _limit_cycle_defaults()["model"], {
        "q_min": -6.0, "q_max": 6.0, "n_q": 25,
        "p_min": -6.0, "p_max": 6.0, "n_p": 25,
        "t_end": 60.0, "n_out": 601,
        "starts": [[4.0, 4.0], [0.5, 0.0], [-3.0, 3.0], [6.0, 0.0]],
    })


def _flow(config: ExperimentConfig, model, t_eval) -> SolverRun:
    """The centre drift on the portrait grid and a trajectory from each start
    (``t_eval`` is unused); a trajectory that stops before ``t_end`` raises.
    Each Lindblad symbol, as the config writes it, adds a ``flow_class``
    entry: the class of the centre flow it contributes, from `classify_flow`
    (``gradient_holomorphic``, ``general_gradient``, ``hamiltonian``,
    ``vanishing`` or ``general``), with the sign of its potential for a
    holomorphic or antiholomorphic symbol."""
    port = config.portrait
    qs = np.linspace(port.q_min, port.q_max, port.n_q)
    ps = np.linspace(port.p_min, port.p_max, port.n_p)
    points = np.stack(np.meshgrid(qs, ps, indexing="ij"), axis=-1).reshape(-1, 2)
    drift = drift_x(model, points)
    samples = np.column_stack([points, drift, np.hypot(drift[:, 0], drift[:, 1])])
    times = np.linspace(0.0, port.t_end, port.n_out)
    rows, nfev, steps, rejected = [], 0, 0, 0
    for idx, (q0, p0) in enumerate(port.starts):
        sol = solve_ivp(lambda t, x: drift_x(model, x), (0.0, port.t_end), [q0, p0],
                        t_eval=times, rtol=config.ode_rtol, atol=config.ode_atol)
        if not sol.success:
            reached = sol.t[-1] if sol.t.size else 0.0
            raise RuntimeError(f"portrait trajectory {idx} from ({q0:g}, {p0:g}) stopped after "
                               f"output time t={reached:g} of {port.t_end:g}: {sol.message}")
        nfev, steps, rejected = nfev + sol.nfev, steps + sol.steps, rejected + sol.rejected
        rows.extend([idx, *row] for row in np.vstack([sol.t, sol.y]).T.tolist())
    classes = [classify_flow(L) for L in model.to_chart(Chart.REAL_QP).lindblads]
    return SolverRun(
        files={"field.csv": csv_text(["q", "p", "dq", "dp", "speed"], samples.tolist()),
               "trajectories.csv": csv_text(["trajectory", "t", "q", "p"], rows)},
        entries=[{"check": "flow_solver", "nfev": nfev, "steps": steps, "rejected": rejected,
                  "passed": True}]
        + [{"check": "flow_class", "lindblad": symbol, "kind": res.kind.value, "sign": res.sign,
            "passed": True}  # informational
           for symbol, res in zip(config.model.lindblads, classes)],
    )


EXPERIMENTS = {
    "limit_cycle": ExperimentDef(
        "oscillator with linear/nonlinear damping and amplification: Wigner "
        "snapshots and covariance growth, semiclassical vs master equation",
        _limit_cycle_defaults,
        solvers={"semiclassical": _gaussian, "master": _master},
        observables=_ring_observables,
        checks=(
            (("semiclassical",), _limit_cycle_flow_checks),
            (("semiclassical", "master"), _limit_cycle_cross_checks),
        ),
    ),
    "bose_hubbard_losses": ExperimentDef(
        "two-mode lattice with two-body losses: populations, imbalance and "
        "phase coherence, mean-field Gaussian vs quantum-jump ensemble",
        _bose_hubbard_defaults,
        solvers={"semiclassical": _gaussian, "jumps": _jumps},
        observables=_lattice_observables,
        checks=(
            (("jumps",), _lattice_jump_checks),
            (("semiclassical", "jumps"), _lattice_cross_checks),
        ),
        n_modes=2,
    ),
    "cat_anharmonic": ExperimentDef(
        "cat state in a damped (an)harmonic oscillator: superposition "
        "propagation with interference terms vs master equation",
        _cat_defaults,
        solvers={"doubled": _doubled, "master": _master},
        observables=_cat_observables,
        checks=(
            (("doubled",), _cat_doubled_checks),
            (("doubled", "master"), _cat_moment_checks),
            (("doubled", "master"), _cat_fringe_entries),
        ),
    ),
    "portrait_nonlinear_loss": ExperimentDef(
        "phase portrait of the flow generated by a quadratic non-gradient "
        "Lindblad symbol (straight-line trajectories)",
        _portrait_nonlinear_defaults,
        solvers={"flow": _flow},
    ),
    "portrait_limit_cycle": ExperimentDef(
        "phase portrait of the oscillator with damping and amplification "
        "(stable ring attractor)",
        _portrait_limit_cycle_defaults,
        solvers={"flow": _flow},
    ),
}


def _experiment(name: str) -> ExperimentDef:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name]


def default_config(name: str) -> dict:
    return _experiment(name).defaults()


def _resolve_root(config: ExperimentConfig, root=None) -> Path:
    if root is not None:
        return Path(root)
    env = os.environ.get("SEMILIND_OUTPUT_ROOT")
    return Path(env) if env else Path(config.output_dir)


def run_portrait(config: ExperimentConfig, root=None):
    """``run_experiment`` on a portrait; returns (report, its ``flow`` directory).
    Kept only because ``perfbench/worker.py`` imports it; the next benchmark
    change deletes it."""
    if "flow" not in getattr(EXPERIMENTS.get(config.experiment), "solvers", ()):
        raise ConfigError(f"{config.experiment!r} has no 'flow' row to draw a portrait")
    report, outdir = run_experiment(config, root)
    return report, outdir / "flow"


def run_experiment(config: ExperimentConfig, root=None):
    """Run a registered experiment; returns (report, output directory).

    The requested solvers run in table order and compute their frames
    before any file is written, so a row that raises leaves no file; each
    row's run time covers its solve, its frames and its writes.  Then every
    check whose solvers all ran adds its entries.  A tolerance the
    experiment does not register or outside its meaning, a time window that
    holds too few output times, a grid or portrait on a multi-mode model and
    a row whose needs the config does not meet (`_check_rows`) are
    `ConfigError`s before any solver runs;
    a top-level field the config leaves unset, and a tolerance it leaves
    out, takes its registered value.
    """
    exp = _experiment(config.experiment)
    registered = ExperimentConfig.from_dict(exp.defaults())
    unknown = [key for key in config.tolerances or {} if key not in registered.tolerances]
    if unknown:
        raise ConfigError(f"unknown tolerance(s) {unknown} for {config.experiment!r}; "
                          f"known: {list(registered.tolerances)}")
    tolerances = {**registered.tolerances, **(config.tolerances or {})}
    config = replace(config, tolerances={
        key: _convert("config.tolerances", key, _TOLERANCES[key], value)
        for key, value in tolerances.items()})
    config = replace(config, **{f.name: getattr(registered, f.name) for f in fields(config)
                                if getattr(config, f.name) is None})
    unknown = [name for name in config.solvers if name not in exp.solvers]
    if unknown:
        raise ConfigError(f"unknown solver(s) {unknown} for {config.experiment!r}; "
                          f"known: {list(exp.solvers)}")
    if not config.solvers:
        raise ConfigError(f"{config.experiment!r} config runs no solver; "
                          f"list some of {list(exp.solvers)} under 'solvers'")
    if config.model.n_modes != 1 and (config.grid or config.portrait):
        raise ConfigError(f"grids and portraits are drawn for single-mode models; "
                          f"{config.experiment!r} has {config.model.n_modes} modes")
    _check_rows(config, exp)
    t_eval = frames = None
    if config.times is not None:
        t_eval, frames = config.times.grid(), config.times.frame_indices()
        _check_windows(config, t_eval)
    outdir = _resolve_root(config, root) / config.experiment
    start = time.perf_counter()
    model = config.model.build(config.hbar)
    report = ComparisonReport()
    runs = {}
    for name, solve in exp.solvers.items():
        if name not in config.solvers:
            continue
        t0 = time.perf_counter()
        run = runs[name] = solve(config, model, t_eval)
        if run.moments is not None:
            run.observables = {**exp.observables(t_eval, run.moments), **run.observables}
        if config.grid is not None and run.frames is not None and frames:
            _wigner_frames(outdir / name, t_eval, frames, run)
        report.runtime_s[name] = time.perf_counter() - t0
    for name, run in runs.items():
        t0 = time.perf_counter()
        for fname, text in run.files.items():
            write_text(outdir / name / fname, text)
        if run.observables:
            write_observables(run.observables, outdir / name / "observables.csv")
        for k, grid in run.grids.items():  # the frames computed above
            write_frame(outdir / name / frame_name(t_eval[k]), grid.values)
        report.runtime_s[name] += time.perf_counter() - t0
        report.entries.extend(run.entries)
        report.entries.extend(_event_entries(name, run.events))
    for needs, check in exp.checks:
        if all(name in runs for name in needs):
            report.entries.extend(check(config, t_eval, runs))
    report.runtime_s["total"] = time.perf_counter() - start
    write_text(outdir / "report.json", report.to_json() + "\n")
    dump_config(config, outdir / "config.json")
    return report, outdir
