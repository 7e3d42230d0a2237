"""Named, config-driven experiment runners.

Each experiment writes ``<root>/<name>/<solver>/*.csv|*.json|*.txt`` plus a
top-level ``report.json`` and returns the comparison report.  Re-running
with the same config and seed reproduces every CSV byte for byte.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from ..doubled import component_csv, propagate_superposition
from ..gaussian import (
    GaussianWigner,
    cat_decompose,
    coherent,
    eval_wigner,
    moments,
)
from ..quantum import (
    DensityMatrix,
    FockSpace,
    integrate_master,
    moments_of_density,
    quantum_jump,
    wigner_of_density,
)
from ..semiclassical import SemiclassicalState, drift_x, integrate, trajectory_to_csv
from ..symbols import Chart
from .compare import ComparisonReport, ObservableSeries, write_observables
from .config import ConfigError, ExperimentConfig

__all__ = ["EXPERIMENTS", "ExperimentDef", "default_config", "run_experiment", "run_portrait"]


class ExperimentDef:
    def __init__(self, name, kind, description, defaults, runner=None):
        self.name = name
        self.kind = kind  # "experiment" | "portrait"
        self.description = description
        self.defaults = defaults
        self.runner = runner


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _mode_amplitudes(x: np.ndarray) -> np.ndarray:
    n = x.size // 2
    return (x[:n] + 1j * x[n:]) / np.sqrt(2.0)


def _wigner_frames(outdir: Path, times, indices, frame):
    """Write ``frame(k)`` (a WignerGrid) as text and JSON for each index k."""
    for k in indices:
        grid = frame(k)
        stem = f"wigner_t{times[k]:g}"
        _write(outdir / f"{stem}.txt", grid.to_text())
        _write(outdir / f"{stem}.json", grid.to_json())


def _linear_fit_slope(t, v):
    return float(np.polyfit(t, v, 1)[0])


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


def _gaussian_observables(traj, hbar):
    re_a, im_a, absq, alpha_cov = [], [], [], []
    for st in traj.states:
        a = _mode_amplitudes(st.x)[0]
        re_a.append(a.real)
        im_a.append(a.imag)
        absq.append(abs(a) ** 2)
        m = moments(GaussianWigner(hbar=hbar, x=st.x, g=st.g))
        alpha_cov.append(float(np.real(m.blocks.alpha_block[0, 0])))
    t = traj.times
    return {
        "re_a": ObservableSeries(t, np.array(re_a)),
        "im_a": ObservableSeries(t, np.array(im_a)),
        "abs_a_sq": ObservableSeries(t, np.array(absq)),
        "alpha_cov": ObservableSeries(t, np.array(alpha_cov)),
        "min_eig_physicality": ObservableSeries(t, traj.min_physicality),
    }


def run_limit_cycle(config: ExperimentConfig, outdir: Path) -> ComparisonReport:
    model = config.model.build(config.hbar)
    t_eval = config.times.grid()
    frames = config.times.frame_indices()
    spec = config.grid.spec() if config.grid else None
    tol = config.tolerances
    report = ComparisonReport()
    sc_obs = q_obs = None

    if "semiclassical" in config.solvers:
        t0 = time.perf_counter()
        amps = np.array(config.initial.amplitudes)
        state0 = coherent(model.n_modes, amps, config.hbar)
        traj = integrate(
            model,
            SemiclassicalState(0.0, state0.x, state0.g),
            t_eval,
            rtol=config.ode_rtol,
            atol=config.ode_atol,
        )
        _write(outdir / "semiclassical" / "trajectory.csv", trajectory_to_csv(traj))
        sc_obs = _gaussian_observables(traj, config.hbar)
        write_observables(sc_obs, outdir / "semiclassical" / "observables.csv")
        if spec is not None:
            _wigner_frames(outdir / "semiclassical", t_eval, frames,
                           lambda k: eval_wigner(traj.states[k].as_gaussian(config.hbar), spec))
        report.runtime_s["semiclassical"] = time.perf_counter() - t0
        report.add(
            check="physicality_min_eig",
            value=float(traj.min_physicality.min()),
            tolerance=-1e-9,
            passed=bool(traj.min_physicality.min() >= -1e-9),
        )
        if "ring_target" in tol:
            final = sc_obs["abs_a_sq"].values[-1]
            report.add(
                check="limit_cycle_intensity",
                value=float(final),
                target=tol["ring_target"],
                tolerance=tol.get("ring_tol", 1e-6),
                passed=bool(abs(final - tol["ring_target"]) <= tol.get("ring_tol", 1e-6)),
            )

    if "master" in config.solvers:
        t0 = time.perf_counter()
        fock = FockSpace([config.fock_levels] * model.n_modes)
        amps = np.array(config.initial.amplitudes)
        rho0 = DensityMatrix.from_state(fock.coherent_vector(amps), fock)
        mtraj = integrate_master(rho0, model, t_eval, rtol=config.ode_rtol, atol=config.ode_atol)
        report.add(check="master_solver", nfev=mtraj.nfev, nnz=mtraj.nnz, passed=True)
        amat = fock.lowering(0)
        re_a, im_a, absq, alpha_cov = [], [], [], []
        for k in range(len(mtraj.rhos)):
            dm = mtraj.density(k)
            aval = dm.expectation(amat)
            m = moments_of_density(dm)
            re_a.append(aval.real)
            im_a.append(aval.imag)
            absq.append(abs(aval) ** 2)
            alpha_cov.append(float(np.real(m.blocks.alpha_block[0, 0])))
        q_obs = {
            "re_a": ObservableSeries(t_eval, np.array(re_a)),
            "im_a": ObservableSeries(t_eval, np.array(im_a)),
            "abs_a_sq": ObservableSeries(t_eval, np.array(absq)),
            "alpha_cov": ObservableSeries(t_eval, np.array(alpha_cov)),
        }
        write_observables(q_obs, outdir / "master" / "observables.csv")
        if spec is not None:
            _wigner_frames(outdir / "master", t_eval, frames,
                           lambda k: wigner_of_density(mtraj.density(k), spec))
        report.runtime_s["master"] = time.perf_counter() - t0

    if sc_obs is not None and q_obs is not None:
        t_short = tol.get("t_short", 15.0)
        mask = (t_eval > 0) & (t_eval <= t_short)
        rel = np.abs(sc_obs["alpha_cov"].values[mask] - q_obs["alpha_cov"].values[mask]) / np.abs(
            q_obs["alpha_cov"].values[mask]
        )
        report.add(
            check="alpha_relative_error_short_times",
            value=float(rel.max()),
            tolerance=tol["alpha_rel_short"],
            passed=bool(rel.max() <= tol["alpha_rel_short"]),
        )
        window = tol.get("slope_window", 30.0)
        wmask = t_eval >= t_eval[-1] - window
        slope_sc = _linear_fit_slope(t_eval[wmask], sc_obs["alpha_cov"].values[wmask])
        slope_q = _linear_fit_slope(t_eval[wmask], q_obs["alpha_cov"].values[wmask])
        flat = tol.get("slope_flat_ratio", 0.2)
        report.add(
            check="alpha_final_slopes",
            semiclassical_slope=slope_sc,
            quantum_slope=slope_q,
            passed=bool(slope_sc > 0 and abs(slope_q) <= flat * slope_sc),
        )
    return report


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


def run_bose_hubbard(config: ExperimentConfig, outdir: Path) -> ComparisonReport:
    model = config.model.build(config.hbar)
    n = model.n_modes
    t_eval = config.times.grid()
    tol = config.tolerances
    report = ComparisonReport()
    sc = jq = None

    if "semiclassical" in config.solvers:
        t0 = time.perf_counter()
        amps = np.array(config.initial.amplitudes)
        state0 = coherent(n, amps, config.hbar)
        traj = integrate(
            model,
            SemiclassicalState(0.0, state0.x, state0.g),
            t_eval,
            rtol=config.ode_rtol,
            atol=config.ode_atol,
        )
        _write(outdir / "semiclassical" / "trajectory.csv", trajectory_to_csv(traj))
        occ = np.array([np.abs(_mode_amplitudes(st.x)) ** 2 for st in traj.states])
        g12 = []
        occ_gauss = []
        for st in traj.states:
            m = moments(GaussianWigner(hbar=config.hbar, x=st.x, g=st.g))
            g12.append(m.g1(0, 1))
            occ_gauss.append([m.occupation(j) for j in range(n)])
        occ_gauss = np.array(occ_gauss)
        sc = {
            "occ_1": ObservableSeries(t_eval, occ[:, 0]),
            "occ_2": ObservableSeries(t_eval, occ[:, 1]),
            "total_number": ObservableSeries(t_eval, occ.sum(axis=1)),
            "imbalance": ObservableSeries(t_eval, occ[:, 0] - occ[:, 1]),
            "g12": ObservableSeries(t_eval, np.array(g12)),
            "total_number_gauss": ObservableSeries(t_eval, occ_gauss.sum(axis=1)),
        }
        write_observables(sc, outdir / "semiclassical" / "observables.csv")
        report.runtime_s["semiclassical"] = time.perf_counter() - t0

    if "jumps" in config.solvers:
        t0 = time.perf_counter()
        fock = FockSpace([config.fock_levels] * n)
        amps = np.array(config.initial.amplitudes)
        psi0 = fock.coherent_vector(amps)
        ens = quantum_jump(
            model, psi0, t_eval, n_traj=config.n_trajectories, seed=config.seed, fock=fock
        )
        report.add(check="jump_solver", jumps_per_traj=float(ens.jump_counts.mean()),
                   n_blocks=ens.n_blocks, max_block=ens.max_block,
                   max_leakage=ens.max_leakage, passed=True)
        o1, o2 = ens.series["occ_1"], ens.series["occ_2"]
        tot, imb = o1 + o2, o1 - o2
        g12, g12_err = _g12_with_stderr(
            o1, o2, ens.series["re_adag_a_1_2"], ens.series["im_adag_a_1_2"]
        )

        def agg(arr):
            return ObservableSeries(
                t_eval, arr.mean(axis=1), arr.std(axis=1, ddof=1) / np.sqrt(config.n_trajectories)
            )

        jq = {
            "occ_1": agg(o1),
            "occ_2": agg(o2),
            "total_number": agg(tot),
            "imbalance": agg(imb),
            "g12": ObservableSeries(t_eval, g12, g12_err),
        }
        write_observables(jq, outdir / "jumps" / "observables.csv")
        report.runtime_s["jumps"] = time.perf_counter() - t0
        report.add(
            check="total_number_monotone_decay",
            passed=bool(np.all(np.diff(jq["total_number"].values) < 0)),
        )
        decay = float(jq["g12"].values[0] - jq["g12"].values[-1])
        report.add(
            check="g12_decay",
            value=decay,
            tolerance=tol["g12_min_decay"],
            passed=bool(decay >= tol["g12_min_decay"]),
        )

    if sc is not None and jq is not None:
        band = tol.get("stderr_band", 3.0)
        for name in ("total_number", "imbalance"):
            diff = np.abs(sc[name].values - jq[name].values)
            allowed = band * jq[name].stderr
            inside = diff[1:] <= allowed[1:]
            worst = float(np.max(diff[1:] / np.maximum(allowed[1:], 1e-300)))
            report.add(
                check=f"{name}_within_stderr_band",
                worst_ratio=worst,
                band=band,
                passed=bool(np.all(inside)),
            )
            report.add(
                check=f"{name}_initial_truncation_match",
                value=float(diff[0]),
                tolerance=tol.get("initial_match", 2e-3),
                passed=bool(diff[0] <= tol.get("initial_match", 2e-3)),
            )
        diffg = np.abs(sc["total_number_gauss"].values - jq["total_number"].values)
        report.add(
            check="total_number_gaussian_corrected_info",
            worst_ratio=float(
                np.max(diffg[1:] / np.maximum(band * jq["total_number"].stderr[1:], 1e-300))
            ),
            max_abs=float(diffg.max()),
            passed=True,  # informational
        )
    return report


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


def _build_cat(config: ExperimentConfig):
    init = config.initial
    if init.kind != "cat":
        raise ConfigError("cat experiment needs initial.kind == 'cat'")
    width = np.array([[init.width]])
    return cat_decompose(init.centres, init.coefficients, width, hbar=config.hbar)


def run_cat(config: ExperimentConfig, outdir: Path) -> ComparisonReport:
    model = config.model.build(config.hbar)
    t_eval = config.times.grid()
    frames = config.times.frame_indices()
    spec = config.grid.spec() if config.grid else None
    tol = config.tolerances
    report = ComparisonReport()
    dq = dp = None
    series = None
    q_means = p_means = None

    if "doubled" in config.solvers:
        t0 = time.perf_counter()
        cat = _build_cat(config)
        series = propagate_superposition(
            model, cat, t_eval, rtol=config.ode_rtol, atol=config.ode_atol
        )
        for idx, track in enumerate(series.tracks):
            _write(outdir / "doubled" / f"component_{idx}.csv", component_csv(track, t_eval))
        mom = np.array([st.moments_xp() for st in series.states])
        dq, dp = mom[:, 0], mom[:, 1]
        cross = series.cross_magnitudes()
        obs = {
            "q_mean": ObservableSeries(t_eval, dq),
            "p_mean": ObservableSeries(t_eval, dp),
            "raw_norm": ObservableSeries(t_eval, series.raw_norms),
            "cross_magnitude": ObservableSeries(t_eval, cross),
        }
        write_observables(obs, outdir / "doubled" / "observables.csv")
        if spec is not None:
            _wigner_frames(outdir / "doubled", t_eval, frames,
                           lambda k: eval_wigner(series.states[k], spec))
        report.runtime_s["doubled"] = time.perf_counter() - t0
        slack = tol.get("cross_monotone_slack", 1e-9)
        monotone = bool(np.all(np.diff(cross) <= slack * max(cross[0], 1e-300)))
        report.add(check="cross_magnitude_monotone", passed=monotone)
        for ev in series.events:
            report.add(check="component_collapse", passed=True, **ev)

    mtraj = None
    if "master" in config.solvers:
        t0 = time.perf_counter()
        init = config.initial
        if abs(init.width - 1j) > 1e-12:
            raise ConfigError("the quantum reference supports unit packet width only")
        fock = FockSpace([config.fock_levels])
        vec = sum(
            complex(c) * fock.packet_vector(q0, p0)
            for c, (q0, p0) in zip(init.coefficients, init.centres)
        )
        rho0 = DensityMatrix.from_state(vec, fock)
        mtraj = integrate_master(rho0, model, t_eval, rtol=config.ode_rtol, atol=config.ode_atol)
        report.add(check="master_solver", nfev=mtraj.nfev, nnz=mtraj.nnz, passed=True)
        qop = (fock.lowering(0) + fock.raising(0)) / np.sqrt(2)
        pop = 1j * (fock.raising(0) - fock.lowering(0)) / np.sqrt(2)
        q_means = np.array([np.real(np.trace(r @ qop)) for r in mtraj.rhos])
        p_means = np.array([np.real(np.trace(r @ pop)) for r in mtraj.rhos])
        write_observables(
            {
                "q_mean": ObservableSeries(t_eval, q_means),
                "p_mean": ObservableSeries(t_eval, p_means),
            },
            outdir / "master" / "observables.csv",
        )
        if spec is not None:
            _wigner_frames(outdir / "master", t_eval, frames,
                           lambda k: wigner_of_density(mtraj.density(k), spec))
        report.runtime_s["master"] = time.perf_counter() - t0

    if dq is not None and q_means is not None:
        t_short = tol.get("t_short", 1.0)
        mask = t_eval <= t_short + 1e-12
        for name, sc_vals, q_vals in (("q_mean", dq, q_means), ("p_mean", dp, p_means)):
            num = np.sqrt(np.mean((sc_vals[mask] - q_vals[mask]) ** 2))
            den = np.sqrt(np.mean(q_vals[mask] ** 2))
            rel = float(num / den)
            report.add(
                check=f"{name}_rms_relative_error",
                value=rel,
                tolerance=tol["moment_rms_rel"],
                passed=bool(rel <= tol["moment_rms_rel"]),
            )
    if "wigner_sup" in tol and series is not None and mtraj is not None and spec is not None:
        k = frames[-1] if frames else len(t_eval) - 1
        grid_sc = eval_wigner(series.states[k], spec)
        grid_q = wigner_of_density(mtraj.density(k), spec)
        sup = grid_sc.sup_diff(grid_q)
        report.add(
            check="wigner_sup_error",
            at_time=float(t_eval[k]),
            value=float(sup),
            tolerance=tol["wigner_sup"],
            passed=bool(sup <= tol["wigner_sup"]),
        )
    return report


# -- portraits -------------------------------------------------------------------


def _portrait_nonlinear_defaults():
    sq = float(np.sqrt(0.1))
    return {
        "experiment": "portrait_nonlinear_loss",
        "seed": 0,
        "hbar": 1.0,
        "output_dir": "out",
        "solvers": [],
        "model": {
            "n_modes": 1,
            "chart": "realqp",
            "hamiltonian": "0.0",
            "lindblads": [f"{sq!r}*q1^2 + {sq!r}j*p1^2"],
        },
        "portrait": {
            "q_min": -4.0, "q_max": 4.0, "n_q": 21,
            "p_min": -4.0, "p_max": 4.0, "n_p": 21,
            "t_end": 6.0, "n_out": 61,
            "starts": [[3.0, 1.0], [3.0, 2.0], [3.0, 3.0], [-3.0, -1.0],
                       [-3.0, -2.0], [1.5, 3.0], [-1.5, -3.0], [2.0, -2.0]],
        },
        "tolerances": {},
    }


def _portrait_limit_cycle_defaults():
    base = _limit_cycle_defaults()
    return {
        "experiment": "portrait_limit_cycle",
        "seed": 0,
        "hbar": 1.0,
        "output_dir": "out",
        "solvers": [],
        "model": base["model"],
        "portrait": {
            "q_min": -6.0, "q_max": 6.0, "n_q": 25,
            "p_min": -6.0, "p_max": 6.0, "n_p": 25,
            "t_end": 60.0, "n_out": 601,
            "starts": [[4.0, 4.0], [0.5, 0.0], [-3.0, 3.0], [6.0, 0.0]],
        },
        "tolerances": {},
    }


def run_portrait(config: ExperimentConfig, root=None):
    """Sample the centre drift field on a grid and integrate trajectory fans."""
    if config.portrait is None:
        raise ConfigError("portrait configs need a 'portrait' section")
    model = config.model.build(config.hbar).to_chart(Chart.REAL_QP)
    if model.n_modes != 1:
        raise ConfigError("portraits are drawn for single-mode models")
    port = config.portrait
    outdir = _resolve_root(config, root) / config.experiment
    qs = np.linspace(port.q_min, port.q_max, port.n_q)
    ps = np.linspace(port.p_min, port.p_max, port.n_p)
    lines = ["q,p,dq,dp,speed"]
    for q in qs:
        for p in ps:
            v = drift_x(model, [q, p])
            lines.append(
                ",".join(repr(float(x)) for x in (q, p, v[0], v[1], float(np.hypot(*v))))
            )
    _write(outdir / "field.csv", "\n".join(lines) + "\n")

    from scipy.integrate import solve_ivp

    t_eval = np.linspace(0.0, port.t_end, port.n_out)
    rows = ["trajectory,t,q,p"]
    for idx, (q0, p0) in enumerate(port.starts):
        sol = solve_ivp(
            lambda t, x: drift_x(model, x),
            (0.0, port.t_end),
            [q0, p0],
            t_eval=t_eval,
            rtol=1e-9,
            atol=1e-12,
        )
        for t, q, p in zip(sol.t, sol.y[0], sol.y[1]):
            rows.append(f"{idx},{float(t)!r},{float(q)!r},{float(p)!r}")
    _write(outdir / "trajectories.csv", "\n".join(rows) + "\n")
    report = ComparisonReport()
    report.add(check="portrait_written", passed=True)
    _write(outdir / "report.json", report.to_json() + "\n")
    return report, outdir


EXPERIMENTS = {
    "limit_cycle": ExperimentDef(
        "limit_cycle",
        "experiment",
        "oscillator with linear/nonlinear damping and amplification: Wigner "
        "snapshots and covariance growth, semiclassical vs master equation",
        _limit_cycle_defaults,
        run_limit_cycle,
    ),
    "bose_hubbard_losses": ExperimentDef(
        "bose_hubbard_losses",
        "experiment",
        "two-mode lattice with two-body losses: populations, imbalance and "
        "phase coherence, mean-field Gaussian vs quantum-jump ensemble",
        _bose_hubbard_defaults,
        run_bose_hubbard,
    ),
    "cat_anharmonic": ExperimentDef(
        "cat_anharmonic",
        "experiment",
        "cat state in a damped (an)harmonic oscillator: superposition "
        "propagation with interference terms vs master equation",
        _cat_defaults,
        run_cat,
    ),
    "portrait_nonlinear_loss": ExperimentDef(
        "portrait_nonlinear_loss",
        "portrait",
        "phase portrait of the flow generated by a quadratic non-gradient "
        "Lindblad symbol (straight-line trajectories)",
        _portrait_nonlinear_defaults,
    ),
    "portrait_limit_cycle": ExperimentDef(
        "portrait_limit_cycle",
        "portrait",
        "phase portrait of the oscillator with damping and amplification "
        "(stable ring attractor)",
        _portrait_limit_cycle_defaults,
    ),
}


def default_config(name: str) -> dict:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name].defaults()


def _resolve_root(config: ExperimentConfig, root=None) -> Path:
    if root is not None:
        return Path(root)
    env = os.environ.get("SEMILIND_OUTPUT_ROOT")
    return Path(env) if env else Path(config.output_dir)


def run_experiment(config: ExperimentConfig, root=None):
    """Run a registered experiment; returns (report, output directory)."""
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    exp = EXPERIMENTS[config.experiment]
    if exp.kind != "experiment":
        raise ConfigError(f"{config.experiment!r} is a portrait; use the portrait command")
    outdir = _resolve_root(config, root) / config.experiment
    t0 = time.perf_counter()
    report = exp.runner(config, outdir)
    report.runtime_s["total"] = time.perf_counter() - t0
    _write(outdir / "report.json", report.to_json() + "\n")
    _write(outdir / "config.json", json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
    return report, outdir
