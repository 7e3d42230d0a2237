"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
failure output).  Expensive artifacts are shared through session fixtures.
"""

import time

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

from semilind.doubled import build_k, propagate_superposition
from semilind.gaussian import (
    GaussianWigner,
    cat_decompose,
    coherent,
    eval_wigner,
    moments,
    physicality_of_width,
)
from semilind.harness import default_config, run_experiment
from semilind.harness.compare import read_observables
from semilind.harness.config import ExperimentConfig
from semilind.harness.selftest import _brute_moyal
from semilind.quantum import (
    DensityMatrix,
    FockSpace,
    _model_matrices,
    integrate_master,
    moments_of_density,
)
from semilind.semiclassical import (
    LindbladModel,
    drift_field,
    integrate,
)
from semilind.symbols import Chart, PolySymbol
from oracles import (Component, chord_from_component, chord_rhs, components, moyal,
                     rhs_component, weyl_of_normal_ordered)

_ALL_TRAJECTORIES = []  # min-physicality series collected for criterion 6


def _report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


def real_vars(n=1):
    q = [PolySymbol.variable(Chart.REAL_QP, n, j) for j in range(n)]
    p = [PolySymbol.variable(Chart.REAL_QP, n, n + j) for j in range(n)]
    return q, p


def mode_vars(n=1):
    a = [PolySymbol.variable(Chart.COMPLEX_AABAR, n, j) for j in range(n)]
    ab = [PolySymbol.variable(Chart.COMPLEX_AABAR, n, n + j) for j in range(n)]
    return a, ab


def damped_oscillator_model(omega=1.0, gamma=0.1):
    (q,), (p,) = real_vars()
    h = (q * q + p * p) * (0.5 * omega)
    L = (q + p * 1j) * np.sqrt(gamma / 2.0)
    return LindbladModel(1, 1.0, h, (L,))


def cat_model(beta, gamma=0.3):
    (q,), (p,) = real_vars()
    h = (q * q + p * p) * 0.5 + (q**4) * (beta / 4.0)
    L = (q + p * 1j) * np.sqrt(gamma / 2.0)
    return LindbladModel(1, 1.0, h, (L,))


# Lossy two-mode lattice of C11: H = -HOP (a1^dag a2 + a2^dag a1)
# + HALF_U sum_j a_j^dag^2 a_j^2 and L_j = sqrt(GAMMA) a_j^2, the normal-ordered
# form of the registered bose_hubbard_losses model (checked in the fixture).
LATTICE_HOP, LATTICE_HALF_U, LATTICE_GAMMA = 1.0, 0.025, 0.05

# Approximation tolerance of the centre flow against the exact dynamics,
# relative to the exact total number N(t).  The centre and width equations
# are exact only for linear Lindblad operators and a quadratic Hamiltonian;
# this lattice has neither, and the centre flow drops the covariance terms
# of the quartic loss rate, which are smaller than its mean-field part by
# the ratio hbar / N of the quantum to the classical phase-space scale.  The
# paper gives no number; the tolerance is that ratio at the start,
# 1 / N(0) = 1 / 20.  Measured: the
# centre flow misses N by 3.4 % and the imbalance by 0.6 % of N; a centre
# flow whose loss rate is 10 % high misses them by 10 % and 6.1 % of N.
C11_CENTRE_TOL = 0.05


def lossy_lattice_operators(levels):
    """Sparse a1, a2, H and (L1, L2) truncated at `levels` per mode."""
    low = sparse.diags(np.sqrt(np.arange(1.0, levels)), 1)
    eye = sparse.identity(levels)
    a1, a2 = sparse.kron(low, eye, "csr"), sparse.kron(eye, low, "csr")
    h = -LATTICE_HOP * (a1.T @ a2 + a2.T @ a1) + LATTICE_HALF_U * (
        a1.T @ a1.T @ a1 @ a1 + a2.T @ a2.T @ a2 @ a2
    )
    return a1, a2, h, (np.sqrt(LATTICE_GAMMA) * a1 @ a1, np.sqrt(LATTICE_GAMMA) * a2 @ a2)


def lossy_lattice_exact(levels, amplitudes, t_eval):
    """Exact <n1>, <n2> and <a1^dag a2> of the truncated lossy lattice.

    H keeps the total number N and each a_j^2 lowers it by 2, so the blocks
    rho_{N,N} evolve as a closed system and hold every observable used here.
    Their master equation is propagated with expm_multiply, with each block
    vectorized row-major: vec(A rho B) = (A kron B^T) vec(rho).  The initial
    state is the product coherent state, truncated and renormalized.
    """
    a1, a2, h, ls = lossy_lattice_operators(levels)
    k = sum(L.T @ L for L in ls)
    n1, n2 = np.divmod(np.arange(levels**2), levels)
    sectors = [np.flatnonzero(n1 + n2 == n) for n in range(2 * levels - 1)]

    def block(op, i, j):
        return op[sectors[i]][:, sectors[j]]

    grid = [[None] * len(sectors) for _ in sectors]
    for s in range(len(sectors)):
        hs, ks = block(h, s, s), block(k, s, s)
        one = sparse.identity(sectors[s].size)
        grid[s][s] = -1j * (sparse.kron(hs, one) - sparse.kron(one, hs.T)) - 0.5 * (
            sparse.kron(ks, one) + sparse.kron(one, ks.T)
        )
        if s + 2 < len(sectors):
            feeds = [block(L, s, s + 2) for L in ls]
            grid[s][s + 2] = sum(sparse.kron(f, f.conj()) for f in feeds)
    generator = sparse.bmat(grid, format="csr")

    coh = []
    for alpha in amplitudes:
        n = np.arange(levels)
        coh.append(np.exp(-abs(alpha) ** 2 / 2 - 0.5 * gammaln(n + 1)) * complex(alpha) ** n)
    psi = np.kron(*coh)
    psi = psi / np.linalg.norm(psi)
    rho0 = np.concatenate([np.outer(psi[idx], psi[idx].conj()).ravel() for idx in sectors])
    rhos = expm_multiply(
        generator, rho0, start=t_eval[0], stop=t_eval[-1], num=len(t_eval), endpoint=True
    )

    def expectation(op):  # Tr(op rho) = sum_ij op_ij rho_ji
        weights = np.concatenate(
            [block(op, s, s).T.toarray().ravel() for s in range(len(sectors))]
        )
        return rhos @ weights

    occ_1, occ_2 = expectation(a1.T @ a1).real, expectation(a2.T @ a2).real
    cross = expectation(a1.T @ a2)
    return {
        "total_number": occ_1 + occ_2,
        "imbalance": occ_1 - occ_2,
        "g12": np.abs(cross) / np.sqrt(occ_1 * occ_2),
        "unknowns": generator.shape[0],
    }


def centre_flow_errors(total, imbalance, exact):
    """Largest errors of the centre-flow N and imbalance, relative to exact N(t)."""
    n_ex = exact["total_number"]
    return (
        float(np.max(np.abs(total - n_ex) / n_ex)),
        float(np.max(np.abs(imbalance - exact["imbalance"]) / n_ex)),
    )


# -- shared expensive runs -----------------------------------------------------


@pytest.fixture(scope="session")
def damped_oscillator_run():
    t0 = time.perf_counter()
    model = damped_oscillator_model(1.0, 0.1)
    a0 = 2.0
    t_eval = np.linspace(0.0, 20.0, 101)
    straj = integrate(
        model, GaussianWigner(1.0, coherent(1, a0).x, np.eye(2)), t_eval
    )
    fock = FockSpace(41)
    rho0 = DensityMatrix.from_state(fock.coherent_vector([a0]), fock)
    mtraj = integrate_master(rho0, model, t_eval)
    x_err = g_err = 0.0
    mom = moments_of_density(mtraj)
    for k in range(t_eval.size):
        x_err = max(x_err, float(np.max(np.abs(mom.x[k] - straj.x[k]))))
        gq = np.linalg.inv(mtraj.covariances[k])
        g_err = max(g_err, float(np.max(np.abs(gq - straj.g[k]))))
    _ALL_TRAJECTORIES.append(("damped_oscillator", straj.min_physicality))
    return {"x_err": x_err, "g_err": g_err, "runtime": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def ring_run():
    t0 = time.perf_counter()
    d = default_config("limit_cycle")
    model = ExperimentConfig.from_dict(d).model.build(1.0)
    a0 = (4.0 + 4.0j) / np.sqrt(2.0)
    t_eval = np.linspace(0.0, 500.0, 251)
    traj = integrate(
        model, GaussianWigner(1.0, coherent(1, a0).x, np.eye(2)), t_eval
    )
    amp_sq = (traj.x[:, 0] ** 2 + traj.x[:, 1] ** 2) / 2.0
    _ALL_TRAJECTORIES.append(("limit_cycle_ring", traj.min_physicality))
    return {"final": float(amp_sq[-1]), "runtime": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def limit_cycle_report(tmp_path_factory):
    t0 = time.perf_counter()
    d = default_config("limit_cycle")
    d["output_dir"] = str(tmp_path_factory.mktemp("limit_cycle"))
    report, outdir = run_experiment(ExperimentConfig.from_dict(d))
    sc = read_observables(outdir / "semiclassical" / "observables.csv")
    _ALL_TRAJECTORIES.append(("limit_cycle_compare", sc["min_eig_physicality"].values))
    return {"report": report, "outdir": outdir, "runtime": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def cat_runs(tmp_path_factory):
    out = {}
    for label, beta in (("anharmonic", 0.1), ("exact", 0.0)):
        t0 = time.perf_counter()
        d = default_config("cat_anharmonic")
        if beta == 0.0:
            d["model"]["hamiltonian"] = "0.5*q1^2 + 0.5*p1^2"
        d["output_dir"] = str(tmp_path_factory.mktemp(f"cat_{label}"))
        report, outdir = run_experiment(ExperimentConfig.from_dict(d))
        out[label] = {
            "report": report,
            "outdir": outdir,
            "runtime": time.perf_counter() - t0,
        }
    return out


@pytest.fixture(scope="session")
def bose_hubbard_run(tmp_path_factory):
    t0 = time.perf_counter()
    d = default_config("bose_hubbard_losses")
    d["output_dir"] = str(tmp_path_factory.mktemp("bose_hubbard"))
    config = ExperimentConfig.from_dict(d)
    report, outdir = run_experiment(config)
    model = config.model.build(1.0)
    amps = np.array(config.initial.amplitudes)
    straj = integrate(
        model,
        GaussianWigner(1.0, coherent(2, amps).x, np.eye(4)),
        config.times.grid(),
    )
    _ALL_TRAJECTORIES.append(("bose_hubbard_meanfield", straj.min_physicality))
    return {"report": report, "outdir": outdir, "runtime": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def lattice_exact():
    """Exact reference of the registered lattice run at its own truncation."""
    config = ExperimentConfig.from_dict(default_config("bose_hubbard_losses"))
    levels = config.fock_levels
    exact = lossy_lattice_exact(levels, config.initial.amplitudes, config.times.grid())
    # the oracle's operators are the registered model's, quantized
    h, ls = _model_matrices(config.model.build(1.0), FockSpace([levels] * 2))
    _, _, want_h, want_ls = lossy_lattice_operators(levels)
    for got, want in zip((h, *ls), (want_h, *want_ls)):
        assert np.max(np.abs(got - want.toarray())) < 1e-13
    return exact


# -- criteria --------------------------------------------------------------------


def test_c01_exactness_damped_oscillator(damped_oscillator_run):
    r = damped_oscillator_run
    sup = max(r["x_err"], r["g_err"])
    ok = sup < 1e-6 and r["runtime"] < 30.0
    _report("C01 exactness vs master moments", ok, f"sup_err={sup:.2e} runtime={r['runtime']:.1f}s")
    assert sup < 1e-6
    assert r["runtime"] < 30.0


def test_c02_limit_cycle_intensity(ring_run):
    err = abs(ring_run["final"] - 2.5)
    ok = err < 1e-6 and ring_run["runtime"] < 5.0
    _report("C02 ring attractor", ok, f"|a|^2={ring_run['final']:.9f} runtime={ring_run['runtime']:.1f}s")
    assert err < 1e-6
    assert ring_run["runtime"] < 5.0


def test_c03_covariance_growth_vs_plateau(limit_cycle_report):
    report = limit_cycle_report["report"]
    entries = {e["check"]: e for e in report.entries}
    short = entries["alpha_relative_error_short_times"]
    slopes = entries["alpha_final_slopes"]
    ok = short["passed"] and slopes["passed"] and limit_cycle_report["runtime"] < 300.0
    _report(
        "C03 covariance short-time match + slopes",
        ok,
        f"rel={short['value']:.3f} slopes=({slopes['semiclassical_slope']:.3f},"
        f"{slopes['quantum_slope']:.4f}) runtime={limit_cycle_report['runtime']:.0f}s",
    )
    assert short["passed"]
    assert slopes["passed"]
    assert limit_cycle_report["runtime"] < 300.0


def test_c04_gradient_flow_identity(rng_factory):
    t0 = time.perf_counter()
    rng = rng_factory(404)
    (q,), (p,) = real_vars()
    worst = 0.0
    for trial in range(20):
        w = q + p * 1j if trial % 2 == 0 else q - p * 1j
        sign = -1.0 if trial % 2 == 0 else +1.0
        L = PolySymbol.zero(Chart.REAL_QP, 1)
        for d in range(5):
            L = L + w**d * complex(rng.normal(), rng.normal())
        model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
        field = drift_field(model)
        grad_pot = ((L * L.conj()).real_part() * (0.5 * sign)).grad()
        pts = rng.uniform(-2, 2, size=(100, 2))
        for pt in pts:
            v1 = np.array([f.eval(pt).real for f in field])
            v2 = np.array([g.eval(pt).real for g in grad_pot])
            denom = max(np.linalg.norm(v1), np.linalg.norm(v2))
            if denom > 0:
                worst = max(worst, float(np.linalg.norm(v1 - v2) / denom))
    runtime = time.perf_counter() - t0
    ok = worst < 1e-12 and runtime < 1.0
    _report("C04 gradient-flow identity", ok, f"worst_rel={worst:.2e} runtime={runtime:.2f}s")
    assert worst < 1e-12
    assert runtime < 1.0


def test_c05_nonlinear_drift_symbolic():
    t0 = time.perf_counter()
    gamma = 0.1
    (q,), (p,) = real_vars()
    L = (q * q + p * p * 1j) * np.sqrt(gamma)
    model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
    fq, fp = drift_field(model)
    want_q = q * q * p * (-2 * gamma)
    want_p = q * p * p * (-2 * gamma)
    err = max((fq - want_q).max_abs_coeff(), (fp - want_p).max_abs_coeff())
    runtime = time.perf_counter() - t0
    ok = err < 1e-14 and runtime < 1.0
    _report("C05 quadratic-loss drift coefficients", ok, f"coef_err={err:.2e}")
    assert err < 1e-14
    assert runtime < 1.0


def test_c06_physicality_along_trajectories(
    damped_oscillator_run, ring_run, limit_cycle_report, bose_hubbard_run
):
    worst = min(float(np.min(series)) for _, series in _ALL_TRAJECTORIES)
    names = [name for name, _ in _ALL_TRAJECTORIES]
    ok = worst >= -1e-9
    _report("C06 uncertainty relation along flows", ok, f"min_eig={worst:.2e} over {names}")
    assert worst >= -1e-9


def test_c07_doubled_reduction_matches_width_dynamics():
    t0 = time.perf_counter()
    model = cat_model(beta=0.1, gamma=0.3)
    cat = cat_decompose([(4.0, 3.0), (4.0, -3.0)], [1.0, 1.0], np.array([[1j]]))
    t_eval = np.linspace(0.0, 2.5, 126)
    series = propagate_superposition(model, cat, t_eval)
    worst_y = 0.0
    worst_xg = 0.0
    for idx, centre in ((0, (4.0, 3.0)), (3, (4.0, -3.0))):
        straj = integrate(
            model, GaussianWigner(1.0, np.array(centre), np.eye(2)), t_eval
        )
        for k in range(t_eval.size):
            comp = components(series.state(k))[idx]
            worst_y = max(worst_y, float(np.max(np.abs(comp.y))))
            worst_xg = max(worst_xg, float(np.max(np.abs(comp.x - straj.x[k]))))
            worst_xg = max(
                worst_xg, float(np.max(np.abs(comp.b.imag / 2 - straj.g[k])))
            )
        widths = np.array(
            [physicality_of_width(components(series.state(k))[idx].b.imag / 2)
             for k in range(t_eval.size)]
        )
        assert widths.min() >= -1e-9  # uncertainty relation along the component flow
    runtime = time.perf_counter() - t0
    ok = worst_y < 1e-10 and worst_xg < 1e-8
    _report(
        "C07 diagonal components reduce to centre/width dynamics",
        ok,
        f"max|Y|={worst_y:.2e} max|dX,dG|={worst_xg:.2e} runtime={runtime:.1f}s",
    )
    assert worst_y < 1e-10
    assert worst_xg < 1e-8


def test_c08_exact_superposition_grid(cat_runs):
    # the written frames at the last configured time, t = 2.5
    run = cat_runs["exact"]
    doubled, master = (np.load(run["outdir"] / solver / "wigner_t2.5.npy")
                       for solver in ("doubled", "master"))
    sup = float(np.max(np.abs(doubled - master)))
    ok = sup <= 1e-5 and run["runtime"] < 300.0
    _report(
        "C08 exact-case Wigner grid sup error",
        ok,
        f"sup={sup:.2e} tol=1e-05 runtime={run['runtime']:.0f}s",
    )
    assert sup <= 1e-5
    assert run["runtime"] < 300.0


def test_c09_anharmonic_cat_moments_and_decoherence(cat_runs):
    run = cat_runs["anharmonic"]
    entries = {e["check"]: e for e in run["report"].entries}
    ok = (
        entries["q_mean_rms_relative_error"]["passed"]
        and entries["p_mean_rms_relative_error"]["passed"]
        and entries["cross_magnitude_monotone"]["passed"]
        and run["runtime"] < 600.0
    )
    _report(
        "C09 anharmonic cat moments + monotone decoherence",
        ok,
        f"q_rms={entries['q_mean_rms_relative_error']['value']:.3f} "
        f"p_rms={entries['p_mean_rms_relative_error']['value']:.3f} "
        f"runtime={run['runtime']:.0f}s",
    )
    assert entries["q_mean_rms_relative_error"]["passed"]
    assert entries["p_mean_rms_relative_error"]["passed"]
    assert entries["cross_magnitude_monotone"]["passed"]
    assert run["runtime"] < 600.0


def test_c10_chord_equivalence(rng_factory):
    t0 = time.perf_counter()
    rng = rng_factory(1010)
    (q,), (p,) = real_vars()
    worst = 0.0
    for _ in range(20):
        s = rng.normal(size=(2, 2))
        s = s + s.T
        h = q * q * (0.5 * s[0, 0]) + p * p * (0.5 * s[1, 1]) + q * p * s[0, 1]
        h = h + q * rng.normal() + p * rng.normal()
        ls = []
        for _ in range(2):
            ls.append(q * complex(rng.normal(), rng.normal()) + p * complex(rng.normal(), rng.normal()))
        model = LindbladModel(1, 1.0, h, tuple(ls))
        r = rng.normal(size=(2, 2))
        b = (r + r.T) + 1j * (r @ r.T + np.eye(2))
        comp = Component(hbar=1.0, z=rng.normal(size=4), b=b, alpha=0.1j, weight=1.0)
        zdot, bdot, _ = rhs_component(build_k(model), comp)
        xdot, ydot, mdot, ndot = chord_rhs(model, chord_from_component(comp))
        binv = np.linalg.inv(comp.b)
        dninv = binv @ bdot @ binv
        scale = max(
            np.max(np.abs(zdot)), np.max(np.abs(dninv)), 1.0
        )
        worst = max(worst, float(np.max(np.abs(zdot[:2] - xdot)) / scale))
        worst = max(worst, float(np.max(np.abs(zdot[2:] - ydot)) / scale))
        worst = max(worst, float(np.max(np.abs(dninv.real - ndot)) / scale))
        worst = max(worst, float(np.max(np.abs(dninv.imag - mdot)) / scale))
    runtime = time.perf_counter() - t0
    ok = worst < 1e-12 and runtime < 1.0
    _report("C10 chord equivalence", ok, f"worst_rel={worst:.2e} runtime={runtime:.2f}s")
    assert worst < 1e-12
    assert runtime < 1.0


def test_c11_bose_hubbard_losses(bose_hubbard_run, lattice_exact):
    """Mean-field lattice losses against the exact quantum dynamics.

    The exact reference is the number-sector master equation at the run's
    truncation; the 5000-trajectory jump ensemble is its Monte Carlo
    estimate.  The criterion pins the centre equations as the semiclassical
    observable: their N and imbalance must stay within the approximation
    tolerance C11_CENTRE_TOL of the exact values.  The ensemble's g12 decay
    must lie within the stderr band (3.0 of its own standard errors) of the
    exact decay; that of the Gaussian flow must be positive and within the
    approximation tolerance.  The ensemble-minus-exact differences are
    reported apart, as statistical errors.
    """
    r = bose_hubbard_run
    exact = lattice_exact
    entries = {e["check"]: e for e in r["report"].entries}
    band = default_config("bose_hubbard_losses")["tolerances"]["stderr_band"]
    sc = read_observables(r["outdir"] / "semiclassical" / "observables.csv")
    jq = read_observables(r["outdir"] / "jumps" / "observables.csv")
    err_n, err_s = centre_flow_errors(sc["total_number"].values, sc["imbalance"].values, exact)
    exact_decay = float(exact["g12"][0] - exact["g12"][-1])
    g12_sc_decay = float(sc["g12"].values[0] - sc["g12"].values[-1])
    g12_q_decay = float(jq["g12"].values[0] - jq["g12"].values[-1])
    g12_q_err = float(np.hypot(jq["g12"].stderr[0], jq["g12"].stderr[-1]))
    jump_z = {
        name: float(np.max(np.abs(jq[name].values[1:] - exact[name][1:]) / jq[name].stderr[1:]))
        for name in ("total_number", "imbalance")
    }
    ok = (
        err_n <= C11_CENTRE_TOL
        and err_s <= C11_CENTRE_TOL
        and entries["total_number_monotone_decay"]["passed"]
        and entries["total_number_initial_truncation_match"]["passed"]
        and abs(g12_q_decay - exact_decay) <= band * g12_q_err
        and 0 < g12_sc_decay
        and abs(g12_sc_decay - exact_decay) <= C11_CENTRE_TOL * exact_decay
        and r["runtime"] < 900.0
    )
    _report(
        "C11 lattice losses vs exact dynamics",
        ok,
        f"centre_err(N)={err_n:.4f} centre_err(Sz)={err_s:.4f} tol={C11_CENTRE_TOL} "
        f"g12_decay(exact)={exact_decay:.4f} g12_decay(sc)={g12_sc_decay:.4f} "
        f"g12_decay(q)={g12_q_decay:.4f}+-{g12_q_err:.4f} "
        f"jump_vs_exact_max|z|(N)={jump_z['total_number']:.2f} "
        f"jump_vs_exact_max|z|(Sz)={jump_z['imbalance']:.2f} runtime={r['runtime']:.0f}s",
    )
    assert entries["total_number_monotone_decay"]["passed"]
    assert r["runtime"] < 900.0
    assert entries["total_number_initial_truncation_match"]["passed"]
    assert err_n <= C11_CENTRE_TOL
    assert err_s <= C11_CENTRE_TOL
    assert abs(g12_q_decay - exact_decay) <= band * g12_q_err
    assert g12_sc_decay > 0
    assert abs(g12_sc_decay - exact_decay) <= C11_CENTRE_TOL * exact_decay


def test_c11_centre_tolerance_rejects_a_wrong_loss_rate(lattice_exact):
    """The C11 tolerance fails a centre flow whose loss rate is 10 % high."""
    config = ExperimentConfig.from_dict(default_config("bose_hubbard_losses"))
    model = config.model.build(1.0)
    lossier = LindbladModel(
        model.n_modes,
        model.hbar,
        model.hamiltonian,
        tuple(L * np.sqrt(1.1) for L in model.lindblads),
    )
    state0 = coherent(2, np.array(config.initial.amplitudes))
    traj = integrate(lossier, GaussianWigner(1.0, state0.x, state0.g), config.times.grid())
    occ = (traj.x[:, :2] ** 2 + traj.x[:, 2:] ** 2) / 2
    err_n, err_s = centre_flow_errors(occ.sum(axis=1), occ[:, 0] - occ[:, 1], lattice_exact)
    assert err_n > C11_CENTRE_TOL
    assert err_s > C11_CENTRE_TOL


def test_c11_exact_reference_converged_in_truncation(lattice_exact):
    """Raising the truncation from 26 to 36 levels per mode moves the exact
    reference by at most a quarter of the tolerances it is used with."""
    config = ExperimentConfig.from_dict(default_config("bose_hubbard_losses"))
    fine = lossy_lattice_exact(36, config.initial.amplitudes, config.times.grid())
    err_n, err_s = centre_flow_errors(
        lattice_exact["total_number"], lattice_exact["imbalance"], fine
    )
    decay = lattice_exact["g12"][0] - lattice_exact["g12"][-1]
    fine_decay = fine["g12"][0] - fine["g12"][-1]
    assert (lattice_exact["unknowns"], fine["unknowns"]) == (11726, 31116)
    assert err_n <= 0.25 * C11_CENTRE_TOL
    assert err_s <= 0.25 * C11_CENTRE_TOL
    assert abs(decay - fine_decay) <= 0.25 * C11_CENTRE_TOL * fine_decay


def test_c12_star_product_oracle(rng_factory):
    t0 = time.perf_counter()
    rng = rng_factory(1212)

    def rand_poly(deg):
        terms = {}
        for _ in range(5):
            while True:
                e = tuple(int(x) for x in rng.integers(0, deg + 1, size=2))
                if sum(e) <= deg:
                    break
            terms[e] = complex(rng.normal(), rng.normal())
        return PolySymbol(Chart.REAL_QP, 1, terms)

    worst = 0.0
    for _ in range(50):
        f, g = rand_poly(3), rand_poly(2)
        hbar = float(rng.uniform(0.3, 1.5))
        got = moyal(f, g, hbar)
        want = _brute_moyal(f, g, hbar)
        scale = max(got.max_abs_coeff(), want.max_abs_coeff(), 1.0)
        for key in set(got.terms) | set(want.terms):
            worst = max(
                worst, abs(got.terms.get(key, 0) - want.terms.get(key, 0)) / scale
            )

    a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
    abar = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 1)
    nsym = abar * a
    exact = (
        weyl_of_normal_ordered(1, 0, 1, 1, 1.0) == nsym - 0.5
        and weyl_of_normal_ordered(1, 0, 2, 2, 1.0) == nsym * nsym - nsym * 2 + 0.5
    )
    runtime = time.perf_counter() - t0
    ok = worst < 1e-13 and exact and runtime < 5.0
    _report(
        "C12 star-product oracle + exact normal-ordered symbols",
        ok,
        f"worst_rel={worst:.2e} exact_symbols={exact} runtime={runtime:.1f}s",
    )
    assert worst < 1e-13
    assert exact
    assert runtime < 5.0
