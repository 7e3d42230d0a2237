"""Built-in oracle checks of program paths, runnable from the CLI without pytest.

Each check runs code that the solvers and the harness run, against an
oracle written independently of it, and has a Tier-1 counterpart:

* the star product summed from ``moyal_term``, the bidifferential terms
  ``build_k`` uses, against the brute-force series: C12 and
  ``TestMoyal`` in ``tests/test_symbols.py``;
* the quadratic-loss drift field, coefficient by coefficient: C05;
* the holomorphic Lindblad flow as the gradient of ``classify_flow``'s
  potential: C04 and ``TestClassifyFlow``;
* the doubled generator of the quartic-plus-damping model:
  ``test_anharmonic_damped_coefficients`` in ``tests/test_doubled.py``;
* Fock-state Wigner functions against the Laguerre closed form:
  ``test_fock_states_match_laguerre_closed_form`` in ``tests/test_quantum.py``;
* the damped-oscillator master equation against its closed form:
  ``test_damped_coherent_closed_form`` in ``tests/test_quantum.py``.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from numpy.polynomial.laguerre import lagval

from ..doubled import build_k
from ..gaussian import GridSpec
from ..quantum import (DensityMatrix, FockSpace, integrate_master, moments_of_density,
                       wigner_of_density)
from ..semiclassical import FlowKind, LindbladModel, classify_flow, drift_field
from ..symbols import Chart, PolySymbol, moyal_term, symplectic_form

__all__ = ["run_selftest"]


def _brute_moyal(f, g, hbar):
    """Independent star-product oracle: the raw bidifferential series, one
    derivative pair at a time.  Each row of Omega has one nonzero entry, so
    each index tuple pairs only with the tuple of those entries' columns."""
    dim = f.dim
    omega = symplectic_form(dim // 2)
    partner = [int(np.flatnonzero(row)[0]) for row in omega]
    total = PolySymbol.zero(f.chart, f.n_modes)
    for m in range(f.total_degree() + g.total_degree() + 1):
        term = PolySymbol.zero(f.chart, f.n_modes)
        for idx in product(range(dim), repeat=m):
            jdx = [partner[i] for i in idx]
            w = 1.0
            for i, j in zip(idx, jdx):
                w *= omega[i, j]
            df = f
            for i in idx:
                df = df.deriv(i)
            if df.is_zero():
                continue
            dg = g
            for j in jdx:
                dg = dg.deriv(j)
            if dg.is_zero():
                continue
            term = term + df * dg * w
        total = total + term * ((0.5j * hbar) ** m / math.factorial(m))
    return total


def _sym_close(a, b, tol):
    scale = max(a.max_abs_coeff(), b.max_abs_coeff(), 1.0)
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0) - b.terms.get(k, 0)) <= tol * scale for k in keys)


def _random_poly(rng, n, deg):
    terms = {}
    for _ in range(5):
        while True:
            exps = tuple(int(e) for e in rng.integers(0, deg + 1, size=2 * n))
            if sum(exps) <= deg:
                break
        terms[exps] = complex(rng.normal(), rng.normal())
    return PolySymbol(Chart.REAL_QP, n, terms)


def run_selftest() -> bool:
    """Run the oracle spot checks, printing one line each; returns True when
    everything passes."""
    rng = np.random.default_rng(2024)
    results = []

    def check(name, ok):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    # star product, summed from its bidifferential terms, vs brute-force series
    ok = True
    for _ in range(5):
        f = _random_poly(rng, 1, 3)
        g = _random_poly(rng, 1, 2)
        hbar = float(rng.uniform(0.5, 1.5))
        star = PolySymbol.zero(Chart.REAL_QP, 1)
        for m in range(f.total_degree() + g.total_degree() + 1):
            star = star + moyal_term(f, g, m) * (0.5j * hbar) ** m
        ok = ok and _sym_close(star, _brute_moyal(f, g, hbar), 1e-13)
    check("star product matches brute-force series", ok)

    # nonlinear drift example, coefficient-wise
    gamma = 0.1
    q = PolySymbol.variable(Chart.REAL_QP, 1, 0)
    p = PolySymbol.variable(Chart.REAL_QP, 1, 1)
    L = (q * q + p * p * 1j) * np.sqrt(gamma)
    model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
    fq, fp = drift_field(model)
    ok = _sym_close(fq, q * q * p * (-2 * gamma), 1e-13)
    ok = ok and _sym_close(fp, q * p * p * (-2 * gamma), 1e-13)
    check("quadratic-loss drift field", ok)

    # gradient-flow identity for holomorphic symbols
    w = q + p * 1j
    ok = True
    for _ in range(3):
        L = PolySymbol.zero(Chart.REAL_QP, 1)
        for d in range(4):
            L = L + w**d * complex(rng.normal(), rng.normal())
        res = classify_flow(L)
        ok = ok and res.kind is FlowKind.GRADIENT_HOLOMORPHIC
        mdl = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
        for fld, gp in zip(drift_field(mdl), res.potential.grad()):
            ok = ok and _sym_close(fld, gp, 1e-12)
    check("holomorphic Lindblad flow is a gradient flow", ok)

    # doubled generator for the worked quartic-plus-damping model
    beta, gamma = 0.1, 0.3
    h = (q * q + p * p) * 0.5 + (q**4) * (beta / 4)
    Ld = (q + p * 1j) * np.sqrt(gamma / 2)
    ksym = build_k(LindbladModel(1, 1.0, h, (Ld,)))
    want = {
        (0, 1, 1, 0): 1.0,
        (1, 0, 0, 1): -1.0,
        (1, 0, 0, 3): -beta / 4,
        (3, 0, 0, 1): -beta,
        (1, 0, 1, 0): -gamma / 2,
        (0, 1, 0, 1): -gamma / 2,
        (0, 0, 2, 0): -0.25j * gamma,
        (0, 0, 0, 2): -0.25j * gamma,
    }
    ok = set(ksym.k0.terms) == set(want)
    for key, val in want.items():
        ok = ok and abs(ksym.k0.terms.get(key, 0) - val) < 1e-13
    ok = ok and abs(ksym.k1.terms.get((0, 0, 0, 0), 0) - 0.5j * gamma) < 1e-13
    check("doubled generator coefficients", ok)

    # Fock-state Wigner functions: (-1)^n L_n(2 r^2) exp(-r^2) / pi at hbar = 1,
    # on a grid whose centre is the origin, where |1> gives -1/pi
    fock = FockSpace(13)
    spec = GridSpec(-1.5, 1.5, 13, -1.5, 1.5, 13)
    r2 = np.sum(spec.points() ** 2, axis=-1)
    ok = True
    for n in (0, 1, 2, 5, 12):
        grid = wigner_of_density(DensityMatrix.from_state(np.eye(13)[n], fock), spec)
        want = (-1) ** n * lagval(2 * r2, np.eye(n + 1)[n]) * np.exp(-r2) / np.pi
        ok = ok and np.max(np.abs(grid.values - want)) < 1e-12
        if n == 1:
            ok = ok and abs(grid.values[6, 6] + 1 / np.pi) < 1e-12
    check("Fock-state Wigner functions match the Laguerre closed form", ok)

    # master equation of the damped oscillator from a coherent state, on the
    # exact block path: <a>(t) = a0 exp((-i omega - gamma/2) t)
    omega, gamma, a0 = 1.0, 0.2, 1.5 - 0.5j
    a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
    abar = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 1)
    model = LindbladModel(1, 1.0, abar * a * omega, (a * np.sqrt(gamma),))
    fock = FockSpace(30)
    t_eval = np.linspace(0.0, 4.0, 9)
    traj = integrate_master(DensityMatrix.from_state(fock.coherent_vector([a0]), fock), model,
                            t_eval)
    got = moments_of_density(traj).modes[:, 0]
    want = a0 * np.exp((-1j * omega - gamma / 2) * t_eval)
    check("damped-oscillator master equation matches the closed form",
          traj.method == "block_expm" and np.max(np.abs(got - want)) < 1e-9)

    return all(results)
