"""Independent oracles the tests check the package against.

Nothing under ``src/semilind`` calls these; they are written from the
formulas, separately from the program paths they check.

* ``moyal`` and ``weyl_of_normal_ordered``: the whole star product, and the
  exact Weyl symbol of a normally ordered monomial built from it.
* ``drift_complex`` and ``rhs_g_complex``: the centre and width equations
  in the mode chart (a, abar).  They are related to the real-chart flow of
  ``semiclassical`` by the unitary transformation matrix T and assume
  hbar = 1.
* The chord-variable form of the doubled flow for quadratic H and linear L
  (``ChordGaussian``, ``chord_from_component``, ``diffusion_matrix``,
  ``chord_rhs``), and ``rhs_component``, the rates of one component as
  matrices, from K0, K1, grad K0 and the K0 Hessian at its centre; the
  program's fused rates of a packed stack are compared with it.
* Per-object formulas for what the program computes stacked over output
  times and components: ``wigner_values``, the Wigner value of a Gaussian,
  a complex Gaussian or a superposition point by point from the quadratic
  form of its exponent; ``component_integral``, ``component_centroid``,
  ``peak_magnitude`` and ``superposition_moments`` of one complex Gaussian
  or superposition, a complex Gaussian being a `Component`, the
  (hbar, z, b, alpha, weight) of one row of a `SuperpositionState`, which
  ``components`` and ``stack`` convert between; ``quadrature_moments`` of
  one density matrix, as traces with the quadrature operators;
  ``pair_correlator``, ``occupation`` and ``coherence`` of one state from
  its <a> and alpha block, which ``gaussian.Moments`` computes over a stack
  of states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import scipy.sparse as sp

from semilind.doubled import DoubledSymbol
from semilind.gaussian import GaussianWigner, Moments, SuperpositionState
from semilind.quantum import DensityMatrix
from semilind.semiclassical import LindbladModel, _require_chart
from semilind.symbols import (
    Chart,
    PolyBatch,
    PolySymbol,
    _require_pairable,
    chart_transform,
    moyal_term,
    symplectic_form,
)

# -- star product ----------------------------------------------------------


def moyal(f: PolySymbol, g: PolySymbol, hbar: float) -> PolySymbol:
    """Star product of two polynomial symbols.

    The bidifferential series terminates for polynomials, so it is summed
    whole.
    """
    _require_pairable(f, g, "moyal")
    top = f.total_degree() + g.total_degree()
    out = PolySymbol.zero(f.chart, f.n_modes)
    for m in range(top + 1):
        term = moyal_term(f, g, m)
        if not term.is_zero():
            out = out + term * ((0.5j * hbar) ** m)
    return out


def weyl_of_normal_ordered(
    n_modes: int, mode: int, dag_power: int, a_power: int, hbar: float
) -> PolySymbol:
    """Weyl symbol of (adag_mode)^dag_power (a_mode)^a_power.

    Built by star-multiplying the elementary symbols abar = (q - i p)/sqrt(2)
    and a = (q + i p)/sqrt(2) on the real chart.  The sqrt(2) factors are
    applied once at the end, so even-total-degree results are exact.
    Returned on the COMPLEX_AABAR chart.
    """
    if dag_power < 0 or a_power < 0:
        raise ValueError("powers must be non-negative")
    if not 0 <= mode < n_modes:
        raise ValueError("mode index out of range")
    q = PolySymbol.variable(Chart.REAL_QP, n_modes, mode)
    p = PolySymbol.variable(Chart.REAL_QP, n_modes, n_modes + mode)
    factors = [q - p * 1j] * dag_power + [q + p * 1j] * a_power
    acc = PolySymbol.constant(Chart.REAL_QP, n_modes, 1.0)
    for fac in factors:
        acc = moyal(acc, fac, hbar)
    acc = acc * 2.0 ** (-(dag_power + a_power) / 2)
    return chart_transform(acc, Chart.COMPLEX_AABAR)


# -- mode-chart form ----------------------------------------------------------


def drift_complex(model: LindbladModel, xc) -> np.ndarray:
    """Centre drift for (a, abar) coordinates; assumes hbar = 1 and a
    physical point (second half the conjugate of the first)."""
    _require_chart(model, Chart.COMPLEX_AABAR, "drift_complex")
    dim = 2 * model.n_modes
    omega = symplectic_form(model.n_modes)
    grad_h = np.array([s.eval(xc) for s in model.hamiltonian.grad()])
    total = -1j * omega @ grad_h
    for L in model.lindblads:
        lbar = L.conj()
        lv = L.eval(xc)
        lbv = lbar.eval(xc)
        grad_l = np.array([s.eval(xc) for s in L.grad()])
        grad_lb = np.array([s.eval(xc) for s in lbar.grad()])
        total = total + 0.5 * omega @ (lbv * grad_l - lv * grad_lb)
    return total


def rhs_g_complex(model: LindbladModel, xc, gc: np.ndarray) -> np.ndarray:
    """Width equation in the mode chart: Gc O (K - Gam) - (cKbar + cGambar) O Gc
    + Gc O Xi O Gc with the three coefficient matrices built from the model."""
    _require_chart(model, Chart.COMPLEX_AABAR, "rhs_g_complex")
    n = model.n_modes
    dim = 2 * n
    omega = symplectic_form(n)
    hess_h = np.array([[s.eval(xc) for s in row] for row in model.hamiltonian.hessian()])
    kmat = 1j * hess_h
    gam = np.zeros((dim, dim), dtype=complex)
    xi = np.zeros((dim, dim), dtype=complex)
    for L in model.lindblads:
        lbar = L.conj()
        lv = L.eval(xc)
        lbv = lbar.eval(xc)
        hess_lb = np.array([[s.eval(xc) for s in row] for row in lbar.hessian()])
        hess_l = np.array([[s.eval(xc) for s in row] for row in L.hessian()])
        grad_l = np.array([s.eval(xc) for s in L.grad()])
        grad_lb = np.array([s.eval(xc) for s in lbar.grad()])
        kmat = kmat + 0.5 * (lv * hess_lb - lbv * hess_l)
        gam = gam + 0.5 * (np.outer(grad_l, grad_lb) - np.outer(grad_lb, grad_l))
        xi = xi + np.outer(grad_l, grad_lb) + np.outer(grad_lb, grad_l)
    swap = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    xi = xi @ swap
    gc = np.asarray(gc, dtype=complex)
    return (
        gc @ omega @ (kmat - gam)
        - (np.conj(kmat) + np.conj(gam)) @ omega @ gc
        + gc @ omega @ xi @ omega @ gc
    )


# -- one state at a time ---------------------------------------------------------


class Component(NamedTuple):
    """One complex Gaussian, weight * exp(i/hbar [ d.Bd/2 + Y.d + alpha ]),
    d = x - X, with z = (X, Y)."""

    hbar: float
    z: np.ndarray
    b: np.ndarray
    alpha: complex
    weight: complex

    @property
    def x(self) -> np.ndarray:
        return self.z[: self.z.size // 2]

    @property
    def y(self) -> np.ndarray:
        return self.z[self.z.size // 2:]


def components(state: SuperpositionState) -> list[Component]:
    """The rows of a superposition, one `Component` each, in index order."""
    return [Component(state.hbar, *row)
            for row in zip(state.z, state.b, state.alpha, state.weights)]


def stack(comps, norm_factor: float = 1.0) -> SuperpositionState:
    """The superposition of `Component`s sharing one hbar."""
    return SuperpositionState(comps[0].hbar, [c.z for c in comps], [c.b for c in comps],
                              [c.alpha for c in comps], [c.weight for c in comps],
                              norm_factor=norm_factor)


def wigner_values(state, pts: np.ndarray) -> np.ndarray:
    """Wigner values of a `GaussianWigner`, `Component` or
    `SuperpositionState` at points of shape (..., 2n), each exponent from its
    quadratic form at every point."""
    if isinstance(state, SuperpositionState):
        return state.norm_factor * sum(wigner_values(c, pts) for c in components(state))
    delta = pts - state.x
    if isinstance(state, GaussianWigner):
        quad = np.einsum("...i,ij,...j->...", delta, state.g, delta)
        norm = np.sqrt(np.linalg.det(state.g)) / (np.pi * state.hbar) ** state.n_modes
        return norm * np.exp(-quad / state.hbar)
    quad = np.einsum("...i,ij,...j->...", delta, state.b, delta)
    lin = delta @ state.y
    return state.weight * np.exp(1j / state.hbar * (0.5 * quad + lin + state.alpha))


def component_integral(comp: Component) -> complex:
    """Phase-space integral of one complex Gaussian, with det(-iB)^(1/2) the
    product of the principal roots of the eigenvalues of -iB."""
    dim = comp.z.size // 2
    binv_y = np.linalg.solve(comp.b, comp.y)
    expo = 1j / comp.hbar * (comp.alpha - 0.5 * comp.y @ binv_y)
    det_sqrt = complex(np.prod(np.sqrt(np.linalg.eigvals(-1j * comp.b))))
    return comp.weight * (2 * np.pi * comp.hbar) ** (dim // 2) / det_sqrt * np.exp(expo)


def component_centroid(comp: Component) -> np.ndarray:
    """Complex centroid X - B^{-1} Y of one complex Gaussian."""
    return comp.x - np.linalg.solve(comp.b, comp.y)


def peak_magnitude(comp: Component) -> float:
    """Modulus of one complex Gaussian at x = X."""
    return abs(comp.weight) * float(np.exp(-comp.alpha.imag / comp.hbar))


def superposition_moments(state: SuperpositionState) -> Moments:
    """Moments of a normalized superposition, summed component by component,
    as a stack of one."""
    comps = components(state)
    integrals = [component_integral(c) for c in comps]
    cs = [component_centroid(c) for c in comps]
    total = sum(integrals)
    x = np.real(sum(c * w for c, w in zip(cs, integrals)) / total)
    second = sum(w * (1j * state.hbar * np.linalg.inv(comp.b) + np.outer(c, c))
                 for w, comp, c in zip(integrals, comps, cs))
    cov = np.real(second / total) - np.outer(x, x)
    return Moments.from_covariance(state.hbar, x[None], cov[None])


def pair_correlator(hbar: float, modes, alpha_block, i: int, j: int) -> complex:
    """Normally ordered <adag_i a_j> of one state, from its <a> (n,) and the
    alpha block (n, n) of its mode covariance."""
    delta = hbar if i == j else 0.0
    return 0.5 * (alpha_block[i, j] + 2.0 * np.conj(modes[i]) * modes[j] - delta)


def occupation(hbar: float, modes, alpha_block, j: int) -> float:
    """<n_j> of one state."""
    return float(np.real(pair_correlator(hbar, modes, alpha_block, j, j)))


def coherence(hbar: float, modes, alpha_block, i: int, j: int) -> float:
    """First-order coherence |<adag_i a_j>| / sqrt(<n_i><n_j>) of one state."""
    den = occupation(hbar, modes, alpha_block, i) * occupation(hbar, modes, alpha_block, j)
    return float(abs(pair_correlator(hbar, modes, alpha_block, i, j)) / np.sqrt(den))


def quadrature_moments(rho: DensityMatrix):
    """<x> and <x_i x_j + x_j x_i> - 2 <x_i><x_j> of one density matrix, as
    traces with the quadratures x = (q_1..q_n, p_1..p_n)."""
    lowering = rho.fock._lowering
    xs = [(a + a.conj().T) / np.sqrt(2) for a in lowering]
    xs += [1j * (a.conj().T - a) / np.sqrt(2) for a in lowering]

    def expectation(op):
        return np.real(np.sum(rho.rho * sp.csr_array(op).toarray().T))

    x = np.array([expectation(op) for op in xs])
    cov = np.array([[expectation(u @ v + v @ u) - 2 * xu * xv for v, xv in zip(xs, x)]
                    for u, xu in zip(xs, x)])
    return x, cov


# -- one doubled-phase-space component ------------------------------------------


def rhs_component(ksym: DoubledSymbol, comp: Component):
    """Time derivatives (dZ, dB, dalpha) of one complex Gaussian component:

        dZ/dt     = O2 grad Re K0 + Gcal^{-1} grad Im K0
        dB/dt     = -B K0_yy B - B K0_yx - K0_xy B - K0_xx
        dalpha/dt = Y . dX/dt - K0 - hbar K1 + (i hbar/2) Tr(K0_xy + K0_yy B)

    with Gcal^{-1} (v1, v2) = (u, Re B u + Im B v2), u = (Im B)^{-1}(v1 + Re B v2),
    every derivative of K0 evaluated at Z as a vector or matrix."""
    n2 = comp.z.size // 2
    batch = PolyBatch([ksym.k0, ksym.k1, ksym.k0.grad(), ksym.k0.hessian()])
    k0, k1, grad, hess = batch(comp.z)
    re, im = comp.b.real, comp.b.imag
    if np.linalg.eigvalsh(im).min() <= 0:
        raise ValueError("Im B must be positive definite")
    v1, v2 = grad.imag[:n2], grad.imag[n2:]
    u = np.linalg.solve(im, v1 + re @ v2)
    zdot = symplectic_form(n2) @ grad.real + np.concatenate([u, re @ u + im @ v2])
    kxx, kxy, kyy = hess[:n2, :n2], hess[:n2, n2:], hess[n2:, n2:]
    bdot = -comp.b @ kyy @ comp.b - comp.b @ kxy.T - kxy @ comp.b - kxx
    alphadot = (comp.y @ zdot[:n2] - k0 - comp.hbar * k1
                + 0.5j * comp.hbar * (np.trace(kxy) + np.trace(kyy @ comp.b)))
    return zdot, bdot, alphadot


# -- chord-variable form for linear Lindblad operators -------------------------


@dataclass(frozen=True)
class ChordGaussian:
    """Fourier-side parametrization: -B^{-1} = Nmat + i Mmat, Mmat > 0."""

    x: np.ndarray
    y: np.ndarray
    nmat: np.ndarray
    mmat: np.ndarray
    norm: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "nmat", np.asarray(self.nmat, dtype=float))
        object.__setattr__(self, "mmat", np.asarray(self.mmat, dtype=float))
        if np.linalg.eigvalsh(self.mmat).min() <= 0:
            raise ValueError("Mmat must be positive definite")


def chord_from_component(comp: Component) -> ChordGaussian:
    minus_binv = -np.linalg.inv(comp.b)
    return ChordGaussian(
        x=comp.x,
        y=comp.y,
        nmat=minus_binv.real,
        mmat=minus_binv.imag,
        norm=component_integral(comp),
    )


def _linear_gradients(model: LindbladModel):
    m = model.to_chart(Chart.REAL_QP)
    n2 = 2 * m.n_modes
    grads = []
    for L in m.lindblads:
        if L.total_degree() != 1 or any(sum(k) == 0 for k in L.terms):
            raise ValueError("chord equations require homogeneous linear Lindblad symbols")
        vec = np.zeros(n2, dtype=complex)
        for key, coeff in L.terms.items():
            vec[key.index(1)] = coeff
        grads.append(vec)
    return grads


def diffusion_matrix(model: LindbladModel) -> np.ndarray:
    """Quadratic form of -2 Im K0 in the chord variable y.

    For linear Lindblad symbols Im K0(x, y) = -y . D y / 2 with
    D = sum_k Re(conj(lam_k) lam_k^T), lam_k = Omega^T grad L_k; the
    symplectic rotation enters through the shifts x -/+ Omega y / 2.
    """
    m = model.to_chart(Chart.REAL_QP)
    omega = symplectic_form(m.n_modes)
    total = np.zeros((2 * m.n_modes, 2 * m.n_modes))
    for vec in _linear_gradients(model):
        lam = omega.T @ vec
        total += np.real(np.outer(np.conj(lam), lam))
    return total


def chord_rhs(model: LindbladModel, chord: ChordGaussian):
    """Chord-variable equations of motion for quadratic H and linear L.

    Returns (dX, dY, dMmat, dNmat); equivalent to rhs_component transported
    through -B^{-1} = N + iM, which the tests assert to 1e-12.
    """
    k0 = model._doubled.k0
    n2 = chord.x.size
    z = np.concatenate([chord.x, chord.y])
    grad, hess = PolyBatch([k0.grad(), k0.hessian()])(z)
    gx = grad.real[:n2]
    gy = grad.real[n2:]
    kxx = hess[:n2, :n2].real
    kxy = hess[:n2, n2:].real
    kyx = kxy.T
    kyy = hess[n2:, n2:].real
    dmat = diffusion_matrix(model)
    m, nm = chord.mmat, chord.nmat
    minv = np.linalg.inv(m)
    xdot = gy + nm @ minv @ dmat @ chord.y
    ydot = -gx - minv @ dmat @ chord.y
    mdot = dmat + kyx @ m + m @ kxy - m @ kxx @ nm - nm @ kxx @ m
    ndot = -kyy + kyx @ nm + nm @ kxy + m @ kxx @ m - nm @ kxx @ nm
    return xdot, ydot, mdot, ndot
