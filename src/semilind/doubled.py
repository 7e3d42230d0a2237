"""Double-phase-space propagation of complex Gaussian components.

The phase-space Lindblad generator acts on a Wigner component like a
non-Hermitian Hamiltonian K on a space of doubled dimension.  Its symbol has
the expansion K = K0 + hbar*K1 + ..., with

    K0 = H(x - Oy/2) - H(x + Oy/2)
         + sum_k Im[ conj(L_k)(x - Oy/2) L_k(x + Oy/2) ]
         - (i/2) sum_k |L_k(x + Oy/2) - L_k(x - Oy/2)|^2
    K1 = (1/4) sum_k [ {conj L_k, L_k}(x + Oy/2) + {conj L_k, L_k}(x - Oy/2) ]

(O = symplectic form; the shift-ordering and the K1 prefactor are pinned by
the coefficients of a fully worked quartic-plus-damping model, checked by
``semilind selftest`` and by ``test_anharmonic_damped_coefficients``).
Im K0 is even in y, non-positive and vanishes at y = 0; Re K0 is odd in y.

A component (Z=(X,Y), B, alpha, weight) then follows

    dZ/dt     = O2 grad Re K0 + Gcal^{-1} grad Im K0
    dB/dt     = -B K0_yy B - B K0_yx - K0_xy B - K0_xx
    dalpha/dt = Y . dX/dt - K0 - hbar K1 + (i hbar/2) Tr(K0_xy + K0_yy B)

with Gcal the real width matrix built from B, whose inverse acts in closed
form: Gcal^{-1} (v1, v2) = (u, Re B u + Im B v2), u = (Im B)^{-1}(v1 + Re B v2).
The amplitude prefactor (det B)^{1/4} and the phase term
(i hbar/4) Tr(dB/dt B^{-1}) of dalpha/dt cancel exactly, so neither is
integrated: alpha carries the whole phase and amplitude, and the weight
stays the t = 0 weight until a collapse sets it to zero.

The components of a superposition are propagated together, as one DOP853
system over the stack of their packed states: each right-hand-side call
evaluates the symbols at all live centres in one `PolyBatch` call and the
rates with stacked matrix products and solves.  A component whose Im B
collapses ends that solve at a terminal event; the solve restarts from the
event time without it.  The output stays stacked: `SuperpositionSeries`
holds Z, B, alpha and the weight of every component at every output time
as arrays, and its integrals, norms, moments, cross magnitudes and
``component_<i>.csv`` come from them in a few batched operations.  A
`SuperpositionState` is built only for a requested frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gaussian import Moments, SuperpositionState, _check_widths, _integrals, _superposition_moments
from .ode import solve_ivp
from .semiclassical import LindbladModel, _check_times, _packing
from .symbols import Chart, PolyBatch, PolySymbol, double_lift, moyal_term, poisson, symplectic_form

__all__ = [
    "DoubledSymbol",
    "SuperpositionSeries",
    "build_k",
    "propagate_superposition",
]

_IMB_FLOOR = 1e-10


@dataclass(frozen=True)
class DoubledSymbol:
    """Leading symbol K0 and order-hbar correction K1 on the doubled chart."""

    k0: PolySymbol
    k1: PolySymbol

    def __post_init__(self):
        if self.k0.chart is not Chart.DOUBLED_XY or self.k1.chart is not Chart.DOUBLED_XY:
            raise ValueError("doubled symbols must live on the DOUBLED_XY chart")
        if self.k0.n_modes != self.k1.n_modes:
            raise ValueError("K0/K1 mode mismatch")

    @property
    def n_modes(self) -> int:
        return self.k0.n_modes

    @functools.cached_property
    def _evaluator(self) -> "_KEvaluator":
        """Batched evaluator of K0, K1 and their derivatives, compiled on first use."""
        return _KEvaluator(self)

    def validate_structure(self) -> None:
        """Parity and sign structure of K0; raises on violation.

        Coefficient-wise: Im K0 even in y with no y-free part, Re K0 odd in
        y, grad Im K0 vanishing at y = 0.  The non-positivity of Im K0 is
        spot-checked on random points.
        """
        n2 = 2 * self.n_modes
        im = self.k0.imag_part()
        re = self.k0.real_part()
        scale = max(self.k0.max_abs_coeff(), 1.0)
        for key, coeff in im.terms.items():
            ydeg = sum(key[n2:])
            if (ydeg % 2 or ydeg == 0) and abs(coeff) > 1e-12 * scale:
                raise ValueError(f"Im K0 has a y-odd or y-free term {key}")
        for key, coeff in re.terms.items():
            if sum(key[n2:]) % 2 == 0 and abs(coeff) > 1e-12 * scale:
                raise ValueError(f"Re K0 has a y-even term {key}")
        pts = np.random.default_rng(0).normal(size=(64, 2 * n2), scale=2.0)
        vals = PolyBatch([im])(pts)[0].real
        if vals.max() > 1e-10 * scale:
            raise ValueError(f"Im K0 positive at a sample point: {vals.max()}")


def build_k(model: LindbladModel) -> DoubledSymbol:
    """Doubled generator symbol of a Lindblad model, split as K0 + hbar K1.

    Star products on the doubled chart are evaluated order by order on the
    polynomial representation (exact; no numerical differentiation).  The
    first-order doubled bracket between the two lifts vanishes identically,
    which the construction exploits and the tests assert.
    """
    m = model.to_chart(Chart.REAL_QP)
    n = m.n_modes
    h_minus = double_lift(m.hamiltonian, -1)
    h_plus = double_lift(m.hamiltonian, +1)
    k0 = h_minus - h_plus
    k1 = PolySymbol.zero(Chart.DOUBLED_XY, n)
    for L in m.lindblads:
        lbar = L.conj()
        lm = double_lift(L, -1)
        lbar_p = double_lift(lbar, +1)
        absq = (lbar * L).real_part()
        k0 = k0 + 1j * (
            moyal_term(lm, lbar_p, 0)
            - 0.5 * double_lift(absq, -1)
            - 0.5 * double_lift(absq, +1)
        )
        bracket = poisson(lbar, L)
        k1 = (
            k1
            - 0.5 * moyal_term(lm, lbar_p, 1)
            + 0.25 * (double_lift(bracket, -1) + double_lift(bracket, +1))
        )
    k0 = k0.prune(1e-15 * max(1.0, k0.max_abs_coeff()))
    k1 = k1.prune(1e-15 * max(1.0, k1.max_abs_coeff()))
    sym = DoubledSymbol(k0=k0, k1=k1)
    sym.validate_structure()
    return sym


class _KEvaluator:
    """``batch(z)`` gives K0, K1, grad K0 and the K0 Hessian at a point z, or
    at each row of a stack; packs a component as the row (Z, Re/Im upper
    triangle of B, Re alpha, Im alpha), and a stack of components as a stack
    of rows."""

    def __init__(self, ksym: DoubledSymbol):
        self.n2 = 2 * ksym.n_modes
        dim = 2 * self.n2
        self.batch = PolyBatch([ksym.k0, ksym.k1, ksym.k0.grad(), ksym.k0.hessian()])
        self.dim = dim
        self.omega = symplectic_form(self.n2)
        self.iu, self.b_re = _packing(self.n2, dim)
        self.b_im = self.b_re + self.iu[0].size
        self.row_size = dim + 2 * self.iu[0].size + 2

    def pack(self, z, b, alpha):
        tri = b[..., self.iu[0], self.iu[1]]
        tail = np.stack([np.real(alpha), np.imag(alpha)], axis=-1)
        return np.concatenate([z, tri.real, tri.imag, tail], axis=-1)

    def unpack(self, rows):
        b = rows[..., self.b_re] + 1j * rows[..., self.b_im]
        return rows[..., : self.dim], b, rows[..., -2] + 1j * rows[..., -1]


def _rates(kev: _KEvaluator, z, b, hbar):
    """(dZ, dB, dalpha) of a stack of m components, z of shape
    (m, 2 n2) and b of shape (m, n2, n2); each row is computed on its own."""
    n2 = kev.n2
    re, im = b.real, b.imag
    if np.linalg.eigvalsh(im).min() <= 0:
        raise ValueError("Im B must be positive definite")
    k0, k1, grad, hess = kev.batch(z)
    # Gcal^{-1} (v1, v2) = (u, Re B u + Im B v2) with u = (Im B)^{-1} (v1 + Re B v2)
    v1 = grad.imag[:, :n2, None]
    v2 = grad.imag[:, n2:, None]
    u = np.linalg.solve(im, v1 + re @ v2)
    zdot = grad.real @ kev.omega.T + np.concatenate([u, re @ u + im @ v2], axis=1)[:, :, 0]
    kxx = hess[:, :n2, :n2]
    kxy = hess[:, :n2, n2:]
    kyy = hess[:, n2:, n2:]
    bdot = -b @ kyy @ b - b @ kxy.transpose(0, 2, 1) - kxy @ b - kxx
    xdot = zdot[:, :n2]
    alphadot = (
        np.einsum("mi,mi->m", z[:, n2:], xdot)
        - k0
        - hbar * k1
        + 0.5j * hbar * (np.einsum("mii->m", kxy) + np.einsum("mij,mji->m", kyy, b))
    )
    return zdot, bdot, alphadot


# -- integration of a superposition -------------------------------------------


@dataclass
class SuperpositionSeries:
    """A propagated superposition, stacked over output times k and components i.

    ``z[k, i]``, ``b[k, i]``, ``alpha[k, i]`` and ``weights[k, i]`` are
    component i at output time k; a collapsed component keeps its state at
    the last output time before its collapse, with weight zero.
    ``integrals`` and ``centroids`` are each component's (`_integrals`),
    ``norm_factors[k]`` renormalizes the state at output time k, and
    ``raw_norms`` is its integral relative to the initial state's.
    """

    times: np.ndarray
    hbar: float
    z: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    weights: np.ndarray
    integrals: np.ndarray
    centroids: np.ndarray
    norm_factors: np.ndarray
    raw_norms: np.ndarray
    events: list = field(default_factory=list)
    nfev: int = 0  # DOP853 right-hand-side calls of the one stacked system
    steps: int = 0  # accepted DOP853 steps, over every restart
    rejected: int = 0  # rejected DOP853 steps, over every restart

    def state(self, k: int) -> SuperpositionState:
        """The renormalized superposition at output time k; its widths were
        checked with the whole stack, by `propagate_superposition`."""
        return SuperpositionState._of_checked(self.hbar, self.z[k], self.b[k], self.alpha[k],
                                              self.weights[k], float(self.norm_factors[k]))

    def moments(self) -> Moments:
        """The moments of every output time, as one record (`_superposition_moments`)."""
        x, cov = _superposition_moments(self.hbar, self.integrals, self.centroids, self.b)
        return Moments.from_covariance(self.hbar, x, cov)

    def cross_magnitudes(self) -> np.ndarray:
        """Normalized peak magnitude of the off-diagonal (Y != 0) part: the sum
        over those components of |weight| exp(-Im alpha / hbar) at x = X."""
        n2 = self.z.shape[-1] // 2
        cross = np.linalg.norm(self.z[..., n2:], axis=-1) > 1e-8
        peaks = np.abs(self.weights) * np.exp(-self.alpha.imag / self.hbar)
        return np.sum(np.where(cross, peaks * np.abs(self.norm_factors)[:, None], 0.0), axis=1)


def propagate_superposition(
    model: LindbladModel,
    state: SuperpositionState,
    t_eval,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> SuperpositionSeries:
    """Evolve all complex Gaussian components as one stacked ODE system and resum.

    The live components share the steps of one DOP853 solve.  When the smallest
    eigenvalue of some component's Im B falls to the floor, the solve stops
    there: that component is frozen with weight zero and an event record, and
    the solve restarts from the event time with the components left.  The
    Wigner normalization is re-imposed at every output time (the raw integral
    is recorded).  The output times must increase strictly; an output time
    with no live component left raises `RuntimeError`.  Every output
    component's B is checked, as `SuperpositionState` checks it, in one pass
    over the stack, and the integrals of all output components are one
    stacked evaluation.
    """
    kev = model._doubled._evaluator
    hbar = state.hbar
    t_eval = _check_times(t_eval)

    def odefun(t, yvec):
        z, b, _ = kev.unpack(yvec.reshape(-1, kev.row_size))
        return kev.pack(*_rates(kev, z, b, hbar)).ravel()

    def floor_gaps(rows):
        return np.linalg.eigvalsh(kev.unpack(rows)[1].imag).min(axis=1) - _IMB_FLOOR

    def breakdown(t, yvec):
        return floor_gaps(yvec.reshape(-1, kev.row_size)).min()

    rows = kev.pack(state.z, state.b, state.alpha)
    # the packed rows of every component at every output time
    out = np.empty((t_eval.size,) + rows.shape)
    weights = np.tile(state.weights, (t_eval.size, 1))
    live = np.arange(len(rows))
    events, k, t0 = [], 0, t_eval[0]
    nfev = steps = rejected = 0
    while k < t_eval.size:
        if not live.size:
            times = ", ".join(f"{ev['t']:.6g}" for ev in events)
            raise RuntimeError(
                f"no live component at output time t = {t_eval[k]:g}: "
                f"every component collapsed (at t = {times})"
            )
        sol = solve_ivp(odefun, (t0, t_eval[-1]), rows[live].ravel(), t_eval=t_eval[k:],
                        rtol=rtol, atol=atol, event=breakdown)
        if not sol.success:
            raise RuntimeError(f"superposition integration failed: {sol.message}")
        nfev, steps, rejected = nfev + sol.nfev, steps + sol.steps, rejected + sol.rejected
        done = slice(k, k + sol.t.size)
        frozen = np.setdiff1d(np.arange(len(rows)), live)
        out[done, live] = sol.y.T.reshape(sol.t.size, live.size, -1)
        out[done, frozen] = out[k - 1, frozen]
        weights[done, frozen] = 0.0
        k += sol.t.size
        if sol.status == 1:
            t0 = float(sol.t_event)
            rows[live] = sol.y_event.reshape(live.size, -1)
            gaps = floor_gaps(rows[live])
            collapsed = gaps <= max(gaps.min(), 0.0)
            for idx in live[collapsed]:
                events.append({"t": t0, "kind": "component_collapse", "component": int(idx)})
            live = live[~collapsed]

    z, b, alpha = kev.unpack(out)
    _check_widths(b)
    integrals, centroids = _integrals(hbar, z, b, alpha, weights)
    norm_factors = 1.0 / integrals.sum(axis=1).real
    return SuperpositionSeries(
        times=t_eval.copy(), hbar=hbar, z=z, b=b, alpha=alpha, weights=weights,
        integrals=integrals, centroids=centroids, norm_factors=norm_factors,
        raw_norms=state.norm_factor / norm_factors, events=events, nfev=nfev, steps=steps,
        rejected=rejected,
    )
