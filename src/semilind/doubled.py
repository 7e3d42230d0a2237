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
system over the stack of their packed rows (Z, Re B triangle, Im B
triangle, Re alpha, Im alpha).  Every rate is a polynomial in the row but
for the terms in u = (Im B)^{-1}(v1 + Re B v2), (v1, v2) = grad Im K0, and
those polynomials are expanded once per model (`_fused_rates`).  So each
right-hand-side call is one `PolyBatch` evaluation over the stack of rows,
a Cholesky check of the Im B read from the rows, one stacked solve for u,
and the addition of u, Re B u and Y . u to dX, dY and dalpha.  A component
whose Im B collapses ends that solve at a terminal event; the solve
restarts from the event time without it.  The output stays stacked:
`SuperpositionSeries` holds Z, B, alpha and the weight of every component
at every output time as arrays, and its integrals, norms, moments, cross
magnitudes and ``component_<i>.csv`` come from them in a few batched
operations.  A `SuperpositionState` is built only for a requested frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .gaussian import Moments, SuperpositionState, _check_widths, _integrals, _superposition_moments
from .ode import solve_ivp
from .semiclassical import LindbladModel, _check_times, _packing
from .symbols import Chart, PolyBatch, PolySymbol, double_lift, moyal_term, poisson

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
    def _rhs(self) -> "_DoubledRhs":
        """The rates of a stack of packed components, compiled on first use."""
        return _DoubledRhs(self)

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


class _DoubledRhs:
    """The doubled rates of a model, compiled once: a call maps a stack of
    packed rows to the stack of their rates.

    A component is packed as the row (Z, Re B upper triangle, Im B upper
    triangle, Re alpha, Im alpha), a stack of components as a stack of rows.
    `_fused_rates` expands every rate that is polynomial in the row into one
    `PolyBatch`; a call evaluates it, checks Im B by a stacked Cholesky
    factorization, makes one stacked solve for u = (Im B)^{-1} w and adds
    u to dX, Re B u to dY and Y . u to dalpha.
    """

    def __init__(self, ksym: DoubledSymbol):
        n2 = 2 * ksym.n_modes
        self.dim = 2 * n2
        self.iu, self.b_re = _packing(n2, self.dim)
        self.b_im = self.b_re + self.iu[0].size
        self.row_size = self.dim + 2 * self.iu[0].size + 2
        self.batch = PolyBatch([_fused_rates(ksym, self.b_re, self.b_im, self.row_size)])
        # Im B, then the rows of Re B and Y that multiply u, gathered from a row
        self.gather = np.concatenate([self.b_im, self.b_re, n2 + np.arange(n2)[None]])

    def __call__(self, rows, hbar):
        """Rates of the rows of an (m, row_size) stack; raises `ValueError`
        if some row's Im B is not positive definite."""
        n2, size = self.dim // 2, self.row_size
        vals = self.batch(rows)[0]
        mats = rows[:, self.gather]
        im = mats[:, :n2]
        try:
            np.linalg.cholesky(im)
        except np.linalg.LinAlgError:
            raise ValueError("Im B must be positive definite") from None
        u = np.linalg.solve(im, vals[:, size + 2:, None])
        shifts = (mats[:, n2:] @ u)[..., 0]  # Re B u and Y . u
        rates = vals[:, :size]
        rates[:, :n2] += u[..., 0]
        rates[:, n2:self.dim] += shifts[:, :n2]
        rates[:, -2] += shifts[:, n2]
        rates[:, -2:] += hbar * vals[:, size:size + 2]
        return rates

    def pack(self, z, b, alpha):
        tri = b[..., self.iu[0], self.iu[1]]
        tail = np.stack([np.real(alpha), np.imag(alpha)], axis=-1)
        return np.concatenate([z, tri.real, tri.imag, tail], axis=-1)

    def unpack(self, rows):
        b = rows[..., self.b_re] + 1j * rows[..., self.b_im]
        return rows[..., : self.dim], b, rows[..., -2] + 1j * rows[..., -1]


def _fused_rates(ksym: DoubledSymbol, b_re, b_im, row_size):
    """The doubled rates as coefficient maps over the packed row, the
    positions of Re B and Im B in it given by ``b_re`` and ``b_im``: the
    row's own rates in row order, then the hbar-linear part of dalpha/dt
    (Re, Im) and the solve's right side w = v1 + Re B v2, with
    (v1, v2) = grad Im K0.

    Each rate but the terms in u = (Im B)^{-1} w is a polynomial in the row:
    the Omega2 grad Re K0 + (0, Im B v2) part of dZ/dt, the Re and Im upper
    triangles of dB/dt, and the hbar-free part -K0 + Y . (Omega2 grad Re K0)_x
    and hbar-linear part -K1 + (i/2) Tr(K0_xy + K0_yy B) of dalpha/dt.
    Every one is a sum of K-monomials in Z times entries of the row, and
    B = Re B + i Im B enters as a complex linear form in two entries."""
    n2 = b_re.shape[0]
    pad = (0,) * (row_size - 2 * n2)
    grad, hess = ksym.k0.grad(), ksym.k0.hessian()
    g_re = [g.real_part().terms for g in grad]
    g_im = [g.imag_part().terms for g in grad]
    kxx = [[hess[i][j].terms for j in range(n2)] for i in range(n2)]
    kxy = [[hess[i][n2 + j].terms for j in range(n2)] for i in range(n2)]
    kyy = [[hess[n2 + i][n2 + j].terms for j in range(n2)] for i in range(n2)]

    def b(i, j):  # B_ij as a linear form in the row, (position, coefficient) pairs
        return [(b_re[i, j], 1.0), (b_im[i, j], 1j)]

    def add(acc, terms, scale, *forms):
        """acc += scale * (polynomial in Z) * (product of linear forms)."""
        for choice in product(*forms):
            c0 = scale * math.prod(c for _, c in choice)
            for key, c in terms.items():
                key = list(key + pad)
                for s, _ in choice:
                    key[s] += 1
                key = tuple(key)
                acc[key] = acc.get(key, 0j) + c0 * c
        return acc

    # Omega2 grad Re K0, a polynomial in Z alone
    drift = g_re[n2:] + [{key: -c for key, c in f.items()} for f in g_re[:n2]]
    zdot = [add({}, f, 1.0) for f in drift]
    alpha0 = add({}, ksym.k0.terms, -1.0)
    alpha1 = add({}, ksym.k1.terms, -1.0)
    w = [add({}, g_im[i], 1.0) for i in range(n2)]
    for i in range(n2):
        add(alpha0, drift[i], 1.0, [(n2 + i, 1.0)])
        add(alpha1, kxy[i][i], 0.5j)
        for j in range(n2):
            add(zdot[n2 + i], g_im[n2 + j], 1.0, [(b_im[i, j], 1.0)])
            add(w[i], g_im[n2 + j], 1.0, [(b_re[i, j], 1.0)])
            add(alpha1, kyy[i][j], 0.5j, b(j, i))
    bdot = []
    for i, j in zip(*np.triu_indices(n2)):
        acc = add({}, kxx[i][j], -1.0)
        for k in range(n2):
            add(acc, kxy[j][k], -1.0, b(i, k))
            add(acc, kxy[i][k], -1.0, b(k, j))
            for l in range(n2):
                add(acc, kyy[k][l], -1.0, b(i, k), b(l, j))
        bdot.append(acc)

    def part(acc, take):
        return {key: take(c) for key, c in acc.items() if take(c) != 0}

    real, imag = (lambda c: c.real), (lambda c: c.imag)
    return ([part(f, real) for f in zdot] + [part(f, real) for f in bdot]
            + [part(f, imag) for f in bdot]
            + [part(f, take) for f in (alpha0, alpha1) for take in (real, imag)]
            + [part(f, real) for f in w])


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
    rhs = model._doubled._rhs
    hbar = state.hbar
    t_eval = _check_times(t_eval)

    def odefun(t, yvec):
        return rhs(yvec.reshape(-1, rhs.row_size), hbar).ravel()

    def floor_gaps(rows):
        return np.linalg.eigvalsh(rows[:, rhs.b_im]).min(axis=1) - _IMB_FLOOR

    def breakdown(t, yvec):
        return floor_gaps(yvec.reshape(-1, rhs.row_size)).min()

    rows = rhs.pack(state.z, state.b, state.alpha)
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

    z, b, alpha = rhs.unpack(out)
    _check_widths(b)
    integrals, centroids = _integrals(hbar, z, b, alpha, weights)
    norm_factors = 1.0 / integrals.sum(axis=1).real
    return SuperpositionSeries(
        times=t_eval.copy(), hbar=hbar, z=z, b=b, alpha=alpha, weights=weights,
        integrals=integrals, centroids=centroids, norm_factors=norm_factors,
        raw_norms=state.norm_factor / norm_factors, events=events, nfev=nfev, steps=steps,
        rejected=rejected,
    )
