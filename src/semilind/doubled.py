"""Double-phase-space propagation of complex Gaussian components.

The phase-space Lindblad generator acts on a Wigner component like a
non-Hermitian Hamiltonian K on a space of doubled dimension.  Its symbol has
the expansion K = K0 + hbar*K1 + ..., with

    K0 = H(x - Oy/2) - H(x + Oy/2)
         + sum_k Im[ conj(L_k)(x - Oy/2) L_k(x + Oy/2) ]
         - (i/2) sum_k |L_k(x + Oy/2) - L_k(x - Oy/2)|^2
    K1 = (1/4) sum_k [ {conj L_k, L_k}(x + Oy/2) + {conj L_k, L_k}(x - Oy/2) ]

(O = symplectic form; the shift-ordering and the K1 prefactor are pinned by
a build-time self-test against a fully worked quartic-plus-damping model).
Im K0 is even in y, non-positive and vanishes at y = 0; Re K0 is odd in y.

A component (Z=(X,Y), B, alpha, weight) then follows

    dZ/dt     = O2 grad Re K0 + Gcal^{-1} grad Im K0
    dB/dt     = -B K0_yy B - B K0_yx - K0_xy B - K0_xx
    dalpha/dt = (i hbar/4) Tr(dB/dt B^{-1}) + Y . dX/dt - K0 - hbar K1
                + (i hbar/2) Tr(K0_xy + K0_yy B)

with Gcal the real width matrix built from B.  The evolving amplitude
prefactor (det B)^{1/4} is integrated alongside as phi = log(det B)/4 and
folded into the component weight at output times, so stored components
evaluate with no extra prefactor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .gaussian import ComplexGaussian, SuperpositionState, g_from_a
from .semiclassical import LindbladModel, _packing
from .symbols import Chart, PolyBatch, PolySymbol, double_lift, moyal_term, poisson, symplectic_form

__all__ = [
    "DoubledSymbol",
    "ChordGaussian",
    "SuperpositionSeries",
    "build_k",
    "rhs_component",
    "propagate_superposition",
    "chord_from_component",
    "chord_rhs",
    "diffusion_matrix",
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

    def validate_structure(self, rng=None, samples: int = 64) -> None:
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
        rng = rng or np.random.default_rng(0)
        for _ in range(samples):
            x = rng.normal(size=n2, scale=2.0)
            y = rng.normal(size=n2, scale=2.0)
            val = im.eval(np.concatenate([x, y])).real
            if val > 1e-10 * scale:
                raise ValueError(f"Im K0 positive at a sample point: {val}")


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
        lp = double_lift(L, +1)
        lbar_m = double_lift(lbar, -1)
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
    """Cached batched evaluation of K0, K1, grad K0 and the K0 Hessian; packs
    a component as (Z, Re/Im upper triangle of B, alpha, phi)."""

    def __init__(self, ksym: DoubledSymbol):
        self.n2 = 2 * ksym.n_modes
        dim = 2 * self.n2
        grad = ksym.k0.grad()
        hess = ksym.k0.hessian()
        polys = [ksym.k0, ksym.k1] + grad
        for i in range(dim):
            polys.extend(hess[i])
        self.batch = PolyBatch(polys)
        self.dim = dim
        self.omega = symplectic_form(self.n2)
        self.iu, gather = _packing(self.n2)
        # gather points into (X, triangle); here Z takes dim = 2 n2 slots
        self.b_re = gather + self.n2
        self.b_im = self.b_re + self.iu[0].size

    def __call__(self, z):
        vals = self.batch(z)
        dim = self.dim
        k0 = vals[0]
        k1 = vals[1]
        grad = vals[2 : 2 + dim]
        hess = vals[2 + dim :].reshape(dim, dim)
        return k0, k1, grad, hess

    def pack(self, z, b, alpha, phi):
        tri = b[self.iu]
        return np.concatenate([z, tri.real, tri.imag, [alpha.real, alpha.imag, phi.real, phi.imag]])

    def unpack(self, yvec):
        b = yvec[self.b_re] + 1j * yvec[self.b_im]
        return yvec[: self.dim], b, complex(yvec[-4], yvec[-3]), complex(yvec[-2], yvec[-1])


def _component_rates(kev: _KEvaluator, z, b, hbar):
    n2 = kev.n2
    k0, k1, grad, hess = kev(z)
    gcal = g_from_a(b)
    zdot = kev.omega @ grad.real + np.linalg.solve(gcal, grad.imag)
    kxx = hess[:n2, :n2]
    kxy = hess[:n2, n2:]
    kyy = hess[n2:, n2:]
    bdot = -b @ kyy @ b - b @ kxy.T - kxy @ b - kxx
    tau = np.trace(np.linalg.solve(b.T, bdot.T))  # Tr(bdot b^{-1})
    xdot = zdot[:n2]
    alphadot = (
        0.25j * hbar * tau
        + z[n2:] @ xdot
        - k0
        - hbar * k1
        + 0.5j * hbar * (np.trace(kxy) + np.trace(kyy @ b))
    )
    return zdot, bdot, alphadot, tau


def rhs_component(ksym: DoubledSymbol, comp: ComplexGaussian):
    """Time derivatives (dZ, dB, dalpha) of one complex Gaussian component."""
    zdot, bdot, alphadot, _ = _component_rates(ksym._evaluator, comp.z, comp.b, comp.hbar)
    return zdot, bdot, alphadot


# -- integration of a superposition -------------------------------------------


@dataclass
class ComponentTrack:
    """One component's trajectory; dead components keep their last state."""

    states: list
    alive: np.ndarray
    events: list = field(default_factory=list)


@dataclass
class SuperpositionSeries:
    """Renormalized superposition snapshots plus bookkeeping."""

    times: np.ndarray
    states: list
    raw_norms: np.ndarray
    tracks: list
    events: list = field(default_factory=list)
    nfev: int = 0  # RK45 right-hand-side calls, summed over components

    def cross_magnitudes(self) -> np.ndarray:
        """Normalized peak magnitude of the off-diagonal (Y != 0) part."""
        mags = []
        for state in self.states:
            total = 0.0
            for comp in state.components:
                if np.linalg.norm(comp.y) > 1e-8:
                    total += comp.peak_magnitude() * abs(state.norm_factor)
            mags.append(total)
        return np.array(mags)


def propagate_superposition(
    model: LindbladModel,
    state: SuperpositionState,
    t_eval,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> SuperpositionSeries:
    """Evolve each complex Gaussian component independently and resum.

    The Wigner normalization is re-imposed at every output time (the raw
    integral is recorded).  A component whose Im B loses positivity beyond
    the floor is frozen with weight zero and an event record.
    """
    kev = model._doubled._evaluator
    hbar = state.hbar
    t_eval = np.asarray(t_eval, dtype=float)

    def odefun(t, yvec):
        z, b, _, _ = kev.unpack(yvec)
        zdot, bdot, alphadot, tau = _component_rates(kev, z, b, hbar)
        return kev.pack(zdot, bdot, alphadot, 0.25 * tau)

    def breakdown(t, yvec):
        _, b, _, _ = kev.unpack(yvec)
        return np.linalg.eigvalsh(b.imag).min() - _IMB_FLOOR

    breakdown.terminal = True
    breakdown.direction = -1

    tracks, nfev = [], 0
    for comp in state.components:
        y0 = kev.pack(comp.z, comp.b, complex(comp.alpha), 0j)
        sol = solve_ivp(
            odefun,
            (t_eval[0], t_eval[-1]),
            y0,
            method="RK45",
            t_eval=t_eval,
            rtol=rtol,
            atol=atol,
            events=breakdown,
        )
        if not sol.success and sol.status != 1:
            raise RuntimeError(f"component integration failed: {sol.message}")
        nfev += int(sol.nfev)
        states, events = [], []
        alive = np.zeros(t_eval.size, dtype=bool)
        last_alive = None
        for k, t in enumerate(t_eval):
            if k < sol.y.shape[1]:
                z, b, alpha, phi = kev.unpack(sol.y[:, k])
                weight = comp.weight * np.exp(phi)
                cg = ComplexGaussian(hbar=hbar, z=z, b=b, alpha=alpha, weight=weight)
                states.append(cg)
                alive[k] = True
                last_alive = cg
            else:
                if not events:
                    t_dead = sol.t_events[0][0] if sol.t_events[0].size else t
                    events.append({"t": float(t_dead), "kind": "component_collapse"})
                frozen = ComplexGaussian(
                    hbar=hbar,
                    z=last_alive.z,
                    b=last_alive.b,
                    alpha=last_alive.alpha,
                    weight=0.0,
                )
                states.append(frozen)
        tracks.append(ComponentTrack(states=states, alive=alive, events=events))

    states_out, raw_norms = [], []
    for k, t in enumerate(t_eval):
        comps = tuple(tr.states[k] for tr in tracks)
        raw = state.norm_factor * sum(c.integral() for c in comps)
        raw_norms.append(float(raw.real))
        total = sum(c.integral() for c in comps)
        states_out.append(SuperpositionState(comps, norm_factor=float(1.0 / total.real)))
    all_events = [ev for tr in tracks for ev in tr.events]
    return SuperpositionSeries(
        times=t_eval.copy(),
        states=states_out,
        raw_norms=np.array(raw_norms),
        tracks=tracks,
        events=all_events,
        nfev=nfev,
    )


def component_csv(track: ComponentTrack, times) -> str:
    """Columns: t, X, Y, Re/Im B upper triangle, alpha, effective weight."""
    first = track.states[0]
    n2 = first.z.size // 2
    iu = np.triu_indices(n2)
    header = (
        ["t"]
        + [f"X_{i+1}" for i in range(n2)]
        + [f"Y_{i+1}" for i in range(n2)]
        + [f"ReB_{i+1}{j+1}" for i, j in zip(*iu)]
        + [f"ImB_{i+1}{j+1}" for i, j in zip(*iu)]
        + ["re_alpha", "im_alpha", "weight_re", "weight_im"]
    )
    lines = [",".join(header)]
    for t, cg in zip(times, track.states):
        row = (
            [t]
            + list(cg.x)
            + list(cg.y)
            + list(cg.b[iu].real)
            + list(cg.b[iu].imag)
            + [cg.alpha.real, cg.alpha.imag, cg.weight.real, cg.weight.imag]
        )
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


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


def chord_from_component(comp: ComplexGaussian) -> ChordGaussian:
    minus_binv = -np.linalg.inv(comp.b)
    return ChordGaussian(
        x=comp.x,
        y=comp.y,
        nmat=minus_binv.real,
        mmat=minus_binv.imag,
        norm=comp.integral(),
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
    kev = model._doubled._evaluator
    n2 = chord.x.size
    z = np.concatenate([chord.x, chord.y])
    _, _, grad, hess = kev(z)
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
