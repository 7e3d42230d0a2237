"""Centre and width dynamics of Gaussian states under Lindblad evolution.

The centre X follows a generally non-Hamiltonian flow

    dX/dt = Omega grad H + Omega sum_k Im(L_k grad conj(L_k)),

and the width matrix G follows the matrix Riccati flow

    dG/dt = Lam Omega G - G Omega Lam^T + 2 G Omega D Omega G,

with Lam = H'' + sum_k Im(L_k conj(L_k)'') + sum_k Im(grad L_k grad conj(L_k)^T)
and D = sum_k Re(grad L_k grad conj(L_k)^T), everything evaluated at X.
The last term is the quantum correction that keeps G^{-1} + i Omega >= 0.

The same dynamics is available in the mode chart (a, abar); the two are
related by the unitary transformation matrix T and are tested against each
other.  Mode-chart equations assume hbar = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from .gaussian import GaussianWigner, physicality_of_width
from .symbols import Chart, PolyBatch, PolySymbol, chart_transform, poisson, symplectic_form

__all__ = [
    "LindbladModel",
    "SemiclassicalState",
    "DriftMatrices",
    "Trajectory",
    "FlowKind",
    "FlowClassification",
    "drift_field",
    "drift_x",
    "drift_matrices",
    "rhs_g",
    "drift_complex",
    "rhs_g_complex",
    "classify_flow",
    "integrate",
    "trajectory_to_csv",
    "trajectory_from_csv",
]

_EIG_CLAMP = 1e-12


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian symbol, Lindblad symbols, mode count and hbar."""

    n_modes: int
    hbar: float
    hamiltonian: PolySymbol
    lindblads: tuple

    def __post_init__(self):
        object.__setattr__(self, "lindblads", tuple(self.lindblads))
        chart = self.hamiltonian.chart
        for sym in (self.hamiltonian, *self.lindblads):
            if sym.chart is not chart or sym.n_modes != self.n_modes:
                raise ValueError("all model symbols must share chart and mode count")
        if chart is Chart.DOUBLED_XY:
            raise ValueError("models live on REAL_QP or COMPLEX_AABAR charts")

    @property
    def chart(self) -> Chart:
        return self.hamiltonian.chart

    def to_chart(self, target: Chart) -> "LindbladModel":
        if self.chart is target:
            return self
        return LindbladModel(
            n_modes=self.n_modes,
            hbar=self.hbar,
            hamiltonian=chart_transform(self.hamiltonian, target),
            lindblads=tuple(chart_transform(L, target) for L in self.lindblads),
        )

    @functools.cached_property
    def _compiled(self) -> "_CompiledRhs":
        """Gaussian fields on the REAL_QP chart, compiled on first use."""
        return _CompiledRhs(self.to_chart(Chart.REAL_QP))

    @functools.cached_property
    def _doubled(self):
        """Doubled generator symbol, built on first use by `semilind.doubled.build_k`
        (imported here because `semilind.doubled` imports this module)."""
        from . import doubled

        return doubled.build_k(self)


@dataclass(frozen=True)
class SemiclassicalState:
    t: float
    x: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))

    def as_gaussian(self, hbar: float) -> GaussianWigner:
        return GaussianWigner(hbar=hbar, x=self.x, g=self.g)


@dataclass(frozen=True)
class DriftMatrices:
    lam: np.ndarray
    d: np.ndarray


def _require_chart(model: LindbladModel, chart: Chart, op: str):
    if model.chart is not chart:
        raise ValueError(f"{op} expects a model on the {chart.value} chart")


def drift_field(model: LindbladModel) -> list[PolySymbol]:
    """Symbolic centre drift Omega grad H + Omega sum Im(L grad conj L)."""
    _require_chart(model, Chart.REAL_QP, "drift_field")
    dim = 2 * model.n_modes
    vec = model.hamiltonian.grad()
    for L in model.lindblads:
        lbar = L.conj()
        for i in range(dim):
            vec[i] = vec[i] + (L * lbar.deriv(i)).imag_part()
    half = dim // 2
    return [vec[half + i] for i in range(half)] + [-vec[i] for i in range(half)]


def drift_x(model: LindbladModel, x) -> np.ndarray:
    """Centre drift evaluated at a phase-space point."""
    _require_chart(model, Chart.REAL_QP, "drift_x")
    return model._compiled.fields(x)[0]


def _lambda_field(model: LindbladModel) -> list[list[PolySymbol]]:
    dim = 2 * model.n_modes
    lam = model.hamiltonian.hessian()
    for L in model.lindblads:
        lbar = L.conj()
        hess_bar = lbar.hessian()
        grads = L.grad()
        grads_bar = lbar.grad()
        for i in range(dim):
            for j in range(dim):
                lam[i][j] = (
                    lam[i][j]
                    + (L * hess_bar[i][j]).imag_part()
                    + (grads[i] * grads_bar[j]).imag_part()
                )
    return lam


def _d_field(model: LindbladModel) -> list[list[PolySymbol]]:
    dim = 2 * model.n_modes
    dmat = [[PolySymbol.zero(Chart.REAL_QP, model.n_modes) for _ in range(dim)] for _ in range(dim)]
    for L in model.lindblads:
        grads = L.grad()
        grads_bar = L.conj().grad()
        for i in range(dim):
            for j in range(dim):
                dmat[i][j] = dmat[i][j] + (grads[i] * grads_bar[j]).real_part()
    return dmat


def drift_matrices(model: LindbladModel, x) -> DriftMatrices:
    """Lam and D evaluated at the centre."""
    _require_chart(model, Chart.REAL_QP, "drift_matrices")
    _, lam, d2 = model._compiled.fields(x)
    return DriftMatrices(lam=lam, d=0.5 * d2)


def rhs_g(model: LindbladModel, x, g: np.ndarray) -> np.ndarray:
    """Width equation right-hand side from the upper triangle of g, mirrored
    through the gather index so that it is exactly symmetric."""
    _require_chart(model, Chart.REAL_QP, "rhs_g")
    rhs = model._compiled
    y = np.concatenate([np.asarray(x, dtype=float), np.asarray(g, dtype=float)[rhs.iu]])
    return rhs(0.0, y)[rhs.gather]


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


# -- flow classification ------------------------------------------------------


class FlowKind(Enum):
    VANISHING = "vanishing"
    GRADIENT_HOLOMORPHIC = "gradient_holomorphic"
    GENERAL_GRADIENT = "general_gradient"
    HAMILTONIAN = "hamiltonian"
    GENERAL = "general"


@dataclass(frozen=True)
class FlowClassification:
    kind: FlowKind
    sign: int | None = None
    potential: PolySymbol | None = None


def _is_negligible(sym: PolySymbol, scale: float) -> bool:
    return sym.max_abs_coeff() <= 1e-12 * max(1.0, scale)


def classify_flow(lindblad: PolySymbol) -> FlowClassification:
    """Classify the centre flow contributed by one Lindblad symbol.

    * Vanishing: purely real or purely imaginary symbol (no drift at all).
    * GradientHolomorphic(sign): Cauchy-Riemann pair in q +/- i p; the flow
      is grad of sign * |L|^2 / 2 (sign = -1 for the q + i p case).
    * GeneralGradient: the special linear form a*q + i*b*p, a != +/-b, with
      potential -(a b / 2)(q^2 + p^2).
    * Hamiltonian: single mode with {Re L, Im L} = 0 identically.
    * General: anything else.
    """
    if lindblad.chart is not Chart.REAL_QP:
        raise ValueError("classification works on the REAL_QP chart")
    n = lindblad.n_modes
    scale = lindblad.max_abs_coeff() ** 2
    re_l = lindblad.real_part()
    im_l = lindblad.imag_part()
    if _is_negligible(re_l, scale) or _is_negligible(im_l, scale):
        return FlowClassification(FlowKind.VANISHING)

    omega = symplectic_form(n)
    grad_re = re_l.grad()
    grad_im = im_l.grad()

    def rotated(grads):
        # Omega applied to a symbolic vector
        half = n
        return [grads[half + i] for i in range(half)] + [-grads[i] for i in range(half)]

    rot_im = rotated(grad_im)
    abs_sq = (lindblad * lindblad.conj()).real_part()
    for cr_sign, pot_sign in ((+1, -1), (-1, +1)):
        if all(
            _is_negligible(grad_re[i] - cr_sign * rot_im[i], scale) for i in range(2 * n)
        ):
            return FlowClassification(
                FlowKind.GRADIENT_HOLOMORPHIC, sign=pot_sign, potential=abs_sq * (0.5 * pot_sign)
            )

    if n == 1 and lindblad.total_degree() == 1:
        terms = dict(lindblad.terms)
        terms.pop((0, 0), None)
        cq = terms.pop((1, 0), 0j)
        cp = terms.pop((0, 1), 0j)
        if not terms and abs(cq.imag) <= 1e-12 * max(1.0, abs(cq)) and abs(cp.real) <= 1e-12 * max(1.0, abs(cp)):
            a, b = cq.real, cp.imag
            if a and b:
                q = PolySymbol.variable(Chart.REAL_QP, 1, 0)
                p = PolySymbol.variable(Chart.REAL_QP, 1, 1)
                pot = (q * q + p * p) * (-0.5 * a * b)
                return FlowClassification(FlowKind.GENERAL_GRADIENT, potential=pot)

    if n == 1 and _is_negligible(poisson(re_l, im_l), scale):
        return FlowClassification(FlowKind.HAMILTONIAN)
    return FlowClassification(FlowKind.GENERAL)


# -- integration --------------------------------------------------------------


def _packing(dim):
    """Upper-triangle indices of G, and for every entry of G its position in
    the packed state (X, upper triangle of G row-major)."""
    iu = np.triu_indices(dim)
    pos = np.zeros((dim, dim), dtype=np.intp)
    pos[iu] = dim + np.arange(iu[0].size)
    return iu, np.maximum(pos, pos.T)


@dataclass
class Trajectory:
    """Semiclassical trajectory sampled at requested times."""

    times: np.ndarray
    states: list
    min_physicality: np.ndarray
    events: list = field(default_factory=list)
    nfev: int = 0  # RK45 right-hand-side calls

    def observable(self, fn) -> np.ndarray:
        return np.array([fn(s) for s in self.states])


class _CompiledRhs:
    """Drift, Lam and D + D^T compiled once into a PolyBatch; every Gaussian
    caller evaluates them here, through the instance a model caches.

    On the packed state the width equation is evaluated in its symmetric
    closed form dG/dt = S + S^T - W^T (D + D^T) W with W = Omega G and
    S = Lam W, which equals the symmetrized core because Omega^T = -Omega.
    """

    def __init__(self, model: LindbladModel):
        dim = 2 * model.n_modes
        dmat = _d_field(model)
        polys = list(drift_field(model))
        for row in _lambda_field(model):
            polys.extend(row)
        polys.extend(dmat[i][j] + dmat[j][i] for i in range(dim) for j in range(dim))
        self.batch = PolyBatch(polys)
        self.dim = dim
        self.omega = symplectic_form(model.n_modes)
        self.iu, self.gather = _packing(dim)

    def fields(self, x):
        """Drift, Lam and D + D^T at a real point."""
        dim = self.dim
        vals = self.batch.real_at(x)
        lam = vals[dim : dim + dim * dim].reshape(dim, dim)
        d2 = vals[dim + dim * dim :].reshape(dim, dim)
        return vals[:dim], lam, d2

    def __call__(self, t, y):
        drift, lam, d2 = self.fields(y[: self.dim])
        w = self.omega.dot(y[self.gather])
        s = lam.dot(w)
        gdot = s + s.T - w.T.dot(d2).dot(w)
        return np.concatenate([drift, gdot[self.iu]])


def integrate(
    model: LindbladModel,
    state0: SemiclassicalState,
    t_eval,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Trajectory:
    """Propagate (X, G) with an adaptive embedded Runge-Kutta 5(4) scheme.

    G is packed by its upper triangle, so symmetry is exact by construction.
    At each output time the state is checked: eigenvalues of G below the
    clamp threshold are raised (with an event record) and the uncertainty
    measure min eig(G^{-1} + i Omega) is stored.
    """
    dim = 2 * model.n_modes
    if state0.x.size != dim:
        raise ValueError("state dimension does not match the model")
    t_eval = np.asarray(t_eval, dtype=float)
    if abs(t_eval[0] - state0.t) > 1e-12:
        raise ValueError("t_eval must start at the initial state time")
    rhs = model._compiled
    y0 = np.concatenate([state0.x, state0.g[rhs.iu]])
    sol = solve_ivp(
        rhs,
        (t_eval[0], t_eval[-1]),
        y0,
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    states, phys, events = [], [], []
    for k, t in enumerate(sol.t):
        x, g = sol.y[:dim, k], sol.y[rhs.gather, k]
        evals, evecs = np.linalg.eigh(g)
        if evals.min() < _EIG_CLAMP:
            events.append(
                {"t": float(t), "kind": "width_clamp", "min_eig": float(evals.min())}
            )
            evals = np.clip(evals, _EIG_CLAMP, None)
            g = evecs @ np.diag(evals) @ evecs.T
        rep = physicality_of_width(g)
        if not rep.passed:
            events.append(
                {"t": float(t), "kind": "physicality", "min_eig": rep.min_eig}
            )
        phys.append(rep.min_eig)
        states.append(SemiclassicalState(t=float(t), x=x, g=g))
    return Trajectory(
        times=sol.t.copy(), states=states, min_physicality=np.array(phys), events=events,
        nfev=int(sol.nfev),
    )


# -- trajectory CSV -----------------------------------------------------------


def trajectory_to_csv(traj: Trajectory) -> str:
    """Columns: t, X_1..X_2n, G upper triangle row-major, min_eig_physicality."""
    dim = traj.states[0].x.size
    iu = np.triu_indices(dim)
    header = (
        ["t"]
        + [f"X_{i+1}" for i in range(dim)]
        + [f"G_{i+1}{j+1}" for i, j in zip(*iu)]
        + ["min_eig_physicality"]
    )
    lines = [",".join(header)]
    for k, st in enumerate(traj.states):
        row = [st.t, *st.x, *st.g[iu], traj.min_physicality[k]]
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    dim = sum(1 for h in header if h.startswith("X_"))
    _, gather = _packing(dim)
    times, states, phys = [], [], []
    for ln in lines[1:]:
        vals = np.array([float(tok) for tok in ln.split(",")])
        t = float(vals[0])
        x, g = vals[1 : 1 + dim], vals[1:][gather]
        times.append(t)
        states.append(SemiclassicalState(t=t, x=x, g=g))
        phys.append(vals[-1])
    return Trajectory(
        times=np.array(times), states=states, min_physicality=np.array(phys)
    )
