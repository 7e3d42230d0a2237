"""Centre and width dynamics of Gaussian states under Lindblad evolution.

The centre X follows a generally non-Hamiltonian flow

    dX/dt = Omega grad H + Omega sum_k Im(L_k grad conj(L_k)),

and the width matrix G follows the matrix Riccati flow

    dG/dt = Lam Omega G - G Omega Lam^T + 2 G Omega D Omega G,

with Lam = H'' + sum_k Im(L_k conj(L_k)'') + sum_k Im(grad L_k grad conj(L_k)^T)
and D = sum_k Re(grad L_k grad conj(L_k)^T), everything evaluated at X.
The last term is the quantum correction that keeps G^{-1} + i Omega >= 0.

`integrate` moves a `GaussianWigner` (centre X, width G, hbar) along both
flows and returns a `Trajectory`: the centres and widths at the output times,
stacked, from which a `GaussianWigner` is built only on request.  It
integrates the packed row (X, upper triangle of G), whose rate is a
polynomial in that row entry by entry: the drift depends on X alone, and the
width rate is linear and quadratic in G with coefficients polynomial in X.
These polynomials are expanded once per model (`_packed_rates`), so each
right-hand-side call is one `PolyBatch` evaluation.
`classify_flow` names the class of the centre flow one Lindblad symbol
contributes (gradient, Hamiltonian or general); each phase portrait reports
it for every Lindblad symbol of its model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gaussian import GaussianWigner, physicality_of_width
from .ode import solve_ivp
from .symbols import Chart, PolyBatch, PolySymbol, chart_transform, poisson

__all__ = [
    "LindbladModel",
    "Trajectory",
    "FlowKind",
    "FlowClassification",
    "drift_field",
    "drift_x",
    "classify_flow",
    "integrate",
]

_PHYS_TOL = -1e-9  # the least min eig(G^{-1} + i Omega) taken as physical


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


def _require_chart(model: LindbladModel, chart: Chart, op: str):
    if model.chart is not chart:
        raise ValueError(f"{op} expects a model on the {chart.value} chart")


def _gaussian_fields(model: LindbladModel):
    """Symbolic drift Omega grad H + Omega sum Im(L grad conj L), Lam and
    D + D^T (see the module docstring), built in one pass over the Lindblad
    symbols.  H enters through its real part, so every coefficient is real,
    whatever rounding noise a chart change left in H."""
    _require_chart(model, Chart.REAL_QP, "drift_field")
    dim = 2 * model.n_modes
    h = model.hamiltonian.real_part()
    vec, lam = h.grad(), h.hessian()
    dmat = [[PolySymbol.zero(Chart.REAL_QP, model.n_modes) for _ in range(dim)] for _ in range(dim)]
    for L in model.lindblads:
        lbar = L.conj()
        grads, grads_bar, hess_bar = L.grad(), lbar.grad(), lbar.hessian()
        for i in range(dim):
            vec[i] = vec[i] + (L * grads_bar[i]).imag_part()
            for j in range(dim):
                outer = grads[i] * grads_bar[j]
                lam[i][j] = lam[i][j] + (L * hess_bar[i][j]).imag_part() + outer.imag_part()
                dmat[i][j] = dmat[i][j] + outer.real_part()
    half = dim // 2
    drift = [vec[half + i] for i in range(half)] + [-vec[i] for i in range(half)]
    return drift, lam, [[dmat[i][j] + dmat[j][i] for j in range(dim)] for i in range(dim)]


def drift_field(model: LindbladModel) -> list[PolySymbol]:
    """Symbolic centre drift Omega grad H + Omega sum Im(L grad conj L)."""
    return _gaussian_fields(model)[0]


def drift_x(model: LindbladModel, x) -> np.ndarray:
    """Centre drift at a phase-space point (q, p), or at each row of an
    (m, dim) array, for a model on either chart."""
    return model._compiled.drift(x)[0]


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


def _packing(dim, offset):
    """Upper-triangle indices of a (dim, dim) symmetric matrix, and for every
    entry its position in a packed row that holds the upper triangle,
    row-major, from position ``offset`` on (after the centre)."""
    iu = np.triu_indices(dim)
    pos = np.zeros((dim, dim), dtype=np.intp)
    pos[iu] = offset + np.arange(iu[0].size)
    return iu, np.maximum(pos, pos.T)


@dataclass
class Trajectory:
    """Gaussian states at the sampled times, stacked: centre ``x[k]`` (2n,)
    and width ``g[k]`` (2n, 2n) at ``times[k]``, as integrated, with
    min eig(G^{-1} + i Omega) at each and the physicality events."""

    times: np.ndarray
    hbar: float
    x: np.ndarray
    g: np.ndarray
    min_physicality: np.ndarray
    events: list = field(default_factory=list)
    nfev: int = 0  # DOP853 right-hand-side calls
    steps: int = 0  # accepted DOP853 steps
    rejected: int = 0  # rejected DOP853 steps

    def state(self, k: int) -> GaussianWigner:
        """The Gaussian state at output time k."""
        return GaussianWigner(hbar=self.hbar, x=self.x[k], g=self.g[k])


def _packed_rates(drift, lam, d2, n_modes):
    """The packed right-hand side as coefficient maps over the packed row
    (X, upper triangle of G, as `_packing` lays it out): the drift, which
    depends on X alone, then the upper triangle of the width rate in its
    symmetric closed form dG/dt = S + S^T - W^T (D + D^T) W, with W = Omega G
    and S = Lam W, which equals the symmetrized core because
    Omega^T = -Omega.  S is linear and W^T (D + D^T) W quadratic in G, so
    every entry is a polynomial in the row: each X-monomial of Lam and
    D + D^T times one or two entries of G."""
    dim = 2 * n_modes
    iu, pos = _packing(dim, dim)
    pad = (0,) * iu[0].size
    # W = Omega G: row k of W is sign[k] times row partner[k] of G
    partner = [*range(n_modes, dim), *range(n_modes)]
    sign = [1] * n_modes + [-1] * n_modes

    def add(acc, sym, scale, *slots):
        """acc += scale * sym * (product of the packed entries at slots)."""
        for key, c in sym.terms.items():
            key = list(key + pad)
            for s in slots:
                key[s] += 1
            key = tuple(key)
            acc[key] = acc.get(key, 0j) + scale * c

    rates = [{key + pad: c for key, c in f.terms.items()} for f in drift]
    for i, j in zip(*iu):
        acc = {}
        for k in range(dim):
            wki, wkj = pos[partner[k], i], pos[partner[k], j]
            add(acc, lam[i][k], sign[k], wkj)
            add(acc, lam[j][k], sign[k], wki)
            for l in range(dim):
                add(acc, d2[k][l], -sign[k] * sign[l], wki, pos[partner[l], j])
        rates.append({key: c for key, c in acc.items() if c != 0})
    return rates


class _CompiledRhs:
    """The Gaussian flow of a model, compiled once; every Gaussian caller
    evaluates it here, through the instance a model caches.

    The packed row holds X and the upper triangle of G.  `_packed_rates`
    expands its rate into one polynomial per entry, from the drift, Lam and
    D + D^T of `_gaussian_fields`, and ``rates`` is their `PolyBatch`: a call
    is one evaluation of it, with nothing gathered or repacked.  ``drift``
    is the drift alone, for `drift_x`.
    """

    def __init__(self, model: LindbladModel):
        dim = 2 * model.n_modes
        drift, lam, d2 = _gaussian_fields(model)
        self.drift = PolyBatch([drift])
        self.rates = PolyBatch([_packed_rates(drift, lam, d2, model.n_modes)])
        self.iu, self.gather = _packing(dim, dim)

    def __call__(self, t, y):
        return self.rates(y)[0]


def _check_times(t_eval) -> np.ndarray:
    """Output times as a float array; every solver steps forward between
    them, so they must be at least two and increase strictly."""
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or t_eval.size < 2 or not np.all(np.diff(t_eval) > 0):
        raise ValueError("t_eval must hold at least two strictly increasing times")
    return t_eval


def integrate(
    model: LindbladModel,
    state0: GaussianWigner,
    t_eval,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Trajectory:
    """Propagate the centre X and width G of ``state0`` from t_eval[0] with
    the adaptive eighth-order Dormand-Prince scheme (DOP853); the states
    returned at t_eval, which must increase strictly, carry ``state0.hbar``.

    G is packed by its upper triangle, so symmetry is exact by construction,
    and is returned as integrated.  One stacked ``eigvalsh`` checks the
    widths of all output times: the first G that is not positive definite
    (a non-finite one among them) raises a `RuntimeError` naming its time
    and smallest eigenvalue.  The uncertainty measure
    min eig(G^{-1} + i Omega) is stored, and each output time where it
    falls below ``_PHYS_TOL`` is a ``physicality`` event.
    """
    dim = 2 * model.n_modes
    if state0.x.size != dim:
        raise ValueError("state dimension does not match the model")
    t_eval = _check_times(t_eval)
    rhs = model._compiled
    y0 = np.concatenate([state0.x, state0.g[rhs.iu]])
    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), y0, t_eval=t_eval, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    x = sol.y[:dim].T
    g = np.moveaxis(sol.y[rhs.gather], -1, 0)
    smallest = np.linalg.eigvalsh(g).min(axis=1)
    # a width with a non-finite entry is not positive definite, whatever
    # LAPACK makes of it
    smallest[~np.isfinite(g).all(axis=(1, 2))] = np.nan
    bad = np.flatnonzero(~(smallest > 0))
    if bad.size:
        k = bad[0]
        raise RuntimeError(f"width G at t={float(t_eval[k])!r} is not positive definite: "
                           f"smallest eigenvalue {smallest[k]:.3g}")
    phys = physicality_of_width(g)
    events = [{"t": float(t), "kind": "physicality", "min_eig": float(m)}
              for t, m in zip(t_eval, phys) if not m >= _PHYS_TOL]  # a NaN measure too
    return Trajectory(
        times=sol.t, hbar=state0.hbar, x=x, g=g, min_physicality=phys, events=events,
        nfev=sol.nfev, steps=sol.steps, rejected=sol.rejected,
    )
