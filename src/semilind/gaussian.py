"""Gaussian and complex-Gaussian Wigner states on phase space.

Conventions (single source of truth for the whole package):

* phase-space ordering  x = (q_1..q_n, p_1..p_n)
* a real Gaussian state has  W(x) = sqrt(det G)/(pi hbar)^n
  * exp(-(x - X) . G (x - X) / hbar), so the symmetrized covariance is
  hbar * G^{-1}
* a complex Gaussian component evaluates to
  weight * exp(i/hbar [ (x-X) . B (x-X)/2 + Y . (x-X) + alpha ]),
  with B complex symmetric, Im B > 0; all prefactors live in ``weight``
* mode variables a_j = (q_j + i p_j)/sqrt(2)
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .symbols import symplectic_form

__all__ = [
    "GaussianWigner",
    "ComplexGaussian",
    "SuperpositionState",
    "CovarianceBlocks",
    "Moments",
    "GridSpec",
    "WignerGrid",
    "PhysicalityReport",
    "coherent",
    "g_from_a",
    "cat_decompose",
    "eval_wigner",
    "moments",
    "moments_from_covariance",
    "physicality_of_width",
    "transformation_matrix",
]

_SYM_TOL = 1e-12
_PHYS_TOL = -1e-9


@functools.cache
def transformation_matrix(n_modes: int) -> np.ndarray:
    """Unitary T mapping (q, p) blocks to (a, abar) blocks; built once per
    mode count, read-only."""
    eye = np.eye(n_modes)
    t = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
    t.setflags(write=False)
    return t


def _check_symmetric(mat: np.ndarray, what: str):
    """Each matrix of a stack (..., d, d) symmetric to _SYM_TOL of its largest entry."""
    scale = np.maximum(1.0, np.max(np.abs(mat), axis=(-2, -1)))
    if np.any(np.max(np.abs(mat - mat.swapaxes(-2, -1)), axis=(-2, -1)) > _SYM_TOL * scale):
        raise ValueError(f"{what} must be symmetric")


def _check_widths(b: np.ndarray) -> None:
    """Complex width matrices B of a stack (..., d, d): symmetric, and Im B
    positive definite, by one `eigvalsh` over the stack."""
    _check_symmetric(b, "B")
    if np.linalg.eigvalsh(b.imag).min() <= 0:
        raise ValueError("Im B must be positive definite")


def _exponent_on_grid(q, p, centre, quad, lin, const):
    """The exponent d.quad d/2 + lin.d + const, d = (q, p) - centre, on the
    grid of the axes q and p, as a q term, a p term and one q p outer term,
    summed before any exponential so that no factor overflows alone."""
    dq, dp = q - centre[0], p - centre[1]
    expo = np.multiply.outer(dq, quad[0, 1] * dp)
    expo += ((0.5 * quad[0, 0] * dq + lin[0]) * dq + const)[:, None]
    expo += (0.5 * quad[1, 1] * dp + lin[1]) * dp
    return expo


@dataclass(frozen=True)
class GaussianWigner:
    """Real Gaussian Wigner state: centre X, width matrix G, and hbar."""

    hbar: float
    x: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if x.ndim != 1 or x.size % 2:
            raise ValueError("centre must be a real vector of even length")
        if g.shape != (x.size, x.size):
            raise ValueError("width matrix shape does not match centre")
        _check_symmetric(g, "width matrix G")
        if np.linalg.eigvalsh(g).min() <= 0:
            raise ValueError("width matrix G must be positive definite")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "g", 0.5 * (g + g.T))

    @property
    def n_modes(self) -> int:
        return self.x.size // 2

    def _grid(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Wigner values on the grid of the axes q and p (single mode)."""
        norm = np.sqrt(np.linalg.det(self.g)) / (np.pi * self.hbar)
        expo = _exponent_on_grid(q, p, self.x, -2.0 / self.hbar * self.g, (0.0, 0.0), 0.0)
        return norm * np.exp(expo, out=expo)

    def covariance(self) -> np.ndarray:
        """Symmetrized covariance matrix hbar * G^{-1}."""
        return self.hbar * np.linalg.inv(self.g)


@dataclass(frozen=True)
class PhysicalityReport:
    min_eig: float
    passed: bool


def physicality_of_width(g: np.ndarray) -> PhysicalityReport:
    """Uncertainty-relation check: min eig of G^{-1} + i Omega >= _PHYS_TOL."""
    n = g.shape[0] // 2
    m = np.linalg.inv(g) + 1j * symplectic_form(n)
    min_eig = float(np.linalg.eigvalsh(m).min())
    return PhysicalityReport(min_eig=min_eig, passed=min_eig >= _PHYS_TOL)


def coherent(n_modes: int, a0, hbar: float = 1.0) -> GaussianWigner:
    """Coherent state with mode amplitudes a0: X = sqrt(2)(Re a0, Im a0), G = I."""
    a0 = np.atleast_1d(np.asarray(a0, dtype=complex))
    if a0.size != n_modes:
        raise ValueError("amplitude count must match mode count")
    x = np.sqrt(2.0) * np.concatenate([a0.real, a0.imag])
    return GaussianWigner(hbar=hbar, x=x, g=np.eye(2 * n_modes))


def g_from_a(width: np.ndarray) -> np.ndarray:
    """Real width matrix from a complex symmetric matrix with Im > 0.

    [[Im W + Re W (Im W)^-1 Re W, -Re W (Im W)^-1],
     [-(Im W)^-1 Re W,            (Im W)^-1      ]]

    Applies both to the position-space packet width A (n x n -> 2n x 2n)
    and to the doubled-space width B (2n x 2n -> 4n x 4n).
    """
    width = np.atleast_2d(np.asarray(width, dtype=complex))
    _check_symmetric(width, "width")
    re, im = width.real, width.imag
    if np.linalg.eigvalsh(im).min() <= 0:
        raise ValueError("imaginary part of the width must be positive definite")
    im_inv = np.linalg.inv(im)
    return np.block([[im + re @ im_inv @ re, -re @ im_inv], [-im_inv @ re, im_inv]])


@dataclass(frozen=True)
class ComplexGaussian:
    """One complex Gaussian component of a superposition Wigner function.

    z = (X, Y) stacks the centre and the oscillation wave vector;
    evaluation is weight * exp(i/hbar [ d.Bd/2 + Y.d + alpha ]), d = x - X.
    """

    hbar: float
    z: np.ndarray
    b: np.ndarray
    alpha: complex
    weight: complex

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        b = np.asarray(self.b, dtype=complex)
        if z.ndim != 1 or z.size % 4:
            raise ValueError("z must stack (X, Y), length 4n")
        dim = z.size // 2
        if b.shape != (dim, dim):
            raise ValueError("B shape does not match z")
        _check_widths(b)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "b", 0.5 * (b + b.T))
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "weight", complex(self.weight))

    @property
    def n_modes(self) -> int:
        return self.z.size // 4

    @property
    def x(self) -> np.ndarray:
        return self.z[: self.z.size // 2]

    @property
    def y(self) -> np.ndarray:
        return self.z[self.z.size // 2:]

    def _grid(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Complex values on the grid of the axes q and p (single mode)."""
        phase = 1j / self.hbar
        expo = _exponent_on_grid(q, p, self.x, phase * self.b, phase * self.y,
                                 phase * self.alpha)
        np.exp(expo, out=expo)
        expo *= self.weight
        return expo


def _integrals(hbar: float, z, b, alpha, weight):
    """Exact phase-space integrals and complex centroids X - B^{-1} Y of a
    stack of components, given as arrays over the same leading axes: z
    (..., 2d), b (..., d, d), alpha and weight (...).

    The integral is weight (2 pi hbar)^(d/2) det(-iB)^(-1/2)
    exp(i/hbar [alpha - Y.B^{-1}Y/2]), with det(-iB)^(1/2) the product of the
    principal roots of the eigenvalues of -iB: Im B > 0 confines them to
    the right half-plane, so the branch is unambiguous.  The integral of x
    times a component is its centroid times its integral.
    """
    dim = b.shape[-1]
    y = z[..., dim:]
    binv_y = np.linalg.solve(b, y[..., None])[..., 0]
    expo = 1j / hbar * (alpha - 0.5 * np.sum(y * binv_y, axis=-1))
    det_sqrt = np.prod(np.sqrt(np.linalg.eigvals(-1j * b)), axis=-1)
    pref = (2 * np.pi * hbar) ** (dim // 2) / det_sqrt
    return weight * pref * np.exp(expo), z[..., :dim] - binv_y


def _superposition_moments(hbar: float, integrals, centroids, b):
    """First moments and symmetrized covariances of normalized superpositions,
    stacked over the leading axes, in closed form: with component k's
    integral I_k, complex centroid c_k and second central moment
    i hbar B_k^{-1}, and I = sum_k I_k, <x> = Re sum_k I_k c_k / I and
    <x x^T> = Re sum_k I_k (i hbar B_k^{-1} + c_k c_k^T) / I.  The last axis
    of `integrals` runs over the components, as the axis before the vector
    axis of `centroids` and the matrix axes of `b` does."""
    total = integrals.sum(axis=-1)[..., None]
    w = integrals[..., None]
    x = np.real(np.sum(centroids * w, axis=-2) / total)
    second = 1j * hbar * np.linalg.inv(b) + centroids[..., :, None] * centroids[..., None, :]
    second = np.sum(second * w[..., None], axis=-3)
    cov = np.real(second / total[..., None]) - x[..., :, None] * x[..., None, :]
    return x, cov


@dataclass(frozen=True)
class SuperpositionState:
    """Finite sum of complex Gaussian components times a normalization factor."""

    components: tuple
    norm_factor: float = 1.0

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("superposition needs at least one component")
        hb = comps[0].hbar
        n = comps[0].n_modes
        if any(c.hbar != hb or c.n_modes != n for c in comps):
            raise ValueError("components disagree on hbar or mode count")
        object.__setattr__(self, "components", comps)

    @property
    def hbar(self) -> float:
        return self.components[0].hbar

    @property
    def n_modes(self) -> int:
        return self.components[0].n_modes

    def _grid(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        total = sum(c._grid(q, p) for c in self.components)
        return self.norm_factor * total

    def _stack(self):
        """(z, b, alpha, weight) of the components, stacked on a leading axis."""
        comps = self.components
        return (np.array([c.z for c in comps]), np.array([c.b for c in comps]),
                np.array([c.alpha for c in comps]), np.array([c.weight for c in comps]))

    def moments(self) -> "Moments":
        """Moment table of the normalized distribution (`_superposition_moments`)."""
        z, b, alpha, weight = self._stack()
        integrals, centroids = _integrals(self.hbar, z, b, alpha, weight)
        x, cov = _superposition_moments(self.hbar, integrals, centroids, b)
        return moments_from_covariance(self.hbar, x, cov)

    def normalized(self) -> "SuperpositionState":
        raw = _integrals(self.hbar, *self._stack())[0].sum()
        return SuperpositionState(self.components, norm_factor=float(1.0 / raw.real))


def cat_decompose(centres, coeffs, width, hbar: float = 1.0) -> SuperpositionState:
    """Wigner decomposition of a superposition of position-space Gaussians.

    Each packet j sits at (q_j, p_j) with complex weight c_j and shared
    complex symmetric width matrix `width` (Im > 0).  Every ordered pair
    (i, j) contributes one complex Gaussian with

        X_ij = ((q_i+q_j)/2, (p_i+p_j)/2),  Y_ij = (p_j - p_i, q_i - q_j),
        alpha_ij = (p_i + p_j) . (q_i - q_j) / 2,  B = 2iG,

    and weight conj(c_i) c_j / (pi hbar)^n.  The i = j terms are the real
    Gaussian lobes; i != j carry the interference pattern.
    """
    centres = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centres]
    coeffs = [complex(c) for c in coeffs]
    if len(centres) != len(coeffs) or not centres:
        raise ValueError("need matching, non-empty centres and coefficients")
    n = centres[0].size // 2
    if any(c.size != 2 * n for c in centres):
        raise ValueError("centres must share one phase-space dimension")
    gmat = g_from_a(width)
    bmat = 2j * gmat
    pref = (np.pi * hbar) ** (-n)
    comps = []
    for i, (ci, zi) in enumerate(zip(coeffs, centres)):
        qi, pi = zi[:n], zi[n:]
        for j, (cj, zj) in enumerate(zip(coeffs, centres)):
            qj, pj = zj[:n], zj[n:]
            x_ij = np.concatenate([0.5 * (qi + qj), 0.5 * (pi + pj)])
            y_ij = np.concatenate([pj - pi, qi - qj])
            alpha_ij = 0.5 * float((pi + pj) @ (qi - qj))
            comps.append(
                ComplexGaussian(
                    hbar=hbar,
                    z=np.concatenate([x_ij, y_ij]),
                    b=bmat,
                    alpha=alpha_ij,
                    weight=np.conj(ci) * cj * pref,
                )
            )
    return SuperpositionState(tuple(comps)).normalized()


# -- grids --------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform (q, p) sampling grid; samples sit at cell centres (midpoint rule)."""

    q_min: float
    q_max: float
    n_q: int
    p_min: float
    p_max: float
    n_p: int

    def __post_init__(self):
        if not (self.n_q >= 1 and self.n_p >= 1 and 0 < self.q_max - self.q_min < np.inf
                and 0 < self.p_max - self.p_min < np.inf):
            raise ValueError("degenerate grid: needs finite q_min < q_max, p_min < p_max "
                             "and n_q, n_p >= 1")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.q_min + self.dq * (np.arange(self.n_q) + 0.5)
        p = self.p_min + self.dp * (np.arange(self.n_p) + 0.5)
        return q, p

    def points(self) -> np.ndarray:
        q, p = self.axes()
        qq, pp = np.meshgrid(q, p, indexing="ij")
        return np.stack([qq, pp], axis=-1)


@dataclass(frozen=True)
class WignerGrid:
    """Sampled Wigner values on a GridSpec; values[i_q, i_p]."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.spec.n_q, self.spec.n_p):
            raise ValueError("value matrix does not match the grid spec")
        object.__setattr__(self, "values", vals)

    def to_text(self) -> str:
        # Frames are written as .npy (harness.compare.write_frame); this method
        # and to_json stay only because perfbench/tracing.py names them, and
        # they go together with those tracer rows.
        s = self.spec
        lines = [
            f"# {s.q_min!r} {s.q_max!r} {s.n_q}",
            f"# {s.p_min!r} {s.p_max!r} {s.n_p}",
        ]
        lines.extend(" ".join(map(repr, row)) for row in self.values.tolist())
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        s = self.spec
        doc = {
            "q": [s.q_min, s.q_max, s.n_q],
            "p": [s.p_min, s.p_max, s.n_p],
            "values_re": np.real(self.values).ravel().tolist(),
        }
        if np.iscomplexobj(self.values):
            doc["values_im"] = np.imag(self.values).ravel().tolist()
        return json.dumps(doc)


def eval_wigner(state, spec: GridSpec) -> WignerGrid:
    """Sample a state's Wigner function on a grid (single mode).

    Each Gaussian's exponent is summed on the grid from a q term, a p term
    and one q p outer term (`_exponent_on_grid`).  For a SuperpositionState
    the summed real part is returned; a lone ComplexGaussian keeps its
    complex values.
    """
    n_modes = state.n_modes
    if n_modes != 1:
        raise ValueError("grid evaluation is defined for single-mode states")
    vals = state._grid(*spec.axes())
    if isinstance(state, (GaussianWigner, SuperpositionState)):
        vals = np.real(vals)
    return WignerGrid(spec, vals)


# -- moments ------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceBlocks:
    """Mode-frame covariance blocks of Sigma = T Cov T^dag."""

    alpha_block: np.ndarray
    beta_block: np.ndarray


@dataclass(frozen=True)
class Moments:
    """First moments plus mode covariance blocks of a Gaussian state."""

    hbar: float
    x: np.ndarray
    modes: np.ndarray  # <a_j>
    blocks: CovarianceBlocks

    def adag_a(self, i: int, j: int) -> complex:
        """Normally ordered pair correlator <adag_i a_j>."""
        alpha = self.blocks.alpha_block[i, j]
        delta = self.hbar if i == j else 0.0
        return 0.5 * (alpha + 2.0 * np.conj(self.modes[i]) * self.modes[j] - delta)

    def occupation(self, j: int) -> float:
        return float(np.real(self.adag_a(j, j)))

    def g1(self, i: int, j: int) -> float:
        """First-order coherence |<adag_i a_j>| / sqrt(<n_i><n_j>)."""
        den = self.occupation(i) * self.occupation(j)
        return float(abs(self.adag_a(i, j)) / np.sqrt(den))


def _moment_tables(hbar: float, xs: np.ndarray, covs: np.ndarray) -> list:
    """One moment table per row of the first moments xs (k, 2n) and per
    symmetrized quadrature covariance of covs (k, 2n, 2n), mapped to the
    mode frame by two stacked products."""
    n = xs.shape[-1] // 2
    t = transformation_matrix(n)
    sigma = t @ covs @ t.conj().T
    modes = xs @ t[:n].T
    return [Moments(hbar=hbar, x=x, modes=m,
                    blocks=CovarianceBlocks(alpha_block=sg[n:, n:], beta_block=sg[n:, :n]))
            for x, m, sg in zip(xs, modes, sigma)]


def moments_from_covariance(hbar: float, x: np.ndarray, cov: np.ndarray) -> Moments:
    """Moment table from first moments and the symmetrized quadrature covariance."""
    return _moment_tables(hbar, x[None], cov[None])[0]


def moments(state: GaussianWigner) -> Moments:
    """Moment table of a Gaussian state in the mode frame."""
    return moments_from_covariance(state.hbar, state.x.copy(), state.covariance())
