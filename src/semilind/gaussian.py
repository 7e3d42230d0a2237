"""Gaussian and complex-Gaussian Wigner states on phase space.

Conventions (single source of truth for the whole package):

* phase-space ordering  x = (q_1..q_n, p_1..p_n)
* a real Gaussian state has  W(x) = sqrt(det G)/(pi hbar)^n
  * exp(-(x - X) . G (x - X) / hbar), so the symmetrized covariance is
  hbar * G^{-1}
* a complex Gaussian component evaluates to
  weight * exp(i/hbar [ (x-X) . B (x-X)/2 + Y . (x-X) + alpha ]),
  with B complex symmetric, Im B > 0; all prefactors live in ``weight``.
  A superposition is one stack of components, `SuperpositionState`, whose
  rows hold Z = (X, Y), B, alpha and the weight; no object holds a single
  component
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
    "SuperpositionState",
    "Moments",
    "GridSpec",
    "WignerGrid",
    "coherent",
    "g_from_a",
    "cat_decompose",
    "eval_wigner",
    "moments",
    "physicality_of_width",
    "transformation_matrix",
]

_SYM_TOL = 1e-12


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


def physicality_of_width(g: np.ndarray) -> np.ndarray:
    """Uncertainty measure min eig(G^{-1} + i Omega) of one width matrix, or
    of each of a stack (k, 2n, 2n) as an array (k,); a physical width has
    it at or above zero."""
    n = g.shape[-1] // 2
    m = np.linalg.inv(g) + 1j * symplectic_form(n)
    return np.linalg.eigvalsh(m).min(axis=-1)


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
    """Finite sum of m complex Gaussian components times a normalization
    factor, stacked on a leading axis: component i stacks its centre and
    oscillation wave vector as z[i] = (X, Y) of length 4n, has the complex
    symmetric width b[i] (2n, 2n), Im b[i] > 0, the phase alpha[i] and the
    weight weights[i], and evaluates to
    weights[i] exp(i/hbar [ d.Bd/2 + Y.d + alpha ]), d = x - X."""

    hbar: float
    z: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    weights: np.ndarray
    norm_factor: float = 1.0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        b = np.asarray(self.b, dtype=complex)
        alpha = np.asarray(self.alpha, dtype=complex)
        weights = np.asarray(self.weights, dtype=complex)
        if z.ndim != 2 or not z.shape[0]:
            raise ValueError("superposition needs at least one component, z of shape (m, 4n)")
        m, size = z.shape
        if not size or size % 4:
            raise ValueError("z must stack (X, Y) of each component, rows of length 4n")
        if b.shape != (m, size // 2, size // 2):
            raise ValueError("B shape does not match z: need (m, 2n, 2n)")
        if alpha.shape != (m,) or weights.shape != (m,):
            raise ValueError("alpha and weights need one entry per component")
        _check_widths(b)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "b", 0.5 * (b + b.swapaxes(-2, -1)))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _of_checked(cls, hbar, z, b, alpha, weights, norm_factor) -> "SuperpositionState":
        """The state of arrays that already hold what the constructor makes
        and checks: a slice of a stack that passed `_check_widths` as a whole,
        with float z, complex b, alpha and weights, and b symmetric.  Built
        without checking them again."""
        state = object.__new__(cls)
        for name, value in (("hbar", hbar), ("z", z), ("b", b), ("alpha", alpha),
                            ("weights", weights), ("norm_factor", norm_factor)):
            object.__setattr__(state, name, value)
        return state

    @property
    def n_modes(self) -> int:
        return self.z.shape[1] // 4

    def _grid(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Complex values on the grid of the axes q and p (single mode), the
        components summed in index order."""
        phase, dim, total = 1j / self.hbar, self.b.shape[-1], 0
        for z, b, alpha, weight in zip(self.z, self.b, self.alpha, self.weights):
            expo = _exponent_on_grid(q, p, z[:dim], phase * b, phase * z[dim:], phase * alpha)
            np.exp(expo, out=expo)
            expo *= weight
            total = total + expo
        return self.norm_factor * total

    def moments(self) -> "Moments":
        """Moments of the normalized distribution (`_superposition_moments`),
        as a record of one."""
        integrals, centroids = _integrals(self.hbar, self.z, self.b, self.alpha, self.weights)
        x, cov = _superposition_moments(self.hbar, integrals, centroids, self.b)
        return Moments.from_covariance(self.hbar, x[None], cov[None])

    def normalized(self) -> "SuperpositionState":
        """The same components with the norm factor that makes the integral
        1; they were checked when this state was built."""
        raw = _integrals(self.hbar, self.z, self.b, self.alpha, self.weights)[0].sum()
        return SuperpositionState._of_checked(self.hbar, self.z, self.b, self.alpha,
                                              self.weights, float(1.0 / raw.real))


def cat_decompose(centres, coeffs, width, hbar: float = 1.0) -> SuperpositionState:
    """Wigner decomposition of a superposition of position-space Gaussians.

    Each packet j sits at (q_j, p_j) with complex weight c_j and shared
    complex symmetric width matrix `width` (Im > 0).  Every ordered pair
    (i, j), as component i k + j of k packets, contributes one complex
    Gaussian with

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
    bmat = 2j * g_from_a(width)
    k = len(centres)
    # packet i along the first pair axis, packet j along the second
    pairs = np.array(centres)[:, None]
    qi, pi = pairs[..., :n], pairs[..., n:]
    qj, pj = qi.swapaxes(0, 1), pi.swapaxes(0, 1)
    z = np.concatenate([0.5 * (qi + qj), 0.5 * (pi + pj), pj - pi, qi - qj], axis=-1)
    alpha = 0.5 * ((pi + pj)[..., None, :] @ (qi - qj)[..., :, None]).ravel()
    # products of Python complex numbers: numpy's vectorized complex multiply
    # may fuse its multiply-adds and round differently
    pref = (np.pi * hbar) ** (-n)
    weights = np.array([ci.conjugate() * cj * pref for ci in coeffs for cj in coeffs])
    b = np.broadcast_to(bmat, (k * k,) + bmat.shape)
    return SuperpositionState(hbar, z.reshape(k * k, 4 * n), b, alpha, weights).normalized()


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
    and one q p outer term (`_exponent_on_grid`); the real part is returned.
    """
    if state.n_modes != 1:
        raise ValueError("grid evaluation is defined for single-mode states")
    return WignerGrid(spec, np.real(state._grid(*spec.axes())))


# -- moments ------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """First moments and mode covariance blocks of k states, stacked: x
    (k, 2n), <a_j> as modes (k, n), and the blocks of Sigma = T Cov T^dag,
    alpha_block = Sigma[n:, n:] and beta_block = Sigma[n:, :n] (k, n, n).
    A single state is the record of one."""

    hbar: float
    x: np.ndarray
    modes: np.ndarray
    alpha_block: np.ndarray
    beta_block: np.ndarray

    @classmethod
    def from_covariance(cls, hbar: float, x: np.ndarray, cov: np.ndarray) -> "Moments":
        """The record of the first moments x (k, 2n) and the symmetrized
        quadrature covariances cov (k, 2n, 2n), mapped to the mode frame by
        two stacked products."""
        n = x.shape[-1] // 2
        t = transformation_matrix(n)
        sigma = t @ cov @ t.conj().T
        return cls(hbar=hbar, x=x, modes=x @ t[:n].T, alpha_block=sigma[:, n:, n:],
                   beta_block=sigma[:, n:, :n])

    def adag_a(self, i: int, j: int) -> np.ndarray:
        """Normally ordered pair correlator <adag_i a_j> of each state, (k,)."""
        delta = self.hbar if i == j else 0.0
        return 0.5 * (self.alpha_block[:, i, j]
                      + 2.0 * np.conj(self.modes[:, i]) * self.modes[:, j] - delta)

    def occupation(self, j: int) -> np.ndarray:
        return np.real(self.adag_a(j, j))

    def g1(self, i: int, j: int) -> np.ndarray:
        """First-order coherence |<adag_i a_j>| / sqrt(<n_i><n_j>) of each state;
        the modulus is `np.hypot`, which rounds as the scalar `abs` does."""
        pair = self.adag_a(i, j)
        return np.hypot(pair.real, pair.imag) / np.sqrt(self.occupation(i) * self.occupation(j))


def moments(state) -> Moments:
    """Moments of a Gaussian state in the mode frame, or of each output time
    of a `semiclassical.Trajectory`, from its stacked centres x (k, 2n) and
    widths g (k, 2n, 2n), as one record; a state is the record of one."""
    x = np.atleast_2d(state.x)
    g = state.g.reshape(x.shape + x.shape[-1:])
    return Moments.from_covariance(state.hbar, x, state.hbar * np.linalg.inv(g))
