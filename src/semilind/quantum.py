"""Truncated Fock-basis reference solvers, at hbar = 1.

The mode operators satisfy [a, adag] = 1 and the quadratures are
q = (a + adag)/sqrt(2), p = i(adag - a)/sqrt(2).  Operators stay sparse
from symbol to observable: `symbol_to_normal_ordered` orders each Weyl monomial
in closed form, `quantize` assembles the terms from sparse mode ladders, and
`_model_matrices`, the one place that rejects hbar != 1, hands a model's H
and L_k to the master equation and to the quantum-jump ensemble.  Both split
their generator into the connected blocks of its nonzero pattern
(`_BlockPartition`).  The master equation builds one CSR Lindblad
superoperator; when no block is larger than the Hilbert space, as for the
bands m - n of a phase-covariant model, it steps between output times with
exact dense block propagators, and otherwise it integrates the whole
superoperator with RK45.  The jump ensemble diagonalizes each block of the
effective Hamiltonian, such as a number sector of the lossy lattice.
Moments read sparse quadratures that each `FockSpace` builds once.  The
Wigner transform of a density matrix is exact and separable: a 45-degree
rotation of (x, x') turns it into two matrix products with tables of
Hermite functions on the grid axes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import matrix_power as _sparse_matrix_power
from scipy.special import gammaln

from .gaussian import GridSpec, Moments, WignerGrid, moments_from_covariance
from .semiclassical import LindbladModel
from .symbols import Chart, PolySymbol, chart_transform

__all__ = [
    "FockSpace",
    "DensityMatrix",
    "MasterTrajectory",
    "JumpEnsemble",
    "quantize",
    "symbol_to_normal_ordered",
    "weyl_quantize",
    "integrate_master",
    "moments_of_density",
    "wigner_of_density",
    "quantum_jump",
]


class FockSpace:
    """Tensor product of per-mode truncated Fock spaces."""

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in (dims if np.iterable(dims) else [dims]))
        if any(d < 2 for d in self.dims):
            raise ValueError("each mode needs at least two Fock levels")
        self.n_modes = len(self.dims)
        self.dim = int(np.prod(self.dims))
        # CSR lowering operator of each mode, embedded in the full space
        ladders = [sp.diags_array(np.sqrt(np.arange(1.0, d)), offsets=1) for d in self.dims]
        self._lowering = []
        for mode in range(self.n_modes):
            mat = sp.identity(1, dtype=complex, format="csr")
            for j, d in enumerate(self.dims):
                mat = sp.kron(mat, ladders[j] if j == mode else sp.identity(d), format="csr")
            self._lowering.append(mat)
        # 1.0 on every basis state with some mode in its highest level
        levels = np.unravel_index(np.arange(self.dim), self.dims)
        top = [lv == d - 1 for lv, d in zip(levels, self.dims)]
        self._top_mask = np.any(top, axis=0).astype(float)

    def lowering(self, mode: int) -> np.ndarray:
        return self._lowering[mode].toarray()

    def raising(self, mode: int) -> np.ndarray:
        return self._lowering[mode].conj().T.toarray()

    def number(self, mode: int) -> np.ndarray:
        a = self._lowering[mode]
        return (a.conj().T @ a).toarray()

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def coherent_vector(self, amplitudes) -> np.ndarray:
        """Product coherent state with given mode amplitudes."""
        amps = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
        if amps.size != self.n_modes:
            raise ValueError("amplitude count must match mode count")
        vec = np.ones(1, dtype=complex)
        for alpha, d in zip(amps, self.dims):
            k = np.arange(d)
            logmag = -abs(alpha) ** 2 / 2 + k * np.log(abs(alpha) + 1e-300) - 0.5 * gammaln(k + 1)
            phases = np.exp(1j * k * np.angle(alpha)) if alpha != 0 else np.where(k == 0, 1.0, 0.0 + 0j)
            comp = np.exp(logmag) * phases
            if alpha == 0:
                comp = np.zeros(d, dtype=complex)
                comp[0] = 1.0
            vec = np.kron(vec, comp)
        return vec

    def packet_vector(self, q0: float, p0: float) -> np.ndarray:
        """Unit-width position-space packet exp(-(q-q0)^2/2 + i p0 (q-q0)).

        Equals the coherent state at (q0 + i p0)/sqrt(2) times the phase
        exp(-i q0 p0 / 2); the phase matters for relative weights in
        superpositions.  Single mode only.
        """
        if self.n_modes != 1:
            raise ValueError("packet_vector is single mode")
        alpha = (q0 + 1j * p0) / np.sqrt(2)
        return np.exp(-0.5j * q0 * p0) * self.coherent_vector([alpha])

    @cached_property
    def _quadratures(self):
        """Sparse quadratures x = (q_1..q_n, p_1..p_n), and their symmetrized
        products x_i x_j + x_j x_i keyed by (i, j) with i <= j.  They are
        kept as COO, the form `DensityMatrix.expectation` reads."""
        xs = [(a + a.conj().T) / np.sqrt(2) for a in self._lowering]
        xs += [1j * (a.conj().T - a) / np.sqrt(2) for a in self._lowering]
        pairs = {(i, j): (xs[i] @ xs[j] + xs[j] @ xs[i]).tocoo()
                 for i in range(len(xs)) for j in range(i, len(xs))}
        return [x.tocoo() for x in xs], pairs

    def leakage(self, vec_or_rho: np.ndarray) -> float:
        """Total population of the highest level of any mode."""
        occ = self._top_mask
        if vec_or_rho.ndim == 1:
            return float(np.sum(np.abs(vec_or_rho) ** 2 * occ))
        return float(np.real(np.sum(np.diag(vec_or_rho) * occ)))


# -- operator assembly --------------------------------------------------------


def quantize(terms, fock: FockSpace) -> sp.csr_array:
    """CSR matrix of a normal-ordered expression.

    `terms` is an iterable of (coeff, powers) with powers a length-n tuple
    of per-mode (dag_power, low_power); each term contributes
    coeff * prod_j adag_j^m_j a_j^k_j.
    """
    out = sp.csr_array((fock.dim, fock.dim), dtype=complex)
    for coeff, powers in terms:
        if len(powers) != fock.n_modes:
            raise ValueError("term arity does not match mode count")
        mat = sp.identity(fock.dim, dtype=complex, format="csr")
        for j, (m, k) in enumerate(powers):
            a = fock._lowering[j]
            mat = mat @ _sparse_matrix_power(a.conj().T, m)
            mat = mat @ _sparse_matrix_power(a, k)
        out = out + complex(coeff) * mat
    return out


def symbol_to_normal_ordered(sym: PolySymbol):
    """Normal-ordered terms of the Weyl quantization (hbar = 1) of a symbol.

    The Weyl monomial abar^m a^k of one mode quantizes to the symmetrized
    product of m raising and k lowering operators, whose normal-ordered form
    is (Cahill & Glauber, Phys. Rev. 177, 1857 (1969))

        sum_{i <= min(m, k)} i! C(m, i) C(k, i) (1/2)^i adag^(m-i) a^(k-i).

    Operators of different modes commute, so a monomial of several modes
    expands to the product of its modes' sums.  Returns (coeff, powers)
    pairs, powers being per-mode (dag_power, low_power); equal powers are
    merged and exact zeros dropped.
    """
    work = chart_transform(sym, Chart.COMPLEX_AABAR) if sym.chart is Chart.REAL_QP else sym
    if work.chart is not Chart.COMPLEX_AABAR:
        raise ValueError("expected a REAL_QP or COMPLEX_AABAR symbol")
    n = work.n_modes
    merged: dict[tuple, complex] = {}
    for key, coeff in work.terms.items():
        # per mode, the (weight, (dag_power, low_power)) terms of its sum
        per_mode = []
        for j in range(n):
            m, k = key[n + j], key[j]
            per_mode.append([(math.factorial(i) * math.comb(m, i) * math.comb(k, i) * 0.5**i,
                              (m - i, k - i)) for i in range(min(m, k) + 1)])
        for choice in product(*per_mode):
            powers = tuple(pw for _, pw in choice)
            weight = math.prod(w for w, _ in choice)
            merged[powers] = merged.get(powers, 0j) + coeff * weight
    return [(c, powers) for powers, c in merged.items() if c != 0]


def weyl_quantize(sym: PolySymbol, fock: FockSpace) -> sp.csr_array:
    """Exact Weyl quantization (hbar = 1) of a polynomial symbol, as a CSR
    matrix in the truncated basis."""
    return quantize(symbol_to_normal_ordered(sym), fock)


# -- density matrices ---------------------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    rho: np.ndarray
    fock: FockSpace
    hbar: float = 1.0

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.fock.dim, self.fock.dim):
            raise ValueError("density matrix shape mismatch")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(rho))):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.real(np.trace(rho)) - 1.0) > 1e-8:
            warnings.warn(f"density matrix trace {np.real(np.trace(rho)):.12f} differs from 1")
        object.__setattr__(self, "rho", 0.5 * (rho + rho.conj().T))

    @classmethod
    def from_state(cls, vec: np.ndarray, fock: FockSpace) -> "DensityMatrix":
        vec = np.asarray(vec, dtype=complex)
        vec = vec / np.linalg.norm(vec)
        return cls(rho=np.outer(vec, vec.conj()), fock=fock)

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def expectation(self, op) -> complex:
        """Tr(rho op), summed over the stored entries of a sparse or dense op."""
        op = op.tocoo() if sp.issparse(op) else sp.coo_array(op)
        return complex(self.rho[op.col, op.row] @ op.data)

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.rho).min())


# -- invariant blocks -----------------------------------------------------------


class _BlockPartition:
    """Connected components of the nonzero pattern of a square matrix.

    `perm` puts the basis in block order: by block size, then block label,
    with basis order kept within a block.  The blocks of one size then fill
    one run of rows, listed in `groups` as (rows, size); `stack` gathers the
    matrix's diagonal blocks of each size into one (g, m, m) array, and
    `_blockwise` multiplies by the stacks.
    """

    def __init__(self, mat):
        mat = sp.csr_array(mat)
        self.n_blocks, labels = connected_components(mat != 0, directed=True, connection="weak")
        sizes = np.bincount(labels)
        self.max_block = int(sizes.max())
        self.perm = np.argsort(sizes[labels] * self.n_blocks + labels, kind="stable")
        self.inv_perm = np.argsort(self.perm)
        self.groups, start = [], 0
        for m in np.unique(sizes):
            rows = slice(start, start + int(np.count_nonzero(sizes == m)) * m)
            self.groups.append((rows, int(m)))
            start = rows.stop

    def stack(self, mat) -> list:
        """(rows, stacked (g, m, m) diagonal blocks) of the partitioned matrix,
        one pair per block size."""
        coo = sp.coo_array(mat)
        coo.sum_duplicates()
        r, c = self.inv_perm[coo.row], self.inv_perm[coo.col]
        out = []
        for rows, m in self.groups:
            sel = (r >= rows.start) & (r < rows.stop)
            i, j = r[sel] - rows.start, c[sel] - rows.start
            mats = np.zeros(((rows.stop - rows.start) // m, m, m), dtype=complex)
            mats[i // m, i % m, j % m] = coo.data[sel]
            out.append((rows, mats))
        return out


def _blockwise(blocks, x: np.ndarray) -> np.ndarray:
    """Multiply x, rows in block order, by stacked (g, m, m) diagonal blocks."""
    out = np.empty_like(x)
    for rows, mats in blocks:
        g, m, _ = mats.shape
        out[rows] = (mats @ x[rows].reshape(g, m, -1)).reshape(g * m, -1)
    return out


# -- master equation ------------------------------------------------------------


def _liouvillian(h, ls, hbar: float = 1.0) -> sp.csr_array:
    """CSR superoperator of the Lindblad equation acting on the row-major vec(rho),

        drho/dt = (1/i hbar)[H, rho] + sum_k L rho Ldag - (LdagL rho + rho LdagL)/2.

    A rho B maps to kron(A, B^T), so the generator is
    -i/hbar (H x I - I x H^T) + sum_k [L x conj(L) - (LdagL x I + I x (LdagL)^T)/2].
    """
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    liou = (sp.kron(h, eye) - sp.kron(eye, h.T)) * (-1j / hbar)
    for L in ls:
        ldl = L.conj().T @ L
        liou = liou + sp.kron(L, L.conj()) - 0.5 * (sp.kron(ldl, eye) + sp.kron(eye, ldl.T))
    return liou.tocsr()


@dataclass
class MasterTrajectory:
    times: np.ndarray
    rhos: list
    fock: FockSpace
    method: str  # "block_expm" or "rk45"
    nfev: int  # RK45 right-hand-side calls; 0 on the block path
    nnz: int  # stored entries of the CSR superoperator
    blocks: int  # connected blocks of the superoperator
    max_block: int  # size of the largest block
    events: list = field(default_factory=list)

    def density(self, k: int) -> DensityMatrix:
        return DensityMatrix(rho=self.rhos[k], fock=self.fock)


def _model_matrices(model: LindbladModel, fock: FockSpace):
    """CSR H and L_k of a model; every Fock solver gets them here."""
    if model.hbar != 1.0:
        raise ValueError("Fock-basis solvers are defined at hbar = 1")
    # Quantized from the model's own chart: a round trip through the other
    # chart leaves rounding noise on monomials the model does not have.
    h = weyl_quantize(model.hamiltonian, fock)
    ls = [weyl_quantize(L, fock) for L in model.lindblads]
    return h, ls


def _block_states(liou, blocks: _BlockPartition, y0: np.ndarray, t_eval: np.ndarray):
    """Yield vec(rho) at each time of t_eval, stepping with the exact
    propagators expm(L_b dt) of the blocks of the superoperator, stacked by
    block size.  Consecutive steps that agree to 1e-12 relative share one set
    of propagators, so a uniform grid computes one."""
    stacked = blocks.stack(liou)
    y = y0[blocks.perm, None]
    step, props = None, None
    yield y0
    for dt in np.diff(t_eval):
        if props is None or abs(dt - step) > 1e-12 * step:
            step, props = dt, [(rows, expm(mats * dt)) for rows, mats in stacked]
        y = _blockwise(props, y)
        yield y[blocks.inv_perm, 0]


def integrate_master(
    rho0: DensityMatrix,
    model: LindbladModel,
    t_eval,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> MasterTrajectory:
    """Master equation in the truncated basis at the times `t_eval`, which
    must increase strictly.

    The CSR superoperator is split into the connected blocks of its nonzero
    pattern.  When the largest block is no larger than the Hilbert-space
    dimension, as for the bands m - n of a phase-covariant model, rho is
    mapped from one output time to the next by the exact dense propagator
    of each block (method "block_expm", scaling and squaring).  Any other
    model, such as one with a q^4 term, whose blocks are its two parity
    sectors, is integrated whole by adaptive RK45 (method "rk45"); `rtol`
    and `atol` apply to this path only.

    Hermiticity is re-imposed at output times; the trace is renormalized
    only if it drifts beyond 1e-10 (logged).  Population of the highest
    Fock level is the truncation-leakage monitor.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or t_eval.size < 2 or not np.all(np.diff(t_eval) > 0):
        raise ValueError("t_eval must hold at least two strictly increasing times")
    fock = rho0.fock
    dim = fock.dim
    init_leak = fock.leakage(rho0.rho)
    if init_leak > 1e-10:
        raise ValueError(f"initial truncation leakage {init_leak:.2e} exceeds 1e-10")
    liou = _liouvillian(*_model_matrices(model, fock))
    blocks = _BlockPartition(liou)
    y0 = rho0.rho.ravel().astype(complex)
    if blocks.max_block <= dim:
        method, nfev = "block_expm", 0
        states = _block_states(liou, blocks, y0, t_eval)
    else:

        def rhs(t, y):
            return liou @ y

        sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), y0, method="RK45", t_eval=t_eval,
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"master-equation integration failed: {sol.message}")
        method, nfev, states = "rk45", int(sol.nfev), sol.y.T
    rhos, events = [], []
    for t, y in zip(t_eval, states):
        rho = y.reshape(dim, dim)
        rho = 0.5 * (rho + rho.conj().T)
        tr = np.real(np.trace(rho))
        if abs(tr - 1.0) > 1e-10:
            events.append({"t": float(t), "kind": "trace_renormalized", "trace": float(tr)})
            rho = rho / tr
        leak = fock.leakage(rho)
        if leak > 1e-6:
            events.append({"t": float(t), "kind": "leakage", "population": leak})
        rhos.append(rho)
    leaks = [ev for ev in events if ev["kind"] == "leakage"]
    if leaks:
        peak = max(ev["population"] for ev in leaks)
        warnings.warn(f"truncation leakage above 1e-6 at {len(leaks)} output times: "
                      f"max {peak:.2e}, first at t={leaks[0]['t']:.3g}")
    return MasterTrajectory(times=t_eval.copy(), rhos=rhos, fock=fock, method=method, nfev=nfev,
                            nnz=int(liou.nnz), blocks=blocks.n_blocks,
                            max_block=blocks.max_block, events=events)


# -- moments ------------------------------------------------------------------


def _quadrature_moments(rho: DensityMatrix):
    """First moments and symmetrized covariance of the quadratures."""
    xops, pairs = rho.fock._quadratures
    x = np.array([np.real(rho.expectation(op)) for op in xops])
    cov = np.zeros((x.size, x.size))
    for (i, j), op in pairs.items():
        cov[i, j] = cov[j, i] = np.real(rho.expectation(op)) - 2 * x[i] * x[j]
    return x, cov


def moments_of_density(rho: DensityMatrix) -> Moments:
    """First moments and mode covariance blocks of a density matrix."""
    x, cov = _quadrature_moments(rho)
    return moments_from_covariance(rho.hbar, x, cov)


def width_matrix_of_density(rho: DensityMatrix) -> np.ndarray:
    """G matrix such that the covariance equals hbar G^{-1}."""
    _, cov = _quadrature_moments(rho)
    return rho.hbar * np.linalg.inv(cov)


# -- Wigner transform ---------------------------------------------------------


def _hermite_functions(x: np.ndarray, n: int) -> np.ndarray:
    """Hermite functions phi_0 .. phi_{n-1} at the points x, shape (x.size, n).

    The normalised recurrence phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1}
    runs on values kept at most 1 in size, with their scale and the envelope
    exp(-x^2/2) carried as a logarithm, so far from the origin no value
    underflows before its true size does.
    """
    vals, logs = np.empty((x.size, n)), np.empty((x.size, n))
    log_scale = -0.5 * x**2 - 0.25 * np.log(np.pi)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        vals[:, k], logs[:, k] = cur, log_scale
        prev, cur = cur, np.sqrt(2.0 / (k + 1)) * x * cur - np.sqrt(k / (k + 1)) * prev
        big = np.maximum(np.abs(cur), 1.0)
        prev, cur = prev / big, cur / big
        log_scale = log_scale + np.log(big)
    return vals * np.exp(logs)


def _rotation_blocks(n: int):
    """Yield R^s for s = 0 .. 2n - 2: R^s[j, m - lo] is the overlap
    <j, s-j | m, s-m> of the two-mode Fock states |j, s-j> of
    c = (a + b)/sqrt 2, d = (a - b)/sqrt 2 and |m, s-m> of a, b, for the
    columns lo = max(0, s - n + 1) <= m <= min(s, n - 1), whose |m, s-m>
    lies in an n-level truncation of each mode.

    Each level follows from the one below through
    |m, k> = (sqrt(m) adag|m-1, k> + sqrt(k) bdag|m, k-1>) / (m + k) with
    adag = (cdag + ddag)/sqrt 2 and bdag = (cdag - ddag)/sqrt 2, the stable
    two-sided recurrence of Risbo (J. Geodesy 70, 383 (1996)); the one-sided
    recurrence in adag alone loses orthogonality as s grows.
    """
    rot, prev_lo = np.ones((1, 1)), 0
    yield rot
    for s in range(1, 2 * n - 1):
        lo, hi = max(0, s - n + 1), min(s, n - 1)
        # columns lo - 1 .. hi of the level below, zero outside its range
        below = np.zeros((s, hi - lo + 2))
        below[:, prev_lo - lo + 1:prev_lo - lo + 1 + rot.shape[1]] = rot
        j = np.arange(s + 1)[:, None]
        cdag = np.zeros((s + 1, below.shape[1]))
        ddag = np.zeros_like(cdag)
        cdag[1:] = np.sqrt(j[1:]) * below  # cdag |j-1, s-j> = sqrt(j) |j, s-j>
        ddag[:-1] = np.sqrt(s - j[:-1]) * below  # ddag |j, s-1-j> = sqrt(s-j) |j, s-j>
        m = np.arange(lo, hi + 1)
        rot = (np.sqrt(m) * (cdag + ddag)[:, :-1]
               + np.sqrt(s - m) * (cdag - ddag)[:, 1:]) / (np.sqrt(2.0) * s)
        prev_lo = lo
        yield rot


def wigner_of_density(rho: DensityMatrix, spec: GridSpec) -> WignerGrid:
    """Wigner function of a single-mode density matrix on a grid.

    In the position representation rho(x, x') = sum_mn rho_mn phi_m(x) phi_n(x')
    with Hermite functions phi and x in units of sqrt(hbar).  Rotated to
    u = (x + x')/sqrt 2, v = (x - x')/sqrt 2, each product becomes
    phi_m(x) phi_n(x') = sum_{j + l = m + n} R^s_jm phi_j(u) phi_l(v), with
    s = m + n and R^s the two-mode rotation overlaps of `_rotation_blocks`.
    The Wigner integral over x - x' is a Fourier transform in v, which maps
    phi_l to (-i)^l phi_l, so

        W(q, p) = Phi(sqrt(2/hbar) q) M Phi(sqrt(2/hbar) p)^T / (sqrt(pi) hbar),
        M_jl = (-i)^l sum_{m + n = j + l} R^s_jm rho_mn,

    with Phi the table of Hermite functions on each axis.  W and Phi are
    real, so only Re M enters.  For N levels and G points per axis this is
    O(N^3) work for M and two matrix products of O(G N^2 + G^2 N), in place of
    a Laguerre recurrence over all G^2 points for each of N diagonals, and
    every factor stays in floating-point range at any truncation.
    """
    fock = rho.fock
    if fock.n_modes != 1:
        raise ValueError("wigner_of_density is single mode")
    hbar = rho.hbar
    n = fock.dims[0]
    q, p = spec.axes()
    kmax = 2.0 * np.sqrt(2.0 * n / hbar)
    if max(spec.dq, spec.dp) > np.pi / kmax:
        warnings.warn("grid spacing too coarse for the Fock truncation; fringes may alias")
    flipped = rho.rho[:, ::-1]  # anti-diagonal s of rho is diagonal n - 1 - s here
    minus_i_pow = np.array([1.0, -1j, -1.0, 1j])
    m_re = np.zeros((2 * n - 1, 2 * n - 1))
    for s, rot in enumerate(_rotation_blocks(n)):
        j = np.arange(s + 1)
        m_re[j, s - j] = (minus_i_pow[(s - j) % 4] * (rot @ np.diagonal(flipped, n - 1 - s))).real
    scale = np.sqrt(2.0 / hbar)
    phi_q = _hermite_functions(scale * q, 2 * n - 1)
    phi_p = _hermite_functions(scale * p, 2 * n - 1)
    return WignerGrid(spec, phi_q @ m_re @ phi_p.T / (np.sqrt(np.pi) * hbar))


# -- quantum-jump Monte Carlo ---------------------------------------------------


@dataclass
class JumpEnsemble:
    """Ensemble statistics of a quantum-jump run.

    `series` maps an observable name to the per-trajectory time series of
    shape (n_times, n_traj); `mean` and `stderr` are the aggregates.
    `n_blocks` and `max_block` describe the propagator's invariant blocks;
    `max_leakage` is the largest ensemble-mean population of the highest
    Fock level of any mode over the output times.
    """

    times: np.ndarray
    n_traj: int
    seed: int
    series: dict
    jump_counts: np.ndarray
    n_blocks: int
    max_block: int
    max_leakage: float

    def mean(self, name: str) -> np.ndarray:
        return self.series[name].mean(axis=1)

    def stderr(self, name: str) -> np.ndarray:
        s = self.series[name]
        return s.std(axis=1, ddof=1) / np.sqrt(self.n_traj)


class _SectorPropagator(_BlockPartition):
    """Exact propagation with the spectral decomposition of the (constant)
    effective non-Hermitian Hamiltonian, one invariant block at a time.

    The blocks are the connected components of the nonzero pattern of
    `heff` (the number sectors of a model that conserves or only lowers
    the total number); a model without such structure is one block.
    `coeffs` and `apply` are one batched product per block size.
    Coefficients live in block order; `apply` returns states in the
    original basis order.
    """

    def __init__(self, heff):
        super().__init__(heff)
        self._vec, lams = [], []
        smax, smin = 0.0, np.inf
        for rows, mats in self.stack(heff):
            lam, vec = np.linalg.eig(mats)
            sv = np.linalg.svd(vec, compute_uv=False)
            smax, smin = max(smax, sv.max()), min(smin, sv.min())
            self._vec.append((rows, vec))
            lams.append(lam.ravel())
        # condition number of the whole block-diagonal eigenvector matrix
        cond = smax / smin if smin > 0 else np.inf
        if cond > 1e8:
            raise RuntimeError(
                f"effective Hamiltonian too non-normal for spectral propagation (cond {cond:.1e})"
            )
        self.lam = np.concatenate(lams)
        self._vec_inv = [(rows, np.linalg.inv(vec)) for rows, vec in self._vec]

    def coeffs(self, states: np.ndarray) -> np.ndarray:
        """Eigenbasis coefficients of the columns of `states`, in block order."""
        return _blockwise(self._vec_inv, states[self.perm])

    def apply(self, coeffs: np.ndarray, dt) -> np.ndarray:
        """States at times `dt` (a scalar, or one per column) after `coeffs`."""
        # columns that share a time (every column, on a step without jumps)
        # share one column of phases
        times, col = np.unique(dt, return_inverse=True)
        phases = np.exp(-1j * np.outer(self.lam, times))[:, col.ravel()]
        return _blockwise(self._vec, phases * coeffs)[self.inv_perm]


def _trajectory_key(seed: int, index: int) -> int:
    """Philox key of trajectory `index` in the ensemble seeded by `seed`."""
    return (seed << 64) | index


def quantum_jump(
    model: LindbladModel,
    psi0: np.ndarray,
    t_eval,
    n_traj: int,
    seed: int,
    fock: FockSpace,
    extra_observables: dict | None = None,
) -> JumpEnsemble:
    """Monte Carlo wavefunction unravelling of the master equation.

    Between jumps the unnormalized state evolves under
    H - (i/2) sum_k Ldag_k L_k; a jump fires when the squared norm crosses a
    pre-drawn uniform threshold (located by bisection to 1e-10 in time) and
    the channel is drawn proportional to <Ldag_k L_k>.  Each trajectory owns
    a counter-based Philox stream whose 128-bit key holds the seed in its
    high 64 bits and the trajectory index in its low 64 bits, so no two
    (seed, trajectory) pairs share a stream, and ensembles are reproducible
    and independent of batching order.

    The jump operators and the `adag_a` cross observables are CSR matrices;
    `extra_observables` may be dense or sparse.  The no-jump evolution uses
    the eigendecomposition of each connected block of the effective
    Hamiltonian; for the lossy lattice these are its number sectors.
    """
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    t_eval = np.asarray(t_eval, dtype=float)
    h, ls = _model_matrices(model, fock)
    prop = _SectorPropagator(h - 0.5j * sum(L.conj().T @ L for L in ls))

    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)

    number_diags = [(a.conj().T @ a).diagonal().real for a in fock._lowering]
    cross_ops = {}
    for i in range(fock.n_modes):
        for j in range(i + 1, fock.n_modes):
            cross_ops[f"adag_a_{i+1}_{j+1}"] = fock._lowering[i].conj().T @ fock._lowering[j]
    if extra_observables:
        cross_ops.update(extra_observables)

    names = [f"occ_{j+1}" for j in range(fock.n_modes)]
    cross_names = sorted(cross_ops)
    series = {name: np.zeros((t_eval.size, n_traj)) for name in names}
    for name in cross_names:
        series["re_" + name] = np.zeros((t_eval.size, n_traj))
        series["im_" + name] = np.zeros((t_eval.size, n_traj))
    series["norm_sq"] = np.zeros((t_eval.size, n_traj))
    leakage = np.zeros(t_eval.size)

    rngs = [
        np.random.default_rng(np.random.Philox(key=_trajectory_key(seed, k)))
        for k in range(n_traj)
    ]
    thresholds = np.array([rng.uniform() for rng in rngs])
    jump_counts = np.zeros(n_traj, dtype=int)

    states = np.tile(psi0[:, None], (1, n_traj))

    def record(k):
        pops = np.abs(states) ** 2
        norms = np.sum(pops, axis=0)
        series["norm_sq"][k] = norms
        for j, name in enumerate(names):
            series[name][k] = (number_diags[j] @ pops) / norms
        leakage[k] = np.mean((fock._top_mask @ pops) / norms)
        for name in cross_names:
            vals = np.einsum("it,it->t", states.conj(), cross_ops[name] @ states) / norms
            series["re_" + name][k] = vals.real
            series["im_" + name][k] = vals.imag

    record(0)
    for k in range(1, t_eval.size):
        t_prev, t_next = t_eval[k - 1], t_eval[k]
        dt = t_next - t_prev
        active = np.arange(n_traj)
        offsets = np.zeros(n_traj)  # elapsed time within the interval per trajectory
        guard = 0
        while active.size:
            guard += 1
            if guard > 10000:
                raise RuntimeError("step underflow near jump accumulation")
            coeffs = prop.coeffs(states[:, active])
            remain = dt - offsets[active]
            prop_states = prop.apply(coeffs, remain)
            norms = np.sum(np.abs(prop_states) ** 2, axis=0)
            crossed = norms < thresholds[active]
            done = ~crossed
            states[:, active[done]] = prop_states[:, done]
            if not np.any(crossed):
                break
            idx = active[crossed]
            csub = coeffs[:, crossed]
            lo = np.zeros(idx.size)
            hi = remain[crossed].copy()
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                if np.max(hi - lo) < 1e-10:
                    break
                trial = prop.apply(csub, mid)
                tn = np.sum(np.abs(trial) ** 2, axis=0)
                above = tn >= thresholds[idx]
                lo = np.where(above, mid, lo)
                hi = np.where(above, hi, mid)
            s_jump = 0.5 * (lo + hi)
            at_jump = prop.apply(csub, s_jump)
            jumped = [L @ at_jump for L in ls]
            weights = np.array([np.sum(np.abs(v) ** 2, axis=0) for v in jumped])
            weights = weights.reshape(len(ls), idx.size)
            for col, traj in enumerate(idx):
                rng = rngs[traj]
                wsum = weights[:, col].sum()
                if wsum <= 0:
                    # no decay channel open; accept and keep evolving
                    psi = at_jump[:, col]
                else:
                    u = rng.uniform() * wsum
                    ch = int(np.searchsorted(np.cumsum(weights[:, col]), u))
                    psi = jumped[min(ch, len(ls) - 1)][:, col]
                states[:, traj] = psi / np.linalg.norm(psi)
                thresholds[traj] = rng.uniform()
                jump_counts[traj] += 1
            offsets[idx] += s_jump
            active = idx
        record(k)
    return JumpEnsemble(
        times=t_eval.copy(), n_traj=n_traj, seed=seed, series=series, jump_counts=jump_counts,
        n_blocks=prop.n_blocks, max_block=prop.max_block, max_leakage=float(leakage.max()),
    )
