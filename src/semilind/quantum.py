"""Truncated Fock-basis reference solvers, at hbar = 1.

The mode operators satisfy [a, adag] = 1 and the quadratures are
q = (a + adag)/sqrt(2), p = i(adag - a)/sqrt(2).  Operators stay sparse
from symbol to observable: `symbol_to_normal_ordered` orders each Weyl monomial
in closed form, `quantize` assembles the terms from sparse mode ladders, and
`_model_matrices`, the one place that rejects hbar != 1, hands a model's H
and L_k to the master equation and to the quantum-jump ensemble.  Both split
their generator into the connected blocks of its nonzero pattern and pack
the blocks into one stack of equal bins (`_BlockPartition`), so that a
product by every block is one batched call.  The master equation builds one
CSR Lindblad superoperator and steps rho in its n^2 real Hermitian
coordinates (`_HermitianCoords`), so every output rho is Hermitian by
construction.  It keeps those coordinates stacked over the output times and
reads the trace, the leakage and the quadrature moments of all of them as
linear functionals (`FockSpace._functionals`), in one sparse product; a
density matrix is built only for a requested frame.
When no block of the real superoperator is larger than twice the Hilbert
space, as for the band pairs m - n = +-k of a phase-covariant model, it
steps between output times with exact dense block propagators, and
otherwise it integrates the whole real superoperator with the adaptive
eighth-order Dormand-Prince method (DOP853).
The jump ensemble diagonalizes each block of the effective Hamiltonian, such
as a number sector of the lossy lattice.  The Wigner transform of a density
matrix is exact and separable: a 45-degree rotation of (x, x') turns it into
two matrix products with tables of Hermite functions on the grid axes, and
the frames of one call share the rotation blocks and the tables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import matrix_power as _sparse_matrix_power

from .gaussian import GridSpec, Moments, WignerGrid
from .ode import solve_ivp
from .semiclassical import LindbladModel, _check_times
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

# The most population the master equation's initial state may hold in the
# highest Fock level; the harness checks a master row's start against it too.
_INITIAL_LEAKAGE = 1e-10

# Coefficients of the Stirling series of log Gamma(x) for x >= 13, as the
# Cephes function ``lgam`` sums it
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorials(d: int) -> np.ndarray:
    """log k! for k < d: rounded exactly for k < 12, and by Cephes' Stirling
    series above.  These are the values of ``scipy.special.gammaln(k + 1)``
    bit for bit (checked below k = 20,000), so coherent amplitudes, and the
    adaptive step sequences of the solves that start from them, keep their
    last digits without importing ``scipy.special``."""
    out = [math.log(math.factorial(k)) for k in range(min(d, 12))]
    for x in np.arange(13.0, d + 1.0):
        p, series = 1.0 / (x * x), _STIRLING[0]
        for c in _STIRLING[1:]:
            series = series * p + c
        out.append((x - 0.5) * math.log(x) - x + 0.91893853320467274178 + series / x)
    return np.array(out)


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

    def coherent_vector(self, amplitudes) -> np.ndarray:
        """Product coherent state with given mode amplitudes."""
        amps = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
        if amps.size != self.n_modes:
            raise ValueError("amplitude count must match mode count")
        vec = np.ones(1, dtype=complex)
        for alpha, d in zip(amps, self.dims):
            k = np.arange(d)
            logmag = (-abs(alpha) ** 2 / 2 + k * np.log(abs(alpha) + 1e-300)
                      - 0.5 * _log_factorials(d))
            comp = np.exp(logmag) * np.exp(1j * k * np.angle(alpha))
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
    def _coords(self) -> "_HermitianCoords":
        return _HermitianCoords(self.dim)

    @cached_property
    def _functionals(self) -> sp.csr_array:
        """Real CSR matrix F whose rows read, from the real coordinates x of a
        Hermitian rho (`_HermitianCoords`), Tr rho, the leakage, each <x_i>
        and each <x_i x_j + x_j x_i> with i <= j, for the quadratures
        x = (q_1..q_n, p_1..p_n): Tr(rho O) = vec(rho) . vec(O^T) = F_O . x
        with F_O = Re P^T vec(O^T), real because O is Hermitian."""
        xs = [(a + a.conj().T) / np.sqrt(2) for a in self._lowering]
        xs += [1j * (a.conj().T - a) / np.sqrt(2) for a in self._lowering]
        ops = [sp.identity(self.dim, format="csr"), sp.diags_array(self._top_mask), *xs]
        ops += [xs[i] @ xs[j] + xs[j] @ xs[i] for i in range(len(xs)) for j in range(i, len(xs))]
        rows = sp.vstack([sp.csr_array(op.T.reshape(1, -1)) for op in ops], format="csr")
        funcs = sp.csr_array((rows @ self._coords.P).real)
        funcs.eliminate_zeros()
        return funcs

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


# -- invariant blocks -----------------------------------------------------------


class _BlockPartition:
    """Connected components of the nonzero pattern of a square matrix, packed
    into bins of width M = `max_block`, the largest block.

    Each bin opens with the largest block left and takes the smallest blocks
    left while they fit, so packing is linear in the number of blocks.  The
    bin layout has n_bins * M slots, bin b holding slots b M .. b M + M - 1:
    each block fills a run of slots of one bin (from `starts`, by block
    label) in basis order, row i of the basis sits at slot `pos[i]`, and the
    slots that no block fills are padding.  `embed` moves a vector or an
    operator into the layout, `stack` gathers the matrix's diagonal blocks
    into one (n_bins, M, M) array, zero in the padded rows and columns and
    between the blocks of one bin, and `_blockwise` multiplies vectors in
    the layout by it in one batched product.
    """

    def __init__(self, mat):
        mat = sp.csr_array(mat)
        self.n_blocks, labels = connected_components(mat != 0, directed=True, connection="weak")
        self.sizes = np.bincount(labels)
        self.max_block = width = int(self.sizes.max())
        order = np.argsort(-self.sizes, kind="stable")
        self.starts = np.empty(self.n_blocks, dtype=int)
        big, small, self.n_bins = 0, self.n_blocks - 1, 0
        while big <= small:
            slot = self.n_bins * width
            self.n_bins += 1
            self.starts[order[big]], slot = slot, slot + self.sizes[order[big]]
            big += 1
            while big <= small and slot + self.sizes[order[small]] <= self.n_bins * width:
                self.starts[order[small]], slot = slot, slot + self.sizes[order[small]]
                small -= 1
        # rank of each row within its block, in basis order
        rows = np.argsort(labels, kind="stable")
        rank = np.empty_like(labels)
        rank[rows] = np.arange(labels.size) - (np.cumsum(self.sizes) - self.sizes)[labels[rows]]
        self.pos = self.starts[labels] + rank
        self.n_slots = self.n_bins * width
        self._to_bins = sp.csr_array((np.ones(labels.size), (self.pos, np.arange(labels.size))),
                                     shape=(self.n_slots, labels.size))

    def embed(self, x, operator: bool = False):
        """Vector x in the bin layout, zero in the padding, or, for an
        `operator`, the matrix x with its rows and columns moved so."""
        return self._to_bins @ x @ self._to_bins.T if operator else self._to_bins @ x

    def stack(self, mat) -> np.ndarray:
        """(n_bins, M, M) diagonal blocks of the partitioned matrix, by bin."""
        coo = sp.coo_array(mat)
        coo.sum_duplicates()
        r, c = self.pos[coo.row], self.pos[coo.col]
        m = self.max_block
        out = np.zeros((self.n_bins, m, m), dtype=coo.dtype)
        out[r // m, r % m, c % m] = coo.data
        return out


def _blockwise(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply the vector x, or each row of x, in the bin layout by an
    (n_bins, M, M) stack: one batched product over the bins."""
    n_bins, m, _ = stack.shape
    out = np.empty_like(x, dtype=np.result_type(stack, x))
    np.matmul(x.reshape(-1, n_bins, m).swapaxes(0, 1), stack.swapaxes(1, 2),
              out=out.reshape(-1, n_bins, m).swapaxes(0, 1))
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


class _HermitianCoords:
    """Real coordinates x = (Re rho_ij for i <= j, Im rho_ij for i < j) of a
    Hermitian n x n rho, n^2 real numbers in row-major order of the upper
    triangle.

    `P` is the sparse map from x to the row-major vec(rho); `read` (Q) takes
    x back from vec(rho).  A superoperator that maps Hermitian rho to
    Hermitian rho acts on x as the real matrix Q L P (`superop`), and P x is
    Hermitian entry for entry.
    """

    def __init__(self, n: int):
        i, j = np.triu_indices(n)
        off = i < j
        self._re = i * n + j
        self._im = self._re[off]
        n_re, n_im = i.size, self._im.size
        lower = (j * n + i)[off]
        rows = np.concatenate([self._re, lower, self._im, lower])
        cols = np.concatenate([np.arange(n_re), np.flatnonzero(off),
                               np.tile(np.arange(n_re, n_re + n_im), 2)])
        data = np.concatenate([np.ones(n_re + n_im), np.full(n_im, 1j), np.full(n_im, -1j)])
        self.P = sp.csr_array((data, (rows, cols)), shape=(n * n, n * n))

    def read(self, vec: np.ndarray) -> np.ndarray:
        """x of the Hermitian rho whose row-major vec is `vec`."""
        return np.concatenate([vec.real[self._re], vec.imag[self._im]])

    def superop(self, liou) -> sp.csr_array:
        """CSR real matrix Q liou P, which acts on x as liou acts on vec(rho)."""
        lp = sp.csr_array(liou @ self.P)
        real = sp.vstack([lp[self._re].real, lp[self._im].imag], format="csr")
        real.eliminate_zeros()
        return real


@dataclass
class MasterTrajectory:
    """rho at each output time, as the columns of `coords` in its real
    coordinates (`_HermitianCoords`), and the quadrature moments that
    `integrate_master` read from them: `means[k]` holds each <x_i> and
    `covariances[k]` the symmetrized covariance <x_i x_j + x_j x_i> -
    2 <x_i><x_j>, for x = (q_1..q_n, p_1..p_n)."""

    times: np.ndarray
    coords: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    fock: FockSpace
    method: str  # "block_expm" or "dop853"
    # DOP853 right-hand-side calls; 0 on the block path.  Adaptive step counts
    # repeat only for a bit-identical start: the registered cat reads 2,696
    # (186 steps, 7 rejected) with one BLAS thread and with two on a 2-core
    # x86-64 host, and read 2,684 with log k! exactly rounded instead.
    nfev: int
    steps: int  # accepted DOP853 steps; 0 on the block path
    rejected: int  # rejected DOP853 steps; 0 on the block path
    nnz: int  # stored entries of the real CSR superoperator Q L P
    blocks: int  # connected blocks of the real superoperator
    max_block: int  # real unknowns in its largest block
    events: list = field(default_factory=list)

    def density(self, k: int) -> DensityMatrix:
        """rho at output time k; built only when asked for, as for a frame."""
        dim = self.fock.dim
        return DensityMatrix(rho=(self.fock._coords.P @ self.coords[:, k]).reshape(dim, dim),
                             fock=self.fock)


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
    """Yield the state y at each time of t_eval, stepping with the exact
    propagators expm(L_b dt) of the blocks of the superoperator, one expm of
    their (n_bins, M, M) stack per step.  y stays in the bin layout between
    steps.  Consecutive steps that agree to 1e-12 relative share one stack
    of propagators, so a uniform grid computes one."""
    stacked = blocks.stack(liou)
    y = blocks.embed(y0)
    step, props = None, None
    yield y0
    for dt in np.diff(t_eval):
        if props is None or abs(dt - step) > 1e-12 * step:
            step, props = dt, expm(stacked * dt)
        y = _blockwise(props, y)
        yield y[blocks.pos]


def integrate_master(
    rho0: DensityMatrix,
    model: LindbladModel,
    t_eval,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> MasterTrajectory:
    """Master equation in the truncated basis at the times `t_eval`, which
    must increase strictly.

    rho is stepped in its n^2 real coordinates x (`_HermitianCoords`), with
    the real superoperator Q L P of the CSR Lindblad superoperator L.  That
    matrix is split into the connected blocks of its nonzero pattern.  When
    the largest block is no larger than twice the Hilbert-space dimension,
    as for the band pairs m - n = +-k of a phase-covariant model (2(n - k)
    real unknowns each), x is mapped from one output time to the next by
    the exact dense propagators of the blocks, packed into one stack of bins
    as wide as the largest block (method "block_expm", scaling and
    squaring).  Any other model, such as one with a q^4 term, whose
    blocks are its two parity sectors, is integrated whole by adaptive
    DOP853 (method "dop853"); `rtol` and `atol` apply to this path only.

    Each output rho = P x is Hermitian by construction, and is built only
    on request (`MasterTrajectory.density`).  The trace, the leakage and the
    quadrature moments of every output time are linear functionals of x,
    read by one sparse product (`FockSpace._functionals`).  The trace is
    renormalized only if it drifts beyond 1e-10 (logged).  Population of
    the highest Fock level is the truncation-leakage monitor.
    """
    t_eval = _check_times(t_eval)
    fock = rho0.fock
    dim = fock.dim
    init_leak = fock.leakage(rho0.rho)
    if init_leak > _INITIAL_LEAKAGE:
        raise ValueError(f"initial truncation leakage {init_leak:.2e} exceeds {_INITIAL_LEAKAGE:g}")
    liou = fock._coords.superop(_liouvillian(*_model_matrices(model, fock)))
    blocks = _BlockPartition(liou)
    y0 = fock._coords.read(rho0.rho.ravel())
    if blocks.max_block <= 2 * dim:
        method, nfev, steps, rejected = "block_expm", 0, 0, 0
        coords = np.empty((y0.size, t_eval.size))
        for k, y in enumerate(_block_states(liou, blocks, y0, t_eval)):
            coords[:, k] = y
    else:

        def rhs(t, y):
            return liou @ y

        sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), y0, t_eval=t_eval, rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"master-equation integration failed: {sol.message}")
        method, nfev, steps, rejected, coords = "dop853", sol.nfev, sol.steps, sol.rejected, sol.y
    values = fock._functionals @ coords
    trace = values[0].copy()
    renorm = np.abs(trace - 1.0) > 1e-10
    values[:, renorm] /= trace[renorm]
    coords[:, renorm] /= trace[renorm]
    leaks = values[1]
    leaky = leaks > 1e-6
    events = []
    for k in np.flatnonzero(renorm | leaky):
        t = float(t_eval[k])
        if renorm[k]:
            events.append({"t": t, "kind": "trace_renormalized", "trace": float(trace[k])})
        if leaky[k]:
            events.append({"t": t, "kind": "leakage", "population": float(leaks[k])})
    if leaky.any():
        warnings.warn(f"truncation leakage above 1e-6 at {int(leaky.sum())} output times: "
                      f"max {leaks[leaky].max():.2e}, "
                      f"first at t={t_eval[np.argmax(leaky)]:.3g}")
    means, covs = _quadrature_moments(fock, values)
    return MasterTrajectory(times=t_eval.copy(), coords=coords, means=means, covariances=covs,
                            fock=fock, method=method, nfev=nfev, steps=steps, rejected=rejected,
                            nnz=int(liou.nnz), blocks=blocks.n_blocks,
                            max_block=blocks.max_block, events=events)


# -- moments ------------------------------------------------------------------


def _quadrature_moments(fock: FockSpace, values: np.ndarray):
    """First moments (k, 2n) and symmetrized covariances (k, 2n, 2n) of k
    states from the values (rows) of `FockSpace._functionals` on them (columns)."""
    dim = 2 * fock.n_modes
    means = values[2:2 + dim].T
    iu = np.triu_indices(dim)
    pairs = np.empty((values.shape[1], dim, dim))
    pairs[:, iu[0], iu[1]] = values[2 + dim:].T
    pairs[:, iu[1], iu[0]] = values[2 + dim:].T
    return means, pairs - 2 * means[:, :, None] * means[:, None, :]


def moments_of_density(rho) -> Moments:
    """First moments and mode covariance blocks of each output rho of a
    `MasterTrajectory`, from the moments `integrate_master` read, as one
    record; a `DensityMatrix` is the trajectory of one state."""
    if isinstance(rho, MasterTrajectory):  # solved at hbar = 1
        return Moments.from_covariance(1.0, rho.means, rho.covariances)
    fock = rho.fock
    values = fock._functionals @ fock._coords.read(rho.rho.ravel())
    return Moments.from_covariance(rho.hbar, *_quadrature_moments(fock, values[:, None]))


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


def wigner_of_density(rho, spec: GridSpec):
    """Wigner function of a single-mode density matrix on a grid, or of each
    of a list of density matrices on one `FockSpace`, which share one set of
    rotation blocks and Hermite tables; returns a `WignerGrid` or a list.

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
    single = isinstance(rho, DensityMatrix)
    rhos = [rho] if single else list(rho)
    fock, hbar = rhos[0].fock, rhos[0].hbar
    if fock.n_modes != 1:
        raise ValueError("wigner_of_density is single mode")
    if any(r.fock.dims != fock.dims or r.hbar != hbar for r in rhos):
        raise ValueError("the density matrices of one call share their truncation and hbar")
    n = fock.dims[0]
    q, p = spec.axes()
    kmax = 2.0 * np.sqrt(2.0 * n / hbar)
    if max(spec.dq, spec.dp) > np.pi / kmax:
        warnings.warn("grid spacing too coarse for the Fock truncation; fringes may alias")
    # anti-diagonal s of each rho is diagonal n - 1 - s here
    flipped = np.array([r.rho for r in rhos])[:, :, ::-1]
    minus_i_pow = np.array([1.0, -1j, -1.0, 1j])
    m_re = np.zeros((len(rhos), 2 * n - 1, 2 * n - 1))
    for s, rot in enumerate(_rotation_blocks(n)):
        j = np.arange(s + 1)
        diags = np.diagonal(flipped, n - 1 - s, axis1=1, axis2=2)
        m_re[:, j, s - j] = (minus_i_pow[(s - j) % 4] * (diags @ rot.T)).real
    scale = np.sqrt(2.0 / hbar)
    phi_q = _hermite_functions(scale * q, 2 * n - 1)
    phi_p = _hermite_functions(scale * p, 2 * n - 1)
    grids = [WignerGrid(spec, phi_q @ m @ phi_p.T / (np.sqrt(np.pi) * hbar)) for m in m_re]
    return grids[0] if single else grids


# -- quantum-jump Monte Carlo ---------------------------------------------------


@dataclass
class JumpEnsemble:
    """Ensemble statistics of a quantum-jump run.

    `series` maps an observable name to the per-trajectory time series of
    shape (n_times, n_traj).
    `n_blocks` and `max_block` describe the propagator's invariant blocks;
    `max_leakage` is the largest ensemble-mean population of the highest
    Fock level of any mode over the output times.  `norm_evals` counts the
    norm evaluations of the jump-time root finder over the whole run and
    `max_norm_evals` the most it spent on one crossing.
    """

    times: np.ndarray
    n_traj: int
    seed: int
    series: dict
    jump_counts: np.ndarray
    n_blocks: int
    max_block: int
    max_leakage: float
    norm_evals: int
    max_norm_evals: int


class _SectorPropagator(_BlockPartition):
    """Exact propagation with the spectral decomposition of the (constant)
    effective non-Hermitian Hamiltonian, one invariant block at a time.

    The blocks are the connected components of the nonzero pattern of
    `heff` (the number sectors of a model that conserves or only lowers
    the total number); a model without such structure is one block.
    With heff = V diag(lam) V^-1, a state with eigenbasis coefficients c is
    V x(s) after a time s, x(s) = exp(-i lam s) c.  Its squared norm is
    n(s) = Re x^H G x with the Gram matrix G = V^H V, and
    n'(s) = 2 Re (G x)^H (-i lam x); `norm_and_slope` reads both without
    returning to the Fock basis.  Each block is diagonalized on its own, so
    V, V^-1 and G are zero between the blocks of one bin, and are the
    identity on padded slots, whose eigenvalue is 0.  States and
    coefficients are the rows of an array, each in the bin layout, so that
    a trajectory is one contiguous row; `coeffs`, `states` and
    `norm_and_slope` are one batched product by a (n_bins, M, M) stack.
    """

    def __init__(self, heff):
        super().__init__(heff)
        blocks = self.stack(heff)
        m = self.max_block
        vec = np.broadcast_to(np.eye(m, dtype=complex), blocks.shape).copy()
        vec_inv = vec.copy()
        self.lam = np.zeros(self.n_slots, dtype=complex)
        smax, smin = 0.0, np.inf
        for size in np.unique(self.sizes):
            # every block of this size, as a (g, size, size) stack cut from its bins
            slots = self.starts[self.sizes == size, None] + np.arange(size)
            cut = (slots[:, :1, None] // m, slots[:, :, None] % m, slots[:, None, :] % m)
            lam, v = np.linalg.eig(blocks[cut])
            sv = np.linalg.svd(v, compute_uv=False)
            smax, smin = max(smax, sv.max()), min(smin, sv.min())
            vec[cut], vec_inv[cut], self.lam[slots] = v, np.linalg.inv(v), lam
        # condition number of the whole block-diagonal eigenvector matrix
        cond = smax / smin if smin > 0 else np.inf
        if cond > 1e8:
            raise RuntimeError(
                f"effective Hamiltonian too non-normal for spectral propagation (cond {cond:.1e})"
            )
        self._vec, self._vec_inv = vec, vec_inv
        self._gram = vec.conj().swapaxes(1, 2) @ vec

    def coeffs(self, states: np.ndarray) -> np.ndarray:
        """Eigenbasis coefficients V^-1 y of the rows y of `states`."""
        return _blockwise(self._vec_inv, states)

    def states(self, coeffs: np.ndarray) -> np.ndarray:
        """States V c of the rows c of `coeffs`."""
        return _blockwise(self._vec, coeffs)

    def evolve(self, coeffs: np.ndarray, dt) -> np.ndarray:
        """Coefficients at times `dt` (a scalar, or one per row) after `coeffs`."""
        times = np.atleast_1d(dt)
        if np.all(times == times[0]):
            times = times[:1]  # one row of phases, broadcast over the rows
        return np.exp(-1j * np.outer(times, self.lam)) * coeffs

    def norm_and_slope(self, x: np.ndarray):
        """Squared norms n and their time derivatives n' of the states whose
        eigenbasis coefficients are the rows of `x`.

        For heff = H - (i/2) sum_k Ldag_k L_k, n' = -sum_k |L_k psi|^2, the
        total jump weight, which is never positive.
        """
        gx = _blockwise(self._gram, x)
        n = np.einsum("ij,ij->i", x.conj(), gx).real
        dn = 2.0 * np.einsum("ij,ij->i", gx.conj(), -1j * self.lam * x).real
        return n, dn


def _crossing_times(prop: _SectorPropagator, coeffs, remain, n0, n1, r):
    """Times s in [0, remain] at which the squared norms of the states with
    eigenbasis coefficients `coeffs` (one per row) fall to the thresholds
    `r`, with n0 >= r > n1 the squared norms at 0 and at `remain`.

    A safeguarded Newton iteration (rtsafe, Numerical Recipes 9.4) on
    n(s) - r, with n and n' from `prop.norm_and_slope`.  It starts at the
    log-linear guess remain ln(n0/r) / ln(n0/n1) and keeps the bracket
    [lo, hi] by the sign of n - r after each evaluation; a Newton step that
    is not finite, leaves the bracket or is not at most half the step before
    it is replaced by bisection.  Each state stops by its own test (step
    < 1e-11 or bracket < 1e-10) and leaves the batch, so its time does not
    depend on the other states.  Returns the times and the number of norm
    evaluations per state.
    """
    lo, hi = np.zeros_like(remain), remain.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        s = remain * np.log(n0 / r) / np.log(n0 / n1)
    s = np.where((s > lo) & (s < hi), s, 0.5 * hi)  # a NaN guess fails both
    last = hi.copy()  # the step before; the bracket, to start
    evals = np.zeros(remain.size, dtype=int)
    todo = np.arange(remain.size)
    while todo.size:
        n, dn = prop.norm_and_slope(prop.evolve(coeffs[todo], s[todo]))
        evals[todo] += 1
        st, f = s[todo], n - r[todo]
        above = f >= 0
        lo_t, hi_t = np.where(above, st, lo[todo]), np.where(above, hi[todo], st)
        lo[todo], hi[todo] = lo_t, hi_t
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = st - f / dn
        ok = (lo_t <= newton) & (newton <= hi_t) & (np.abs(newton - st) <= 0.5 * last[todo])
        nxt = np.where(ok, newton, 0.5 * (lo_t + hi_t))
        step = np.abs(nxt - st)
        s[todo], last[todo] = nxt, step
        todo = todo[(step >= 1e-11) & (hi_t - lo_t >= 1e-10)]
    return s, evals


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
) -> JumpEnsemble:
    """Monte Carlo wavefunction unravelling of the master equation, with
    `n_traj` >= 1 trajectories, at the times `t_eval`, which must increase
    strictly.

    Between jumps the unnormalized state evolves under
    H - (i/2) sum_k Ldag_k L_k; a jump fires when the squared norm crosses a
    pre-drawn uniform threshold and the channel is drawn proportional to
    <Ldag_k L_k>.  The crossing time is a root of the squared norm, found by
    `_crossing_times`: safeguarded Newton in the eigenbasis of the effective
    Hamiltonian, with the norm read through the Gram matrix of its
    eigenvectors; each crossing stops by its own test (step < 1e-11 or
    bracket < 1e-10 in time), whatever else crosses in the same step.

    Each trajectory owns a counter-based Philox stream whose 128-bit key
    holds the seed in its high 64 bits and the trajectory index in its low
    64 bits, so no two (seed, trajectory) pairs share a stream, and
    ensembles are reproducible and independent of batching order.

    `series` holds, per trajectory, each mode's occupation `occ_<j>` and
    the real and imaginary parts of each cross observable <a_i^dag a_j>,
    i < j (`re_adag_a_<i>_<j>`, `im_adag_a_<i>_<j>`); the jump operators and
    the cross observables are CSR matrices.  The no-jump evolution uses the
    eigendecomposition of each connected block of the effective
    Hamiltonian; for the lossy lattice these are its number sectors.  The
    ensemble is held in the propagator's bin layout as eigenbasis
    coefficients C and states V C, and every operator is moved into that
    layout once.  A trajectory that does not jump in an output interval
    costs one phase multiply and one product by V; only the states that
    jump are mapped back to coefficients.
    """
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    if n_traj < 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")
    t_eval = _check_times(t_eval)
    h, ls = _model_matrices(model, fock)
    prop = _SectorPropagator(h - 0.5j * sum(L.conj().T @ L for L in ls))
    ls = [prop.embed(L, operator=True) for L in ls]

    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = prop.embed(psi0 / np.linalg.norm(psi0))

    number_diags = [prop.embed((a.conj().T @ a).diagonal().real) for a in fock._lowering]
    top_mask = prop.embed(fock._top_mask)
    cross_ops = {}
    for i in range(fock.n_modes):
        for j in range(i + 1, fock.n_modes):
            cross_ops[f"adag_a_{i+1}_{j+1}"] = fock._lowering[i].conj().T @ fock._lowering[j]
    cross_ops = {name: prop.embed(op, operator=True) for name, op in cross_ops.items()}

    names = [f"occ_{j+1}" for j in range(fock.n_modes)]
    cross_names = sorted(cross_ops)
    series = {name: np.zeros((t_eval.size, n_traj)) for name in names}
    for name in cross_names:
        series["re_" + name] = np.zeros((t_eval.size, n_traj))
        series["im_" + name] = np.zeros((t_eval.size, n_traj))
    leakage = np.zeros(t_eval.size)

    rngs = [
        np.random.default_rng(np.random.Philox(key=_trajectory_key(seed, k)))
        for k in range(n_traj)
    ]
    thresholds = np.array([rng.uniform() for rng in rngs])
    jump_counts = np.zeros(n_traj, dtype=int)
    norm_evals = max_norm_evals = 0

    # each trajectory's state and its eigenbasis coefficients, one row each,
    # at the trajectory's own time
    states = np.tile(psi0, (n_traj, 1))
    coeffs = prop.coeffs(states)

    def record(k, states):
        pops = np.abs(states) ** 2
        norms = np.sum(pops, axis=1)
        for j, name in enumerate(names):
            series[name][k] = (pops @ number_diags[j]) / norms
        leakage[k] = np.mean((pops @ top_mask) / norms)
        for name in cross_names:
            vals = np.vecdot(states, states @ cross_ops[name].T, axis=1) / norms
            series["re_" + name][k] = vals.real
            series["im_" + name][k] = vals.imag

    record(0, states)
    for k in range(1, t_eval.size):
        dt = t_eval[k] - t_eval[k - 1]
        active = np.arange(n_traj)
        offsets = np.zeros(n_traj)  # elapsed time within the interval per trajectory
        guard = 0
        while active.size:
            guard += 1
            if guard > 10000:
                raise RuntimeError("step underflow near jump accumulation")
            remain = dt - offsets[active]
            whole = active.size == n_traj  # then active is every trajectory, in order
            x = prop.evolve(coeffs if whole else coeffs[active], remain)
            y = prop.states(x)
            norms = np.vecdot(y, y, axis=1).real
            crossed = norms < thresholds[active]
            if whole:
                # the crossing rows stay where they are
                x[crossed], y[crossed] = coeffs[crossed], states[crossed]
                coeffs, states = x, y
            else:
                done = ~crossed
                coeffs[active[done]], states[active[done]] = x[done], y[done]
            if not crossed.any():
                break
            idx = active[crossed]
            csub = coeffs[idx]
            n0 = np.vecdot(states[idx], states[idx], axis=1).real
            s_jump, evals = _crossing_times(prop, csub, remain[crossed], n0, norms[crossed],
                                            thresholds[idx])
            norm_evals += int(evals.sum())
            max_norm_evals = max(max_norm_evals, int(evals.max()))
            at_jump = prop.states(prop.evolve(csub, s_jump))
            # option 0 keeps the state, for a row with no decay channel open
            options = np.stack([at_jump] + [at_jump @ L.T for L in ls])
            weights = np.sum(np.abs(options[1:]) ** 2, axis=2)
            wsum = weights.sum(axis=0)
            pick = np.zeros(idx.size, dtype=int)
            for i, traj in enumerate(idx):
                rng = rngs[traj]
                if wsum[i] > 0:
                    u = rng.uniform() * wsum[i]
                    pick[i] = 1 + min(int(np.searchsorted(np.cumsum(weights[:, i]), u)),
                                      len(ls) - 1)
                thresholds[traj] = rng.uniform()
            psi = options[pick, np.arange(idx.size)]
            states[idx] = psi / np.sqrt(np.vecdot(psi, psi, axis=1).real)[:, None]
            coeffs[idx] = prop.coeffs(states[idx])
            jump_counts[idx] += 1
            offsets[idx] += s_jump
            active = idx
        record(k, states)
    return JumpEnsemble(
        times=t_eval.copy(), n_traj=n_traj, seed=seed, series=series, jump_counts=jump_counts,
        n_blocks=prop.n_blocks, max_block=prop.max_block, max_leakage=float(leakage.max()),
        norm_evals=norm_evals, max_norm_evals=max_norm_evals,
    )
