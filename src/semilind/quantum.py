"""Truncated Fock-basis reference solvers.

Everything here works at hbar = 1, where the mode operators satisfy
[a, adag] = 1 and the quadratures are q = (a + adag)/sqrt(2),
p = i(adag - a)/sqrt(2).  Operators are assembled from sparse (CSR) mode
ladders and handed out as dense arrays; the master equation integrates one
CSR Lindblad superoperator with RK45.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eig as _dense_eig
from scipy.sparse.linalg import matrix_power as _sparse_matrix_power
from scipy.special import gammaln

from .gaussian import GridSpec, Moments, WignerGrid, moments_from_covariance
from .semiclassical import LindbladModel
from .symbols import Chart, PolySymbol, chart_transform, weyl_of_normal_ordered

__all__ = [
    "FockSpace",
    "DensityMatrix",
    "MasterTrajectory",
    "JumpEnsemble",
    "quantize",
    "symbol_to_normal_ordered",
    "weyl_quantize",
    "lindblad_rhs",
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

    def lowering(self, mode: int) -> np.ndarray:
        return self._lowering[mode].toarray()

    def raising(self, mode: int) -> np.ndarray:
        return self._lowering[mode].conj().T.toarray()

    def number(self, mode: int) -> np.ndarray:
        a = self._lowering[mode]
        return (a.conj().T @ a).toarray()

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

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

    def leakage(self, vec_or_rho: np.ndarray) -> float:
        """Total population of the highest level of any mode."""
        occ = self._top_level_mask()
        if vec_or_rho.ndim == 1:
            return float(np.sum(np.abs(vec_or_rho) ** 2 * occ))
        return float(np.real(np.sum(np.diag(vec_or_rho) * occ)))

    def _top_level_mask(self) -> np.ndarray:
        mask = np.zeros(self.dim)
        for j, d in enumerate(self.dims):
            idx = np.unravel_index(np.arange(self.dim), self.dims)
            mask = np.maximum(mask, (idx[j] == d - 1).astype(float))
        return mask


# -- operator assembly --------------------------------------------------------


def quantize(terms, fock: FockSpace) -> np.ndarray:
    """Matrix of a normal-ordered expression.

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
    return out.toarray()


def symbol_to_normal_ordered(sym: PolySymbol, hbar: float = 1.0):
    """Expand a Weyl symbol over the symbols of normal-ordered monomials.

    Peels the highest-degree monomial abar^m a^k, emits the operator term
    (adag)^m a^k, subtracts that operator's exact Weyl symbol and repeats;
    the remainder loses total degree every step, so this terminates.
    """
    work = chart_transform(sym, Chart.COMPLEX_AABAR) if sym.chart is Chart.REAL_QP else sym
    if work.chart is not Chart.COMPLEX_AABAR:
        raise ValueError("expected a REAL_QP or COMPLEX_AABAR symbol")
    n = work.n_modes
    cache: dict[tuple[int, int, int], PolySymbol] = {}

    def ordered_symbol(powers) -> PolySymbol:
        total = PolySymbol.constant(Chart.COMPLEX_AABAR, n, 1.0)
        for j, (m, k) in enumerate(powers):
            if m == 0 and k == 0:
                continue
            key = (j, m, k)
            if key not in cache:
                cache[key] = weyl_of_normal_ordered(n, j, m, k, hbar)
            total = total * cache[key]
        return total

    terms = []
    guard = 0
    eps = 1e-14 * max(1.0, work.max_abs_coeff())
    while not work.is_zero():
        guard += 1
        if guard > 10000:
            raise RuntimeError("normal-ordered expansion did not terminate")
        key = max(work.terms, key=lambda k: (sum(k), k))
        coeff = work.terms[key]
        powers = tuple((key[n + j], key[j]) for j in range(n))  # (dag, low) per mode
        terms.append((coeff, powers))
        work = (work - ordered_symbol(powers) * coeff).prune(eps)
    return terms


def weyl_quantize(sym: PolySymbol, fock: FockSpace, hbar: float = 1.0) -> np.ndarray:
    """Exact Weyl quantization of a polynomial symbol in the truncated basis."""
    if hbar != 1.0:
        raise ValueError("Fock-basis solvers are defined at hbar = 1")
    return quantize(symbol_to_normal_ordered(sym, hbar), fock)


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

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ op))

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.rho).min())


def _liouvillian(h, ls, hbar: float = 1.0) -> sp.csr_array:
    """CSR superoperator of `lindblad_rhs` acting on the row-major vec(rho).

    A rho B maps to kron(A, B^T), so the generator is
    -i/hbar (H x I - I x H^T) + sum_k [L x conj(L) - (LdagL x I + I x (LdagL)^T)/2].
    """
    h = sp.csr_array(h, dtype=complex)
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    liou = (sp.kron(h, eye) - sp.kron(eye, h.T)) * (-1j / hbar)
    for L in ls:
        L = sp.csr_array(L, dtype=complex)
        ldl = L.conj().T @ L
        liou = liou + sp.kron(L, L.conj()) - 0.5 * (sp.kron(ldl, eye) + sp.kron(eye, ldl.T))
    return liou.tocsr()


def lindblad_rhs(rho, h: np.ndarray, lindblads, hbar: float = 1.0) -> np.ndarray:
    """(1/i hbar)[H, rho] + sum_k L rho Ldag - (LdagL rho + rho LdagL)/2."""
    if isinstance(rho, DensityMatrix):
        rho = rho.rho
    rho = np.asarray(rho)
    return (_liouvillian(h, lindblads, hbar) @ rho.ravel()).reshape(rho.shape)


@dataclass
class MasterTrajectory:
    times: np.ndarray
    rhos: list
    fock: FockSpace
    nfev: int  # RK45 right-hand-side calls
    nnz: int  # stored entries of the CSR superoperator
    events: list = field(default_factory=list)

    def density(self, k: int) -> DensityMatrix:
        return DensityMatrix(rho=self.rhos[k], fock=self.fock)


def _model_matrices(model: LindbladModel, fock: FockSpace):
    # Quantized from the model's own chart: a round trip through the other
    # chart leaves rounding noise on monomials the model does not have.
    h = weyl_quantize(model.hamiltonian, fock)
    ls = [weyl_quantize(L, fock) for L in model.lindblads]
    return h, ls


def integrate_master(
    rho0: DensityMatrix,
    model: LindbladModel,
    t_eval,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> MasterTrajectory:
    """Adaptive integration of the master equation in the truncated basis.

    Hermiticity is re-imposed at output times; the trace is renormalized
    only if it drifts beyond 1e-10 (logged).  Population of the highest
    Fock level is the truncation-leakage monitor.
    """
    if model.hbar != 1.0:
        raise ValueError("Fock-basis solvers are defined at hbar = 1")
    fock = rho0.fock
    dim = fock.dim
    init_leak = fock.leakage(rho0.rho)
    if init_leak > 1e-10:
        raise ValueError(f"initial truncation leakage {init_leak:.2e} exceeds 1e-10")
    liou = _liouvillian(*_model_matrices(model, fock))

    def rhs(t, y):
        return liou @ y

    t_eval = np.asarray(t_eval, dtype=float)
    sol = solve_ivp(
        rhs,
        (t_eval[0], t_eval[-1]),
        rho0.rho.ravel().astype(complex),
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")
    rhos, events = [], []
    for k, t in enumerate(sol.t):
        rho = sol.y[:, k].reshape(dim, dim)
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
    return MasterTrajectory(times=sol.t.copy(), rhos=rhos, fock=fock,
                            nfev=int(sol.nfev), nnz=int(liou.nnz), events=events)


# -- moments ------------------------------------------------------------------


def _quadrature_ops(fock: FockSpace):
    ops = []
    for j in range(fock.n_modes):
        a, ad = fock.lowering(j), fock.raising(j)
        ops.append((a + ad) / np.sqrt(2))
    for j in range(fock.n_modes):
        a, ad = fock.lowering(j), fock.raising(j)
        ops.append(1j * (ad - a) / np.sqrt(2))
    return ops


def _quadrature_moments(rho: DensityMatrix):
    """First moments and symmetrized covariance of the quadratures."""
    xops = _quadrature_ops(rho.fock)
    x = np.array([np.real(rho.expectation(op)) for op in xops])
    dim = len(xops)
    cov = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            sym = xops[i] @ xops[j] + xops[j] @ xops[i]
            cov[i, j] = cov[j, i] = np.real(rho.expectation(sym)) - 2 * x[i] * x[j]
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


def wigner_of_density(rho: DensityMatrix, spec: GridSpec) -> WignerGrid:
    """Wigner function of a single-mode density matrix on a grid.

    Uses the closed-form matrix elements of the doubled displacement against
    the parity operator; the generalized Laguerre values are generated by
    their three-term recurrence over the whole grid at once.
    """
    fock = rho.fock
    if fock.n_modes != 1:
        raise ValueError("wigner_of_density is single mode")
    hbar = rho.hbar
    nmax = fock.dims[0] - 1
    q, p = spec.axes()
    kmax = 2.0 * np.sqrt(2.0 * (nmax + 1) / hbar)
    if max(spec.dq, spec.dp) > np.pi / kmax:
        warnings.warn("grid spacing too coarse for the Fock truncation; fringes may alias")
    qq, pp = np.meshgrid(q, p, indexing="ij")
    alpha = (qq + 1j * pp) / np.sqrt(2.0 * hbar)
    absq = np.abs(alpha) ** 2
    envelope = np.exp(-2.0 * absq)
    two_alpha = 2.0 * alpha
    x4 = 4.0 * absq
    total = np.zeros_like(qq, dtype=complex)
    rmat = rho.rho
    for d in range(0, nmax + 1):
        diag = np.array([rmat[k, k + d] for k in range(nmax + 1 - d)])
        if np.all(np.abs(diag) < 1e-300):
            continue
        ratios = np.exp(0.5 * (gammaln(np.arange(nmax + 1 - d) + 1) - gammaln(np.arange(nmax + 1 - d) + d + 1)))
        power = two_alpha**d
        lk_prev = np.zeros_like(x4)
        lk = np.ones_like(x4)  # L_0^d
        acc = np.zeros_like(qq, dtype=complex)
        for k in range(nmax + 1 - d):
            if k == 1:
                lk_prev, lk = lk, (1.0 + d - x4)
            elif k > 1:
                lk_prev, lk = lk, ((2 * k - 1 + d - x4) * lk - (k - 1 + d) * lk_prev) / k
            coeff = diag[k] * ((-1) ** k) * ratios[k]
            if coeff != 0:
                acc += coeff * lk
        contrib = acc * power
        total += contrib if d == 0 else contrib + np.conj(contrib)
    vals = np.real(total) * envelope / (np.pi * hbar)
    return WignerGrid(spec, vals)


# -- quantum-jump Monte Carlo ---------------------------------------------------


@dataclass
class JumpEnsemble:
    """Ensemble statistics of a quantum-jump run.

    `series` maps an observable name to the per-trajectory time series of
    shape (n_times, n_traj); `mean` and `stderr` are the aggregates.
    """

    times: np.ndarray
    n_traj: int
    seed: int
    series: dict
    jump_counts: np.ndarray

    def mean(self, name: str) -> np.ndarray:
        return self.series[name].mean(axis=1)

    def stderr(self, name: str) -> np.ndarray:
        s = self.series[name]
        return s.std(axis=1, ddof=1) / np.sqrt(self.n_traj)

    def to_csv(self) -> str:
        lines = ["t,obs_name,value,stderr"]
        for name in sorted(self.series):
            m, e = self.mean(name), self.stderr(name)
            for t, v, s in zip(self.times, m, e):
                lines.append(f"{t!r},{name},{v!r},{s!r}")
        return "\n".join(lines) + "\n"


class _EigPropagator:
    """Exact propagation with the spectral decomposition of the (constant)
    effective non-Hermitian Hamiltonian."""

    def __init__(self, heff: np.ndarray):
        lam, vec = _dense_eig(heff)
        cond = np.linalg.cond(vec)
        if cond > 1e8:
            raise RuntimeError(
                f"effective Hamiltonian too non-normal for spectral propagation (cond {cond:.1e})"
            )
        self.lam = lam
        self.vec = vec
        self.vec_inv = np.linalg.inv(vec)

    def coeffs(self, states: np.ndarray) -> np.ndarray:
        return self.vec_inv @ states

    def apply(self, coeffs: np.ndarray, dt) -> np.ndarray:
        phases = np.exp(-1j * np.outer(self.lam, np.atleast_1d(dt)))
        if np.ndim(dt) == 0:
            phases = phases[:, 0][:, None]
        return self.vec @ (phases * coeffs)


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
    """
    if model.hbar != 1.0:
        raise ValueError("Fock-basis solvers are defined at hbar = 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    t_eval = np.asarray(t_eval, dtype=float)
    h, ls = _model_matrices(model, fock)
    heff = h.copy()
    for L in ls:
        heff -= 0.5j * (L.conj().T @ L)
    prop = _EigPropagator(heff)

    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)

    obs: dict[str, np.ndarray | None] = {}
    for j in range(fock.n_modes):
        obs[f"occ_{j+1}"] = None  # diagonal, handled via number op
    number_diags = [np.real(np.diag(fock.number(j))) for j in range(fock.n_modes)]
    cross_ops = {}
    for i in range(fock.n_modes):
        for j in range(i + 1, fock.n_modes):
            cross_ops[f"adag_a_{i+1}_{j+1}"] = fock.raising(i) @ fock.lowering(j)
    if extra_observables:
        cross_ops.update(extra_observables)

    names = [f"occ_{j+1}" for j in range(fock.n_modes)]
    cross_names = sorted(cross_ops)
    series = {name: np.zeros((t_eval.size, n_traj)) for name in names}
    for name in cross_names:
        series["re_" + name] = np.zeros((t_eval.size, n_traj))
        series["im_" + name] = np.zeros((t_eval.size, n_traj))
    series["norm_sq"] = np.zeros((t_eval.size, n_traj))

    rngs = [
        np.random.default_rng(np.random.Philox(key=_trajectory_key(seed, k)))
        for k in range(n_traj)
    ]
    thresholds = np.array([rng.uniform() for rng in rngs])
    jump_counts = np.zeros(n_traj, dtype=int)

    states = np.tile(psi0[:, None], (1, n_traj))

    def record(k):
        norms = np.sum(np.abs(states) ** 2, axis=0)
        series["norm_sq"][k] = norms
        for j, name in enumerate(names):
            series[name][k] = (number_diags[j] @ (np.abs(states) ** 2)) / norms
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
            for col, traj in enumerate(idx):
                psi = at_jump[:, col]
                weights = np.array([np.linalg.norm(L @ psi) ** 2 for L in ls])
                wsum = weights.sum()
                rng = rngs[traj]
                if wsum <= 0:
                    # no decay channel open; accept and keep evolving
                    states[:, traj] = psi / np.linalg.norm(psi)
                else:
                    u = rng.uniform() * wsum
                    ch = int(np.searchsorted(np.cumsum(weights), u))
                    ch = min(ch, len(ls) - 1)
                    psi = ls[ch] @ psi
                    states[:, traj] = psi / np.linalg.norm(psi)
                thresholds[traj] = rng.uniform()
                jump_counts[traj] += 1
            offsets[idx] += s_jump
            active = idx
        record(k)
    return JumpEnsemble(
        times=t_eval.copy(), n_traj=n_traj, seed=seed, series=series, jump_counts=jump_counts
    )
