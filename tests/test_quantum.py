import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag, expm
from scipy.optimize import brentq
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply, matrix_power
from scipy.special import gammaln, hermite

from semilind.gaussian import (
    GaussianWigner,
    GridSpec,
    WignerGrid,
    cat_decompose,
    coherent,
    eval_wigner,
    transformation_matrix,
)
from semilind.harness import default_config
from semilind.harness.config import ExperimentConfig
from semilind.semiclassical import LindbladModel, integrate
from semilind.quantum import (
    DensityMatrix,
    FockSpace,
    JumpEnsemble,
    _BlockPartition,
    _SectorPropagator,
    _blockwise,
    _crossing_times,
    _diagonal_reads,
    _expm,
    _HermitianCoords,
    _RowGather,
    _liouvillian,
    _log_factorials,
    _matrix_power,
    _model_matrices,
    _rotation_blocks,
    _trajectory_key,
    _weak_components,
    integrate_master,
    moments_of_density,
    quantize,
    quantum_jump,
    symbol_to_normal_ordered,
    weyl_quantize,
    wigner_of_density,
)
from semilind.symbols import Chart, PolySymbol, chart_transform, parse_symbol
from oracles import quadrature_moments, weyl_of_normal_ordered


def output_rhos(traj):
    """rho at every output time of a master trajectory."""
    return [traj.density(k).rho for k in range(traj.times.size)]


def mode_symbols(n=1):
    a = [PolySymbol.variable(Chart.COMPLEX_AABAR, n, j) for j in range(n)]
    ab = [PolySymbol.variable(Chart.COMPLEX_AABAR, n, n + j) for j in range(n)]
    return a, ab


def registered_model(name):
    return ExperimentConfig.from_dict(default_config(name)).model.build(1.0)


def dense_quantize(sym, dims):
    """Normal-ordered quantization with np.kron ladders and np.linalg.matrix_power."""
    lows = []
    for mode, d in enumerate(dims):
        mat = np.eye(1, dtype=complex)
        for j, dj in enumerate(dims):
            op = np.diag(np.sqrt(np.arange(1.0, d)), 1) if j == mode else np.eye(dj)
            mat = np.kron(mat, op.astype(complex))
        lows.append(mat)
    dim = int(np.prod(dims))
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, powers in symbol_to_normal_ordered(sym):
        mat = np.eye(dim, dtype=complex)
        for j, (m, k) in enumerate(powers):
            mat = mat @ np.linalg.matrix_power(lows[j].conj().T, m)
            mat = mat @ np.linalg.matrix_power(lows[j], k)
        out += complex(coeff) * mat
    return out


def hermite_fn(m, x):
    import math

    norm = 1.0 / np.sqrt(np.sqrt(np.pi) * 2.0**m * math.factorial(m))
    return norm * hermite(m)(x) * np.exp(-x * x / 2)


def brute_wigner_mn(m, n, q, p):
    """Direct Wigner transform of |m><n| via the xi integral (hbar = 1)."""
    xi = np.linspace(-14, 14, 4001)
    fm = hermite_fn(m, q + xi / 2)
    fn = hermite_fn(n, q - xi / 2)
    integrand = fm * np.conj(fn) * np.exp(-1j * p * xi)
    return np.trapezoid(integrand, xi) / (2 * np.pi)


class TestFockSpace:
    def test_lowering_superdiagonal(self):
        f = FockSpace(5)
        a = f._lowering[0].toarray()
        for k in range(1, 5):
            assert a[k - 1, k] == pytest.approx(np.sqrt(k))
        assert np.count_nonzero(a) == 4

    def test_commutator_below_truncation(self):
        f = FockSpace(6)
        a = f._lowering[0].toarray()
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm[:-1, :-1], np.eye(5))

    def test_two_mode_embedding(self):
        f = FockSpace([3, 4])
        n1, n2 = ((a.conj().T @ a).toarray() for a in f._lowering)
        assert np.allclose(n1 @ n2, n2 @ n1)
        assert f.dim == 12

    def test_top_level_mask_marks_highest_level_of_any_mode(self):
        dims = (3, 4, 2)
        f = FockSpace(dims)
        levels = list(np.ndindex(*dims))  # row-major, like the Kronecker basis
        want = [float(any(n == d - 1 for n, d in zip(lv, dims))) for lv in levels]
        assert np.array_equal(f._top_mask, want)
        vec = np.arange(1.0, f.dim + 1)
        assert f.leakage(vec) == pytest.approx(np.dot(vec**2, want), rel=1e-15)

    @pytest.mark.parametrize("d", [1, 12, 13, 61, 3000])
    def test_log_factorials_are_gammaln_bit_for_bit(self, d):
        """The coherent amplitudes' log k! keep scipy.special.gammaln's rounding,
        on both sides of the switch to the Stirling series at k = 12."""
        assert np.array_equal(_log_factorials(d), gammaln(np.arange(d) + 1.0))

    def test_coherent_vector_is_eigenvector(self):
        f = FockSpace(40)
        alpha = 1.3 - 0.7j
        v = f.coherent_vector([alpha])
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(f._lowering[0] @ v - alpha * v) < 1e-8


class TestQuantize:
    def test_number_operator_diagonal(self):
        f = FockSpace(6)
        mat = quantize([(1.0, ((1, 1),))], f).toarray()
        assert np.allclose(mat, np.diag(np.arange(6)))

    def test_quadrature_vacuum_variance(self):
        f = FockSpace(20)
        a = f._lowering[0].toarray()
        qmat = (a + a.conj().T) / np.sqrt(2)
        vac = f.coherent_vector([0.0])
        assert np.real(vac @ qmat @ qmat @ vac) == pytest.approx(0.5)

    def test_lattice_hamiltonian_hermitian(self):
        (a1, a2), (a1b, a2b) = mode_symbols(2)
        J, U = 1.0, 0.05
        hop = (a1b * a2 + a2b * a1) * (-J)
        def onsite(aa, aab):
            nsym = aa * aab
            return (nsym * nsym - nsym * 2 + 0.5) * (U / 2)
        h = hop + onsite(a1, a1b) + onsite(a2, a2b)
        f = FockSpace([8, 8])
        mat = weyl_quantize(h, f).toarray()
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        # block sparsity: hopping only couples neighbours in total occupation
        ad_a = quantize([(1.0, ((1, 1), (0, 0)))], f) + quantize([(1.0, ((0, 0), (1, 1)))], f)
        comm = mat @ ad_a - ad_a @ mat
        # total number commutes with the closed lattice Hamiltonian
        assert np.max(np.abs(comm)) < 1e-10

    @pytest.mark.parametrize("name", ["limit_cycle", "bose_hubbard_losses", "cat_anharmonic"])
    def test_registered_models_match_dense_assembly(self, name):
        model = registered_model(name)
        dims = [default_config(name)["fock_levels"]] * model.n_modes
        h, ls = _model_matrices(model, FockSpace(dims))
        assert np.array_equal(h.toarray(), dense_quantize(model.hamiltonian, dims))
        assert len(ls) == len(model.lindblads)
        for L, sym in zip(ls, model.lindblads):
            assert np.array_equal(L.toarray(), dense_quantize(sym, dims))

    @pytest.mark.parametrize("k", range(7))
    def test_power_helper_repeats_scipy_products(self, k):
        for a in FockSpace([5, 7])._lowering:
            for op in (a, a.conj().T):
                got = sp.csr_array(_matrix_power(op, k))
                want = sp.csr_array(matrix_power(op, k))
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.data, want.data)

    def test_registered_lattice_keeps_number_sectors_exactly(self):
        model = ExperimentConfig.from_dict(default_config("bose_hubbard_losses")).model.build(1.0)
        f = FockSpace([8, 8])
        h, ls = _model_matrices(model, f)
        n1, n2 = np.divmod(np.arange(f.dim), 8)
        total = n1 + n2
        assert np.count_nonzero(h.toarray()[total[:, None] != total[None, :]]) == 0
        for L in ls:  # each two-body loss lowers the total number by exactly 2
            assert np.count_nonzero(L.toarray()[total[:, None] != total[None, :] - 2]) == 0


class TestWeylQuantize:
    def test_number_symbol_round_trip(self):
        (a,), (ab,) = mode_symbols()
        f = FockSpace(7)
        mat = weyl_quantize(a * ab - 0.5, f).toarray()
        assert np.allclose(mat, np.diag(np.arange(7)))

    def test_quartic_position_matches_matrix_power(self):
        q4 = parse_symbol("1.0*q1^4", Chart.REAL_QP, 1)
        f = FockSpace(25)
        got = weyl_quantize(q4, f).toarray()
        a = f._lowering[0].toarray()
        qmat = (a + a.conj().T) / np.sqrt(2)
        want = np.linalg.matrix_power(qmat, 4)
        # truncation corrupts the top two levels; compare the protected block
        assert np.max(np.abs(got[:20, :20] - want[:20, :20])) < 1e-10

    def test_expansion_terms_of_mode_intensity(self):
        (a,), (ab,) = mode_symbols()
        terms = symbol_to_normal_ordered(a * ab)
        as_dict = {powers: c for c, powers in terms}
        assert as_dict[((1, 1),)] == pytest.approx(1.0)
        assert as_dict[((0, 0),)] == pytest.approx(0.5)

    @pytest.mark.parametrize("chart", [Chart.COMPLEX_AABAR, Chart.REAL_QP])
    @pytest.mark.parametrize("n", [1, 2])
    def test_expansion_matches_normal_ordered_symbols(self, n, chart):
        # summing the terms' exact Weyl symbols gives back the symbol
        rng = np.random.default_rng(40 + n)
        for _ in range(6):
            terms = {}
            for _ in range(5):
                key = tuple(int(e) for e in rng.integers(0, 4, size=2 * n))
                terms[key] = complex(rng.normal(), rng.normal())
            sym = PolySymbol(chart, n, terms)
            back = PolySymbol.zero(Chart.COMPLEX_AABAR, n)
            for coeff, powers in symbol_to_normal_ordered(sym):
                term = PolySymbol.constant(Chart.COMPLEX_AABAR, n, coeff)
                for j, (m, k) in enumerate(powers):
                    term = term * weyl_of_normal_ordered(n, j, m, k, 1.0)
                back = back + term
            want = chart_transform(sym, Chart.COMPLEX_AABAR)
            scale = max(1.0, want.max_abs_coeff())
            for key in set(back.terms) | set(want.terms):
                assert abs(back.terms.get(key, 0) - want.terms.get(key, 0)) <= 1e-13 * scale

    def test_returns_csr(self):
        h, ls = _model_matrices(damped_model(), FockSpace(5))
        assert all(isinstance(m, sp.csr_array) for m in (h, *ls))


class TestLindbladRhs:
    def test_hamiltonian_only_traceless(self):
        f = FockSpace(5)
        a = f._lowering[0]
        h = (a.conj().T @ a).toarray()
        rho = np.diag(np.linspace(0.4, 0.05, 5)).astype(complex)
        rho /= np.trace(rho)
        out = (_liouvillian(h, []) @ rho.ravel()).reshape(rho.shape)
        assert abs(np.trace(out)) < 1e-14
        assert np.max(np.abs(out + out.conj().T)) < 1e-14  # anti-Hermitian commutator form

    def test_two_level_hand_value(self):
        f = FockSpace(2)
        gamma = 0.7
        L = np.sqrt(gamma) * f._lowering[0].toarray()
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = (_liouvillian(np.zeros((2, 2)), [L]) @ rho.ravel()).reshape(rho.shape)
        assert np.allclose(out, gamma * np.diag([1.0, -1.0]))

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(2)
        f = FockSpace(6)
        h = rng.normal(size=(6, 6))
        h = (h + h.T).astype(complex)
        ls = [rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in range(3)]
        r = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = r @ r.conj().T
        rho /= np.trace(rho)
        out = (_liouvillian(h, ls) @ rho.ravel()).reshape(rho.shape)
        assert abs(np.trace(out)) < 1e-12

    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    @pytest.mark.parametrize("dims", [[5], [3, 2]])
    def test_matches_dense_commutator_and_dissipator(self, dims, hbar):
        rng = np.random.default_rng(7)
        f = FockSpace(dims)
        n = f.dim

        def cplx():
            return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

        h = cplx()
        h = h + h.conj().T
        ls = [cplx(), cplx()]  # non-Hermitian jump operators
        r = cplx()
        rho = r @ r.conj().T
        rho /= np.trace(rho)
        want = (h @ rho - rho @ h) * (-1j / hbar)
        for L in ls:
            ldl = L.conj().T @ L
            want += L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        got = (_liouvillian(h, ls, hbar) @ rho.ravel()).reshape(rho.shape)
        assert np.max(np.abs(got - want)) < 1e-13


def random_hermitian(rng, n):
    r = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return r + r.conj().T


class TestHermitianCoords:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_round_trip_is_exact(self, n):
        rng = np.random.default_rng(n)
        coords = _HermitianCoords(n)
        rho = random_hermitian(rng, n)
        x = coords.read(rho.ravel())
        assert x.dtype == float and x.shape == (n * n,)
        assert np.array_equal(coords.P @ x, rho.ravel())
        x = rng.normal(size=n * n)
        assert np.array_equal(coords.read(coords.P @ x), x)

    def test_superop_sorts_each_row(self):
        # DOP853's products sum each row in this order, whether or not a
        # block partition has read the matrix first
        liou = real_superop("cat_anharmonic")
        rows = np.repeat(np.arange(liou.shape[0]), np.diff(liou.indptr))
        assert np.array_equal(np.lexsort((liou.indices, rows)), np.arange(liou.nnz))

    @pytest.mark.parametrize("model", ["random", "limit_cycle", "cat_anharmonic"])
    def test_real_superop_matches_liouvillian(self, model):
        rng = np.random.default_rng(3)
        if model == "random":
            n = 6
            h = random_hermitian(rng, n)
            ls = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2)]
        else:
            n = 12
            h, ls = _model_matrices(registered_model(model), FockSpace(n))
        liou = _liouvillian(h, ls)
        coords = _HermitianCoords(n)
        real = coords.superop(liou)
        assert real.dtype == float and real.shape == (n * n, n * n)
        for _ in range(3):
            rho = random_hermitian(rng, n)
            want = liou @ rho.ravel()
            got = coords.P @ (real @ coords.read(rho.ravel()))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def damped_model(omega=1.0, gamma=0.1):
    (a,), (ab,) = mode_symbols()
    h = a * ab * omega
    L = a * np.sqrt(gamma)
    return LindbladModel(1, 1.0, h, (L,))


class TestMaster:
    def test_damped_coherent_closed_form(self):
        omega, gamma = 1.0, 0.2
        model = damped_model(omega, gamma)
        f = FockSpace(25)
        a0 = 1.5
        rho0 = DensityMatrix.from_state(f.coherent_vector([a0]), f)
        t_eval = np.linspace(0, 4.0, 21)
        traj = integrate_master(rho0, model, t_eval)
        amat = f._lowering[0].toarray()
        for t, rho in zip(traj.times, output_rhos(traj)):
            got = np.trace(rho @ amat)
            want = a0 * np.exp((-1j * omega - gamma / 2) * t)
            assert abs(got - want) < 1e-7

    def test_vacuum_fixed_point_purity(self):
        model = damped_model(1.0, 0.5)
        f = FockSpace(10)
        rho0 = DensityMatrix.from_state(f.coherent_vector([0.0]), f)
        traj = integrate_master(rho0, model, np.linspace(0, 3, 7))
        for rho in output_rhos(traj):
            assert np.real(np.trace(rho @ rho)) == pytest.approx(1.0, abs=1e-9)

    def test_trace_and_hermiticity_monitors(self):
        model = damped_model(1.0, 0.3)
        f = FockSpace(18)
        rho0 = DensityMatrix.from_state(f.coherent_vector([1.0]), f)
        traj = integrate_master(rho0, model, np.linspace(0, 5, 11))
        for rho in output_rhos(traj):
            assert abs(np.trace(rho) - 1) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10

    def test_exactness_against_semiclassical_moments(self):
        # quadratic Hamiltonian + linear Lindblad: both routes agree
        omega, gamma = 1.0, 0.15
        model = damped_model(omega, gamma)
        f = FockSpace(30)
        a0 = 1.2 + 0.4j
        rho0 = DensityMatrix.from_state(f.coherent_vector([a0]), f)
        t_eval = np.linspace(0, 3.0, 13)
        mtraj = integrate_master(rho0, model, t_eval)
        straj = integrate(model, GaussianWigner(1.0, coherent(1, a0).x, np.eye(2)), t_eval)
        mom = moments_of_density(mtraj)
        for k in range(t_eval.size):
            assert np.allclose(mom.x[k], straj.x[k], atol=1e-7)
            gq = np.linalg.inv(mtraj.covariances[k])
            assert np.allclose(gq, straj.g[k], atol=1e-7)

    def test_leakage_warns_once_per_run(self):
        (a,), (ab,) = mode_symbols()
        model = LindbladModel(1, 1.0, a * ab, (ab * np.sqrt(0.5),))
        f = FockSpace(6)
        rho0 = DensityMatrix.from_state(f.coherent_vector([0.0]), f)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = integrate_master(rho0, model, np.linspace(0, 2.0, 11))
        leaky = [(float(t), f.leakage(r)) for t, r in zip(traj.times, output_rhos(traj))
                 if f.leakage(r) > 1e-6]
        assert len(leaky) > 1
        events = [(ev["t"], ev["population"]) for ev in traj.events if ev["kind"] == "leakage"]
        assert events == leaky
        messages = [str(w.message) for w in caught if "leakage" in str(w.message)]
        assert len(messages) == 1
        assert f"at {len(leaky)} output times" in messages[0]
        assert f"first at t={leaky[0][0]:.3g}" in messages[0]

    def test_limit_cycle_liouvillian_keeps_u1_bands(self):
        # the registered limit cycle commutes with the phase rotation, so
        # rho_{m,n} only couples to rho_{m',n'} with m - n = m' - n'
        levels = default_config("limit_cycle")["fock_levels"]
        liou = _liouvillian(*_model_matrices(registered_model("limit_cycle"), FockSpace(levels)))
        coo = liou.tocoo()
        m, n = np.divmod(coo.row, levels)
        m2, n2 = np.divmod(coo.col, levels)
        assert coo.nnz > levels**2
        assert np.array_equal(m - n, m2 - n2)

    def test_liouvillian_built_once_per_call(self, monkeypatch):
        import semilind.quantum as quantum

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _liouvillian(*args, **kwargs)

        monkeypatch.setattr(quantum, "_liouvillian", counted)
        model = damped_model(1.0, 0.3)
        f = FockSpace(16)
        rho0 = DensityMatrix.from_state(f.coherent_vector([1.0]), f)
        traj = integrate_master(rho0, model, np.linspace(0, 3, 7))
        assert len(calls) == 1
        # the damped oscillator splits into its 16 band pairs m - n = +-k,
        # the largest (k = 1) of 30 real unknowns, so it runs on the block
        # path and makes no DOP853 calls
        assert (traj.method, traj.nfev, traj.blocks, traj.max_block) == ("block_expm", 0, 16, 30)
        assert traj.nnz == _HermitianCoords(16).superop(_liouvillian(*_model_matrices(model, f))).nnz
        integrate_master(rho0, model, np.linspace(0, 1, 3))
        assert len(calls) == 2

    def test_initial_leakage_guard(self):
        # coherent states far wider than their truncation: |alpha| = 1.8 in
        # 4 levels, and |alpha|^2 = 30 in 20 levels
        model = damped_model()
        for levels, amplitude in ((4, 1.8), (20, np.sqrt(30.0))):
            f = FockSpace(levels)
            rho0 = DensityMatrix.from_state(f.coherent_vector([amplitude]), f)
            leak = f.leakage(rho0.rho)
            assert leak > 0.1
            with pytest.raises(ValueError, match=re.escape(
                    f"initial truncation leakage {leak:.2e} exceeds 1e-10")):
                integrate_master(rho0, model, [0, 1])


def reference_rhos(rho0, model, t_eval):
    """rho at t_eval from RK45 on the whole superoperator at rtol 1e-10."""
    liou = _liouvillian(*_model_matrices(model, rho0.fock))
    sol = solve_ivp(lambda t, y: liou @ y, (t_eval[0], t_eval[-1]), rho0.rho.ravel(),
                    t_eval=t_eval, rtol=1e-10, atol=1e-13)
    assert sol.success
    return [sol.y[:, k].reshape(rho0.rho.shape) for k in range(len(t_eval))]


class TestMasterPaths:
    @pytest.mark.parametrize("t_eval", [np.linspace(0.0, 10.0, 21), np.array([0.0, 0.3, 1.0, 1.05])],
                             ids=["uniform", "non_uniform"])
    def test_limit_cycle_block_path_matches_rk45(self, t_eval):
        cfg = ExperimentConfig.from_dict(default_config("limit_cycle"))
        f = FockSpace(cfg.fock_levels)
        rho0 = DensityMatrix.from_state(f.coherent_vector(cfg.initial.amplitudes), f)
        model = cfg.model.build(1.0)
        traj = integrate_master(rho0, model, t_eval)
        assert (traj.method, traj.nfev, traj.blocks, traj.max_block) == ("block_expm", 0, 56, 110)
        assert np.array_equal(traj.times, t_eval)
        want = reference_rhos(rho0, model, t_eval)
        assert max(np.max(np.abs(got - ref)) for got, ref in zip(output_rhos(traj), want)) < 1e-8

    def test_quartic_cat_stays_on_dop853(self):
        # q^4 couples m - n to m - n +- 2, 4, so the blocks are the two
        # parities of m - n, each larger than the Hilbert space
        f = FockSpace(20)
        psi = f.packet_vector(1.0, 0.5) + f.packet_vector(-1.0, 0.5)
        rho0 = DensityMatrix.from_state(psi, f)
        traj = integrate_master(rho0, registered_model("cat_anharmonic"), np.linspace(0, 1, 5))
        assert traj.method == "dop853" and traj.nfev > 0
        assert (traj.blocks, traj.max_block) == (2, 200)

    @pytest.mark.parametrize("t_eval", [np.linspace(0.0, 1.0, 5), np.array([0.0, 0.3, 1.0, 1.05])],
                             ids=["uniform", "non_uniform"])
    def test_quartic_cat_matches_exact_propagation(self, t_eval):
        # exact oracle for the integrated path: expm_multiply of the whole
        # superoperator from one output time to the next
        f = FockSpace(20)
        psi = f.packet_vector(1.0, 0.5) + f.packet_vector(-1.0, 0.5)
        rho0 = DensityMatrix.from_state(psi, f)
        model = registered_model("cat_anharmonic")
        traj = integrate_master(rho0, model, t_eval)
        assert traj.method == "dop853"
        liou = _liouvillian(*_model_matrices(model, f)).tocsc()
        y = rho0.rho.ravel().astype(complex)
        want = [y]
        for dt in np.diff(t_eval):
            y = expm_multiply(liou * dt, y)
            want.append(y)
        assert max(np.max(np.abs(got - ref.reshape(got.shape)))
                   for got, ref in zip(output_rhos(traj), want)) <= 1e-8

    @pytest.mark.parametrize("name, method", [("limit_cycle", "block_expm"),
                                              ("cat_anharmonic", "dop853")])
    def test_outputs_exactly_hermitian_on_both_paths(self, name, method):
        f = FockSpace(20)
        rho0 = DensityMatrix.from_state(f.coherent_vector([0.8 + 0.4j]), f)
        traj = integrate_master(rho0, registered_model(name), np.array([0.0, 0.3, 1.0, 1.05]))
        assert traj.method == method
        assert all(np.array_equal(rho, rho.conj().T) for rho in output_rhos(traj))

    @pytest.mark.parametrize("name, method", [("limit_cycle", "block_expm"),
                                              ("cat_anharmonic", "dop853")])
    def test_times_must_increase_on_both_paths(self, name, method):
        model = registered_model(name)
        f = FockSpace(12)
        rho0 = DensityMatrix.from_state(f.coherent_vector([0.0]), f)
        assert integrate_master(rho0, model, [0.0, 0.1]).method == method
        for t_eval in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0], [1.0, 0.0], [0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                integrate_master(rho0, model, t_eval)


class TestMomentsOfDensity:
    def test_vacuum(self):
        f = FockSpace(8)
        m = moments_of_density(DensityMatrix.from_state(f.coherent_vector([0.0]), f))
        assert np.allclose(m.x, 0, atol=1e-12)
        assert m.alpha_block.shape == (1, 1, 1)
        assert m.alpha_block[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_coherent_amplitude(self):
        f = FockSpace(35)
        a0 = 1.1 - 0.6j
        m = moments_of_density(DensityMatrix.from_state(f.coherent_vector([a0]), f))
        assert m.modes[0, 0] == pytest.approx(a0, abs=1e-8)
        assert m.occupation(0)[0] == pytest.approx(abs(a0) ** 2, rel=1e-7)

    def test_cat_first_moments(self):
        f = FockSpace(60)
        v = f.packet_vector(4.0, 3.0) + f.packet_vector(4.0, -3.0)
        m = moments_of_density(DensityMatrix.from_state(v, f))
        assert m.x[0, 0] == pytest.approx(4.0, abs=1e-6)
        assert m.x[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_two_mode_matches_dense_quadratures(self):
        rng = np.random.default_rng(9)
        f = FockSpace([4, 5])
        r = rng.normal(size=(f.dim, f.dim)) + 1j * rng.normal(size=(f.dim, f.dim))
        dm = DensityMatrix(rho=r @ r.conj().T / np.trace(r @ r.conj().T), fock=f)
        a = [op.toarray() for op in f._lowering]
        xs = [(a[j] + a[j].conj().T) / np.sqrt(2) for j in range(2)]
        xs += [1j * (a[j].conj().T - a[j]) / np.sqrt(2) for j in range(2)]
        x = np.array([np.real(np.trace(dm.rho @ op)) for op in xs])
        cov = np.array([[np.real(np.trace(dm.rho @ (u @ v + v @ u))) - 2 * xu * xv
                         for v, xv in zip(xs, x)] for u, xu in zip(xs, x)])
        m = moments_of_density(dm)
        assert np.max(np.abs(m.x[0] - x)) < 1e-13
        assert np.max(np.abs(quadrature_moments(dm)[0] - x)) < 1e-13
        gq = np.linalg.inv(quadrature_moments(dm)[1])
        assert np.max(np.abs(gq - np.linalg.inv(cov))) < 1e-12
        t = transformation_matrix(2)
        sigma = t @ cov @ t.conj().T
        assert np.max(np.abs(m.alpha_block[0] - sigma[2:, 2:])) < 1e-12
        assert np.max(np.abs(m.beta_block[0] - sigma[2:, :2])) < 1e-12

    @pytest.mark.parametrize("case", ["block_path", "dop853_path", "trace_renormalized"])
    def test_master_functionals_match_each_rho(self, case):
        """The moments and leakage `integrate_master` reads from its stacked
        coordinates against traces with each output rho."""
        if case == "block_path":
            f = FockSpace(30)
            rho0 = DensityMatrix.from_state(f.coherent_vector([1.2 + 0.4j]), f)
            traj = integrate_master(rho0, registered_model("limit_cycle"), np.linspace(0, 5, 11))
            assert traj.method == "block_expm"
        else:
            f = FockSpace(24)
            psi = f.packet_vector(1.0, 0.5) + f.packet_vector(-1.0, 0.5)
            rho0 = DensityMatrix.from_state(psi, f)
            if case == "trace_renormalized":
                # a trace of 1 + 1e-9, below the 1e-8 that DensityMatrix warns at
                rho0 = DensityMatrix(rho=rho0.rho * (1 + 1e-9), fock=f)
            traj = integrate_master(rho0, registered_model("cat_anharmonic"), np.linspace(0, 1, 6))
            assert traj.method == "dop853"
        renormalized = [ev["t"] for ev in traj.events if ev["kind"] == "trace_renormalized"]
        assert renormalized == (list(traj.times) if case == "trace_renormalized" else [])
        tables = moments_of_density(traj)
        for k in range(traj.times.size):
            dm = traj.density(k)
            assert abs(np.trace(dm.rho) - 1) < 1e-12
            x, cov = quadrature_moments(dm)
            scale = max(1.0, np.max(np.abs(cov)))
            assert np.max(np.abs(traj.means[k] - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
            assert np.max(np.abs(traj.covariances[k] - cov)) <= 1e-12 * scale
            one = moments_of_density(dm)
            assert np.max(np.abs(tables.x[k] - one.x[0])) <= 1e-12 * max(1.0, np.max(np.abs(x)))
            assert np.max(np.abs(tables.alpha_block[k] - one.alpha_block[0])) <= 1e-12 * scale


class TestWignerOfDensity:
    def test_vacuum_gaussian(self):
        f = FockSpace(12)
        spec = GridSpec(-4, 4, 61, -4, 4, 61)
        grid = wigner_of_density(DensityMatrix.from_state(f.coherent_vector([0.0]), f), spec)
        pts = spec.points()
        want = np.exp(-(pts[..., 0] ** 2 + pts[..., 1] ** 2)) / np.pi
        assert np.max(np.abs(grid.values - want)) < 1e-10

    def test_fock_one_negative_dip(self):
        f = FockSpace(12)
        vec = np.zeros(12, dtype=complex)
        vec[1] = 1.0
        spec = GridSpec(-0.05, 0.05, 3, -0.05, 0.05, 3)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            grid = wigner_of_density(DensityMatrix.from_state(vec, f), spec)
        centre = grid.values[1, 1]
        assert centre == pytest.approx(-1 / np.pi, rel=1e-3)

    def test_matches_brute_force_transform(self):
        # random small density matrix against the direct xi integral
        rng = np.random.default_rng(6)
        f = FockSpace(4)
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = r @ r.conj().T
        rho /= np.trace(rho)
        spec = GridSpec(-2, 2, 5, -2, 2, 5)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            grid = wigner_of_density(DensityMatrix(rho=rho, fock=f), spec)
        q, p = spec.axes()
        for iq in (0, 2, 4):
            for ip in (1, 3):
                want = sum(
                    rho[m, n] * brute_wigner_mn(m, n, q[iq], p[ip])
                    for m in range(4)
                    for n in range(4)
                )
                assert abs(grid.values[iq, ip] - np.real(want)) < 1e-6

    def test_coherent_matches_gaussian_state(self):
        f = FockSpace(45)
        a0 = 1.4 + 0.9j
        spec = GridSpec(-6, 6, 81, -6, 6, 81)
        grid_q = wigner_of_density(DensityMatrix.from_state(f.coherent_vector([a0]), f), spec)
        grid_g = eval_wigner(coherent(1, a0), spec)
        assert np.max(np.abs(grid_q.values - grid_g.values)) < 1e-8

    def test_cat_matches_component_decomposition(self):
        # fixes all phase conventions: the interference fringes must agree
        f = FockSpace(60)
        v = f.packet_vector(4.0, 3.0) + f.packet_vector(4.0, -3.0)
        rho = DensityMatrix.from_state(v, f)
        spec = GridSpec(-4, 12, 161, -8, 8, 161)
        grid_q = wigner_of_density(rho, spec)
        cat = cat_decompose([(4.0, 3.0), (4.0, -3.0)], [1.0, 1.0], np.array([[1j]]))
        grid_c = eval_wigner(cat, spec)
        assert np.max(np.abs(grid_q.values - grid_c.values)) < 1e-8


def laguerre_loop_wigner(rho: DensityMatrix, spec: GridSpec) -> WignerGrid:
    """The Laguerre-loop Wigner transform that `wigner_of_density` replaced,
    kept as its oracle: closed-form matrix elements of the doubled
    displacement against the parity operator, each diagonal of rho summed
    with the Laguerre recurrence over the whole grid."""
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


def fock_wigner_closed_form(n, r2):
    """(-1)^n L_n(2 r2) exp(-r2) / pi, the Wigner function of |n> at hbar = 1
    and q^2 + p^2 = r2, from the Laguerre recurrence rescaled as it runs with
    exp(-r2) carried as a logarithm, so that neither overflows."""
    y = 2.0 * np.asarray(r2, dtype=float)
    prev, cur, log_scale = np.zeros_like(y), np.ones_like(y), -0.5 * y
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - y) * cur - k * prev) / (k + 1)
        big = np.maximum(np.abs(cur), 1.0)
        prev, cur, log_scale = prev / big, cur / big, log_scale + np.log(big)
    return (-1) ** n * cur * np.exp(log_scale) / np.pi


def binomial_rotation(s, m):
    """<j, s-j | m, s-m> for j = 0..s from expanding
    adag^m bdag^(s-m) = (cdag + ddag)^m (cdag - ddag)^(s-m) / 2^(s/2)."""
    k = s - m
    out = np.zeros(s + 1)
    for a in range(m + 1):
        for b in range(k + 1):
            j = a + b
            out[j] += math.comb(m, a) * math.comb(k, b) * (-1) ** (k - b) * math.sqrt(
                math.factorial(j) * math.factorial(s - j) / (math.factorial(m) * math.factorial(k))
            ) / 2 ** (s / 2)
    return out


class TestSeparableWigner:
    @pytest.mark.parametrize("levels, half_width", [(56, 10.0), (61, 8.0)])
    def test_matches_laguerre_loop_on_registered_grids(self, levels, half_width):
        rng = np.random.default_rng(levels)
        r = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
        rho = DensityMatrix(rho=r @ r.conj().T / np.trace(r @ r.conj().T), fock=FockSpace(levels))
        spec = GridSpec(-half_width, half_width, 200, -half_width, half_width, 200)
        new = wigner_of_density(rho, spec).values
        assert np.max(np.abs(new - laguerre_loop_wigner(rho, spec).values)) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 57, 150, 300])
    def test_fock_states_match_laguerre_closed_form(self, n):
        f = FockSpace(301)
        spec = GridSpec(-30.0, 30.0, 61, -30.0, 30.0, 61)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coarse grid: the values are exact pointwise
            grid = wigner_of_density(DensityMatrix.from_state(np.eye(301)[n], f), spec)
        r2 = np.sum(spec.points() ** 2, axis=-1)
        assert np.max(np.abs(grid.values - fock_wigner_closed_form(n, r2))) < 1e-13

    def test_fock_state_where_the_gaussian_envelope_underflows(self):
        # exp(-x^2/2) underflows at x = sqrt(2) |q| > 38.6, where the Hermite
        # functions up to order 798 that |399> needs are still of order 0.1
        f = FockSpace(400)
        spec = GridSpec(-29.5, 29.5, 59, -29.5, 29.5, 59)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = wigner_of_density(DensityMatrix.from_state(np.eye(400)[399], f), spec)
        pts = spec.points()
        want = fock_wigner_closed_form(399, np.sum(pts**2, axis=-1))
        assert np.max(np.abs(want[np.sqrt(2.0) * np.abs(pts[..., 0]) > 38.6])) > 1e-3
        assert np.max(np.abs(grid.values - want)) < 1e-13

    def test_large_truncation_coherent_state(self):
        # 274 levels at hbar = 0.25: (2 alpha)^d of the Laguerre loop overflows here
        hbar, a0 = 0.25, 4.0 + 3.0j
        f = FockSpace(274)
        vec = f.coherent_vector([a0 / np.sqrt(hbar)])
        rho = DensityMatrix(rho=np.outer(vec, vec.conj()), fock=f, hbar=hbar)
        spec = GridSpec(-12.0, 12.0, 300, -12.0, 12.0, 300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = wigner_of_density(rho, spec)
        assert np.all(np.isfinite(grid.values))
        want = eval_wigner(coherent(1, a0, hbar), spec)
        assert np.max(np.abs(grid.values - want.values)) < 1e-12

    def test_rotation_blocks_orthogonal(self):
        for s, rot in enumerate(_rotation_blocks(547)):
            assert rot.shape == (s + 1, s + 1)
            if s % 39 == 0 or s == 546:
                assert np.max(np.abs(rot @ rot.T - np.eye(s + 1))) < 1e-12
            if s == 546:
                break

    def test_rotation_blocks_match_binomial_expansion(self):
        # five levels: from s = 5 on, only the columns inside the truncation
        n = 5
        for s, rot in enumerate(_rotation_blocks(n)):
            lo = max(0, s - n + 1)
            want = np.column_stack([binomial_rotation(s, m) for m in range(lo, min(s, n - 1) + 1)])
            assert np.max(np.abs(rot - want)) < 1e-14


def propagate(prop, states, times):
    """Rows of `states`, in basis order, at `times` (a scalar, or one per
    row), through the propagator's bin layout and back."""
    c = prop.coeffs(np.array([prop.embed(psi) for psi in states]))
    return prop.states(prop.evolve(c, times))[:, prop.pos]


def lattice_heff(levels):
    """Registered lattice H - (i/2) sum_k Ldag_k L_k, dense, and its Fock space."""
    f = FockSpace([levels, levels])
    h, ls = _model_matrices(registered_model("bose_hubbard_losses"), f)
    return (h - 0.5j * sum(L.conj().T @ L for L in ls)).toarray(), f


def block_labels(mat):
    """Connected-component label of each basis row of a matrix's pattern."""
    return connected_components(sp.csr_array(mat) != 0, directed=True, connection="weak")[1]


def real_superop(name):
    """Real superoperator Q L P of a registered one-mode model at its
    registered truncation."""
    n = default_config(name)["fock_levels"]
    return _HermitianCoords(n).superop(
        _liouvillian(*_model_matrices(registered_model(name), FockSpace(n))))


class TestWeakComponents:
    @pytest.mark.parametrize("name", ["limit_cycle", "cat_anharmonic", "lattice"])
    def test_registered_patterns_match_csgraph(self, name):
        mat = lattice_heff(26)[0] if name == "lattice" else real_superop(name)
        n_blocks, labels = _weak_components(mat)
        want = connected_components(sp.csr_array(mat) != 0, directed=True, connection="weak")
        assert n_blocks == want[0]
        assert np.array_equal(labels, want[1])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_directed_patterns_match_csgraph(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        rows, cols = rng.integers(0, n, size=(2, 70))
        data = rng.standard_normal(70)
        data[:5] = 0.0  # stored zeros are no edges
        mat = sp.csr_array((data, (rows, cols)), shape=(n, n))
        n_blocks, labels = _weak_components(mat)
        want = connected_components(mat != 0, directed=True, connection="weak")
        assert np.sum(np.bincount(labels) == 1) > 10  # isolated rows among them
        assert n_blocks == want[0]
        assert np.array_equal(labels, want[1])


    def test_partition_leaves_its_matrix_unchanged(self):
        # each row's column indices in descending order
        mat = sp.csr_array((np.arange(1.0, 7.0), [2, 1, 0, 2, 0, 1], [0, 3, 4, 6]), shape=(3, 3))
        before = [arr.copy() for arr in (mat.data, mat.indices, mat.indptr)]
        assert _BlockPartition(mat).n_blocks == 1
        for arr, old in zip((mat.data, mat.indices, mat.indptr), before):
            assert np.array_equal(arr, old)


class TestExpm:
    def test_limit_cycle_stack_matches_scipy(self):
        liou = real_superop("limit_cycle")
        part = _BlockPartition(liou)
        stacked = part.stack(liou) * 0.5  # the registered output step
        want = expm(stacked)
        assert np.max(np.abs(_expm(stacked) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_random_non_normal_stacks_match_scipy(self):
        # 1-norms from 1e-3 to 1e3: no squaring up to 5.37, eight at 1e3
        rng = np.random.default_rng(0)
        norms = np.logspace(-3, 3, 13)
        a = rng.standard_normal((13, 6, 6)) + np.triu(4 * rng.standard_normal((13, 6, 6)), 1)
        a *= (norms / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]
        got, want = _expm(a), expm(a)
        err = np.max(np.abs(got - want), axis=(1, 2)) / np.max(np.abs(want), axis=(1, 2))
        # the conditioning of exp grows with the norm; 300 seeds stayed below 180 eps
        assert np.all(err <= 1e3 * np.finfo(float).eps * np.maximum(1.0, norms))

    def test_zero_stack_is_identity(self):
        # a RuntimeWarning, such as log2(0), fails the test
        assert np.array_equal(_expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))


class TestBlockPartition:
    def test_lattice_sectors_fill_bins_without_padding(self):
        # the 51 number sectors have sizes 1, 1, 2, 2, .., 25, 25, 26: the
        # largest alone, then N + 1 with 25 - N, fill 26 bins of 26 exactly
        heff, f = lattice_heff(26)
        part = _BlockPartition(heff)
        assert (part.n_blocks, part.n_bins, part.max_block) == (51, 26, 26)
        assert np.array_equal(np.sort(part.pos), np.arange(f.dim))

    def test_limit_cycle_blocks_each_inside_one_bin(self):
        n = 56
        liou = real_superop("limit_cycle")
        part = _BlockPartition(liou)
        # 110 alone, 108 + 2, .., 56 + 54 (the band pairs), then the
        # 56 diagonal unknowns alone: 3,190 slots for 3,136 unknowns
        assert (part.n_blocks, part.n_bins, part.max_block) == (56, 29, 110)
        labels = block_labels(liou)
        assert np.unique(part.pos).size == n * n
        for label in range(part.n_blocks):
            slots = part.pos[labels == label]
            assert np.unique(slots // part.max_block).size == 1
            assert np.array_equal(slots, slots[0] + np.arange(slots.size))
        stacked = part.stack(liou)
        assert stacked.shape == (part.n_bins, 110, 110)
        x = np.random.default_rng(4).standard_normal(n * n)
        assert np.allclose(_blockwise(stacked, part.embed(x))[part.pos], liou @ x,
                           rtol=0, atol=1e-12)

    def test_diagonal_heff_one_bin_per_level(self):
        (a,), (ab,) = mode_symbols()
        h, _ = _model_matrices(LindbladModel(1, 1.0, a * ab * 1.0, ()), FockSpace(12))
        prop = _SectorPropagator(h)
        assert (prop.n_blocks, prop.n_bins, prop.max_block) == (12, 12, 1)

    def test_each_sector_keeps_its_own_eigenbasis(self):
        heff, f = lattice_heff(26)
        prop = _SectorPropagator(heff)
        m = prop.max_block
        labels = block_labels(heff)
        owner = np.full(prop.n_slots, -1)
        owner[prop.pos] = labels
        shared = 0
        for b in range(prop.n_bins):
            mine = owner[b * m:(b + 1) * m]
            apart = mine[:, None] != mine[None, :]
            shared += bool(apart.any())
            for mats in (prop._vec, prop._vec_inv, prop._gram):
                assert np.all(mats[b][apart] == 0)
        assert shared == 25  # every bin but the one of the largest sector
        for label in range(prop.n_blocks):
            rows = np.flatnonzero(labels == label)
            b, k = prop.pos[rows[0]] // m, prop.pos[rows] % m
            lam, vec = np.linalg.eig(heff[np.ix_(rows, rows)])
            assert np.array_equal(prop._vec[b][np.ix_(k, k)], vec)
            assert np.array_equal(prop.lam[prop.pos[rows]], lam)


class TestSectorPropagator:
    def test_registered_lattice_matches_expm(self):
        heff, f = lattice_heff(26)
        prop = _SectorPropagator(heff)
        assert (prop.n_blocks, prop.max_block) == (51, 26)
        rng = np.random.default_rng(7)
        psi = f.coherent_vector([2.0, 1.5j]) + 0.1 * rng.standard_normal(f.dim)
        psi /= np.linalg.norm(psi)
        for t in (0.05, 0.4):
            got = propagate(prop, psi[None], t)[0]
            assert np.max(np.abs(got - expm(-1j * heff * t) @ psi)) < 1e-10

    def test_random_dense_heff_is_one_block(self):
        rng = np.random.default_rng(3)
        dim = 40
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        heff = 0.5 * (x + x.conj().T) - 0.05j * (y.conj().T @ y)
        prop = _SectorPropagator(heff)
        assert (prop.n_blocks, prop.max_block) == (1, dim)
        states = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        times = np.array([0.1, 0.3, 0.7])  # one time per column
        got = propagate(prop, states.T, times).T
        for col, t in enumerate(times):
            want = expm(-1j * heff * t) @ states[:, col]
            assert np.max(np.abs(got[:, col] - want)) < 1e-10 * np.linalg.norm(states[:, col])

    def test_non_normal_guard_covers_the_assembled_eigenbasis(self):
        # A near-Jordan pair (eigenvector cond ~ 2/d = 6.7e7) and a 25-level
        # block whose eigenvectors share a common direction (largest singular
        # value ~ 5, cond ~ 51) each pass alone, but the block-diagonal
        # eigenvector matrix they form has cond ~ 2.4e8 > 1e8.
        d = 3e-8
        jordan = np.array([[0.0, 1.0], [0.0, d]], dtype=complex)
        m = 25
        vec = np.eye(m) + 2.0 * np.ones((m, m))
        skewed = vec @ np.diag(np.arange(m) + 0.5j) @ np.linalg.inv(vec)
        for block in (jordan, skewed):
            _SectorPropagator(block)
        heff = block_diag(skewed, jordan, np.diag([1.0 - 0.1j, 2.0]))
        vecs = [np.linalg.eig(b)[1] for b in (skewed, jordan)]
        assert np.linalg.cond(block_diag(*vecs)) > 1e8
        with pytest.raises(RuntimeError, match="too non-normal"):
            _SectorPropagator(heff)
        for gap in (1e-12, 0.0):  # a nearly and an exactly defective pair
            with pytest.raises(RuntimeError, match="too non-normal"):
                _SectorPropagator(block_diag(np.eye(3), [[0.0, 1.0], [0.0, gap]]))

    def test_one_forced_block_matches_sector_run(self, monkeypatch):
        import semilind.quantum as quantum

        model = registered_model("bose_hubbard_losses")
        f = FockSpace([8, 8])
        psi0 = f.coherent_vector([1.5j, 1.5])
        t_eval = np.linspace(0.0, 2.0, 9)
        sectors = quantum_jump(model, psi0, t_eval, n_traj=40, seed=17, fock=f)
        assert (sectors.n_blocks, sectors.max_block) == (15, 8)
        monkeypatch.setattr(quantum, "_weak_components",
                            lambda mat: (1, np.zeros(mat.shape[0], dtype=int)))
        whole = quantum_jump(model, psi0, t_eval, n_traj=40, seed=17, fock=f)
        assert (whole.n_blocks, whole.max_block) == (1, 64)
        assert sectors.jump_counts.sum() > 40
        assert np.array_equal(sectors.jump_counts, whole.jump_counts)
        assert (sectors.norm_evals, sectors.max_norm_evals) == (whole.norm_evals,
                                                                whole.max_norm_evals)
        assert set(sectors.series) == set(whole.series) == {
            "occ_1", "occ_2", "re_adag_a_1_2", "im_adag_a_1_2"}
        for name in sectors.series:
            assert np.max(np.abs(sectors.series[name] - whole.series[name])) < 1e-9, name
        assert np.max(np.abs(sectors.series["re_adag_a_1_2"][-1])) > 0.1
        assert abs(sectors.max_leakage - whole.max_leakage) < 1e-12


    def test_norm_slope_is_minus_total_jump_weight(self):
        f = FockSpace([8, 8])
        h, ls = _model_matrices(registered_model("bose_hubbard_losses"), f)
        prop = _SectorPropagator(h - 0.5j * sum(L.conj().T @ L for L in ls))
        rng = np.random.default_rng(5)
        psi = f.coherent_vector([1.5j, 1.5]) + 0.1 * rng.standard_normal(f.dim)
        c = prop.coeffs(np.tile(prop.embed(psi), (3, 1)))
        times = np.array([0.0, 0.3, 1.1])
        n, dn = prop.norm_and_slope(prop.evolve(c, times))
        states = prop.states(prop.evolve(c, times))[:, prop.pos].T
        assert np.allclose(n, np.sum(np.abs(states) ** 2, axis=0), rtol=1e-12, atol=0)
        weight = sum(np.sum(np.abs(L @ states) ** 2, axis=0) for L in ls)
        assert np.allclose(dn, -weight, rtol=1e-10, atol=0)


class TestRowGather:
    def test_registered_lattice_operators_bit_for_bit(self):
        heff, f = lattice_heff(26)
        part = _BlockPartition(heff)
        _, ls = _model_matrices(registered_model("bose_hubbard_losses"), f)
        a1, a2 = f._lowering
        ops = [*ls, a1 @ a1, a2 @ a2, a1.conj().T @ a2]
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, part.n_slots)) + 1j * rng.standard_normal((3, part.n_slots))
        for op in ops:
            op = part.embed(op, operator=True)
            gather = _RowGather(op)
            assert gather.cols.shape == (1, part.n_slots)  # one entry per row
            assert np.array_equal(gather(x), x @ op.T)

    def test_random_operator_with_up_to_three_entries_per_row(self):
        rng = np.random.default_rng(12)
        n = 40
        counts = rng.integers(0, 4, n)
        assert counts.min() == 0 and counts.max() == 3
        rows = np.repeat(np.arange(n), counts)
        cols = np.concatenate([rng.choice(n, c, replace=False) for c in counts])
        vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
        op = sp.csr_array((vals, (rows, cols)), shape=(n, n))
        gather = _RowGather(op)
        assert gather.cols.shape == (3, n)
        x = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        want = (op @ x.T).T
        assert np.all(gather(x)[:, counts == 0] == 0)
        assert np.allclose(gather(x), want, rtol=1e-15, atol=1e-15 * np.abs(want).max())


def crossing_run(prop, psi, remain, thresholds):
    """`_crossing_times` for one state against several thresholds."""
    r = np.asarray(thresholds, dtype=float)
    c = prop.coeffs(np.tile(prop.embed(psi), (r.size, 1)))
    remain = np.full(r.size, float(remain))
    n0 = np.full(r.size, np.vdot(psi, psi).real)
    n1 = np.sum(np.abs(prop.states(prop.evolve(c, remain))) ** 2, axis=1)
    assert np.all((n0 >= r) & (r > n1))
    return _crossing_times(prop, c, remain, n0, n1, r)


def brentq_times(norm, remain, thresholds):
    return np.array([brentq(lambda s: norm(s) - r, 0.0, remain, xtol=1e-15)
                     for r in thresholds])


def expm_norm(heff, psi):
    return lambda s: float(np.sum(np.abs(expm(-1j * heff * s) @ psi) ** 2))


class TestCrossingTimes:
    def test_diagonal_heff_sum_of_exponentials(self):
        rates = np.array([0.0, 0.4, 1.3, 3.0, 7.5])
        heff = np.diag(np.array([0.5, -1.0, 2.0, 0.1, -3.0]) - 0.5j * rates)
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        psi /= np.linalg.norm(psi)
        weights = np.abs(psi) ** 2
        remain = 1.5
        end = weights @ np.exp(-rates * remain)
        thresholds = end + (1.0 - end) * np.array([0.999, 0.7, 0.3, 0.05, 1e-4])
        times, evals = crossing_run(_SectorPropagator(heff), psi, remain, thresholds)
        want = brentq_times(lambda s: weights @ np.exp(-rates * s), remain, thresholds)
        assert np.max(np.abs(times - want)) < 1e-12
        assert evals.max() <= 8

    def test_non_normal_block(self):
        # H - (i/2) Ldag L with L not commuting with H: the eigenvectors
        # are not orthogonal, but the norm still only falls
        h = np.array([[1.0, 0.8, 0.0], [0.8, -0.5, 0.6j], [0.0, -0.6j, 0.2]])
        loss = np.array([[0.0, 1.2, 0.0], [0.0, 0.0, 0.9], [0.3, 0.0, 0.0]])
        heff = h - 0.5j * loss.conj().T @ loss
        psi = np.array([0.2, 0.5j, 0.8 - 0.1j])
        psi /= np.linalg.norm(psi)
        remain = 2.0
        norm = expm_norm(heff, psi)
        end = norm(remain)
        thresholds = end + (1.0 - end) * np.array([0.95, 0.6, 0.2, 0.01])
        prop = _SectorPropagator(heff)
        times, _ = crossing_run(prop, psi, remain, thresholds)
        assert prop._gram.shape == (1, 3, 3)
        assert np.max(np.abs(prop._gram[0] - np.eye(3))) > 0.1
        want = brentq_times(norm, remain, thresholds)
        assert np.max(np.abs(times - want)) < 1e-12

    def test_staircase_of_hopping_into_a_lossy_level(self):
        # |0> is lossless and hops into the lossy |1>: the norm is flat at
        # s = 0 (n'(0) = 0) and falls in steps, flat again each time the
        # population is back in |0>, so it is not convex and Newton steps
        # from a flat stretch would leave the bracket; bisection replaces them
        hop, gamma = 3.0, 1.0
        heff = np.array([[0.0, hop], [hop, -0.5j * gamma]])
        psi = np.array([1.0, 0.0], dtype=complex)
        prop = _SectorPropagator(heff)
        _, dn = prop.norm_and_slope(prop.evolve(prop.coeffs(prop.embed(psi)[None]), 0.0))
        assert dn[0] == pytest.approx(0.0, abs=1e-14)
        evaluated, evolve = [], prop.evolve

        def recording(coeffs, dt):
            evaluated.append(np.ravel(dt))
            return evolve(coeffs, dt)

        prop.evolve = recording
        remain = 4.0
        norm = expm_norm(heff, psi)
        grid = np.array([norm(s) for s in np.linspace(0.0, remain, 801)])
        curvature = np.diff(grid, 2)
        assert curvature.min() < 0 < curvature.max()
        end = norm(remain)
        thresholds = end + (1.0 - end) * np.linspace(0.999, 0.001, 23)
        times, _ = crossing_run(prop, psi, remain, thresholds)
        want = brentq_times(norm, remain, thresholds)
        assert np.max(np.abs(times - want)) < 1e-12
        evaluated = np.concatenate(evaluated)
        assert evaluated.min() >= 0.0 and evaluated.max() <= remain


class TestHbarGuard:
    def test_fock_solvers_reject_hbar_before_integrating(self, monkeypatch):
        import semilind.quantum as quantum

        def forbidden(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr(quantum, "solve_ivp", forbidden)
        monkeypatch.setattr(quantum, "_SectorPropagator", forbidden)
        (a,), (ab,) = mode_symbols()
        model = LindbladModel(1, 0.5, a * ab, (a * np.sqrt(0.2),))
        f = FockSpace(8)
        with pytest.raises(ValueError, match="hbar = 1"):
            integrate_master(DensityMatrix.from_state(f.coherent_vector([0.0]), f), model,
                             [0.0, 1.0])
        with pytest.raises(ValueError, match="hbar = 1"):
            quantum_jump(model, f.coherent_vector([0.0]), [0.0, 1.0], n_traj=2, seed=0, fock=f)


def mean_and_stderr(ens, name):
    s = ens.series[name]
    return s.mean(axis=1), s.std(axis=1, ddof=1) / np.sqrt(ens.n_traj)


class TestQuantumJump:
    def test_no_lindblads_zero_variance(self):
        (a,), (ab,) = mode_symbols()
        model = LindbladModel(1, 1.0, a * ab * 1.0, ())
        f = FockSpace(12)
        psi0 = f.coherent_vector([1.0])
        ens = quantum_jump(model, psi0, np.linspace(0, 2, 9), n_traj=12, seed=5, fock=f)
        assert np.all(ens.jump_counts == 0)
        occ = ens.series["occ_1"]
        assert np.max(occ.std(axis=1)) < 1e-12
        assert np.allclose(occ.mean(axis=1), 1.0, atol=1e-9)
        # a diagonal Heff is one block per level; populations never move
        assert (ens.n_blocks, ens.max_block) == (12, 1)
        assert ens.max_leakage == pytest.approx(f.leakage(psi0 / np.linalg.norm(psi0)), rel=1e-12)

    def test_single_mode_decay_matches_exact_law(self):
        gamma = 0.8
        model = damped_model(1.0, gamma)
        f = FockSpace(16)
        a0 = 1.4
        psi0 = f.coherent_vector([a0])
        t_eval = np.linspace(0, 2.0, 9)
        ens = quantum_jump(model, psi0, t_eval, n_traj=400, seed=11, fock=f)
        want = abs(a0) ** 2 * np.exp(-gamma * t_eval)
        mean, err = mean_and_stderr(ens, "occ_1")
        for k in range(1, t_eval.size):
            assert abs(mean[k] - want[k]) < 3.5 * max(err[k], 1e-3)

    def test_two_level_against_master(self):
        gamma = 0.5
        (a,), (ab,) = mode_symbols()
        model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.COMPLEX_AABAR, 1), (a * np.sqrt(gamma),))
        f = FockSpace(3)
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
        t_eval = np.linspace(0, 3.0, 7)
        ens = quantum_jump(model, psi0, t_eval, n_traj=600, seed=3, fock=f)
        rho0 = DensityMatrix.from_state(psi0, f)
        mtraj = integrate_master(rho0, model, t_eval)
        n_op = (f._lowering[0].conj().T @ f._lowering[0]).toarray()
        pops = np.array([np.real(np.trace(r @ n_op)) for r in output_rhos(mtraj)])
        mean, err = mean_and_stderr(ens, "occ_1")
        for k in range(1, t_eval.size):
            assert abs(mean[k] - pops[k]) < 3.5 * max(err[k], 2e-3)

    def test_seed_partitions_statistically_consistent(self):
        gamma = 0.6
        model = damped_model(0.0, gamma)
        f = FockSpace(14)
        psi0 = f.coherent_vector([1.2])
        t_eval = np.linspace(0, 1.5, 4)
        keys = [{_trajectory_key(seed, k) for k in range(300)} for seed in (100, 200)]
        assert not keys[0] & keys[1]  # the two partitions share no trajectory
        e1 = quantum_jump(model, psi0, t_eval, n_traj=300, seed=100, fock=f)
        e2 = quantum_jump(model, psi0, t_eval, n_traj=300, seed=200, fock=f)
        (m1, s1), (m2, s2) = (mean_and_stderr(e, "occ_1") for e in (e1, e2))
        for k in range(1, t_eval.size):
            diff = abs(m1[k] - m2[k])
            band = np.hypot(s1[k], s2[k])
            assert diff < 5 * max(band, 1e-3)

    def test_reproducible_and_order_independent(self):
        gamma = 0.6
        model = damped_model(0.5, gamma)
        f = FockSpace(10)
        psi0 = f.coherent_vector([1.0])
        t_eval = np.linspace(0, 1.0, 3)
        e1 = quantum_jump(model, psi0, t_eval, n_traj=40, seed=9, fock=f)
        e2 = quantum_jump(model, psi0, t_eval, n_traj=40, seed=9, fock=f)
        assert np.array_equal(e1.series["occ_1"], e2.series["occ_1"])
        # first 20 trajectories of a larger run match a smaller run to rounding
        e3 = quantum_jump(model, psi0, t_eval, n_traj=20, seed=9, fock=f)
        assert np.allclose(e1.series["occ_1"][:, :20], e3.series["occ_1"], atol=1e-12)

    def test_identical_rows_read_identical_values(self):
        # the registered lattice's initial state in 150 rows: every row reads
        # the same occupations and leakage, bit for bit, wherever it sits
        f = FockSpace([26, 26])
        psi0 = f.coherent_vector([3.1622776601683795j, 3.1622776601683795])
        states = np.tile(psi0 / np.linalg.norm(psi0), (150, 1))
        diags = [(a.conj().T @ a).diagonal().real for a in f._lowering] + [f._top_mask]
        norms, reads = _diagonal_reads(states, diags)
        assert np.ptp(norms) == 0
        for vals, d in zip(reads, diags):
            assert np.ptp(vals) == 0
            assert vals[0] == pytest.approx(np.abs(psi0) ** 2 @ d / np.linalg.norm(psi0) ** 2,
                                            rel=1e-12, abs=1e-300)
        # so does the ensemble at t = 0, where every trajectory is psi0 (in the
        # propagator's bin layout, which may round it differently)
        ens = quantum_jump(registered_model("bose_hubbard_losses"), psi0, [0.0, 0.05],
                           n_traj=150, seed=3, fock=f)
        for j in (1, 2):
            occ = ens.series[f"occ_{j}"][0]
            assert np.ptp(occ) == 0 and occ[0] == pytest.approx(reads[j - 1][0], rel=1e-14)

    def test_max_leakage_is_largest_ensemble_mean(self):
        # hopping carries |3,2> into the top levels |5,0>, |0,5>; with no
        # Lindblad operator nothing jumps, so every trajectory is
        # exp(-iHt)|3,2> and the ensemble-mean top population is its leakage
        (a1, a2), (a1b, a2b) = mode_symbols(2)
        model = LindbladModel(2, 1.0, a1b * a2 + a2b * a1, ())
        f = FockSpace([6, 6])
        psi0 = np.zeros(f.dim, dtype=complex)
        psi0[3 * 6 + 2] = 1.0
        t_eval = np.linspace(0, 1.5, 6)
        ens = quantum_jump(model, psi0, t_eval, n_traj=4, seed=4, fock=f)
        a, b = f._lowering
        h = (a.conj().T @ b + b.conj().T @ a).toarray()
        leak = np.array([f.leakage(expm(-1j * h * t) @ psi0) for t in t_eval])
        assert leak[0] == 0 and leak.max() > 0.1
        assert ens.jump_counts.sum() == 0
        assert ens.max_leakage == pytest.approx(leak.max(), rel=1e-10)

    def test_times_must_increase_and_ensemble_must_be_nonempty(self):
        model = damped_model(1.0, 0.1)
        f = FockSpace(12)
        psi0 = f.coherent_vector([1.0])
        for t_eval in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0], [1.0, 0.0], [0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                quantum_jump(model, psi0, t_eval, n_traj=20, seed=0, fock=f)
        with pytest.raises(ValueError, match="n_traj must be at least 1, got 0"):
            quantum_jump(model, psi0, [0.0, 1.0], n_traj=0, seed=0, fock=f)


    def test_two_halves_match_one_part(self, monkeypatch):
        import semilind.quantum as quantum

        model = registered_model("bose_hubbard_losses")
        f = FockSpace([8, 8])
        psi0 = f.coherent_vector([1.5j, 1.5])
        t_eval = np.linspace(0.0, 2.0, 9)
        threads = set()
        crossing_times = quantum._crossing_times

        def recording(*args):
            threads.add(threading.current_thread().name)
            return crossing_times(*args)

        monkeypatch.setattr(quantum, "_crossing_times", recording)

        def run():
            threads.clear()
            before = set(threading.enumerate())
            ens = quantum_jump(model, psi0, t_eval, n_traj=41, seed=23, fock=f)
            assert set(threading.enumerate()) == before
            return ens, set(threads)

        halves, used = run()
        assert len(used) == 2 and threading.main_thread().name not in used
        # more parts than cores, with the interpreter switching threads as
        # often as it can: a lost or misplaced write would show
        monkeypatch.setattr(quantum, "_PARTS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eighths, _ = run()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(quantum, "_PARTS", 1)
        whole, used = run()
        assert len(used) == 1
        # trajectories 0-19 and 20-40 are the halves; both jump
        assert halves.jump_counts[:20].sum() > 0 and halves.jump_counts[20:].sum() > 0
        for split in (halves, eighths):
            assert np.array_equal(split.jump_counts, whole.jump_counts)
            assert (split.norm_evals, split.max_norm_evals) == (whole.norm_evals,
                                                                whole.max_norm_evals)
            for name in whole.series:
                assert split.series[name].shape == (t_eval.size, 41)
                assert np.max(np.abs(split.series[name] - whole.series[name])) < 1e-12, name
            assert abs(split.max_leakage - whole.max_leakage) < 1e-15

    @pytest.mark.parametrize("failing", [3, 30], ids=["first_half", "second_half"])
    def test_error_in_either_half_reaches_caller(self, monkeypatch, failing):
        import semilind.quantum as quantum

        key = quantum._trajectory_key

        def faulty(seed, index):
            if index == failing:
                raise RuntimeError(f"trajectory {index}")
            return key(seed, index)

        monkeypatch.setattr(quantum, "_trajectory_key", faulty)
        f = FockSpace([6, 6])
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=f"trajectory {failing}"):
            quantum_jump(registered_model("bose_hubbard_losses"), f.coherent_vector([1.0, 1.0]),
                         [0.0, 0.5], n_traj=41, seed=0, fock=f)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("psi0, message", [
        (np.ones(35), r"psi0 must be a vector of length 36, got shape \(35,\)"),
        (np.ones((36, 1)), r"psi0 must be a vector of length 36, got shape \(36, 1\)"),
        (np.r_[np.nan, np.ones(35)], "psi0 has a non-finite entry"),
        (np.r_[1j * np.inf, np.ones(35)], "psi0 has a non-finite entry"),
        (np.zeros(36), "psi0 has zero norm"),
    ], ids=["short", "column", "nan", "inf", "zero"])
    def test_rejects_a_bad_psi0_before_any_work(self, monkeypatch, psi0, message):
        import semilind.quantum as quantum

        def forbidden(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(quantum, "_model_matrices", forbidden)
        f = FockSpace([6, 6])
        with pytest.raises(ValueError, match=message):
            quantum_jump(registered_model("bose_hubbard_losses"), psi0, [0.0, 1.0], n_traj=4,
                         seed=0, fock=f)
