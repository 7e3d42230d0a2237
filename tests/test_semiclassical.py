import numpy as np
import pytest

import semilind.semiclassical as semiclassical
from semilind.gaussian import GaussianWigner, transformation_matrix
from semilind.semiclassical import (
    FlowKind,
    LindbladModel,
    Trajectory,
    classify_flow,
    drift_x,
    drift_field,
    _CompiledRhs,
    _gaussian_fields,
    integrate,
)
from semilind.harness.compare import trajectory_to_csv
from semilind.harness.config import ExperimentConfig
from semilind.harness.experiments import EXPERIMENTS, default_config
from semilind.symbols import (
    Chart, PolyBatch, PolySymbol, chart_transform, parse_symbol, symplectic_form,
)
from oracles import drift_complex, rhs_g_complex


def real_vars(n=1):
    q = [PolySymbol.variable(Chart.REAL_QP, n, j) for j in range(n)]
    p = [PolySymbol.variable(Chart.REAL_QP, n, n + j) for j in range(n)]
    return q, p


def mode_vars(n=1):
    a = [PolySymbol.variable(Chart.COMPLEX_AABAR, n, j) for j in range(n)]
    ab = [PolySymbol.variable(Chart.COMPLEX_AABAR, n, n + j) for j in range(n)]
    return a, ab


def damped_oscillator(omega=1.0, gamma=0.1):
    (q,), (p,) = real_vars()
    h = (q * q + p * p) * (0.5 * omega)
    L = (q + p * 1j) * np.sqrt(gamma / 2.0)
    return LindbladModel(n_modes=1, hbar=1.0, hamiltonian=h, lindblads=(L,))


def width_rate(model, x, g):
    rhs = model._compiled  # pack G's upper triangle, evaluate as `integrate` does, gather
    return rhs(0.0, np.concatenate([x, g[rhs.iu]]))[rhs.gather]


def fields_at(model, x):
    """Drift, Lam and D + D^T of a REAL_QP model at x, each symbol of
    `_gaussian_fields` evaluated by PolySymbol.eval, term by term."""
    drift, lam, d2 = _gaussian_fields(model)
    return (np.array([f.eval(x).real for f in drift]),
            *(np.array([[f.eval(x).real for f in row] for row in mat]) for mat in (lam, d2)))


def registered_model(name):
    """The model of a registered experiment at its defaults, on the REAL_QP chart."""
    cfg = ExperimentConfig.from_dict(default_config(name))
    return cfg.model.build(cfg.hbar).to_chart(Chart.REAL_QP)


def random_model(rng, n=1, deg=3, n_lind=2):
    def rand_poly(complex_coeffs):
        terms = {}
        for _ in range(5):
            while True:
                exps = tuple(int(e) for e in rng.integers(0, deg + 1, size=2 * n))
                if sum(exps) <= deg:
                    break
            c = rng.normal() + (1j * rng.normal() if complex_coeffs else 0.0)
            terms[exps] = c
        return PolySymbol(Chart.REAL_QP, n, terms)

    h = rand_poly(False)
    ls = tuple(rand_poly(True) for _ in range(n_lind))
    return LindbladModel(n_modes=n, hbar=1.0, hamiltonian=h, lindblads=ls)


class TestDriftX:
    def test_hamiltonian_part(self):
        (q,), (p,) = real_vars()
        h = (q * q + p * p) * 0.5
        model = LindbladModel(1, 1.0, h, ())
        assert np.allclose(drift_x(model, [0.3, -1.2]), [-1.2, -0.3])

    def test_nonlinear_example_symbolic(self):
        gamma = 0.1
        (q,), (p,) = real_vars()
        L = (q * q + p * p * 1j) * np.sqrt(gamma)
        model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
        fq, fp = drift_field(model)
        assert fq == q * q * p * (-2 * gamma)
        assert fp == q * p * p * (-2 * gamma)

    def test_two_mode_linear_example(self):
        gamma = 0.37
        (q1, q2), (p1, p2) = real_vars(2)
        L = (q1 + p2 * 1j) * np.sqrt(gamma)
        model = LindbladModel(2, 1.0, PolySymbol.zero(Chart.REAL_QP, 2), (L,))
        x = np.array([0.5, -0.3, 1.1, 0.9])
        got = drift_x(model, x)
        want = gamma * np.array([0.0, -x[0], -x[3], 0.0])
        assert np.allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("name", ["limit_cycle", "bose_hubbard_losses",
                                      "portrait_limit_cycle", "portrait_nonlinear_loss"])
    def test_matches_drift_field_term_by_term(self, name):
        model = registered_model(name)
        fields = drift_field(model)
        rng = np.random.default_rng(9)
        xs = rng.uniform(-4.0, 4.0, size=(6, 2 * model.n_modes))
        for x, got in zip(xs, drift_x(model, xs)):
            want = np.array([f.eval(x).real for f in fields])
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
            assert np.array_equal(drift_x(model, x), got)

    def test_hermitian_lindblad_contributes_nothing(self):
        rng = np.random.default_rng(8)
        (q,), (p,) = real_vars()
        h = q * q * 0.5 + p * p * 0.5 + q * q * q * 0.1
        L = q * q + p * 2.0  # real symbol
        with_l = LindbladModel(1, 1.0, h, (L,))
        without = LindbladModel(1, 1.0, h, ())
        for _ in range(10):
            x = rng.normal(size=2)
            assert np.allclose(drift_x(with_l, x), drift_x(without, x), atol=1e-13)


class TestDriftMatrices:
    def test_damped_oscillator(self):
        omega, gamma = 1.0, 0.1
        _, lam, d2 = fields_at(damped_oscillator(omega, gamma), [0.4, 0.7])
        want_lam = omega * np.eye(2) - 0.5 * gamma * symplectic_form(1)
        assert np.allclose(lam, want_lam, atol=1e-14)
        assert np.allclose(d2 / 2, 0.5 * gamma * np.eye(2), atol=1e-14)

    def test_no_lindblads(self):
        (q,), (p,) = real_vars()
        h = q * q * 1.5 + q * p + p * p * 0.25
        model = LindbladModel(1, 1.0, h, ())
        _, lam, d2 = fields_at(model, [0.0, 0.0])
        assert np.allclose(lam, [[3.0, 1.0], [1.0, 0.5]])
        assert np.allclose(d2 / 2, 0)

    def test_real_lindblad(self):
        (q,), (p,) = real_vars()
        L = q * 2.0  # Hermitian symbol
        model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
        x = [0.2, -0.4]
        _, lam, d2 = fields_at(model, x)
        assert np.allclose(lam, 0)
        assert np.allclose(d2 / 2, [[4.0, 0.0], [0.0, 0.0]])


class TestRhsG:
    def test_damped_oscillator_fixed_point(self):
        got = width_rate(damped_oscillator(), [1.3, -0.2], np.eye(2))
        assert np.allclose(got, 0, atol=1e-13)

    def test_linearised_hamiltonian_flow(self):
        (q,), (p,) = real_vars()
        h = q * q * 0.7 + p * p * 0.2 + q * p * 0.3
        model = LindbladModel(1, 1.0, h, ())
        g = np.array([[1.4, 0.2], [0.2, 0.8]])
        hpp = np.array([[1.4, 0.3], [0.3, 0.4]])
        om = symplectic_form(1)
        want = hpp @ om @ g - g @ om @ hpp
        assert np.allclose(width_rate(model, [0.1, 0.2], g), 0.5 * (want + want.T), atol=1e-13)

    def test_pure_diffusion(self):
        # Lam = 0, D = I comes from L = q + i p ... instead check the algebra
        # directly through a Lindblad pair giving D = I: L1 = q, L2 = p.
        (q,), (p,) = real_vars()
        model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (q, p))
        got = width_rate(model, [0.0, 0.0], np.eye(2))
        om = symplectic_form(1)
        assert np.allclose(got, 2 * om @ om, atol=1e-14)  # = -2 I

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        g = rng.normal(size=(2, 2))
        g = g @ g.T + 0.5 * np.eye(2)
        out = width_rate(model, rng.normal(size=2), g)
        assert np.array_equal(out, out.T)

    def test_trace_identity(self):
        # Tr(G^-1 Gdot) = 2 Tr(Lam Omega) + 2 Tr(Omega D Omega G)
        rng = np.random.default_rng(4)
        om = symplectic_form(1)
        for _ in range(10):
            model = random_model(rng)
            x = rng.normal(size=2)
            g = rng.normal(size=(2, 2))
            g = g @ g.T + 0.5 * np.eye(2)
            gdot = width_rate(model, x, g)
            _, lam, d2 = fields_at(model, x)
            lhs = np.trace(np.linalg.solve(g, gdot))
            rhs_val = 2 * np.trace(lam @ om) + 2 * np.trace(om @ (d2 / 2) @ om @ g)
            assert lhs == pytest.approx(rhs_val, rel=1e-9, abs=1e-9)


class TestComplexChart:
    def test_limit_cycle_drift(self):
        omega, g1, g2, amp = 1.0, 0.1, 0.01, 0.15
        (a,), (ab,) = mode_vars()
        h = a * ab * omega
        ls = (a * np.sqrt(g1), a * a * np.sqrt(g2), ab * np.sqrt(amp))
        model = LindbladModel(1, 1.0, h, ls)
        aval = 0.7 - 0.4j
        xc = np.array([aval, np.conj(aval)])
        got = drift_complex(model, xc)
        want = -1j * omega * aval + 0.5 * (amp - g1) * aval - g2 * abs(aval) ** 2 * aval
        assert got[0] == pytest.approx(want, rel=1e-12)
        assert got[1] == pytest.approx(np.conj(want), rel=1e-12)

    def test_open_lattice_drift(self):
        J, U, gamma = 1.0, 0.05, 0.05
        (a1, a2), (a1b, a2b) = mode_vars(2)
        hop = (a1b * a2 + a2b * a1) * (-J)
        def onsite(aa, aab):
            nsym = aa * aab
            return (nsym * nsym - nsym * 2 + 0.5) * (U / 2)
        h = hop + onsite(a1, a1b) + onsite(a2, a2b)
        ls = (a1 * a1 * np.sqrt(gamma), a2 * a2 * np.sqrt(gamma))
        model = LindbladModel(2, 1.0, h, ls)
        v1, v2 = 1.1 + 0.2j, -0.3 + 0.8j
        xc = np.array([v1, v2, np.conj(v1), np.conj(v2)])
        got = drift_complex(model, xc)
        want1 = 1j * J * v2 - 1j * U * (abs(v1) ** 2 - 1) * v1 - gamma * abs(v1) ** 2 * v1
        want2 = 1j * J * v1 - 1j * U * (abs(v2) ** 2 - 1) * v2 - gamma * abs(v2) ** 2 * v2
        assert got[0] == pytest.approx(want1, rel=1e-12)
        assert got[1] == pytest.approx(want2, rel=1e-12)

    def test_no_lindblads_k_is_ihess(self):
        (a,), (ab,) = mode_vars()
        h = a * ab * 2.0
        model = LindbladModel(1, 1.0, h, ())
        gc = np.array([[0.5, 0.1j], [-0.1j, 0.5]], dtype=complex)
        om = symplectic_form(1)
        kmat = 1j * np.array([[0.0, 2.0], [2.0, 0.0]])
        want = gc @ om @ kmat - np.conj(kmat) @ om @ gc
        got = rhs_g_complex(model, np.array([0.3, 0.3]), gc)
        assert np.allclose(got, want, atol=1e-13)

    def test_chart_equivalence_random_models(self):
        rng = np.random.default_rng(17)
        t1 = transformation_matrix(1)
        for _ in range(10):
            model = random_model(rng, n=1, deg=3)
            cmodel = model.to_chart(Chart.COMPLEX_AABAR)
            x = rng.normal(size=2)
            g = rng.normal(size=(2, 2))
            g = g @ g.T + 0.6 * np.eye(2)
            xc = t1 @ x
            gc = t1 @ g @ t1.conj().T
            drift_real = drift_x(model, x)
            assert np.allclose(t1 @ drift_real, drift_complex(cmodel, xc), atol=1e-10)
            gdot_real = width_rate(model, x, g)
            want = t1 @ gdot_real @ t1.conj().T
            got = rhs_g_complex(cmodel, xc, gc)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_fixed_point_transforms(self):
        model = damped_oscillator().to_chart(Chart.COMPLEX_AABAR)
        t1 = transformation_matrix(1)
        gc = t1 @ np.eye(2) @ t1.conj().T
        xc = t1 @ np.array([0.5, 0.1])
        assert np.allclose(rhs_g_complex(model, xc, gc), 0, atol=1e-12)


class TestClassifyFlow:
    def test_holomorphic_damping(self):
        gamma = 0.4
        (q,), (p,) = real_vars()
        L = (q + p * 1j) * np.sqrt(gamma)
        res = classify_flow(L)
        assert res.kind is FlowKind.GRADIENT_HOLOMORPHIC
        assert res.sign == -1
        want = (q * q + p * p) * (-gamma / 2)
        diff = res.potential - want
        assert diff.max_abs_coeff() < 1e-12

    def test_antiholomorphic_sign(self):
        (q,), (p,) = real_vars()
        res = classify_flow(q - p * 1j)
        assert res.kind is FlowKind.GRADIENT_HOLOMORPHIC
        assert res.sign == +1

    def test_general_gradient_form(self):
        (q,), (p,) = real_vars()
        res = classify_flow(q * 2.0 + p * 3j)
        assert res.kind is FlowKind.GENERAL_GRADIENT
        want = (q * q + p * p) * (-3.0)
        assert (res.potential - want).max_abs_coeff() < 1e-12

    def test_real_symbol_vanishes(self):
        (q,), (p,) = real_vars()
        assert classify_flow(q).kind is FlowKind.VANISHING
        assert classify_flow((q * q + p) * 1j).kind is FlowKind.VANISHING

    def test_normal_single_mode_is_hamiltonian(self):
        (q,), (p,) = real_vars()
        L = (q * q + p * p) * (1 + 2j)
        assert classify_flow(L).kind is FlowKind.HAMILTONIAN

    def test_generic_is_general(self):
        (q,), (p,) = real_vars()
        assert classify_flow(q + p * p * 1j).kind is FlowKind.GENERAL

    def test_gradient_flow_identity(self):
        # drift equals grad of the potential for holomorphic symbols
        rng = np.random.default_rng(23)
        (q,), (p,) = real_vars()
        w = q + p * 1j
        for _ in range(5):
            L = PolySymbol.zero(Chart.REAL_QP, 1)
            for d in range(4):
                L = L + w**d * complex(rng.normal(), rng.normal())
            model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
            res = classify_flow(L)
            assert res.kind is FlowKind.GRADIENT_HOLOMORPHIC and res.sign == -1
            grad_pot = res.potential.grad()
            for fld, gp in zip(drift_field(model), grad_pot):
                assert (fld - gp).max_abs_coeff() < 1e-12 * max(1.0, gp.max_abs_coeff())


def symbolic_fields(model, x, g):
    """Drift and symmetrized width rate by PolySymbol.eval, term by term."""
    drift, lam, d2 = fields_at(model, x)
    om = symplectic_form(model.n_modes)
    core = lam @ om @ g - g @ om @ lam.T + g @ om @ d2 @ om @ g
    return drift, 0.5 * (core + core.T)


class TestCompiledRhs:
    @staticmethod
    def assert_matches_symbolic_path(model, rng, x_scale=1.5):
        dim = 2 * model.n_modes
        rhs = _CompiledRhs(model)
        for _ in range(5):
            x = rng.uniform(-x_scale, x_scale, size=dim)
            r = rng.normal(size=(dim, dim))
            g = r @ r.T + np.eye(dim)
            got = rhs(0.0, np.concatenate([x, g[rhs.iu]]))
            want_x, want_g = symbolic_fields(model, x, g)
            scale = max(1.0, np.max(np.abs(want_x)), np.max(np.abs(want_g)))
            assert np.max(np.abs(got[:dim] - want_x)) <= 1e-13 * scale
            assert np.max(np.abs(got[dim:] - want_g[rhs.iu])) <= 1e-13 * scale

    @pytest.mark.parametrize("n_modes", [1, 2])
    def test_matches_symbolic_path(self, n_modes):
        rng = np.random.default_rng(31 + n_modes)
        for _ in range(4):
            self.assert_matches_symbolic_path(random_model(rng, n=n_modes), rng)

    @pytest.mark.parametrize("name", ["limit_cycle", "bose_hubbard_losses",
                                      "portrait_nonlinear_loss"])
    def test_registered_models_match_symbolic_path(self, name):
        # centres out to the limit cycle's start, |X| = 4
        self.assert_matches_symbolic_path(registered_model(name), np.random.default_rng(35),
                                          x_scale=4.0)

    def test_one_batch_call_per_evaluation(self, monkeypatch):
        # the packed rate is the batch's value as it stands: nothing else is
        # evaluated, gathered or repacked
        rhs = _CompiledRhs(random_model(np.random.default_rng(36), n=2))
        real, seen = rhs.rates, []

        def recorded(point):
            seen.append(point)
            return real(point)

        monkeypatch.setattr(rhs, "rates", recorded)
        y = np.random.default_rng(37).normal(size=14)
        got = rhs(0.0, y)
        assert len(seen) == 1 and seen[0] is y
        assert np.array_equal(got, real(y))

    def test_fields_batch_is_each_point(self):
        rhs = _CompiledRhs(random_model(np.random.default_rng(6), n=2))
        rng = np.random.default_rng(7)
        for batch, size in ((rhs.drift, 4), (rhs.rates, 14)):
            xs = rng.uniform(-1.5, 1.5, size=(5, size))
            assert np.array_equal(batch(xs), np.array([batch(x) for x in xs]))

    def test_fields_built_once_per_model(self, monkeypatch):
        calls = []
        original = semiclassical._gaussian_fields

        def counting(model):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(semiclassical, "_gaussian_fields", counting)
        rng = np.random.default_rng(5)
        model = random_model(rng)
        g = np.array([[1.3, 0.2], [0.2, 0.9]])
        for _ in range(20):
            x = rng.normal(size=2)
            drift_x(model, x)
            width_rate(model, x, g)
        integrate(model, GaussianWigner(1.0, [0.1, 0.2], g), [0.0, 0.01])
        assert len(calls) == 1
        assert isinstance(model._compiled.drift, PolyBatch)
        assert isinstance(model._compiled.rates, PolyBatch)


def y_free(sym, n2):
    """The y = 0 restriction of a DOUBLED_XY symbol, on the REAL_QP chart."""
    terms = {k[:n2]: c for k, c in sym.terms.items() if not any(k[n2:])}
    return PolySymbol(Chart.REAL_QP, n2 // 2, terms)


class TestGaussianFieldsFromK0:
    """The Gaussian fields are the y-Taylor coefficients of K0 at y = 0:
    drift_j = d_yj Re K0, Lam = (d_x d_y Re K0) Omega and
    D + D^T = -2 Omega (d_y d_y Im K0) Omega^T, coefficient by coefficient."""

    def assert_fields_are_k0_coefficients(self, model):
        n2 = 2 * model.n_modes
        drift, lam, d2 = _gaussian_fields(model.to_chart(Chart.REAL_QP))
        k0 = model._doubled.k0
        re, im = k0.real_part(), k0.imag_part()
        om = symplectic_form(model.n_modes)
        dxy = [[y_free(re.deriv(i).deriv(n2 + k), n2) for k in range(n2)] for i in range(n2)]
        dyy = [[y_free(im.deriv(n2 + k).deriv(n2 + l), n2) for l in range(n2)] for k in range(n2)]
        zero = PolySymbol.zero(Chart.REAL_QP, model.n_modes)
        pairs = [(drift[j], y_free(re.deriv(n2 + j), n2)) for j in range(n2)]
        for i in range(n2):
            for j in range(n2):
                want_lam = sum((dxy[i][k] * om[k, j] for k in range(n2)), zero)
                want_d2 = sum((dyy[k][l] * (-2.0 * om[i, k] * om[j, l])
                               for k in range(n2) for l in range(n2)), zero)
                pairs += [(lam[i][j], want_lam), (d2[i][j], want_d2)]
        scale = max(max(got.max_abs_coeff(), want.max_abs_coeff()) for got, want in pairs)
        assert scale > 0
        for got, want in pairs:
            assert (got - want).max_abs_coeff() <= 1e-14 * scale

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_registered_models(self, name):
        cfg = ExperimentConfig.from_dict(default_config(name))
        self.assert_fields_are_k0_coefficients(cfg.model.build(cfg.hbar))

    @pytest.mark.parametrize("n_modes", [1, 2])
    def test_random_models(self, n_modes):
        rng = np.random.default_rng(60 + n_modes)
        for _ in range(4):
            self.assert_fields_are_k0_coefficients(random_model(rng, n=n_modes))


class TestIntegrate:
    def test_periodic_orbit(self):
        (q,), (p,) = real_vars()
        h = (q * q + p * p) * 0.5
        model = LindbladModel(1, 1.0, h, ())
        x0 = np.array([1.5, -0.3])
        g0 = np.array([[2.0, 0.3], [0.3, 0.6]])
        t_eval = np.linspace(0, 2 * np.pi, 33)
        traj = integrate(model, GaussianWigner(1.0, x0, g0), t_eval)
        assert np.allclose(traj.x[-1], x0, atol=1e-8)
        assert np.allclose(traj.g[-1], g0, atol=1e-8)

    def test_damped_closed_form(self):
        omega, gamma = 1.0, 0.25
        model = damped_oscillator(omega, gamma)
        a0 = (1.2 + 0.8j)
        x0 = np.sqrt(2) * np.array([a0.real, a0.imag])
        t_eval = np.linspace(0, 8.0, 81)
        traj = integrate(model, GaussianWigner(1.0, x0, np.eye(2)), t_eval)
        for t, x, g in zip(traj.times, traj.x, traj.g):
            a_t = (x[0] + 1j * x[1]) / np.sqrt(2)
            want = a0 * np.exp((-1j * omega - gamma / 2) * t)
            assert abs(a_t - want) < 1e-8
            assert np.allclose(g, np.eye(2), atol=1e-9)

    def test_physicality_along_flow(self):
        model = damped_oscillator(1.0, 0.3)
        t_eval = np.linspace(0, 10, 51)
        st0 = GaussianWigner(1.0, np.array([2.0, 0.0]), np.diag([0.6, 1.4]))
        traj = integrate(model, st0, t_eval)
        assert traj.min_physicality.min() >= -1e-9

    def test_width_clamp(self):
        # H = q p squeezes G to diag(exp(-2t), exp(2t)), a quadratic flow for
        # which the width equation is exact; no clamp rewrites the small
        # eigenvalue, which falls below 1e-12 between t = 12 and t = 14
        (q,), (p,) = real_vars()
        model = LindbladModel(1, 1.0, q * p, ())
        t_eval = np.linspace(0.0, 16.0, 9)
        traj = integrate(model, GaussianWigner(1.0, [1.0, 0.0], np.eye(2)), t_eval)
        assert traj.events == []
        assert np.abs(np.linalg.det(traj.g) - 1.0).max() < 5e-8
        smallest = np.linalg.eigvalsh(traj.g).min(axis=1)
        assert np.allclose(smallest, np.exp(-2.0 * t_eval), rtol=1e-7, atol=0.0)

    def test_width_clamp_off_axis(self):
        # H = (q^2 - p^2)/2 squeezes G along the diagonals; the integrated
        # entries lose the small eigenvalue, which turns negative by t = 12,
        # and the run stops there instead of returning that width
        (q,), (p,) = real_vars()
        model = LindbladModel(1, 1.0, (q * q - p * p) * 0.5, ())
        t_eval = np.linspace(0.0, 14.0, 8)
        with pytest.raises(RuntimeError, match=r"t=12\.0 is not positive definite: "
                                               r"smallest eigenvalue -"):
            integrate(model, GaussianWigner(1.0, [1.0, 0.0], np.eye(2)), t_eval)

    def test_non_finite_width_raises(self, monkeypatch):
        # eigvalsh may return finite eigenvalues for a width with a NaN
        # entry; such a width still counts as not positive definite
        solve = semiclassical.solve_ivp

        def nan_at_last_time(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.y[2, -1] = np.nan  # G[0, 0] at t = 1
            return sol

        monkeypatch.setattr(semiclassical, "solve_ivp", nan_at_last_time)
        with pytest.raises(RuntimeError, match=r"t=1\.0 is not positive definite: "
                                               r"smallest eigenvalue nan"):
            integrate(damped_oscillator(), GaussianWigner(1.0, [1.0, 0.0], np.eye(2)),
                      np.linspace(0.0, 1.0, 3))

    def test_csv_round_trip(self):
        model = damped_oscillator()
        t_eval = np.linspace(0, 1.0, 5)
        traj = integrate(model, GaussianWigner(1.0, np.array([1.0, 0.0]), np.eye(2)), t_eval)
        rows = np.loadtxt(trajectory_to_csv(traj).splitlines(), delimiter=",", skiprows=1)
        iu = np.triu_indices(2)
        assert np.array_equal(rows[:, 0], traj.times)
        assert np.array_equal(rows[:, 1:3], [traj.state(k).x for k in range(5)])
        assert np.array_equal(rows[:, 3:6], [traj.state(k).g[iu] for k in range(5)])
        assert np.array_equal(rows[:, 6], traj.min_physicality)


class TestModelParsing:
    def test_model_from_text_round_trip(self):
        h = parse_symbol("0.5*q1^2 + 0.5*p1^2 + 0.025*q1^4", Chart.REAL_QP, 1)
        L = parse_symbol(
            "0.3872983346207417*q1 + 0.3872983346207417j*p1", Chart.REAL_QP, 1
        )
        model = LindbladModel(1, 1.0, h, (L,))
        assert classify_flow(L).kind is FlowKind.GRADIENT_HOLOMORPHIC

    def test_chart_mismatch_rejected(self):
        (q,), _ = real_vars()
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        with pytest.raises(ValueError):
            LindbladModel(1, 1.0, q, (a,))
