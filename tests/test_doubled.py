import numpy as np
import pytest

import semilind.doubled as doubled
import semilind.gaussian as gaussian
from semilind.doubled import DoubledSymbol, _DoubledRhs, build_k, propagate_superposition
from semilind.gaussian import (
    GaussianWigner,
    GridSpec,
    Moments,
    SuperpositionState,
    cat_decompose,
    coherent,
    eval_wigner,
)
from semilind.harness.compare import component_csv
from semilind.harness.config import ExperimentConfig
from semilind.harness.experiments import default_config
from semilind.quantum import DensityMatrix, FockSpace, integrate_master, wigner_of_density
from semilind.semiclassical import LindbladModel, drift_x, integrate
from semilind.symbols import Chart, PolySymbol, double_lift, moyal_term, parse_symbol
from oracles import (
    ChordGaussian,
    Component,
    chord_from_component,
    chord_rhs,
    component_centroid,
    component_integral,
    components,
    diffusion_matrix,
    peak_magnitude,
    rhs_component,
    stack,
    superposition_moments,
)
from test_semiclassical import width_rate

# a division or solve on a singular Im B fails instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def real_vars(n=1):
    q = [PolySymbol.variable(Chart.REAL_QP, n, j) for j in range(n)]
    p = [PolySymbol.variable(Chart.REAL_QP, n, n + j) for j in range(n)]
    return q, p


def anharmonic_damped(beta=0.1, gamma=0.3):
    (q,), (p,) = real_vars()
    h = (q * q + p * p) * 0.5 + (q**4) * (beta / 4)
    L = (q + p * 1j) * np.sqrt(gamma / 2)
    return LindbladModel(1, 1.0, h, (L,))


def random_quadratic_linear(rng, n=1, n_lind=2):
    dim = 2 * n
    s = rng.normal(size=(dim, dim))
    s = s + s.T
    c = rng.normal(size=dim)
    h = PolySymbol.zero(Chart.REAL_QP, n)
    xs = [PolySymbol.variable(Chart.REAL_QP, n, i) for i in range(dim)]
    for i in range(dim):
        h = h + xs[i] * c[i]
        for j in range(dim):
            h = h + xs[i] * xs[j] * (0.5 * s[i, j])
    ls = []
    for _ in range(n_lind):
        L = PolySymbol.zero(Chart.REAL_QP, n)
        for i in range(dim):
            L = L + xs[i] * complex(rng.normal(), rng.normal())
        ls.append(L)
    return LindbladModel(n, 1.0, h, tuple(ls))


def fused_rates(ksym, comps, hbar=1.0):
    """(dZ, dB, dalpha) of a stack of components, stacked, from the fused
    rates of their packed rows."""
    rhs = ksym._rhs
    rows = rhs.pack(np.array([c.z for c in comps]), np.array([c.b for c in comps]),
                    np.array([c.alpha for c in comps]))
    return rhs.unpack(rhs(rows, hbar))


def random_component(rng, n=1, y_scale=1.0):
    dim = 2 * n
    r = rng.normal(size=(dim, dim))
    im = r @ r.T + 0.8 * np.eye(dim)
    re = rng.normal(size=(dim, dim))
    re = re + re.T
    b = re + 1j * im
    z = np.concatenate([rng.normal(size=dim), y_scale * rng.normal(size=dim)])
    return Component(hbar=1.0, z=z, b=b, alpha=complex(rng.normal(), 0.3), weight=1.0)


class TestBuildK:
    def test_anharmonic_damped_coefficients(self):
        beta, gamma = 0.1, 0.3
        ksym = build_k(anharmonic_damped(beta, gamma))
        # variables (x_q, x_p, y_q, y_p)
        want_k0 = {
            (0, 1, 1, 0): 1.0,
            (1, 0, 0, 1): -1.0,
            (1, 0, 0, 3): -beta / 4,
            (3, 0, 0, 1): -beta,
            (1, 0, 1, 0): -gamma / 2,
            (0, 1, 0, 1): -gamma / 2,
            (0, 0, 2, 0): -0.25j * gamma,
            (0, 0, 0, 2): -0.25j * gamma,
        }
        assert set(ksym.k0.terms) == set(want_k0)
        for key, val in want_k0.items():
            assert ksym.k0.terms[key] == pytest.approx(val, rel=1e-13)
        assert set(ksym.k1.terms) == {(0, 0, 0, 0)}
        assert ksym.k1.terms[(0, 0, 0, 0)] == pytest.approx(0.5j * gamma, rel=1e-13)

    def test_closed_quadratic_is_real_with_no_correction(self):
        (q,), (p,) = real_vars()
        h = (q * q + p * p) * 0.5 + q * p * 0.2
        ksym = build_k(LindbladModel(1, 1.0, h, ()))
        assert ksym.k1.is_zero()
        assert all(c.imag == 0 for c in ksym.k0.terms.values())

    def test_first_order_doubled_bracket_of_lifts_vanishes(self):
        rng = np.random.default_rng(12)
        (q,), (p,) = real_vars()
        for _ in range(5):
            L = PolySymbol(
                Chart.REAL_QP,
                1,
                {
                    (int(a), int(b)): complex(rng.normal(), rng.normal())
                    for a, b in rng.integers(0, 3, size=(4, 2))
                },
            )
            lm = double_lift(L, -1)
            lbar_p = double_lift(L.conj(), +1)
            assert moyal_term(lm, lbar_p, 1).max_abs_coeff() < 1e-12

    def test_structure_validation_catches_bad_symbol(self):
        good = build_k(anharmonic_damped())
        x1 = PolySymbol.variable(Chart.DOUBLED_XY, 1, 0)
        bad = DoubledSymbol(k0=good.k0 + x1 * x1, k1=good.k1)
        with pytest.raises(ValueError):
            bad.validate_structure()


class TestRhsComponent:
    def test_reduction_at_y_zero(self):
        model = anharmonic_damped()
        ksym = build_k(model)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.normal(size=2) * 2
            r = rng.normal(size=(2, 2))
            g = r @ r.T + 0.5 * np.eye(2)
            comp = Component(
                hbar=1.0, z=np.concatenate([x, [0, 0]]), b=2j * g, alpha=0.0, weight=1.0
            )
            zdot, bdot, _ = (rate[0] for rate in fused_rates(ksym, [comp]))
            assert np.allclose(zdot[:2], drift_x(model, x), atol=1e-11)
            assert np.allclose(zdot[2:], 0, atol=1e-12)
            assert np.allclose(bdot / 2j, width_rate(model, x, g), atol=1e-10)

    def test_pure_damping_rates_hand_derived(self):
        gamma = 0.4
        (q,), (p,) = real_vars()
        L = (q + p * 1j) * np.sqrt(gamma / 2)
        model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
        ksym = build_k(model)
        x = np.array([1.0, -2.0])
        y = np.array([0.7, 0.4])
        comp = Component(
            hbar=1.0, z=np.concatenate([x, y]), b=2j * np.eye(2), alpha=0.1, weight=1.0
        )
        zdot, bdot, alphadot = (rate[0] for rate in fused_rates(ksym, [comp]))
        assert np.allclose(zdot[:2], -0.5 * gamma * x, atol=1e-12)
        assert np.allclose(zdot[2:], -0.5 * gamma * y, atol=1e-12)
        assert np.allclose(bdot, 0, atol=1e-12)
        assert alphadot == pytest.approx(0.25j * gamma * (y @ y), abs=1e-12)

    def test_stacked_rows_are_independent(self):
        # the batched rates of a stack must equal each component's rates alone
        rng = np.random.default_rng(21)
        ksym = build_k(random_quadratic_linear(rng, n=2, n_lind=2))
        comps = [random_component(rng, n=2) for _ in range(3)]
        zdot, bdot, alphadot = fused_rates(ksym, comps)
        for j, comp in enumerate(comps):
            z1, b1, a1 = (rate[0] for rate in fused_rates(ksym, [comp]))
            assert np.max(np.abs(zdot[j] - z1)) <= 1e-13 * max(np.max(np.abs(z1)), 1.0)
            assert np.max(np.abs(bdot[j] - b1)) <= 1e-13 * max(np.max(np.abs(b1)), 1.0)
            assert abs(alphadot[j] - a1) <= 1e-13 * max(abs(a1), 1.0)

    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    @pytest.mark.parametrize("case", ["registered_cat", "limit_cycle", "two_mode"])
    def test_fused_rates_match_matrix_rates(self, case, hbar):
        # every fused rate against the rates as matrices, component by
        # component; hbar = 0.5 weighs the hbar-linear part of dalpha/dt
        rng = np.random.default_rng(23)
        if case == "two_mode":  # the stacked solve at n2 = 4
            ksym = build_k(random_quadratic_linear(rng, n=2, n_lind=2))
            comps = [random_component(rng, n=2) for _ in range(3)]
        else:
            cfg = ExperimentConfig.from_dict(default_config(
                "cat_anharmonic" if case == "registered_cat" else "limit_cycle"))
            ksym = build_k(cfg.model.build(hbar))
            if case == "registered_cat":
                init = cfg.initial
                comps = components(cat_decompose(init.centres, init.coefficients,
                                                 np.array([[init.width]]), hbar=hbar))
                comps += [random_component(rng) for _ in range(2)]
            else:  # one real Gaussian, Y = 0 and B = 2iG
                x0 = coherent(1, np.array(cfg.initial.amplitudes), hbar).x
                r = rng.normal(size=(2, 2))
                comps = [Component(hbar=hbar, z=np.concatenate([x0, [0.0, 0.0]]),
                                   b=2j * (r @ r.T + 0.5 * np.eye(2)), alpha=0.0, weight=1.0)]
        comps = [c._replace(hbar=hbar) for c in comps]
        zdot, bdot, alphadot = fused_rates(ksym, comps, hbar)
        for j, comp in enumerate(comps):
            z1, b1, a1 = rhs_component(ksym, comp)
            assert np.max(np.abs(zdot[j] - z1)) <= 1e-13 * max(np.max(np.abs(z1)), 1.0)
            assert np.max(np.abs(bdot[j] - b1)) <= 1e-13 * max(np.max(np.abs(b1)), 1.0)
            assert abs(alphadot[j] - a1) <= 1e-13 * max(abs(a1), 1.0)

    @pytest.mark.parametrize("im_b", [np.diag([1.0, -1.0]), np.zeros((2, 2))],
                             ids=["indefinite", "singular"])
    def test_stage_without_positive_im_b_raises(self, im_b):
        # one bad row among good ones stops the whole call, before any solve
        rng = np.random.default_rng(24)
        ksym = build_k(anharmonic_damped())
        comps = [random_component(rng) for _ in range(3)]
        comps[1] = comps[1]._replace(b=comps[1].b.real + 1j * im_b)
        with pytest.raises(ValueError, match="Im B must be positive definite"):
            fused_rates(ksym, comps)

    def test_free_rotation_closed_form(self):
        (q,), (p,) = real_vars()
        h = (q * q + p * p) * 0.5
        model = LindbladModel(1, 1.0, h, ())
        comp = Component(
            hbar=1.0,
            z=np.array([1.0, 0.0, 0.3, -0.2]),
            b=np.array([[0.4 + 1.2j, 0.1], [0.1, 1.5j]]),
            alpha=0.2 + 0.1j,
            weight=1.0,
        )
        series = propagate_superposition(model, stack([comp]), [0.0, 0.6])
        rot = rotation(0.6)
        got = components(series.state(1))[0]
        assert np.allclose(got.x, rot @ comp.x, atol=1e-9)
        assert np.allclose(got.y, rot @ comp.y, atol=1e-9)
        assert np.allclose(got.b, rot @ comp.b @ rot.T, atol=1e-9)
        assert got.alpha == pytest.approx(comp.alpha, abs=1e-9)
        assert got.weight == pytest.approx(comp.weight, abs=1e-9)


def rotation(t):
    return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])


def squeeze_model():
    (q,), (p,) = real_vars()
    return LindbladModel(1, 1.0, q * p, ())


def squeezed_state(widths):
    """Normalized superposition of real Gaussians at the origin, one per G."""
    comps = [
        Component(hbar=1.0, z=np.zeros(4), b=2j * g, alpha=0.0,
                  weight=np.sqrt(np.linalg.det(g)) / np.pi)
        for g in widths
    ]
    return stack(comps).normalized()


def component_track(series, idx):
    """Component idx of a propagated superposition at every output time."""
    return [components(series.state(k))[idx] for k in range(series.times.size)]


def component_events(series, idx):
    return [ev for ev in series.events if ev["component"] == idx]


def assert_tracks_close(track, reference, rel):
    """Equal states within `rel` of each quantity's largest entry (at least 1)."""
    for got, want in zip(track, reference, strict=True):
        for a, b in ((got.z, want.z), (got.b, want.b), (got.alpha, want.alpha),
                     (got.weight, want.weight)):
            assert np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1.0)


class TestComponentPacking:
    @pytest.mark.parametrize("n_modes", [1, 2])
    def test_pack_unpack_round_trip(self, n_modes):
        rng = np.random.default_rng(14 + n_modes)
        kev = _DoubledRhs(build_k(random_quadratic_linear(rng, n=n_modes)))
        comp = random_component(rng, n=n_modes)
        z, b, alpha = kev.unpack(kev.pack(comp.z, comp.b, comp.alpha))
        assert np.array_equal(z, comp.z)
        assert np.array_equal(b, comp.b)
        assert np.array_equal(b, b.T)
        assert alpha == comp.alpha


class TestPropagateSuperposition:
    def test_each_component_integral_computed_once(self, monkeypatch):
        # the integrals of every component at every output time are one
        # stacked evaluation, which the norms and the moments both read
        cat = cat_decompose([(2.0, 1.0), (2.0, -1.0)], [1.0, 1.0], np.array([[1j]]))
        real, calls = doubled._integrals, []

        def counted(hbar, z, *rest):
            calls.append(z.shape[:-1])
            return real(hbar, z, *rest)

        monkeypatch.setattr(doubled, "_integrals", counted)
        series = propagate_superposition(anharmonic_damped(), cat, np.linspace(0, 0.5, 6))
        series.moments()
        series.cross_magnitudes()
        assert calls == [(6, 4)]

    @pytest.mark.parametrize("case", ["registered_cat", "collapse"])
    def test_stacked_quantities_match_per_state_formulas(self, case):
        if case == "registered_cat":
            cfg = ExperimentConfig.from_dict(default_config("cat_anharmonic"))
            init = cfg.initial
            state = cat_decompose(init.centres, init.coefficients, np.array([[init.width]]))
            series = propagate_superposition(cfg.model.build(1.0), state, cfg.times.grid(),
                                             rtol=cfg.ode_rtol, atol=cfg.ode_atol)
        else:  # the first component collapses at t = 11.86 and keeps weight zero
            state = squeezed_state([np.eye(2), np.diag([1e6, 1e-6])])
            series = propagate_superposition(squeeze_model(), state, np.linspace(0.0, 14.0, 8))
            assert np.all(series.weights[-2:, 0] == 0)
        moments = series.moments()
        cross = series.cross_magnitudes()
        for k in range(series.times.size):
            st = series.state(k)
            integrals = np.array([component_integral(c) for c in components(st)])
            scale = np.max(np.abs(integrals))
            assert np.max(np.abs(series.integrals[k] - integrals)) <= 1e-12 * scale
            for i, c in enumerate(components(st)):
                want = component_centroid(c)
                assert np.max(np.abs(series.centroids[k, i] - want)) <= 1e-12 * max(
                    1.0, np.max(np.abs(want)))
            raw = integrals.sum().real
            assert st.norm_factor == pytest.approx(1.0 / raw, rel=1e-12)
            assert series.raw_norms[k] == pytest.approx(state.norm_factor * raw, rel=1e-12)
            want = superposition_moments(st)
            assert np.max(np.abs(moments.x[k] - want.x[0])) <= 1e-12 * max(
                1.0, np.max(np.abs(want.x)))
            for block in ("alpha_block", "beta_block"):
                a, b = getattr(moments, block)[k], getattr(want, block)[0]
                assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))
            peaks = sum(peak_magnitude(c) for c in components(st) if np.linalg.norm(c.y) > 1e-8)
            assert cross[k] == pytest.approx(peaks * abs(st.norm_factor), rel=1e-12, abs=1e-300)

    def test_every_output_width_is_checked(self, monkeypatch):
        # every component at every output time goes through the check that
        # SuperpositionState makes, as one stack
        real, seen = doubled._check_widths, []

        def recorded(b):
            seen.append(b.shape)
            real(b)

        monkeypatch.setattr(doubled, "_check_widths", recorded)
        cat = cat_decompose([(2.0, 1.0), (2.0, -1.0)], [1.0, 1.0], np.array([[1j]]))
        propagate_superposition(anharmonic_damped(), cat, np.linspace(0, 0.5, 6))
        assert seen == [(6, 4, 2, 2)]

    def test_state_is_the_series_slice(self):
        cat = cat_decompose([(2.0, 1.0), (2.0, -1.0)], [1.0, 1.0], np.array([[1j]]))
        series = propagate_superposition(anharmonic_damped(), cat, np.linspace(0, 0.5, 6))
        for k in range(series.times.size):
            st = series.state(k)
            assert st.hbar == series.hbar and st.norm_factor == series.norm_factors[k]
            for name in ("z", "b", "alpha", "weights"):
                got, want = getattr(st, name), getattr(series, name)[k]
                assert got.shape == want.shape and got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name

    def test_state_is_not_checked_again(self, monkeypatch):
        # a frame state is a slice of the stack propagate_superposition
        # checked; a state built from outside keeps its own check
        cat = cat_decompose([(2.0, 1.0), (2.0, -1.0)], [1.0, 1.0], np.array([[1j]]))
        series = propagate_superposition(anharmonic_damped(), cat, np.linspace(0, 0.5, 6))
        real, seen = gaussian._check_widths, []

        def recorded(b):
            seen.append(b.shape)
            real(b)

        monkeypatch.setattr(gaussian, "_check_widths", recorded)
        states = [series.state(k) for k in range(series.times.size)]
        assert seen == [] and len(states) == 6
        st = states[-1]
        SuperpositionState(st.hbar, st.z, st.b, st.alpha, st.weights, st.norm_factor)
        assert seen == [(4, 2, 2)]
        bad = st.b.copy()
        bad[1] = np.diag([1j, -1j])
        with pytest.raises(ValueError, match="Im B must be positive definite"):
            SuperpositionState(st.hbar, st.z, bad, st.alpha, st.weights)

    def test_single_component_matches_semiclassical(self):
        model = anharmonic_damped(beta=0.1, gamma=0.3)
        cat = cat_decompose([(2.0, 1.0)], [1.0], np.array([[1j]]))
        t_eval = np.linspace(0, 2.0, 21)
        series = propagate_superposition(model, cat, t_eval)
        straj = integrate(
            model, GaussianWigner(1.0, np.array([2.0, 1.0]), np.eye(2)), t_eval
        )
        for k in range(t_eval.size):
            comp = components(series.state(k))[0]
            assert np.allclose(comp.x, straj.x[k], atol=1e-8)
            assert np.allclose(comp.y, 0, atol=1e-10)
            assert np.allclose(comp.b.imag / 2, straj.g[k], atol=1e-8)
            assert np.allclose(comp.b.real, 0, atol=1e-8)

    def test_exact_case_against_quantum_wigner(self):
        # quadratic Hamiltonian + linear damping: the propagated cat must
        # match the master equation pointwise on the grid
        model = anharmonic_damped(beta=0.0, gamma=0.3)
        centres = [(4.0, 3.0), (4.0, -3.0)]
        cat = cat_decompose(centres, [1.0, 1.0], np.array([[1j]]))
        t_eval = np.array([0.0, 0.8])
        series = propagate_superposition(model, cat, t_eval)
        f = FockSpace(46)
        v = f.packet_vector(4.0, 3.0) + f.packet_vector(4.0, -3.0)
        rho0 = DensityMatrix.from_state(v, f)
        mtraj = integrate_master(rho0, model, t_eval)
        spec = GridSpec(-7, 7, 101, -7, 7, 101)
        got = eval_wigner(series.state(1), spec)
        want = wigner_of_density(mtraj.density(1), spec)
        assert np.max(np.abs(got.values - want.values)) < 1e-6

    def test_component_collapse(self):
        # H = q p squeezes a component with G = I to diag(exp(-2t), exp(2t)),
        # so Im B = 2G reaches the floor 1e-10 at t = ln(2e10)/2; the
        # component with G = diag(1e6, 1e-6) squeezes the other way and lives
        t_eval = np.linspace(0.0, 14.0, 8)
        series = propagate_superposition(
            squeeze_model(), squeezed_state([np.eye(2), np.diag([1e6, 1e-6])]), t_eval
        )
        (event,) = series.events
        assert event["kind"] == "component_collapse"
        assert event["t"] == pytest.approx(np.log(2e10) / 2, abs=1e-3)
        after = t_eval > event["t"]
        assert after.sum() == 2
        weights = np.array([c.weight for c in component_track(series, 0)])
        assert np.all(weights[after] == 0) and np.all(weights[~after] != 0)
        assert component_events(series, 1) == []
        assert np.allclose(series.raw_norms, np.where(after, 0.5, 1.0), atol=1e-6)

    def test_collapses_restart_the_stacked_solve(self):
        # G = diag(a, 1/a) reaches the floor at t = ln(2a / 1e-10) / 2:
        # a = 0.01 first, then a = 1
        model = squeeze_model()
        gs = [np.eye(2), np.diag([0.01, 100.0]), np.diag([1e6, 1e-6])]
        t_eval = np.linspace(0.0, 14.0, 8)
        series = propagate_superposition(model, squeezed_state(gs), t_eval)
        want = [np.log(2e8) / 2, np.log(2e10) / 2]
        assert [ev["kind"] for ev in series.events] == ["component_collapse"] * 2
        assert [ev["t"] for ev in series.events] == pytest.approx(want, abs=1e-3)
        assert component_events(series, 1) == [series.events[0]]
        assert component_events(series, 0) == [series.events[1]]
        assert component_events(series, 2) == []
        solo = propagate_superposition(model, squeezed_state(gs[2:]), t_eval)
        assert_tracks_close(component_track(series, 2), component_track(solo, 0), 1e-8)

    def test_duplicated_collapsing_component_gives_two_events(self):
        gs = [np.eye(2), np.eye(2), np.diag([1e6, 1e-6])]
        series = propagate_superposition(squeeze_model(), squeezed_state(gs),
                                         np.linspace(0.0, 14.0, 8))
        first, second = series.events
        assert first["t"] == second["t"] == pytest.approx(np.log(2e10) / 2, abs=1e-3)
        assert component_events(series, 0) == [first] and component_events(series, 1) == [second]

    def test_no_live_component_raises(self):
        # the only component collapses at t = 11.86; t = 12 and 14 have none
        with pytest.raises(RuntimeError, match=r"t = 12: .*collapsed \(at t = 11\.859"):
            propagate_superposition(squeeze_model(), squeezed_state([np.eye(2)]),
                                    np.linspace(0.0, 14.0, 8))

    def test_tracks_match_solo_runs(self):
        # the pooled DOP853 error norm of the stacked system keeps every track
        # as accurate as the component propagated alone
        model = anharmonic_damped(beta=0.1, gamma=0.3)
        widths = [np.eye(2), np.diag([4.0, 0.25]), np.array([[2.0, 0.5], [0.5, 1.0]])]
        rng = np.random.default_rng(22)
        comps = [
            Component(hbar=1.0, z=rng.normal(size=4), b=0.3 + 2j * g, alpha=0.1j, weight=1.0)
            for g in widths
        ]
        t_eval = np.linspace(0.0, 2.0, 11)
        series = propagate_superposition(model, stack(comps), t_eval)
        for idx, comp in enumerate(comps):
            solo = propagate_superposition(model, stack([comp]), t_eval)
            assert_tracks_close(component_track(series, idx), component_track(solo, 0), 1e-8)

    def test_registered_cat_tracks_are_conjugate_pairs(self):
        # component (j, i) of the cat is the conjugate of (i, j):
        # (X, Y, B, alpha, weight) -> (X, -Y, -conj B, -conj alpha, conj weight)
        cfg = ExperimentConfig.from_dict(default_config("cat_anharmonic"))
        init = cfg.initial
        cat = cat_decompose(init.centres, init.coefficients, np.array([[init.width]]),
                            hbar=cfg.hbar)
        series = propagate_superposition(cfg.model.build(cfg.hbar), cat, cfg.times.grid(),
                                         rtol=cfg.ode_rtol, atol=cfg.ode_atol)
        n = len(init.centres)
        for i in range(n):
            for j in range(i + 1, n):
                upper = component_track(series, i * n + j)
                lower = component_track(series, j * n + i)
                for cij, cji in zip(upper, lower):
                    assert np.max(np.abs(cji.x - cij.x)) < 1e-10
                    assert np.max(np.abs(cji.y + cij.y)) < 1e-10
                    assert np.max(np.abs(cji.b + np.conj(cij.b))) < 1e-10
                    assert abs(cji.alpha + np.conj(cij.alpha)) < 1e-10
                    assert abs(cji.weight - np.conj(cij.weight)) < 1e-10

    def test_closed_form_moments_match_wigner_quadrature(self):
        # the registered cat at four times; on a grid of +-16 the cut-off
        # tails are below the rounding of the midpoint sums (+-12 leaves 7e-8)
        cfg = ExperimentConfig.from_dict(default_config("cat_anharmonic"))
        init = cfg.initial
        cat = cat_decompose(init.centres, init.coefficients, np.array([[init.width]]),
                            hbar=cfg.hbar)
        series = propagate_superposition(cfg.model.build(cfg.hbar), cat, [0.0, 0.5, 1.5, 2.5],
                                         rtol=cfg.ode_rtol, atol=cfg.ode_atol)
        spec = GridSpec(-16.0, 16.0, 400, -16.0, 16.0, 400)
        pts = spec.points().reshape(-1, 2)
        got = series.moments()
        for k in range(series.times.size):
            w = eval_wigner(series.state(k), spec).values.ravel()
            mean = w @ pts / w.sum()
            cov = (pts - mean).T @ ((pts - mean) * w[:, None]) / w.sum()
            want = Moments.from_covariance(cfg.hbar, mean[None], cov[None])
            assert np.max(np.abs(got.x[k] - want.x[0])) < 1e-10
            for block in ("alpha_block", "beta_block"):
                diff = getattr(got, block)[k] - getattr(want, block)[0]
                assert np.max(np.abs(diff)) < 1e-10

    def test_norm_conserved_in_exact_case(self):
        model = anharmonic_damped(beta=0.0, gamma=0.25)
        cat = cat_decompose([(3.0, 1.0), (3.0, -1.0)], [1.0, 1.0], np.array([[1j]]))
        series = propagate_superposition(model, cat, np.linspace(0, 1.5, 7))
        assert np.allclose(series.raw_norms, 1.0, atol=1e-7)

    def test_norm_conserved_while_det_b_moves(self):
        # a squeezed packet relaxing towards the unit-width steady state: |det B|
        # falls from 4 to about 2.9, and alpha alone must carry the amplitude
        # (det B)^{1/4} and the phase (i hbar/4) Tr(dB/dt B^{-1}) would add
        g = np.diag([4.0, 0.25])
        comp = Component(hbar=1.0, z=np.array([1.0, -0.5, 0.0, 0.0]), b=2j * g,
                         alpha=0.0, weight=np.sqrt(np.linalg.det(g)) / np.pi)
        series = propagate_superposition(anharmonic_damped(beta=0.0, gamma=0.3),
                                         stack([comp]), np.linspace(0, 5, 11))
        dets = [abs(np.linalg.det(c.b)) for c in component_track(series, 0)]
        assert dets[0] == pytest.approx(4.0) and dets[-1] < 3.0
        assert np.max(np.abs(series.raw_norms - 1.0)) <= 1e-8

    def test_decoherence_monotone(self):
        model = anharmonic_damped(beta=0.1, gamma=0.3)
        cat = cat_decompose([(4.0, 3.0), (4.0, -3.0)], [1.0, 1.0], np.array([[1j]]))
        series = propagate_superposition(model, cat, np.linspace(0, 1.0, 11))
        mags = series.cross_magnitudes()
        assert np.all(np.diff(mags) <= 1e-9 * mags[0])
        # off-diagonal phases pick up a growing imaginary part
        cross = component_track(series, 1)
        imalpha = np.array([c.alpha.imag for c in cross])
        assert np.all(np.diff(imalpha) >= -1e-10)

    def test_pure_damping_decoherence_exponent(self):
        # hand-integrated: Im alpha(t) = |Y0|^2 (1 - exp(-gamma t)) / 4
        gamma = 0.5
        (q,), (p,) = real_vars()
        L = (q + p * 1j) * np.sqrt(gamma / 2)
        model = LindbladModel(1, 1.0, PolySymbol.zero(Chart.REAL_QP, 1), (L,))
        cat = cat_decompose([(1.0, 2.0), (1.0, -2.0)], [1.0, 1.0], np.array([[1j]]))
        t_eval = np.array([0.0, 0.7, 1.4])
        series = propagate_superposition(model, cat, t_eval)
        cross0 = components(cat)[1]
        y0sq = cross0.y @ cross0.y
        for k, t in enumerate(t_eval):
            got = components(series.state(k))[1].alpha.imag
            want = 0.25 * y0sq * (1 - np.exp(-gamma * t))
            assert got == pytest.approx(want, abs=5e-8)

    def test_component_csv_header(self):
        model = anharmonic_damped()
        cat = cat_decompose([(1.0, 0.0)], [1.0], np.array([[1j]]))
        series = propagate_superposition(model, cat, [0.0, 0.1])
        text = component_csv(series, 0)
        head = text.splitlines()[0]
        assert head == (
            "t,X_1,X_2,Y_1,Y_2,ReB_11,ReB_12,ReB_22,ImB_11,ImB_12,ImB_22,"
            "re_alpha,im_alpha,weight_re,weight_im"
        )


class TestTimeGrids:
    @pytest.mark.parametrize("t_eval", [[1.0, 0.0], [0.0, -1.0], [0.0], [0.0, 1.0, 0.5],
                                        [0.0, 0.5, 0.5, 1.0]])
    @pytest.mark.parametrize("name", ["limit_cycle", "cat_anharmonic"])
    def test_gaussian_solvers_need_strictly_increasing_times(self, name, t_eval):
        """`integrate` on the registered limit cycle and `propagate_superposition`
        on the registered cat, each from its registered initial state."""
        cfg = ExperimentConfig.from_dict(default_config(name))
        model, init = cfg.model.build(cfg.hbar), cfg.initial
        with pytest.raises(ValueError, match="at least two strictly increasing times"):
            if name == "limit_cycle":
                integrate(model, coherent(1, np.array(init.amplitudes), cfg.hbar), t_eval)
            else:
                cat = cat_decompose(init.centres, init.coefficients, np.array([[init.width]]),
                                    hbar=cfg.hbar)
                propagate_superposition(model, cat, t_eval)


class TestChord:
    def test_imaginary_part_is_chord_quadratic_form(self):
        rng = np.random.default_rng(3)
        model = random_quadratic_linear(rng, n=1, n_lind=2)
        ksym = build_k(model)
        dmat = diffusion_matrix(model)
        im = ksym.k0.imag_part()
        # Im K0 must equal -y . D y / 2 coefficient-wise (x-independent)
        y1 = PolySymbol.variable(Chart.DOUBLED_XY, 1, 2)
        y2 = PolySymbol.variable(Chart.DOUBLED_XY, 1, 3)
        ys = [y1, y2]
        want = PolySymbol.zero(Chart.DOUBLED_XY, 1)
        for i in range(2):
            for j in range(2):
                want = want + ys[i] * ys[j] * (-0.5 * dmat[i, j])
        assert (im - want).max_abs_coeff() < 1e-12

    def test_equivalence_with_component_rhs(self):
        rng = np.random.default_rng(40)
        for _ in range(8):
            model = random_quadratic_linear(rng, n=1, n_lind=2)
            ksym = build_k(model)
            comp = random_component(rng, n=1)
            zdot, bdot, _ = rhs_component(ksym, comp)
            chord = chord_from_component(comp)
            xdot, ydot, mdot, ndot = chord_rhs(model, chord)
            scale = max(np.max(np.abs(zdot)), 1.0)
            assert np.max(np.abs(zdot[:2] - xdot)) < 1e-12 * scale
            assert np.max(np.abs(zdot[2:] - ydot)) < 1e-12 * scale
            binv = np.linalg.inv(comp.b)
            dninv = binv @ bdot @ binv  # d/dt of -B^{-1}
            mscale = max(np.max(np.abs(dninv)), 1.0)
            assert np.max(np.abs(dninv.real - ndot)) < 1e-12 * mscale
            assert np.max(np.abs(dninv.imag - mdot)) < 1e-12 * mscale

    def test_width_correspondence_at_zero_y(self):
        g = np.array([[1.3, 0.2], [0.2, 0.9]])
        comp = Component(
            hbar=1.0, z=np.array([0.5, 0.1, 0.0, 0.0]), b=2j * g, alpha=0.0, weight=1.0
        )
        chord = chord_from_component(comp)
        assert np.allclose(chord.nmat, 0, atol=1e-12)
        assert np.allclose(np.linalg.inv(chord.mmat) / 2, g, atol=1e-12)

    def test_nonlinear_lindblad_rejected(self):
        (q,), (p,) = real_vars()
        model = LindbladModel(1, 1.0, q * q * 0.5, (q * q * 1j + q,))
        comp = random_component(np.random.default_rng(1))
        with pytest.raises(ValueError):
            chord_rhs(model, chord_from_component(comp))

    def test_generator_built_once_per_model(self, monkeypatch):
        built, compiled = [], []
        original_k, original_rhs = doubled.build_k, doubled._DoubledRhs

        def counting_k(model):
            built.append(model)
            return original_k(model)

        def counting_rhs(ksym):
            compiled.append(ksym)
            return original_rhs(ksym)

        monkeypatch.setattr(doubled, "build_k", counting_k)
        monkeypatch.setattr(doubled, "_DoubledRhs", counting_rhs)
        rng = np.random.default_rng(41)
        model = random_quadratic_linear(rng, n=1, n_lind=2)
        comp = random_component(rng, n=1)
        for _ in range(20):
            chord_rhs(model, chord_from_component(comp))
        for _ in range(2):
            propagate_superposition(model, cat_decompose([(1.0, 0.5)], [1.0], np.array([[1j]])),
                                    [0.0, 0.01])
        assert len(built) == 1 and len(compiled) == 1
        ksym = build_k(model)
        for _ in range(20):
            fused_rates(ksym, [comp])
        assert len(compiled) == 2

    def test_mmat_positivity_enforced(self):
        with pytest.raises(ValueError):
            ChordGaussian(
                x=np.zeros(2), y=np.zeros(2), nmat=np.zeros((2, 2)), mmat=-np.eye(2)
            )
