import numpy as np
import pytest

import semilind.gaussian as gaussian
from semilind.gaussian import (
    GaussianWigner,
    GridSpec,
    Moments,
    SuperpositionState,
    WignerGrid,
    _check_widths,
    cat_decompose,
    coherent,
    eval_wigner,
    g_from_a,
    moments,
    physicality_of_width,
)
from oracles import (
    Component,
    coherence,
    component_integral,
    components,
    occupation,
    pair_correlator,
    peak_magnitude,
    stack,
    superposition_moments,
    wigner_values,
)


def wide_grid(n=161, half=8.0):
    return GridSpec(-half, half, n, -half, half, n)


def grid_integral(grid):
    """Riemann sum of the sampled values over the grid cells."""
    return grid.values.sum() * grid.spec.dq * grid.spec.dp


def component_grid(comp, spec):
    """The complex values of one component on a grid, read through `_grid`
    of its one-component superposition."""
    return WignerGrid(spec, stack([comp])._grid(*spec.axes()))


class TestCoherent:
    def test_vacuum(self):
        st = coherent(1, 0.0)
        assert np.allclose(st.x, 0)
        assert np.allclose(st.g, np.eye(2))

    def test_displaced(self):
        a0 = (4 + 4j) / np.sqrt(2)
        st = coherent(1, a0)
        assert np.allclose(st.x, [4.0, 4.0])

    def test_saturates_uncertainty(self):
        assert abs(physicality_of_width(coherent(1, 1.2 - 0.5j).g)) < 1e-12

    def test_two_modes(self):
        st = coherent(2, [1.0, 1j])
        assert np.allclose(st.x, np.sqrt(2) * np.array([1.0, 0.0, 0.0, 1.0]))


class TestPhysicality:
    def test_squeezed_below_vacuum_fails(self):
        st = GaussianWigner(hbar=1.0, x=np.zeros(2), g=2 * np.eye(2))
        assert physicality_of_width(st.g) == pytest.approx(-0.5, abs=1e-12)

    def test_broadened_state_passes(self):
        st = GaussianWigner(hbar=1.0, x=np.zeros(2), g=0.5 * np.eye(2))
        assert physicality_of_width(st.g) == pytest.approx(1.0, abs=1e-12)


class TestWidthFromPacket:
    def test_unit_width(self):
        assert np.allclose(g_from_a(np.array([[1j]])), np.eye(2))

    def test_block_formula_hand_value(self):
        got = g_from_a(np.array([[1 + 1j]]))
        assert np.allclose(got, [[2.0, -1.0], [-1.0, 1.0]])

    def test_unit_determinant_single_mode(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = complex(rng.normal(), np.abs(rng.normal()) + 0.1)
            g = g_from_a(np.array([[a]]))
            assert np.linalg.det(g) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.eigvalsh(g).min() > 0

    def test_rejects_bad_imaginary_part(self):
        with pytest.raises(ValueError):
            g_from_a(np.array([[1.0 - 1j]]))


class TestWignerEval:
    def test_vacuum_peak(self):
        grid = eval_wigner(coherent(1, 0.0), wide_grid())
        assert np.max(grid.values) == pytest.approx(1 / np.pi, rel=1e-3)

    def test_normalization(self):
        grid = eval_wigner(coherent(1, 1 + 0.3j), wide_grid(n=241, half=9.0))
        assert grid_integral(grid) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(1, -1, 10, -1, 1, 10)


def random_off_centre_states(rng):
    """A real Gaussian and a complex Gaussian with B_qp != 0, complex alpha and
    an off-centre X, and their superposition with a second component."""
    a = rng.normal(size=(2, 2))
    g = a @ a.T + 0.5 * np.eye(2)
    real = GaussianWigner(hbar=0.7, x=np.array([1.3, -0.8]), g=g)
    comps = []
    for _ in range(2):
        re, im = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        b = 0.5 * (re + re.T) + 1j * (im @ im.T + 0.5 * np.eye(2))
        comps.append(Component(hbar=0.7, z=rng.normal(size=4), b=b,
                               alpha=complex(*rng.normal(size=2)),
                               weight=complex(*rng.normal(size=2))))
    assert min(abs(g[0, 1]), abs(comps[0].b[0, 1]), abs(comps[1].b[0, 1])) > 1e-3
    state = stack(comps, norm_factor=0.9)
    return real, components(state)[0], state


class TestGridValues:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_grid_matches_pointwise_quadratic_form(self, seed):
        # n_q != n_p and a grid that is not centred on any state
        spec = GridSpec(-5.0, 6.0, 57, -4.5, 3.5, 43)
        for state in random_off_centre_states(np.random.default_rng(seed)):
            want = wigner_values(state, spec.points())
            if isinstance(state, Component):  # a lone component keeps its complex values
                got = component_grid(state, spec).values
            else:
                got = eval_wigner(state, spec).values
                want = want.real
            assert got.shape == (57, 43) and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_far_tails_underflow_without_overflow(self):
        # a strongly correlated width: the q p term alone would overflow on
        # this grid, the summed exponent does not
        g = np.array([[400.0, 399.0], [399.0, 400.0]])
        state = GaussianWigner(hbar=1.0, x=np.zeros(2), g=g)
        spec = GridSpec(-8.0, 8.0, 41, -8.0, 8.0, 41)
        with np.errstate(over="raise", invalid="raise"):
            got = eval_wigner(state, spec).values
        want = wigner_values(state, spec.points())
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


class TestCatDecompose:
    def setup_method(self):
        self.state = cat_decompose(
            centres=[(4.0, 3.0), (4.0, -3.0)],
            coeffs=[1.0, 1.0],
            width=np.array([[1j]]),
        )

    def test_widths_checked_once(self, monkeypatch):
        # the normalized state is built from the checked one, not checked again
        real, seen = gaussian._check_widths, []

        def recorded(b):
            seen.append(b.shape)
            real(b)

        monkeypatch.setattr(gaussian, "_check_widths", recorded)
        st = cat_decompose([(4.0, 3.0), (4.0, -3.0)], [1.0, 1.0], np.array([[1j]]))
        assert seen == [(4, 2, 2)]
        assert st.norm_factor == self.state.norm_factor
        for name in ("z", "b", "alpha", "weights"):
            assert np.array_equal(getattr(st, name), getattr(self.state, name)), name

    def test_single_gaussian_is_plain(self):
        st = cat_decompose([(1.0, -2.0)], [1.0], np.array([[1j]]))
        (comp,) = components(st)
        assert np.allclose(comp.y, 0)
        assert comp.alpha == 0
        assert st.norm_factor == pytest.approx(1.0, rel=1e-12)

    def test_cross_component_parameters(self):
        comps = components(self.state)
        # ordered pairs: (0,0), (0,1), (1,0), (1,1)
        cross = comps[1]
        assert np.allclose(cross.x, [4.0, 0.0])
        assert np.allclose(cross.y, [-6.0, 0.0])
        assert cross.alpha == 0

    def test_diagonal_centres(self):
        comps = components(self.state)
        assert np.allclose(comps[0].x, [4.0, 3.0])
        assert np.allclose(comps[3].x, [4.0, -3.0])

    def test_normalized_on_grid(self):
        grid = eval_wigner(self.state, GridSpec(-6, 14, 301, -10, 10, 301))
        assert grid_integral(grid) == pytest.approx(1.0, abs=1e-6)

    def test_interference_at_midpoint(self):
        grid = eval_wigner(self.state, GridSpec(-6, 14, 301, -10, 10, 301))
        q, p = grid.spec.axes()
        ip = np.argmin(np.abs(p))
        iq0 = np.argmin(np.abs(q - 4.0))
        # Y = (-6, 0): fringes oscillate along q around the midpoint (4, 0)
        window = grid.values[iq0 - 12 : iq0 + 12, ip]
        assert window.max() > 0.1 and window.min() < -0.1

    def test_diagonal_matches_gaussian_wigner(self):
        comps = components(self.state)
        lobe = GaussianWigner(hbar=1.0, x=np.array([4.0, 3.0]), g=np.eye(2))
        spec = GridSpec(0, 8, 81, -1, 7, 81)
        got = component_grid(comps[0], spec).values
        want = eval_wigner(lobe, spec).values
        assert np.max(np.abs(got - want)) < 1e-12

    def test_analytic_integral_matches_quadrature(self):
        spec = GridSpec(-6, 14, 301, -10, 10, 301)
        for comp in components(self.state):
            grid_int = grid_integral(component_grid(comp, spec))
            assert abs(grid_int - component_integral(comp)) < 1e-8

    def test_moments_symmetric_cat(self):
        m = self.state.moments().x
        assert m.shape == (1, 2)
        assert m[0, 0] == pytest.approx(4.0, abs=1e-9)
        assert m[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_moments_match_per_component_sums(self):
        _, _, state = random_off_centre_states(np.random.default_rng(8))
        got, want = state.moments(), superposition_moments(state)
        assert np.max(np.abs(got.x - want.x)) <= 1e-12 * max(1.0, np.max(np.abs(want.x)))
        for block in ("alpha_block", "beta_block"):
            a, b = getattr(got, block), getattr(want, block)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))
        raw = sum(component_integral(c) for c in components(state))
        assert state.normalized().norm_factor == pytest.approx(1.0 / raw.real, rel=1e-12)


class TestMoments:
    def test_vacuum(self):
        m = moments(coherent(1, 0.0))
        assert m.alpha_block.shape == (1, 1, 1)
        assert m.alpha_block[0, 0, 0] == pytest.approx(1.0)
        assert m.adag_a(0, 0)[0] == pytest.approx(0.0)

    def test_coherent_occupation(self):
        a0 = 1.7 - 0.4j
        m = moments(coherent(1, a0))
        assert m.occupation(0)[0] == pytest.approx(abs(a0) ** 2, rel=1e-12)
        assert m.modes[0, 0] == pytest.approx(a0)

    def test_product_coherent_full_coherence(self):
        m = moments(coherent(2, [2.0, 1.0 + 1.0j]))
        assert m.g1(0, 1)[0] == pytest.approx(1.0, rel=1e-12)

    def test_beta_block_vanishes_for_coherent(self):
        m = moments(coherent(1, 0.8))
        assert np.allclose(m.beta_block, 0, atol=1e-12)

    def test_stack_matches_per_state_oracle(self):
        # hbar = 0.5, not 1, so that the hbar in <adag_j a_j> is checked;
        # the covariances are symmetric positive definite
        rng = np.random.default_rng(29)
        hbar, k = 0.5, 7
        x = rng.normal(size=(k, 4))
        a = rng.normal(size=(k, 4, 4))
        cov = a @ a.swapaxes(-1, -2) + np.eye(4)
        m = Moments.from_covariance(hbar, x, cov)
        states = list(zip(m.modes, m.alpha_block))

        def close(got, want):
            want = np.array(want)
            return got.shape == (k,) and np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for i, j in pairs:
            assert close(m.adag_a(i, j), [pair_correlator(hbar, md, al, i, j) for md, al in states])
        for j in (0, 1):
            assert close(m.occupation(j), [occupation(hbar, md, al, j) for md, al in states])
        for i, j in ((0, 1), (1, 0)):
            assert close(m.g1(i, j), [coherence(hbar, md, al, i, j) for md, al in states])
        # a record of k states is k records of one
        for idx in range(k):
            one = Moments.from_covariance(hbar, x[idx:idx + 1], cov[idx:idx + 1])
            for name in ("x", "modes", "alpha_block", "beta_block"):
                assert np.array_equal(getattr(one, name)[0], getattr(m, name)[idx]), name
            for i, j in pairs:
                assert one.adag_a(i, j)[0] == m.adag_a(i, j)[idx]
            assert one.g1(0, 1)[0] == m.g1(0, 1)[idx]


class TestGridIO:
    def test_text_round_trip(self):
        grid = eval_wigner(coherent(1, 1.0), wide_grid(n=21))
        lines = grid.to_text().splitlines()
        s = grid.spec
        header = [float(v) for v in " ".join(lines[:2]).replace("#", "").split()]
        assert header == [s.q_min, s.q_max, s.n_q, s.p_min, s.p_max, s.n_p]
        assert np.array_equal(np.loadtxt(lines), grid.values)

    def test_text_round_trip_complex_component(self):
        comp = components(cat_decompose([(2.0, 0.0), (-2.0, 0.0)], [1, 1], np.array([[1j]])))[1]
        spec = GridSpec(-4, 4, 17, -4, 4, 17)
        grid = component_grid(comp, spec)
        lines = grid.to_text().splitlines()
        s = grid.spec
        header = [float(v) for v in " ".join(lines[:2]).replace("#", "").split()]
        assert header == [s.q_min, s.q_max, s.n_q, s.p_min, s.p_max, s.n_p]
        assert np.allclose(np.loadtxt(lines, dtype=complex), grid.values, atol=0)

    def test_text_round_trip_complex(self):
        spec = GridSpec(-1, 1, 3, -1, 1, 4)
        vals = np.arange(12, dtype=float).reshape(3, 4) * (1 + 2j)
        back = np.loadtxt(WignerGrid(spec, vals).to_text().splitlines(), dtype=complex)
        assert np.array_equal(back, vals)

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_text_matches_per_value_reference(self, complex_values):
        spec = GridSpec(-1.5, 2.0, 3, -0.25, 1.0, 4)
        vals = np.array([[0.1, -0.0, 5e-324, 1.0 / 3.0],
                         [-2.5e-310, 0.0, 1e300, -7.0],
                         [np.pi, -1e-17, 2.0**-1074, 123456789.125]])
        if complex_values:
            vals = vals + 1j * vals[::-1]
        rows = [" ".join(repr(complex(v)) if complex_values else repr(float(v)) for v in row)
                for row in vals]
        want = "# -1.5 2.0 3\n# -0.25 1.0 4\n" + "\n".join(rows) + "\n"
        grid = WignerGrid(spec, vals)
        assert grid.to_text() == want
        back = np.loadtxt(want.splitlines(), dtype=vals.dtype)
        assert np.array_equal(back, vals)
        assert np.array_equal(np.signbit(back.real), np.signbit(vals.real))


class TestComplexGaussianChecks:
    def test_width_check_reads_every_matrix_of_a_stack(self):
        b = np.tile(2j * np.eye(2), (5, 4, 1, 1))
        _check_widths(b)
        bad = b.copy()
        bad[3, 1, 1, 1] = -0.5j
        with pytest.raises(ValueError, match="Im B must be positive definite"):
            _check_widths(bad)
        bad = b.copy()
        bad[4, 2, 0, 1] = 0.3
        with pytest.raises(ValueError, match="B must be symmetric"):
            _check_widths(bad)

    def test_rejects_nonpositive_im_b(self):
        with pytest.raises(ValueError):
            stack([Component(
                hbar=1.0,
                z=np.zeros(4),
                b=np.array([[1j, 0], [0, -1j]]),
                alpha=0.0,
                weight=1.0,
            )])

    def test_peak_magnitude_tracks_alpha(self):
        comp = Component(
            hbar=1.0, z=np.zeros(4), b=2j * np.eye(2), alpha=0.5j, weight=2.0
        )
        assert peak_magnitude(comp) == pytest.approx(2 * np.exp(-0.5))
        peak = component_grid(comp, GridSpec(-1.0, 1.0, 3, -1.0, 1.0, 3)).values[1, 1]
        assert abs(peak) == pytest.approx(2 * np.exp(-0.5), rel=1e-14)


def good_stack():
    """(hbar, z, b, alpha, weights) of a valid two-component, one-mode stack."""
    return 1.0, np.zeros((2, 4)), np.tile(2j * np.eye(2), (2, 1, 1)), np.zeros(2), np.ones(2)


class TestSuperpositionStack:
    def test_valid_stack_is_stored_as_given(self):
        hbar, z, b, alpha, weights = good_stack()
        st = SuperpositionState(hbar, z, b, alpha, weights, norm_factor=0.5)
        assert st.n_modes == 1 and st.norm_factor == 0.5
        assert st.z.dtype == float and st.b.dtype == st.alpha.dtype == st.weights.dtype == complex
        assert np.array_equal(st.b, b) and np.array_equal(st.weights, weights)

    @pytest.mark.parametrize("field, value, message", [
        ("z", np.zeros((0, 4)), "at least one component"),
        ("z", np.zeros((2, 6)), "rows of length 4n"),
        ("b", np.tile(2j * np.eye(3), (2, 1, 1)), "B shape does not match z"),
        ("b", 2j * np.eye(2)[None], "B shape does not match z"),
        ("alpha", np.zeros(3), "one entry per component"),
        ("weights", np.ones(1), "one entry per component"),
        ("b", np.array([2j * np.eye(2), np.diag([1j, -1j])]), "Im B must be positive definite"),
    ], ids=["no-component", "z-row-length", "b-wide", "b-one-matrix", "alpha-length",
            "weights-length", "im-b-indefinite"])
    def test_malformed_stack_raises(self, field, value, message):
        fields = dict(zip(("hbar", "z", "b", "alpha", "weights"), good_stack()))
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            SuperpositionState(**fields)

    def test_three_packet_cat_closed_form(self):
        # component 3 i + j is the ordered pair (i, j) of packets
        centres = [(1.0, -2.0), (-0.5, 0.75), (3.0, 1.5)]
        coeffs = [1.0, -0.5 + 2j, 0.25j]
        hbar, width = 0.5, np.array([[0.3 + 1.2j]])
        st = cat_decompose(centres, coeffs, width, hbar=hbar)
        assert st.z.shape == (9, 4) and st.b.shape == (9, 2, 2)
        assert np.array_equal(st.b, np.broadcast_to(2j * g_from_a(width), (9, 2, 2)))
        for i, ((qi, pi), ci) in enumerate(zip(centres, coeffs)):
            for j, ((qj, pj), cj) in enumerate(zip(centres, coeffs)):
                k = 3 * i + j
                z = [(qi + qj) / 2, (pi + pj) / 2, pj - pi, qi - qj]
                assert np.allclose(st.z[k], z, rtol=0, atol=1e-15)
                assert st.alpha[k] == pytest.approx((pi + pj) * (qi - qj) / 2, rel=1e-15)
                weight = np.conj(ci) * cj / (np.pi * hbar)
                assert st.weights[k] == pytest.approx(weight, rel=1e-15)
        raw = sum(component_integral(c) for c in components(st))
        assert st.norm_factor == pytest.approx(1.0 / raw.real, rel=1e-12)
