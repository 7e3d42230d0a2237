import math

import numpy as np
import pytest

from semilind.harness.selftest import _brute_moyal
from semilind.symbols import (
    Chart,
    PolyBatch,
    PolySymbol,
    chart_transform,
    double_lift,
    format_symbol,
    moyal_term,
    parse_symbol,
    poisson,
    symplectic_form,
    variable_names,
)
from oracles import moyal, weyl_of_normal_ordered


def qp(n=1):
    q = [PolySymbol.variable(Chart.REAL_QP, n, j) for j in range(n)]
    p = [PolySymbol.variable(Chart.REAL_QP, n, n + j) for j in range(n)]
    return q, p


def assert_sym_close(a, b, tol=1e-13):
    keys = set(a.terms) | set(b.terms)
    scale = max(a.max_abs_coeff(), b.max_abs_coeff(), 1.0)
    for k in keys:
        assert abs(a.terms.get(k, 0) - b.terms.get(k, 0)) <= tol * scale, (
            k,
            a.terms.get(k, 0),
            b.terms.get(k, 0),
        )


class TestBasics:
    def test_eval_monomial(self):
        (q,), (p,) = qp()
        f = q * p
        assert f.eval([2.0, 3.0]) == 6.0

    def test_eval_complex_chart(self):
        n = 1
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, n, 0)
        abar = PolySymbol.variable(Chart.COMPLEX_AABAR, n, 1)
        f = a * abar - 0.5
        # point (a, abar) = (1, 1)
        assert f.eval([1.0, 1.0]) == pytest.approx(0.5)

    def test_eval_dimension_mismatch(self):
        (q,), _ = qp()
        with pytest.raises(ValueError):
            q.eval([1.0])

    def test_grad(self):
        (q,), (p,) = qp()
        gx, gy = (q * q).grad()
        assert gx == q * 2
        assert gy.is_zero()
        g = (q * q + p * p * 1j).grad()
        assert g[0] == q * 2
        assert g[1] == p * 2j

    def test_grad_wirtinger(self):
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        abar = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 1)
        g = (a * abar).grad()
        assert g[0] == abar
        assert g[1] == a

    def test_hessian(self):
        (q,), (p,) = qp()
        h = (q * q).hessian()
        assert h[0][0].terms.get((0, 0), 0) == 2
        assert h[0][1].is_zero() and h[1][1].is_zero()
        h = (q * p).hessian()
        assert h[0][1].terms.get((0, 0), 0) == 1
        assert h[1][0].terms.get((0, 0), 0) == 1
        h = ((q * q + p * p) * 0.5).hessian()
        assert h[0][0].terms.get((0, 0), 0) == 1 and h[1][1].terms.get((0, 0), 0) == 1

    def test_conj_complex_chart_swaps(self):
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        abar = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 1)
        f = a * 2j
        assert f.conj() == abar * (-2j)

    def test_immutability(self):
        (q,), _ = qp()
        with pytest.raises(AttributeError):
            q.chart = Chart.DOUBLED_XY


class TestSymplectic:
    def test_antisymmetric_and_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            om = symplectic_form(n)
            assert np.array_equal(om.T, -om)
            assert np.allclose(om @ om, -np.eye(2 * n))


class TestPoisson:
    def test_canonical_pair(self):
        (q,), (p,) = qp()
        assert poisson(q, p).terms.get((0, 0), 0) == 1

    def test_hand_expanded(self):
        (q,), (p,) = qp()
        assert poisson(q * q, p * p) == q * p * 4

    def test_antisymmetry_gives_zero(self):
        (q,), (p,) = qp()
        f = q * q * p + p * p * 2 + q
        assert poisson(f, f).is_zero()

    def test_chart_mismatch(self):
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        with pytest.raises(ValueError):
            poisson(a, a)


class TestMoyal:
    def test_first_order_terminates(self):
        (q,), (p,) = qp()
        got = moyal(q, p, hbar=1.0)
        assert got == q * p + 0.5j

    def test_hand_expanded_second_order(self):
        (q,), (p,) = qp()
        hbar = 1.0
        got = moyal(q * q, p * p, hbar)
        want = q * q * p * p + q * p * 2j * hbar - 0.5 * hbar**2
        assert_sym_close(got, want, tol=1e-15)

    def test_constant_factor(self):
        (q,), (p,) = qp()
        f = q * q * p + p
        assert moyal(f, PolySymbol.constant(Chart.REAL_QP, 1, 3.0), 0.7) == f * 3.0

    def test_hbar_zero_is_pointwise_product(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_poly(rng, n=2, deg=3)
            g = random_poly(rng, n=2, deg=2)
            assert_sym_close(moyal(f, g, 0.0), f * g, tol=1e-15)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(1, 3))
            f = random_poly(rng, n=n, deg=3)
            g = random_poly(rng, n=n, deg=2)
            hbar = float(rng.uniform(0.3, 1.5))
            assert_sym_close(moyal(f, g, hbar), _brute_moyal(f, g, hbar), tol=1e-13)

    def test_commutator_matches_poisson_to_third_order(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_poly(rng, n=1, deg=4)
            g = random_poly(rng, n=1, deg=4)
            hbar = 0.8
            comm2 = sum((moyal_term(f, g, m) - moyal_term(g, f, m)) * ((0.5j * hbar) ** m)
                        for m in range(3))
            assert_sym_close(comm2, poisson(f, g) * (1j * hbar), tol=1e-13)

    def test_commutator_exact_for_quadratic(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_poly(rng, n=1, deg=2)
            g = random_poly(rng, n=1, deg=5)
            hbar = 1.3
            comm = moyal(f, g, hbar) - moyal(g, f, hbar)
            assert_sym_close(comm, poisson(f, g) * (1j * hbar), tol=1e-13)

    def test_doubled_chart_supported(self):
        x1 = PolySymbol.variable(Chart.DOUBLED_XY, 1, 0)
        y1 = PolySymbol.variable(Chart.DOUBLED_XY, 1, 2)
        got = moyal(x1, y1, 1.0)
        assert got == x1 * y1 + 0.5j

    def test_moyal_term_order_one_is_poisson(self):
        rng = np.random.default_rng(5)
        f = random_poly(rng, n=2, deg=3)
        g = random_poly(rng, n=2, deg=3)
        assert_sym_close(moyal_term(f, g, 1), poisson(f, g), tol=1e-14)


def random_poly(rng, n, deg, chart=Chart.REAL_QP):
    dim = 4 * n if chart is Chart.DOUBLED_XY else 2 * n
    terms = {}
    for _ in range(6):
        while True:
            exps = tuple(int(e) for e in rng.integers(0, deg + 1, size=dim))
            if sum(exps) <= deg:
                break
        terms[exps] = complex(rng.normal(), rng.normal())
    return PolySymbol(chart, n, terms)


class TestWeylNormalOrdered:
    def test_number_operator(self):
        got = weyl_of_normal_ordered(1, 0, 1, 1, hbar=1.0)
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        abar = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 1)
        assert got == abar * a - 0.5  # exact coefficients

    def test_two_body_term(self):
        got = weyl_of_normal_ordered(1, 0, 2, 2, hbar=1.0)
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        abar = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 1)
        nsym = abar * a
        assert got == nsym * nsym - nsym * 2 + 0.5  # exact coefficients

    def test_bare_annihilator(self):
        got = weyl_of_normal_ordered(1, 0, 0, 1, hbar=1.0)
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        assert_sym_close(got, a, tol=1e-15)

    def test_second_mode(self):
        got = weyl_of_normal_ordered(2, 1, 1, 1, hbar=1.0)
        a2 = PolySymbol.variable(Chart.COMPLEX_AABAR, 2, 1)
        a2bar = PolySymbol.variable(Chart.COMPLEX_AABAR, 2, 3)
        assert got == a2bar * a2 - 0.5


class TestChartTransform:
    def test_elementary_mode_variable(self):
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        got = chart_transform(a, Chart.REAL_QP)
        (q,), (p,) = qp()
        want = (q + p * 1j) * (1 / math.sqrt(2))
        assert_sym_close(got, want, tol=1e-15)

    def test_round_trip_identity(self):
        (q,), (p,) = qp()
        f = q * q * p
        back = chart_transform(chart_transform(f, Chart.COMPLEX_AABAR), Chart.REAL_QP)
        assert_sym_close(back, f, tol=1e-14)

    def test_mode_intensity(self):
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        abar = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 1)
        got = chart_transform(a * abar, Chart.REAL_QP)
        (q,), (p,) = qp()
        assert got == (q * q + p * p) * 0.5  # exact by even-degree scaling

    def test_round_trip_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            f = random_poly(rng, n=2, deg=4)
            back = chart_transform(chart_transform(f, Chart.COMPLEX_AABAR), Chart.REAL_QP)
            assert_sym_close(back, f, tol=1e-14)

    def test_unsupported_pair(self):
        x = PolySymbol.variable(Chart.DOUBLED_XY, 1, 0)
        with pytest.raises(ValueError):
            chart_transform(x, Chart.REAL_QP)


class TestDoubleLift:
    def test_plus_shift_of_q(self):
        (q,), _ = qp()
        got = double_lift(q, +1)
        x1 = PolySymbol.variable(Chart.DOUBLED_XY, 1, 0)
        y2 = PolySymbol.variable(Chart.DOUBLED_XY, 1, 3)  # y_p
        assert got == x1 + y2 * 0.5

    def test_constant(self):
        c = PolySymbol.constant(Chart.REAL_QP, 1, 2.5)
        for s in (+1, -1):
            assert double_lift(c, s).terms.get((0, 0, 0, 0), 0) == 2.5

    def test_minus_shift_substitution_oracle(self):
        (q,), (p,) = qp()
        f = q * q + p * p
        lifted = double_lift(f, -1)
        rng = np.random.default_rng(2)
        omega = symplectic_form(1)
        for _ in range(20):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            want = f.eval(x - 0.5 * omega @ y)
            got = lifted.eval(np.concatenate([x, y]))
            assert abs(got - want) < 1e-12

    def test_yzero_recovers_original(self):
        rng = np.random.default_rng(9)
        f = random_poly(rng, n=1, deg=4)
        lifted = double_lift(f, +1)
        for _ in range(10):
            x = rng.normal(size=2)
            assert abs(lifted.eval(np.concatenate([x, [0, 0]])) - f.eval(x)) < 1e-12


class TestTextNotation:
    def test_parse_simple(self):
        f = parse_symbol("0.5*q1^2 + 0.5*p1^2", Chart.REAL_QP, 1)
        (q,), (p,) = qp()
        assert f == (q * q + p * p) * 0.5

    def test_parse_complex_coeff_and_implicit_product(self):
        f = parse_symbol("(1+2j)*a1 a1bar - 0.5", Chart.COMPLEX_AABAR, 1)
        a = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 0)
        abar = PolySymbol.variable(Chart.COMPLEX_AABAR, 1, 1)
        assert f == a * abar * (1 + 2j) - 0.5

    def test_parse_scientific_and_imaginary(self):
        f = parse_symbol("1e-3*q1 + 2.5j*p1", Chart.REAL_QP, 1)
        (q,), (p,) = qp()
        assert f == q * 1e-3 + p * 2.5j

    def test_parse_rejects_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_symbol("q1 + z3", Chart.REAL_QP, 1)
        with pytest.raises(ValueError):
            parse_symbol("a1", Chart.REAL_QP, 1)
        with pytest.raises(ValueError):
            parse_symbol("q5", Chart.REAL_QP, 2)

    def test_format_round_trip(self):
        rng = np.random.default_rng(31)
        for chart, n in ((Chart.REAL_QP, 2), (Chart.COMPLEX_AABAR, 1)):
            for _ in range(10):
                f = random_poly(rng, n=n, deg=3, chart=chart)
                text = format_symbol(f)
                assert parse_symbol(text, chart, n) == f

    def test_variable_names(self):
        assert variable_names(Chart.REAL_QP, 2) == ["q1", "q2", "p1", "p2"]
        assert variable_names(Chart.COMPLEX_AABAR, 1) == ["a1", "a1bar"]


class TestPolyBatch:
    def test_matches_individual_eval(self):
        rng = np.random.default_rng(13)
        polys = [random_poly(rng, n=2, deg=3) for _ in range(7)]
        polys.append(PolySymbol.zero(Chart.REAL_QP, 2))
        batch = PolyBatch(polys)
        for _ in range(5):
            pt = rng.normal(size=4)
            got = batch(pt)
            want = np.array([p.eval(pt) for p in polys])
            assert np.allclose(got, want, atol=1e-12)

    def test_real_part_at_real_points(self):
        rng = np.random.default_rng(14)
        polys = [random_poly(rng, n=2, deg=4) for _ in range(6)]
        polys.append(PolySymbol.constant(Chart.REAL_QP, 2, 2.5 - 1j))
        batch = PolyBatch(polys)
        for _ in range(5):
            pt = rng.normal(size=4)
            want = np.array([p.eval(pt).real for p in polys])
            assert np.allclose(batch(pt).real, want, rtol=1e-13, atol=1e-13)

    def test_batch_is_each_point(self):
        rng = np.random.default_rng(15)
        batch = PolyBatch([random_poly(rng, n=2, deg=4) for _ in range(6)])
        pts = rng.normal(size=(9, 4))
        want = np.array([batch(pt) for pt in pts])
        assert batch(pts).shape == (9, 6) and np.array_equal(batch(pts), want)

    @pytest.mark.parametrize("seed", [16, 17, 18])
    def test_nonzero_factors_match_full_table(self, seed):
        # each monomial multiplies only its factors x_i^e, e > 0: the values
        # are bit for bit those of the product over every variable, x^0 = 1
        # factors included, at single points and on a stack
        rng = np.random.default_rng(seed)
        polys = [random_poly(rng, n=2, deg=5) for _ in range(8)]
        polys.append(PolySymbol.constant(Chart.REAL_QP, 2, 0.75))
        polys.append(PolySymbol.variable(Chart.REAL_QP, 2, 3))
        batch = PolyBatch(polys)
        exponents = np.array(sorted({k for p in polys for k in p.terms}))
        pts = rng.normal(scale=1.5, size=(7, 4))
        pts[0, 1] = 0.0  # a zero coordinate: 0^0 = 1 in the full table
        table = pts[..., None] ** np.arange(exponents.max() + 1)
        full = np.multiply.reduce(table[:, np.arange(4), exponents], axis=2)
        for pt, monos in zip(pts, full):
            assert np.array_equal(batch(pt), batch.coeffs.dot(monos))
        assert np.array_equal(batch(pts), np.matmul(batch.coeffs, full[:, :, None])[:, :, 0])

    def test_coefficient_maps_are_symbols(self):
        rng = np.random.default_rng(19)
        polys = [random_poly(rng, n=1, deg=3) for _ in range(4)]
        maps = [dict(p.terms) for p in polys]
        pts = rng.normal(size=(3, 2))
        by_symbol = PolyBatch(polys)
        by_map = PolyBatch(maps[:2] + polys[2:3] + maps[3:])  # symbols and maps mix
        for pt in (pts[0], pts):
            got, want = by_map(pt), by_symbol(pt)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_coefficient_maps_share_one_length(self):
        with pytest.raises(ValueError, match="mixed dimensions"):
            PolyBatch([{(1, 0): 1.0}, {(0, 1, 2): 2.0}])
        with pytest.raises(ValueError, match="mixed dimensions"):
            PolyBatch([PolySymbol.variable(Chart.REAL_QP, 1, 0), {(0, 1, 2): 2.0}])
        with pytest.raises(ValueError, match="no dimension"):
            PolyBatch([{}, {}])
        assert np.array_equal(PolyBatch([{(0, 2): 3.0}, {}])([2.0, 0.5]), [0.75, 0.0])

    def test_items_are_polynomials(self):
        # a batch is one flat list: a gradient or a Hessian is not an item
        poly = PolySymbol.variable(Chart.REAL_QP, 1, 0)
        with pytest.raises(ValueError, match="symbols or coefficient maps"):
            PolyBatch([poly, [poly, poly]])
        with pytest.raises(ValueError, match="no dimension"):
            PolyBatch([])
