"""Exact calculus for polynomial phase-space symbols.

A symbol is a multivariate polynomial with complex coefficients over one of
three coordinate charts:

* ``Chart.REAL_QP``       -- canonical coordinates ``(q_1..q_n, p_1..p_n)``
* ``Chart.COMPLEX_AABAR`` -- mode coordinates ``(a_1..a_n, a_1bar..a_nbar)``
  with ``a_j = (q_j + i p_j)/sqrt(2)``; ``a`` and ``abar`` are differentiated
  as independent variables (Wirtinger convention)
* ``Chart.DOUBLED_XY``    -- double phase space ``(x_1..x_2n, y_1..y_2n)``

All operations are exact on polynomial coefficients.  hbar never lives inside
a symbol; it enters only as a runtime parameter of the star product.
"""

from __future__ import annotations

import functools
import math
import re
from enum import Enum
from itertools import product as _iproduct

import numpy as np

__all__ = [
    "Chart",
    "PolySymbol",
    "PolyBatch",
    "chart_dim",
    "variable_names",
    "symplectic_form",
    "poisson",
    "moyal_term",
    "chart_transform",
    "double_lift",
    "parse_symbol",
    "format_symbol",
]


class Chart(Enum):
    REAL_QP = "realqp"
    COMPLEX_AABAR = "complex"
    DOUBLED_XY = "doubled"


def chart_dim(chart: Chart, n_modes: int) -> int:
    """Number of variables of a symbol on `chart` with `n_modes` modes."""
    return (4 if chart is Chart.DOUBLED_XY else 2) * n_modes


def variable_names(chart: Chart, n_modes: int) -> list[str]:
    if chart is Chart.REAL_QP:
        return [f"q{j+1}" for j in range(n_modes)] + [f"p{j+1}" for j in range(n_modes)]
    if chart is Chart.COMPLEX_AABAR:
        return [f"a{j+1}" for j in range(n_modes)] + [f"a{j+1}bar" for j in range(n_modes)]
    return [f"x{j+1}" for j in range(2 * n_modes)] + [f"y{j+1}" for j in range(2 * n_modes)]


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Block matrix [[0, I], [-I, 0]] of size 2*n_modes; built once per mode
    count, read-only.

    The doubled-space form is the same construction at twice the mode count:
    ``symplectic_form(2 * n)``.
    """
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    omega = np.block([[zero, eye], [-eye, zero]])
    omega.setflags(write=False)
    return omega


class PolySymbol:
    """Immutable multivariate polynomial keyed by exponent tuples.

    ``terms`` maps an exponent multi-index (length = chart dimension) to a
    complex coefficient.  Zero coefficients are never stored; a configurable
    prune threshold can additionally drop post-arithmetic cancellation noise.
    """

    __slots__ = ("chart", "n_modes", "terms")

    def __init__(self, chart: Chart, n_modes: int, terms=None, prune: float = 0.0):
        dim = chart_dim(chart, n_modes)
        clean: dict[tuple[int, ...], complex] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != dim:
                raise ValueError(f"multi-index length {len(key)} != chart dimension {dim}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            c = clean.get(key, 0j) + complex(coeff)
            clean[key] = c
        clean = {k: c for k, c in clean.items() if c != 0 and abs(c) > prune}
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolySymbol is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, n_modes: int) -> "PolySymbol":
        return cls(chart, n_modes, {})

    @classmethod
    def constant(cls, chart: Chart, n_modes: int, value) -> "PolySymbol":
        dim = chart_dim(chart, n_modes)
        return cls(chart, n_modes, {(0,) * dim: complex(value)})

    @classmethod
    def variable(cls, chart: Chart, n_modes: int, index: int) -> "PolySymbol":
        dim = chart_dim(chart, n_modes)
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dimension {dim}")
        exps = [0] * dim
        exps[index] = 1
        return cls(chart, n_modes, {tuple(exps): 1.0})

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return chart_dim(self.chart, self.n_modes)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def max_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.dim
        for key in self.terms:
            for i, e in enumerate(key):
                if e > degs[i]:
                    degs[i] = e
        return tuple(degs)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PolySymbol):
            if other.chart is not self.chart or other.n_modes != self.n_modes:
                raise ValueError("chart/mode mismatch between symbols")
            return other
        return PolySymbol.constant(self.chart, self.n_modes, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0j) + c
        return PolySymbol(self.chart, self.n_modes, terms)

    __radd__ = __add__

    def __neg__(self):
        return PolySymbol(self.chart, self.n_modes, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PolySymbol):
            c = complex(other)
            return PolySymbol(self.chart, self.n_modes, {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], complex] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0j) + c1 * c2
        return PolySymbol(self.chart, self.n_modes, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = PolySymbol.constant(self.chart, self.n_modes, 1.0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolySymbol)
            and self.chart is other.chart
            and self.n_modes == other.n_modes
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"PolySymbol({self.chart.value}, n={self.n_modes}, {format_symbol(self)!r})"

    def prune(self, eps: float) -> "PolySymbol":
        """Drop coefficients with magnitude <= eps (cancellation cleanup)."""
        return PolySymbol(self.chart, self.n_modes, dict(self.terms), prune=eps)

    def conj(self) -> "PolySymbol":
        """Complex conjugate as a function on the physical chart.

        On REAL_QP and DOUBLED_XY the variables are real, so only coefficients
        conjugate.  On COMPLEX_AABAR conjugation also swaps a <-> abar.
        """
        n = self.n_modes
        if self.chart is Chart.COMPLEX_AABAR:
            terms = {}
            for k, c in self.terms.items():
                key = tuple(k[n:]) + tuple(k[:n])
                terms[key] = terms.get(key, 0j) + c.conjugate()
            return PolySymbol(self.chart, n, terms)
        return PolySymbol(self.chart, n, {k: c.conjugate() for k, c in self.terms.items()})

    def real_part(self) -> "PolySymbol":
        return (self + self.conj()) * 0.5

    def imag_part(self) -> "PolySymbol":
        return (self - self.conj()) * (-0.5j)

    # -- calculus -----------------------------------------------------------

    def deriv(self, index: int) -> "PolySymbol":
        out: dict[tuple[int, ...], complex] = {}
        for k, c in self.terms.items():
            e = k[index]
            if e == 0:
                continue
            key = k[:index] + (e - 1,) + k[index + 1:]
            out[key] = out.get(key, 0j) + c * e
        return PolySymbol(self.chart, self.n_modes, out)

    def deriv_multi(self, orders) -> "PolySymbol":
        out = self
        for i, m in enumerate(orders):
            for _ in range(m):
                out = out.deriv(i)
                if out.is_zero():
                    return out
        return out

    def grad(self) -> list["PolySymbol"]:
        return [self.deriv(i) for i in range(self.dim)]

    def hessian(self) -> list[list["PolySymbol"]]:
        g = self.grad()
        return [[gi.deriv(j) for j in range(self.dim)] for gi in g]

    def eval(self, point) -> complex:
        pt = np.asarray(point, dtype=complex)
        if pt.shape != (self.dim,):
            raise ValueError(f"point length {pt.shape} != chart dimension {self.dim}")
        total = 0j
        for k, c in self.terms.items():
            v = c
            for x, e in zip(pt, k):
                if e:
                    v *= x**e
            total += v
        return total

    __call__ = eval


class PolyBatch:
    """Evaluate a fixed list of fields at real points with a few numpy ops.

    A field is a polynomial, or a regular nested list of polynomials such as
    a gradient or a Hessian; a call returns one array per field, shaped like
    that field.  A polynomial is a symbol or a coefficient map keyed by
    exponent tuples, as a symbol's ``terms``; every key of the batch has the
    same length, the number of variables.  The batch shares the union of
    monomials across all polynomials; each monomial is the product of its
    factors x_i^e with e > 0, gathered from a table of variable powers and
    padded with the table's x^0 = 1 entry, and evaluation is
    ``coeffs @ monomials``, one row per polynomial in field order.  The
    coefficients are stored as float64 when every imaginary part is zero,
    so real polynomials stay in real arithmetic.  Used by the ODE
    right-hand sides, where per-call Python overhead matters.
    """

    def __init__(self, fields):
        polys, self._layout = [], []  # rows and shape of each field
        dims = set()  # the number of variables each polynomial declares
        for fld in fields:
            cells = np.array(fld, dtype=object)
            if not all(isinstance(p, (PolySymbol, dict)) for p in cells.flat):
                raise ValueError("a field must be a polynomial or a regular nested list of "
                                 "polynomials (symbols or coefficient maps)")
            self._layout.append((slice(len(polys), len(polys) + cells.size), cells.shape))
            for p in cells.flat:
                if isinstance(p, PolySymbol):
                    dims.add(p.dim)
                    p = p.terms
                dims.update(len(k) for k in p)
                polys.append(p)
        if not polys:
            raise ValueError("empty batch")
        if len(dims) != 1:
            raise ValueError("mixed dimensions in batch" if dims else
                             "a batch of empty coefficient maps has no dimension")
        (dim,) = dims
        monos = sorted({k for p in polys for k in p})
        if not monos:
            monos = [(0,) * dim]
        index = {k: i for i, k in enumerate(monos)}
        coeffs = np.zeros((len(polys), len(monos)), dtype=complex)
        for r, p in enumerate(polys):
            for k, c in p.items():
                coeffs[r, index[k]] = c
        if not coeffs.imag.any():
            coeffs = np.ascontiguousarray(coeffs.real)
        self.coeffs = coeffs
        exponents = np.array(monos, dtype=np.int64)
        # flat positions of each monomial's factors x_i^e, e > 0, in the
        # (dim, max_exp + 1) power table, in variable order; a monomial with
        # fewer factors is padded with position 0, which holds x_0^0 = 1
        n_pow = int(exponents.max()) + 1
        self._powers = np.arange(n_pow, dtype=float)
        width = max(1, int(np.count_nonzero(exponents, axis=1).max()))
        self._table_index = np.zeros((len(monos), width), dtype=np.intp)
        for r, row in enumerate(exponents):
            (var,) = np.nonzero(row)
            self._table_index[r, :var.size] = var * n_pow + row[var]

    def __call__(self, point) -> list[np.ndarray]:
        """The fields at a real point of shape (dim,), one array shaped like
        each field, or at m points of shape (m, dim), each array with a
        leading axis m; each row of a batch gets the arithmetic of a single
        point."""
        pt = np.asarray(point, dtype=float)
        table = pt[..., None] ** self._powers
        if pt.ndim == 1:  # the ODE right-hand sides' path, kept lean
            monos = np.multiply.reduce(table.ravel()[self._table_index], axis=1)
            vals = self.coeffs.dot(monos)
            return [vals[rows].reshape(shape) for rows, shape in self._layout]
        monos = np.multiply.reduce(table.reshape(len(pt), -1)[:, self._table_index], axis=2)
        # a stack of matrix-vector products, one per point
        vals = np.matmul(self.coeffs, monos[:, :, None])[:, :, 0]
        return [vals[:, rows].reshape(len(pt), *shape) for rows, shape in self._layout]


# -- bilinear operations ----------------------------------------------------


def _add_into(acc: dict, f: PolySymbol) -> None:
    """Add the terms of f to the coefficient map acc in place.  A sum that
    cancels drops its key, as `PolySymbol.__add__` drops it, so that the keys
    of a running sum keep the order of a chain of `+`."""
    for key, c in f.terms.items():
        total = acc.get(key, 0j) + c
        if abs(total) > 0:
            acc[key] = total
        else:
            acc.pop(key, None)


def _require_pairable(f: PolySymbol, g: PolySymbol, op: str):
    if f.chart is not g.chart or f.n_modes != g.n_modes:
        raise ValueError(f"{op}: chart/mode mismatch")
    if f.chart is Chart.COMPLEX_AABAR:
        raise ValueError(f"{op}: defined on REAL_QP or DOUBLED_XY charts only")


def poisson(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """Poisson bracket grad(f) . Omega grad(g) on a canonical chart: the
    first-order term of the star product."""
    return moyal_term(f, g, 1)


def moyal_term(f: PolySymbol, g: PolySymbol, order: int) -> PolySymbol:
    """Order-`order` bidifferential term T_m of the star product.

    f * g = sum_m (i hbar / 2)^m / m! ... with the m! folded in here:
    T_m = sum_{|alpha|+|beta|=m} (-1)^{|beta|} / (alpha! beta!)
          (d_q^alpha d_p^beta f)(d_p^alpha d_q^beta g).
    """
    _require_pairable(f, g, "moyal_term")
    half = f.dim // 2
    fdeg, gdeg = f.max_degrees(), g.max_degrees()
    acap = [min(fdeg[i], gdeg[half + i]) for i in range(half)]
    bcap = [min(fdeg[half + i], gdeg[i]) for i in range(half)]
    out: dict[tuple[int, ...], complex] = {}
    for alpha in _iproduct(*(range(c + 1) for c in acap)):
        rem = order - sum(alpha)
        if rem < 0:
            continue
        for beta in _iproduct(*(range(c + 1) for c in bcap)):
            if sum(beta) != rem:
                continue
            left = f.deriv_multi(alpha + (0,) * half).deriv_multi((0,) * half + beta)
            if left.is_zero():
                continue
            right = g.deriv_multi(beta + (0,) * half).deriv_multi((0,) * half + alpha)
            if right.is_zero():
                continue
            scale = (-1) ** sum(beta)
            for m in alpha + beta:
                scale /= math.factorial(m)
            _add_into(out, left * right * scale)
    return PolySymbol(f.chart, f.n_modes, out)


# -- chart changes ----------------------------------------------------------


def _substitute(f: PolySymbol, target: Chart, cores, factor) -> PolySymbol:
    """f with variable i replaced by the symbol cores[i] on `target`; the
    coefficient of a degree-d monomial is first multiplied by factor(d)."""
    n = f.n_modes
    out: dict[tuple[int, ...], complex] = {}
    for key, coeff in f.terms.items():
        mono = PolySymbol.constant(target, n, coeff * factor(sum(key)))
        for i, e in enumerate(key):
            if e:
                mono = mono * cores[i] ** e
        _add_into(out, mono)
    return PolySymbol(target, n, out)


def chart_transform(f: PolySymbol, target: Chart) -> PolySymbol:
    """Exact substitution between the REAL_QP and COMPLEX_AABAR charts.

    Uses a_j = (q_j + i p_j)/sqrt(2).  Per-monomial scaling keeps the
    sqrt(2) factors as a single power of 2^( -degree/2 ), so even-degree
    coefficients transform without rounding.
    """
    if f.chart is target:
        return f
    n = f.n_modes
    v = [PolySymbol.variable(target, n, i) for i in range(2 * n)]
    if f.chart is Chart.REAL_QP and target is Chart.COMPLEX_AABAR:
        # q_j -> (a_j + abar_j)/sqrt(2), p_j -> -i (a_j - abar_j)/sqrt(2)
        cores = [v[j] + v[n + j] for j in range(n)]
        cores += [(v[j] - v[n + j]) * (-1j) for j in range(n)]
    elif f.chart is Chart.COMPLEX_AABAR and target is Chart.REAL_QP:
        # a_j -> (q_j + i p_j)/sqrt(2), abar_j -> (q_j - i p_j)/sqrt(2)
        cores = [v[j] + v[n + j] * 1j for j in range(n)]
        cores += [v[j] - v[n + j] * 1j for j in range(n)]
    else:
        raise ValueError(f"unsupported chart pair {f.chart} -> {target}")
    return _substitute(f, target, cores, lambda deg: 2.0 ** (-deg / 2))


def double_lift(f: PolySymbol, sign: int) -> PolySymbol:
    """Lift a REAL_QP symbol to double phase space as f(x + sign/2 * Omega y).

    Omega y = (y_p, -y_q), so the q_j slot receives x_qj + sign/2 * y_pj and
    the p_j slot receives x_pj - sign/2 * y_qj.
    """
    if f.chart is not Chart.REAL_QP:
        raise ValueError("double_lift expects a REAL_QP symbol")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = f.n_modes
    target = Chart.DOUBLED_XY
    v = [PolySymbol.variable(target, n, i) for i in range(4 * n)]  # x_q, x_p, y_q, y_p
    cores = [v[j] + v[3 * n + j] * (0.5 * sign) for j in range(n)]
    cores += [v[n + j] - v[2 * n + j] * (0.5 * sign) for j in range(n)]
    return _substitute(f, target, cores, lambda deg: 1.0)


# -- textual notation -------------------------------------------------------

_VAR_RE = re.compile(r"^(q|p|x|y)(\d+)$|^a(\d+)(bar)?$")


def _var_index(token: str, chart: Chart, n_modes: int) -> int:
    m = _VAR_RE.match(token)
    if not m:
        raise ValueError(f"bad variable token {token!r}")
    if m.group(1) is not None:
        kind, num = m.group(1), int(m.group(2)) - 1
        if chart is Chart.REAL_QP and kind in ("q", "p"):
            if not 0 <= num < n_modes:
                raise ValueError(f"mode index out of range in {token!r}")
            return num if kind == "q" else n_modes + num
        if chart is Chart.DOUBLED_XY and kind in ("x", "y"):
            if not 0 <= num < 2 * n_modes:
                raise ValueError(f"index out of range in {token!r}")
            return num if kind == "x" else 2 * n_modes + num
        raise ValueError(f"variable {token!r} not valid on chart {chart.value}")
    if chart is not Chart.COMPLEX_AABAR:
        raise ValueError(f"variable {token!r} not valid on chart {chart.value}")
    num = int(m.group(3)) - 1
    if not 0 <= num < n_modes:
        raise ValueError(f"mode index out of range in {token!r}")
    return num + (n_modes if m.group(4) else 0)


def _split_terms(text: str) -> list[str]:
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            prev = text[:i].rstrip()
            if prev and prev[-1] not in "eE*^+-":
                terms.append(text[start:i])
                start = i
    terms.append(text[start:])
    return [t for t in (s.strip() for s in terms) if t]


def parse_symbol(text: str, chart: Chart, n_modes: int) -> PolySymbol:
    """Parse textual notation like ``0.5*q1^2 + (1+2j)*a1 a1bar - 0.5``.

    Terms are separated by top-level +/-; within a term an optional complex
    coefficient is followed by whitespace- or ``*``-separated variable
    factors ``var^exp``.  Unknown tokens are errors.
    """
    dim = chart_dim(chart, n_modes)
    total = PolySymbol.zero(chart, n_modes)
    for term in _split_terms(text):
        sign = 1.0
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:].lstrip()
        if not body:
            raise ValueError(f"empty term in {text!r}")
        tokens = [t for t in body.replace("*", " ").split() if t]
        coeff = complex(sign)
        exps = [0] * dim
        for k, tok in enumerate(tokens):
            if k == 0:
                try:
                    coeff *= complex(tok)
                    continue
                except ValueError:
                    pass
            if "^" in tok:
                var, _, power = tok.partition("^")
                e = int(power)
                if e < 0:
                    raise ValueError(f"negative exponent in {tok!r}")
            else:
                var, e = tok, 1
            exps[_var_index(var, chart, n_modes)] += e
        total = total + PolySymbol(chart, n_modes, {tuple(exps): coeff})
    return total


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return repr(c.imag) + "j"
    return repr(c)  # "(re+imj)" with parentheses


def format_symbol(f: PolySymbol) -> str:
    """Textual form of a symbol; round-trips through parse_symbol."""
    if f.is_zero():
        return "0.0"
    names = variable_names(f.chart, f.n_modes)
    parts = []
    for key in sorted(f.terms, key=lambda k: (sum(k), k)):
        coeff = f.terms[key]
        factors = [
            (names[i] if e == 1 else f"{names[i]}^{e}") for i, e in enumerate(key) if e
        ]
        if factors:
            parts.append(_fmt_coeff(coeff) + "*" + " ".join(factors))
        else:
            parts.append(_fmt_coeff(coeff))
    return " + ".join(parts)
