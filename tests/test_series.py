from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from crgeom.errors import (DivisibilityError, NotAContractionError,
                           UnitRequiredError)
from crgeom.parsing import drops_terms, parse_series
from crgeom.scalars import GaussRational
from crgeom.series import Series, hypersurface_vars, implicit_solve

V = hypersurface_vars(1)        # ("z1", "c1", "s")
T = 6

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
gauss = st.builds(GaussRational, rationals, rationals)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
series = st.dictionaries(exponents, gauss, max_size=5).map(
    lambda d: Series(V, T, d))


def sv(name, trunc=T):
    return Series.variable(name, V, trunc)


def test_construction_truncates_and_drops_zeros():
    s = Series(V, 2, {(1, 1, 1): GaussRational(1), (1, 0, 0): GaussRational(0)})
    assert s.is_zero()          # degree 3 > 2 dropped, zero dropped


def test_product_example():
    z = sv("z1")
    one = Series.const(1, V, T)
    assert (one + z) * (one - z) == one - z * z


def test_truncation_propagates_via_min():
    a = Series.const(1, V, 5)
    b = Series.const(1, V, 3)
    assert (a * b).trunc == 3
    assert (a + b).trunc == 3


def test_pow():
    z = sv("z1")
    one = Series.const(1, V, T)
    assert (one + z) ** 3 == one + z * 3 + z * z * 3 + z * z * z
    assert (one + z) ** 0 == one


@given(series, series, series)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series, series)
@settings(max_examples=60, deadline=None)
def test_diff_leibniz(a, b):
    lhs = (a * b).diff("z1")
    rhs = a.diff("z1") * b + a * b.diff("z1")
    assert lhs == rhs.truncate(lhs.trunc)


@given(series, series)
@settings(max_examples=60, deadline=None)
def test_conjugate_is_a_ring_involution(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


def test_conjugate_swaps_z_and_c():
    z, c = sv("z1"), sv("c1")
    i = GaussRational(0, 1)
    assert (z * i).conjugate() == c * (-i)


@given(series)
@settings(max_examples=100, deadline=None)
def test_reciprocal_round_trip(a):
    unit = a + Series.const(1, V, T) - Series.const(a.constant_term(), V, T)
    assert unit * unit.reciprocal() == Series.const(1, V, T)


def test_reciprocal_requires_unit():
    with pytest.raises(UnitRequiredError):
        sv("z1").reciprocal()


def test_divide_by_power():
    s, z, c = sv("s"), sv("z1"), sv("c1")
    phi = s * z * c + s * s * z
    assert phi.divide_by_power("s", 1) == (z * c + s * z).truncate(T - 1)
    with pytest.raises(DivisibilityError):
        (phi + z * c).divide_by_power("s", 1)


def test_divide_unit_form():
    s, z = sv("s"), sv("z1")
    one = Series.const(1, V, T)
    b = s * s * (one + z)               # s^2 * unit
    a = s * s * s
    q = a.divide_unit_form(b)
    assert (q * b).truncate(q.trunc) == a.truncate(q.trunc)
    with pytest.raises(UnitRequiredError):
        a.divide_unit_form(s * z)       # s*z1 is not s^k * unit


def test_subs_composition():
    z = sv("z1")
    f = z * z + z
    g = f.subs({"z1": z + z * z})       # f(g) where g = z + z^2
    direct = (z + z * z) + (z + z * z) ** 2
    assert g == direct


def test_parser_round_trip():
    texts = ["s*z1*c1", "1 - z1^2", "(1/2+1/3*i)*z1 + 3/2*c1*s",
             "-z1 + i*s^2", "2*z1*c1*s + 2*z1^3*c1^3*s"]
    for text in texts:
        a = parse_series(text, V, T)
        b = parse_series(a.to_literal(), V, T)
        assert a == b


def test_parser_division_by_unit():
    a = parse_series("z1/(1+s)", V, T)
    b = sv("z1") * (Series.const(1, V, T) + sv("s")).reciprocal()
    assert a == b


def test_parser_reports_terms_dropped_by_truncation():
    # at trunc 3: products, powers and variables past degree 3, and the
    # endless quotient by a non-constant unit, drop terms
    for text in ["s*z1*c1^2", "z1^4 - z1^4", "(z1 + 1)^4", "z1/(1+s)",
                 "c1*(s*z1*c1 + 1)"]:
        assert drops_terms(text, V, 3), text
    assert not drops_terms("z1", V, 1)
    assert drops_terms("z1", V, 0)
    for text in ["0", "0*z1*c1", "s*z1*c1 - z1*c1*s", "(z1 + 1)^3",
                 "z1/(1+1)", "(1/2+1/3*i)*z1 + 3/2*c1*s"]:
        assert not drops_terms(text, V, 3), text


def test_implicit_solve_catalan():
    # t = s + t^2 generates the Catalan numbers 1,1,2,5,14,...
    vars_ = ("s", "t")
    s = Series.variable("s", vars_, 8)
    t = Series.variable("t", vars_, 8)
    sol = implicit_solve(s + t * t, "t")
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for k, c in enumerate(catalan, start=1):
        assert sol.coefficient((k, 0)) == GaussRational(c)


def test_implicit_solve_rejects_bad_equations():
    vars_ = ("s", "t")
    s = Series.variable("s", vars_, 6)
    t = Series.variable("t", vars_, 6)
    with pytest.raises(NotAContractionError):
        implicit_solve(s + t, "t")          # dG/dt(0) = 1
    with pytest.raises(NotAContractionError):
        implicit_solve(s + Series.const(1, vars_, 6), "t")


def test_implicit_solve_back_substitution():
    vars_ = ("xi", "s", "t")
    xi = Series.variable("xi", vars_, 8)
    s = Series.variable("s", vars_, 8)
    t = Series.variable("t", vars_, 8)
    g = xi * (s * s + t * t)
    sol = implicit_solve(g, "t")
    ident = {"xi": xi, "s": s}
    assert g.subs({**ident, "t": sol}) == sol
    # leading terms: xi*s^2 + xi^3*s^4
    assert sol.coefficient((1, 2, 0)) == GaussRational(1)
    assert sol.coefficient((3, 4, 0)) == GaussRational(1)


def test_arctan_coefficients_against_derivative_recurrence():
    # arctan'(x)*(1+x^2) = 1 pins the coefficients (-1)^j/(2j+1)
    from crgeom.corpus import arctan_series
    vars_ = ("x",)
    x = Series.variable("x", vars_, 11)
    a = arctan_series(x)
    one = Series.const(1, vars_, 11)
    lhs = a.diff("x") * (one + x * x)
    assert lhs == Series.const(1, vars_, lhs.trunc)
    assert a.coefficient((5,)) == GaussRational(Fraction(1, 5))
    assert a.coefficient((7,)) == GaussRational(Fraction(-1, 7))


# -- differential oracle: sympy expansions truncated by total degree ----------

SYMBOLS = sympy.symbols(V)
truncs = st.integers(0, 6)


def series_at(trunc, max_size=5, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(V))
    return st.dictionaries(exps, gauss, max_size=max_size).map(
        lambda d: Series(V, trunc, d))


any_series = truncs.flatmap(series_at)


def to_sympy(a):
    return sympy.Add(*[
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        * sympy.Mul(*[x ** k for x, k in zip(SYMBOLS, e)])
        for e, c in a.terms.items()])


def cut(expr, trunc):
    """The terms of total degree <= trunc of the expanded expr, as a term
    dict of the series representation."""
    out = {}
    expr = sympy.expand(expr)
    if expr == 0:
        return out
    for monom, coeff in sympy.Poly(expr, *SYMBOLS).terms():
        if sum(monom) <= trunc:
            re, im = sympy.re(coeff), sympy.im(coeff)
            out[monom] = GaussRational(Fraction(int(re.p), int(re.q)),
                                       Fraction(int(im.p), int(im.q)))
    return out


@given(any_series, any_series)
@settings(max_examples=60, deadline=None)
def test_mul_and_add_match_sympy(a, b):
    trunc = min(a.trunc, b.trunc)
    prod, total, diff = a * b, a + b, a - b
    assert prod.trunc == total.trunc == diff.trunc == trunc
    assert prod.terms == cut(to_sympy(a) * to_sympy(b), trunc)
    # operands of different truncs: terms past the smaller one are dropped
    assert total.terms == cut(to_sympy(a) + to_sympy(b), trunc)
    assert diff.terms == cut(to_sympy(a) - to_sympy(b), trunc)
    scaled = a * GaussRational(Fraction(-2, 3), 1)
    assert scaled.trunc == a.trunc
    assert scaled.terms == cut(to_sympy(a) * (sympy.Rational(-2, 3) + sympy.I),
                               a.trunc)
    assert (a * 0).is_zero() and (a * 0).trunc == a.trunc


@given(any_series)
@settings(max_examples=60, deadline=None)
def test_diff_matches_sympy(a):
    for name, x in zip(V, SYMBOLS):
        d = a.diff(name)
        # a trunc-0 series differentiates to the zero series at trunc 0
        assert d.trunc == max(a.trunc - 1, 0)
        assert d.terms == cut(sympy.diff(to_sympy(a), x), d.trunc)


@given(truncs.flatmap(series_at), gauss.filter(lambda c: not c.is_zero()))
@settings(max_examples=40, deadline=None)
def test_reciprocal_matches_sympy(a, c0):
    unit = a - Series.const(a.constant_term(), V, a.trunc) \
        + Series.const(c0, V, a.trunc)
    inv = unit.reciprocal()
    assert inv.trunc == unit.trunc
    # 1/u = (1/c0) sum_k (1 - u/c0)^k, a finite sum at truncation; each
    # power keeps only its terms of degree <= trunc
    c = to_sympy(Series.const(c0, V, 0))
    term, ref = sympy.Integer(1), sympy.Integer(1)
    for _ in range(unit.trunc):
        term = sympy.Add(*[t for t in sympy.Add.make_args(
            sympy.expand(term * (1 - to_sympy(unit) / c)))
            if sympy.Poly(t, *SYMBOLS).total_degree() <= unit.trunc])
        ref += term
    assert inv.terms == cut(ref / c, inv.trunc)


small_image = truncs.flatmap(lambda t: series_at(t, max_size=3, max_exp=2)).map(
    lambda g: g - Series.const(g.constant_term(), V, g.trunc))


@given(truncs.flatmap(lambda t: series_at(t, max_size=4, max_exp=2)),
       small_image, small_image, small_image)
# images of different truncs: the result keeps none of the deeper one's
# terms past the smallest trunc in use
@example(parse_series("z1 + c1*s", V, 6), parse_series("z1 + c1^4", V, 6),
         parse_series("c1", V, 2), parse_series("s", V, 5))
@settings(max_examples=30, deadline=None)
def test_subs_matches_sympy(f, g1, g2, g3):
    images = dict(zip(V, (g1, g2, g3)))
    used = [name for i, name in enumerate(V) if any(e[i] for e in f.terms)]
    trunc = min([f.trunc] + [images[name].trunc for name in used])
    out = f.subs(images)
    assert out.trunc == trunc
    ref = to_sympy(f).subs({x: to_sympy(g) for x, g in zip(SYMBOLS, images.values())},
                           simultaneous=True)
    assert out.terms == cut(ref, trunc)


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="length"):
        Series(V, T, {(1, 0): GaussRational(1)})
    with pytest.raises(ValueError, match="negative"):
        Series(V, T, {(1, -1, 0): GaussRational(1)})
    # zeros and terms past trunc are dropped, and a negative trunc clamps to 0
    s = Series(V, -2, {(0, 0, 0): GaussRational(3), (1, 0, 0): GaussRational(1),
                      (0, 1, 0): GaussRational(0)})
    assert s.trunc == 0 and s.terms == {(0, 0, 0): GaussRational(3)}
    assert s.truncate(-1) == s and s.truncate(-1).trunc == 0
