from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
