import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from crgeom.errors import (DivisibilityError, NotAContractionError,
                           ParseError, UnitRequiredError)
from crgeom.parsing import (MAX_COEFF_BITS, MAX_EXPONENT, _names,
                            drops_terms, parse_series)
from crgeom.scalars import _STR_BITS, GaussRational, _int_str, format_coefficient
from crgeom.series import (Series, hypersurface_vars, implicit_solve,
                           substitute)

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


def test_divisibility_error_names_the_constant_monomial_1():
    with pytest.raises(DivisibilityError, match=r"^monomial 1 not divisible"
                                                r" by s\^1$"):
        (sv("s") + Series.const(2, V, T)).divide_by_power("s", 1)


def test_divide_unit_form():
    s, z = sv("s"), sv("z1")
    one = Series.const(1, V, T)
    b = s * s * (one + z)               # s^2 * unit
    a = s * s * s
    q = a.divide_unit_form(b)
    assert (q * b).truncate(q.trunc) == a.truncate(q.trunc)
    with pytest.raises(UnitRequiredError):
        a.divide_unit_form(s * z)       # s*z1 is not s^k * unit


def reference_product(f, g):
    """f * g term by term in GaussRational arithmetic: every pair of
    terms within the truncation is multiplied and added as it comes."""
    trunc = min(f.trunc, g.trunc)
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= trunc:
                out[e] = out.get(e, GaussRational(0)) + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def reference_quotient(a, u):
    """a / u term by term: g_d = (a_d - sum_{k >= 1} u_k g_{d-k}) / u_0."""
    trunc = min(a.trunc, u.trunc)
    u0 = u.constant_term()
    g = {}
    for d in range(trunc + 1):
        acc = {e: c for e, c in a.terms.items() if sum(e) == d}
        for eu, cu in u.terms.items():
            for eg, cg in list(g.items()):
                e = tuple(x + y for x, y in zip(eu, eg))
                if any(eu) and sum(e) == d:
                    acc[e] = acc.get(e, GaussRational(0)) - cu * cg
        g.update((e, c / u0) for e, c in acc.items() if not c.is_zero())
    return g


def test_products_and_quotients_sum_over_differing_denominators():
    # two term pairs land on z1*c1 over the denominators 10 and 21, so the
    # sum is rescaled to their lcm: 1/10 + 1/21 = 31/210
    z, c, s = sv("z1"), sv("c1"), sv("s")
    half, third = GaussRational(Fraction(1, 2)), GaussRational(Fraction(1, 3))
    f = z * half + c * third
    g = c * GaussRational(Fraction(1, 5)) + z * GaussRational(Fraction(1, 7))
    assert (f * g).terms == reference_product(f, g)
    assert (f * g).coefficient((1, 1, 0)) == GaussRational(Fraction(31, 210))
    # a unit over mixed denominators, and a numerator with a (1/2 + i/3)
    u = Series.const(2, V, T) + z * third + c * GaussRational(Fraction(1, 5)) \
        + s * GaussRational(Fraction(1, 7), Fraction(1, 2))
    a = f * GaussRational(Fraction(1, 2), Fraction(1, 3)) + s * s * third
    assert (a / u).terms == reference_quotient(a, u)
    assert (a / u) * u == a


def test_cancelled_terms_are_absent():
    # the z1*c1 pairs cancel: 1/2 * 2/3 - 1/3 * 1 over the raw
    # denominators 6 and 3, and 1*1 + i*i between real and imaginary parts
    z, c = sv("z1"), sv("c1")
    i = GaussRational(0, 1)
    pairs = [(z * GaussRational(Fraction(1, 2)) + c * GaussRational(Fraction(1, 3)),
              c * GaussRational(Fraction(2, 3)) - z),
             (z + c * i, z * i + c)]
    for f, g in pairs:
        prod = f * g
        assert prod.terms == reference_product(f, g)
        assert (1, 1, 0) not in prod.terms and len(prod.terms) == 2
    # (z - c)(1 + z + c) has no z1*c1 term, and dividing it back by the
    # unit leaves z - c with no term of degree >= 2, zero or otherwise
    u = Series.const(1, V, T) + z + c
    a = (z - c) * u
    assert (1, 1, 0) not in a.terms
    q = a / u
    assert q.terms == reference_quotient(a, u) == (z - c).terms


@given(series, series)
@settings(max_examples=100, deadline=None)
def test_quotient_round_trip(a, b):
    unit = b + Series.const(1, V, T) - Series.const(b.constant_term(), V, T)
    q = a / unit
    assert q.trunc == T
    assert q * unit == a
    assert q.terms == reference_quotient(a, unit)


def test_products_and_quotients_reduce_once_per_coefficient(monkeypatch):
    # every product, one-term operands and the constant 1 included, and
    # the quotient accumulate Gaussian-integer numerators: one _reduced
    # per output coefficient, and no GaussRational product or sum per
    # term pair
    import crgeom.series
    counts = {"reduced": 0, "mul": 0, "add": 0}
    reduced = crgeom.series._reduced
    mul, add = GaussRational.__mul__, GaussRational.__add__

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    z, c, s = sv("z1"), sv("c1"), sv("s")
    third = GaussRational(Fraction(1, 3), Fraction(1, 2))
    f = z * third + c + s * s - z * c * s
    g = Series.const(3, V, T) - z + c * third + s
    fg = f * g
    monomial = Series(V, T, {(1, 0, 1): GaussRational(Fraction(2, 5), -1)})
    one = Series.const(1, V, T)
    monkeypatch.setattr(crgeom.series, "_reduced", counted("reduced", reduced))
    monkeypatch.setattr(GaussRational, "__mul__", counted("mul", mul))
    monkeypatch.setattr(GaussRational, "__add__", counted("add", add))
    for op in (lambda: f * g, lambda: f / g, lambda: g.reciprocal(),
               lambda: monomial * fg, lambda: one * fg):
        counts.update(reduced=0, mul=0, add=0)
        out = op()
        assert len(out.terms) > 4
        assert counts == {"reduced": len(out.terms), "mul": 0, "add": 0}


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


def test_parser_builds_the_names_table_once_per_variable_tuple():
    # each variable's unit exponent tuple is built once per tuple and
    # truncation kind, not once per literal
    vars_ = tuple(f"y{j}" for j in range(1, 41))
    _names.cache_clear()
    def y(j):
        return Series.variable(f"y{j}", vars_, 2)

    for j in range(1, 41):
        assert parse_series(f"y{j} + i*y{41 - j}", vars_, 2) == \
            y(j) + y(41 - j) * GaussRational(0, 1)
    assert _names.cache_info().misses == 1
    # at trunc 0 every variable is zero, and i and constants are kept
    assert parse_series("y1 + 2*y2*y3", vars_, 0).is_zero()
    assert parse_series("3 + i + y40", vars_, 0) == \
        Series.const(GaussRational(3, 1), vars_, 0)
    assert _names.cache_info().misses == 2
    zero = (0, 0, 1, (0,) * 40)
    assert all(_names(vars_, False)[v] == zero for v in vars_)


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


@given(st.lists(truncs.flatmap(lambda t: series_at(t, max_size=4, max_exp=2)),
                min_size=1, max_size=4),
       truncs, gauss, small_image, small_image, small_image)
# a monomial shared by members of truncs 6 and 2, and z1 alone: their
# image products are formed at trunc 6 and must be cut for the second
@example([parse_series("z1 + z1*c1 + c1*s", V, 6),
          parse_series("3*z1 + z1*c1", V, 2)], 3, GaussRational(2),
         parse_series("z1 + c1^4", V, 6), parse_series("c1 + z1*s^2", V, 5),
         parse_series("s + i*z1*c1", V, 6))
# one output coefficient receives contributions over the denominators 7,
# 3 and 1029 (z1 and its square), and in the second they cancel to 0
@example([parse_series("z1 + c1 + s + z1*c1 + s^2", V, 6)], 2,
         GaussRational(Fraction(1, 7)), parse_series("1/7*z1", V, 6),
         parse_series("2/3*z1", V, 6), parse_series("1/1029*z1", V, 6))
# a leaf product, z1^2 -> g1^2, with terms of degrees 2 to 4 over the
# denominators 3, 4, 5, 9, 15 and 25, which the trunc-3 member cuts
# after degree 3
@example([parse_series("z1^2 + 1/2*z1*c1", V, 6),
          parse_series("2*z1^2 + s", V, 3)], 0, GaussRational(1),
         parse_series("1/2*z1 + 1/3*c1^2 + 1/5*s^2", V, 6),
         parse_series("c1 + 1/7*z1*s", V, 6),
         parse_series("s + 1/3*z1^2", V, 6))
@example([parse_series("z1 + c1 + s", V, 6),
          parse_series("3*z1 - c1", V, 4)], 1, GaussRational(Fraction(2, 3)),
         parse_series("1/7*z1*c1 + s", V, 6),
         parse_series("2/3*z1*c1 + 3/7*s", V, 5),
         parse_series("(-17/21)*z1*c1 + 1/1029*s^2", V, 6))
@settings(max_examples=30, deadline=None)
def test_substitute_matches_sympy(members, t_const, c, g1, g2, g3):
    # one batched substitution: members of different truncs, a
    # constant-only member, and an image that no member uses (a unit of
    # trunc 0, which would raise, or cut every trunc to 0, if it were
    # read); each result equals the member substituted alone, terms and
    # trunc
    members = members + [Series.const(c, V, t_const)]
    images = {**dict(zip(V, (g1, g2, g3))),
              "t": Series.const(1, V, 0) + sv("z1")}
    outs = substitute(members, images)
    assert len(outs) == len(members)
    for f, out in zip(members, outs):
        used = [name for i, name in enumerate(V) if any(e[i] for e in f.terms)]
        trunc = min([f.trunc] + [images[name].trunc for name in used])
        assert out.vars == V and out.trunc == trunc
        ref = to_sympy(f).subs({x: to_sympy(images[name])
                                for x, name in zip(SYMBOLS, V)},
                               simultaneous=True)
        assert out.terms == cut(ref, trunc)
        assert f.subs(images) == out and f.subs(images).trunc == out.trunc


def test_substitute_shares_products_across_members(monkeypatch):
    # the image-power products of a monomial are formed once for every
    # member that has it, so a member whose monomials all occur in another
    # adds no product, whatever its trunc; the sympy oracle cannot see this
    V2 = hypersurface_vars(2)
    g1 = parse_series("z1*c1*s + z1*c2*s + z1^2*c1 + z2*c2*s^2"
                      " + z1*z2*c1*c2 + 3", V2, 6)
    g2 = parse_series("2*z1*c1*s - z1^2*c1 + i*z2*c2*s^2", V2, 4)
    images = {x: parse_series(f"{x} + {y}*s", V2, 6)
              for x, y in zip(V2, ("c1", "c2", "z1", "z2", "z1"))}
    mul = Series.__mul__
    count = [0]

    def counted(self, other):
        count[0] += isinstance(other, Series)
        return mul(self, other)
    monkeypatch.setattr(Series, "__mul__", counted)

    def products(members):
        count[0] = 0
        outs = substitute(members, images)
        return count[0], outs

    alone, (out1,) = products([g1])
    together, outs = products([g1, g2])
    assert alone > 0 and together == alone
    assert outs == [out1, g2.subs(images)]


def test_substitute_errors():
    z, s = sv("z1"), sv("s")
    members = [z * s, Series.const(2, V, T)]
    with pytest.raises(ValueError,
                       match=r"no substitution supplied for \['s'\]"):
        substitute(members, {"z1": z})
    other = Series.variable("t", ("t",), T)
    with pytest.raises(ValueError, match="mixed variable tuples"):
        substitute(members, {"z1": z, "s": other})
    with pytest.raises(ValueError, match="nonzero constant term"):
        substitute(members, {"z1": z, "s": s + Series.const(1, V, T)})
    with pytest.raises(ValueError, match="mixed variable tuples"):
        substitute([z, other], {"z1": z, "t": other})
    assert substitute([], {"z1": z}) == []


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
    # const and variable skip the checks but are canonical all the same
    assert Series.const(0, V, 3).terms == {}
    assert Series.variable("z1", V, 0).terms == {}
    half = Series.const(Fraction(1, 2), list(V), -1)
    assert half.vars == V and half.trunc == 0
    assert half.terms == {(0, 0, 0): GaussRational(Fraction(1, 2))}


# -- one-term products: a constant or a monomial times a series ---------------

nonzero_gauss = gauss.filter(lambda c: not c.is_zero())


@st.composite
def one_term_and_other(draw):
    """(a, b) with a one-term series a: the constant 1, another constant,
    or a monomial of degree at b's trunc, one past it or anywhere, at a
    trunc of its own (so the operand truncs differ)."""
    b = draw(any_series)
    kind = draw(st.sampled_from(["one", "const", "at", "past", "any"]))
    c = GaussRational(1) if kind == "one" else draw(nonzero_gauss)
    deg = {"one": 0, "const": 0, "at": b.trunc, "past": b.trunc + 1}.get(kind)
    if deg is None:
        deg = draw(st.integers(0, 7))
    i = draw(st.integers(0, deg))
    j = draw(st.integers(0, deg - i))
    e = (i, j, deg - i - j)
    return Series(V, draw(st.integers(deg, 8)), {e: c}), b


@given(one_term_and_other())
@example((Series.const(1, V, 6), Series(V, 3, {(1, 0, 2): GaussRational(2)})))
@example((Series.const(1, V, 2), Series(V, 5, {(1, 0, 2): GaussRational(2),
                                              (0, 1, 0): GaussRational(1)})))
@settings(max_examples=100, deadline=None)
def test_one_term_products_match_sympy(pair):
    a, b = pair
    trunc = min(a.trunc, b.trunc)
    ref = cut(to_sympy(a) * to_sympy(b), trunc)
    for x, y in ((a, b), (b, a)):
        prod = x * y
        assert prod.trunc == trunc
        assert prod.terms == ref
        assert all(not c.is_zero() for c in prod.terms.values())


# -- differential oracle for the parser: the literal evaluated as a Series ----
# This is the parser as it was before it kept one-term values as
# (coefficient, exponents) pairs: every atom is a Series and every
# operation a Series operation, and it tokenizes with one match per token.

_ORACLE_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


class OracleLexer:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos, n = 0, len(text)
        while pos < n:
            m = _ORACLE_TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:]
                if rest.strip() == "":
                    break
                line, col = self._loc(pos + len(rest) - len(rest.lstrip()))
                raise ParseError(f"unexpected character {rest.strip()[0]!r}",
                                 line, col)
            if m.group(1) is not None:
                self.tokens.append(("INT", m.group(1), m.start(1)))
            elif m.group(2) is not None:
                self.tokens.append(("NAME", m.group(2), m.start(2)))
            else:
                self.tokens.append(("OP", m.group(3), m.start(3)))
            pos = m.end()
        self.idx = 0

    def _loc(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def peek(self):
        if self.idx < len(self.tokens):
            return self.tokens[self.idx]
        return ("EOF", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        line, col = self._loc(tok[2])
        raise ParseError(msg, line, col)


def _oracle_bits(coeffs):
    return max((c.height() for c in coeffs), default=0).bit_length()


def _oracle_degree(s):
    return max(map(sum, s.terms), default=0)


class OracleParser:
    def __init__(self, lexer, vars, trunc):
        self.lx = lexer
        self.vars = vars
        self.trunc = trunc
        self.dropped = False

    def parse(self):
        result = self.expr()
        tok = self.lx.peek()
        if tok[0] != "EOF":
            self.lx.error(f"unexpected token {tok[1]!r}")
        return result

    def expr(self):
        kind, val, _ = self.lx.peek()
        negate = False
        if kind == "OP" and val in "+-":
            self.lx.next()
            negate = val == "-"
        first = self.term()
        acc = {e: -c if negate else c for e, c in first.terms.items()}
        while True:
            kind, val, _ = self.lx.peek()
            if kind == "OP" and val in "+-":
                tok = self.lx.next()
                rhs = self.term()
                for e, c in rhs.terms.items():
                    cur = acc.get(e)
                    s = c if val == "+" else -c
                    if cur is not None:
                        s = cur + s
                    if s.is_zero():
                        del acc[e]
                    else:
                        acc[e] = s
                self._check_bits(_oracle_bits(acc[e] for e in rhs.terms
                                              if e in acc), tok)
            else:
                return Series(self.vars, self.trunc, acc)

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.lx.peek()
            if kind == "OP" and val in "*/":
                tok = self.lx.next()
                rhs = self.factor()
                if val == "*":
                    self._note_degree(_oracle_degree(acc) + _oracle_degree(rhs))
                    acc = acc * rhs
                else:
                    try:
                        inv = rhs.reciprocal()
                    except UnitRequiredError:
                        self.lx.error("division by a non-unit series", tok)
                    if _oracle_degree(rhs) > 0 and not acc.is_zero():
                        self.dropped = True
                    acc = acc * inv
                self._check_bits(_oracle_bits(acc.terms.values()), tok)
            else:
                return acc

    def factor(self):
        kind, val, _ = self.lx.peek()
        if kind == "OP" and val in "+-":
            self.lx.next()
            inner = self.factor()
            return -inner if val == "-" else inner
        base = self.atom()
        kind, val, _ = self.lx.peek()
        if kind == "OP" and val == "^":
            op = self.lx.next()
            tok = self.lx.next()
            if tok[0] != "INT":
                self.lx.error("exponent must be a nonnegative integer", tok)
            exp = tok[1].lstrip("0") or "0"
            if len(exp) > len(str(MAX_EXPONENT)) or int(exp) > MAX_EXPONENT:
                self.lx.error(f"exponent {tok[1]} exceeds {MAX_EXPONENT}", tok)
            k = int(exp)
            self._check_bits(k * _oracle_bits(base.terms.values()), op)
            self._note_degree(k * _oracle_degree(base))
            base = base ** k
            self._check_bits(_oracle_bits(base.terms.values()), op)
        return base

    def _note_degree(self, degree):
        if degree > self.trunc:
            self.dropped = True

    def _check_bits(self, bits, tok):
        if bits > MAX_COEFF_BITS:
            self.lx.error(f"coefficient exceeds {MAX_COEFF_BITS} bits", tok)

    def atom(self):
        tok = self.lx.next()
        kind, val, _ = tok
        if kind == "INT":
            digits = val.lstrip("0") or "0"
            self._check_bits((len(digits) - 1) * 33 // 10, tok)
            value = int(digits)
            self._check_bits(value.bit_length(), tok)
            return Series.const(value, self.vars, self.trunc)
        if kind == "NAME":
            if val == "i":
                return Series.const(GaussRational(0, 1), self.vars, self.trunc)
            if val not in self.vars:
                self.lx.error(f"unknown variable {val!r} "
                              f"(expected one of {', '.join(self.vars)})", tok)
            self._note_degree(1)
            return Series.variable(val, self.vars, self.trunc)
        if kind == "OP" and val == "(":
            inner = self.expr()
            close = self.lx.next()
            if close[:2] != ("OP", ")"):
                self.lx.error("expected ')'", close)
            return inner
        self.lx.error(f"unexpected token {val!r}" if val else
                      "unexpected end of input", tok)


def parse_outcome(text, trunc, oracle):
    """What parsing gives: the literal, trunc and drop flag, or the
    error's message, reason, line and column."""
    try:
        if oracle:
            parser = OracleParser(OracleLexer(text), V, trunc)
            s, dropped = parser.parse(), parser.dropped
        else:
            s, dropped = parse_series(text, V, trunc), drops_terms(text, V, trunc)
    except ParseError as exc:
        return ("error", str(exc), exc.reason, exc.line, exc.col)
    return ("ok", s.to_literal(), s.trunc, dropped)


# atoms: zero, ones, constants a division by which is not exact, the unit
# i, the variables, an unknown name, and coefficients near the bit bound
LITERAL_ATOMS = ["0", "00", "1", "2", "3", "7", "49", "123456789", "i",
                 "z1", "c1", "s", "z2", "2^1000", "(2^1000)^13", "3^800"]
# divisors: constants, units, non-units and zero
DIVISORS = ["49", "7", "(1+s)", "(2-z1*c1)", "(3/2+i)", "(i - s^2)", "(i)",
            "z1", "(z1+s)", "0", "(1-1)", "(s^4+1)"]
SPACES = st.sampled_from(["", "", " ", "\n"])
EXPONENTS = st.sampled_from(["0", "00", "0", "1", "2", "3", "5", "9", "12",
                             "1000", "1001", "z1", ""])


def _joined(parts):
    return st.tuples(*parts).map("".join)


literal_texts = st.recursive(
    st.sampled_from(LITERAL_ATOMS),
    lambda inner: st.one_of(
        _joined([inner, SPACES, st.sampled_from("+-*/"), SPACES, inner]),
        _joined([inner, st.just("/"), st.sampled_from(DIVISORS)]),
        _joined([st.just("("), inner, st.just(")")]),
        _joined([st.sampled_from(["-", "+", "2*-", "--"]), inner]),
        _joined([st.just("("), inner, st.just(")^"), EXPONENTS]),
        _joined([inner, st.just("*"),
                 st.sampled_from(["z1", "c1", "s", "0", "2", "i", "(1+s)"]),
                 st.just("^"), EXPONENTS]),
    ),
    max_leaves=10)
# one literal in four gets a stray character, bracket or operator
noisy_texts = st.one_of(literal_texts, literal_texts, literal_texts, st.tuples(
    literal_texts, st.integers(0, 40),
    st.sampled_from(["#", "@", ")", "(", "*", "^", "  ", "\n", "x", "1.5"])).map(
    lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]))


@given(noisy_texts, st.integers(0, 6))
@example("0^0*z1", 3)
@example("(z1^9)^0", 3)
@example("0^0", 0)
@example("-z1*2*-c1^2", 4)
@example("z1/49 + c1/(1+s) - s/(z1+s)", 3)
@example("((z1 + (c1*s)^2)*(1 - s))^3", 5)
@example("s*z1*c1^2 + z1^4 - z1^4", 3)
@example("(2^1000)^14 * 2", 6)
@example("z1 +\n  c1 # comment", 2)
@example("z1 + c1 ", 2)
@settings(max_examples=500, deadline=None)
def test_parser_matches_series_oracle(text, trunc):
    assert parse_outcome(text, trunc, False) == parse_outcome(text, trunc, True)


# -- differential oracle for the printer ----------------------------------------
# This is the printer as it was before it read the (a, b, d) triple: four
# Fractions per term, from GaussRational.re and .im.

def _oracle_frac_str(f):
    num = _int_str(f.numerator)
    return num if f.denominator == 1 else f"{num}/{_int_str(f.denominator)}"


def oracle_format_coefficient(c):
    re, im = c.re, c.im
    if im == 0:
        return _oracle_frac_str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{_oracle_frac_str(im)}*i"
    sign = "+" if im > 0 else "-"
    imabs = abs(im)
    impart = "i" if imabs == 1 else f"{_oracle_frac_str(imabs)}*i"
    return f"({_oracle_frac_str(re)}{sign}{impart})"


def oracle_to_literal(s):
    if not s.terms:
        return "0"
    items = sorted(s.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    out = []
    for exps, c in items:
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(s.vars, exps) if e)
        sign = "+"
        if c.im == 0 and c.re < 0:
            sign, c = "-", -c
        elif c.re == 0 and c.im < 0:
            sign, c = "-", -c
        cs = oracle_format_coefficient(c)
        if mono:
            body = mono if cs == "1" else f"{cs}*{mono}"
        else:
            body = cs
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


# parts: zero, +-1 (so +-1 and +-i coefficients), small fractions, and
# numerators and denominators past _STR_BITS, which print in pieces
huge = st.integers(2 ** _STR_BITS, 2 ** (_STR_BITS + 200))
parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), rationals,
    st.builds(Fraction, st.one_of(huge, huge.map(lambda x: -x)),
              st.one_of(st.just(1), st.integers(2, 50), huge)))
printed = st.one_of(
    st.builds(GaussRational, parts, parts),
    st.builds(GaussRational, st.just(0), parts),      # pure imaginary
    st.builds(GaussRational, parts))                   # real
printed_series = st.tuples(
    st.dictionaries(exponents, printed, max_size=6), truncs).map(
    lambda t: Series(V, t[1], t[0]))


@given(printed_series)
@example(Series(V, T, {(0, 0, 0): GaussRational(1), (1, 0, 0): GaussRational(-1),
                       (0, 1, 0): GaussRational(0, 1),
                       (0, 0, 1): GaussRational(0, -1),
                       (1, 1, 0): GaussRational(Fraction(-3, 2), 1),
                       (1, 0, 1): GaussRational(0, Fraction(-2, 3)),
                       (0, 1, 1): GaussRational(Fraction(1, 2), -1)}))
@example(Series(V, T, {(0, 0, 0): GaussRational(-(3 ** 2000), 7 ** 800),
                       (2, 0, 0): GaussRational(Fraction(1, 3 ** 1300))}))
@settings(max_examples=200, deadline=None)
def test_printer_matches_oracle_and_parses_back(s):
    for c in s.terms.values():
        assert format_coefficient(c) == oracle_format_coefficient(c)
    text = s.to_literal()
    assert text == oracle_to_literal(s)
    back = parse_series(text, s.vars, s.trunc)
    assert back == s and back.trunc == s.trunc
