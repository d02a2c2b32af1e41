from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from crgeom.scalars import GaussRational, format_coefficient

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gauss = st.builds(GaussRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussRational(2, -1)
    assert a + b == GaussRational(Fraction(5, 2), Fraction(-2, 3))
    assert a * GaussRational(0, 1) == GaussRational(Fraction(-1, 3),
                                                    Fraction(1, 2))
    assert (a / a) == GaussRational(1)
    assert -a + a == GaussRational(0)


def test_conjugate_and_complex():
    a = GaussRational(Fraction(3, 4), Fraction(-2, 5))
    assert a.conjugate().im == Fraction(2, 5)
    assert complex(a) == 0.75 - 0.4j


def test_power():
    i = GaussRational(0, 1)
    assert i ** 2 == GaussRational(-1)
    assert i ** 3 == GaussRational(0, -1)
    assert i ** 4 == GaussRational(1)
    assert GaussRational(Fraction(1, 2)) ** 3 == GaussRational(Fraction(1, 8))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRational(1) / GaussRational(0)


@given(gauss, gauss, gauss)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gauss)
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert (a / a) == GaussRational(1)
        assert a * (GaussRational(1) / a) == GaussRational(1)


@given(gauss, gauss)
def test_conjugation_is_a_ring_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_format_coefficient():
    assert format_coefficient(GaussRational(Fraction(3, 2))) == "3/2"
    assert format_coefficient(GaussRational(0, 1)) == "i"
    assert format_coefficient(GaussRational(0, -2)) == "-2*i"
    assert format_coefficient(GaussRational(Fraction(1, 2),
                                            Fraction(1, 3))) == "(1/2+1/3*i)"
    assert format_coefficient(GaussRational(-1)) == "-1"


# -- differential test against a Fraction-pair reference ----------------------
#
# The reference keeps a number as its (re, im) pair of Fractions, the
# representation GaussRational replaced, with the schoolbook formulas.

def ref_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def ref_div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


def ref_pow(p, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_format(p):
    re, im = p
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}*i")
    sign = "+" if im > 0 else "-"
    impart = "i" if abs(im) == 1 else f"{abs(im)}*i"
    return f"({re}{sign}{impart})"


def assert_matches(x, p):
    """x equals the reference pair p, in canonical form."""
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == p
    assert x.height() == max(abs(p[0].numerator), p[0].denominator,
                             abs(p[1].numerator), p[1].denominator)
    assert x == GaussRational(*p) and hash(x) == hash(GaussRational(*p))
    assert format_coefficient(x) == ref_format(p)
    assert x.conjugate().im == -p[1]
    assert (x.conjugate() == x) == (x.im == 0) == (p[1] == 0)


wide_rationals = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200),
              st.integers(1, 2 ** 200)))


@given(wide_rationals, wide_rationals, wide_rationals, wide_rationals,
       st.integers(0, 5))
def test_matches_fraction_pair_reference(r1, i1, r2, i2, k):
    x, y = GaussRational(r1, i1), GaussRational(r2, i2)
    p, q = (r1, i1), (r2, i2)
    assert_matches(x, p)
    assert_matches(x + y, ref_add(p, q))
    assert_matches(x - y, ref_add(p, (-r2, -i2)))
    assert_matches(-x, (-r1, -i1))
    assert_matches(x * y, ref_mul(p, q))
    assert_matches(x ** k, ref_pow(p, k))
    assert_matches(x.conjugate(), (r1, -i1))
    if q != (0, 0):
        assert_matches(x / y, ref_div(p, q))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    # mixed operands: Fraction and int on either side
    assert_matches(x + r2, ref_add(p, (r2, 0)))
    assert_matches(r2 - x, ref_add((r2, 0), (-r1, -i1)))
    assert_matches(r2 * x, ref_mul(p, (r2, 0)))
    if p != (0, 0):
        assert_matches(r2 / x, ref_div((r2, 0), p))
    assert_matches(x * 3 + 1, ref_add(ref_mul(p, (3, 0)), (1, 0)))
    # == against int and Fraction, with hashes that agree
    assert (x == r1) == (i1 == 0)
    assert (x == r1.numerator) == (i1 == 0 and r1.denominator == 1)
    assert (x == r2) == (p == (r2, 0))
    assert (x == r2.numerator) == (p == (r2.numerator, 0))
    assert GaussRational(r1) == r1 and hash(GaussRational(r1)) == hash(r1)
    assert (x == y) == (p == q)


def test_canonical_triple_and_hash():
    half = GaussRational(Fraction(1, 2))
    assert GaussRational(Fraction(2, 4)) == half
    assert hash(GaussRational(Fraction(2, 4))) == hash(half)
    assert hash(half) == hash(Fraction(1, 2))
    assert (half._a, half._b, half._d) == (1, 0, 2)
    x = GaussRational(Fraction(1, 2), Fraction(-1, 4))     # (2 - i)/4
    assert (x._a, x._b, x._d) == (2, -1, 4)
    y = (GaussRational(Fraction(3, 4), Fraction(1, 4))
         + GaussRational(Fraction(1, 4), Fraction(1, 4)))
    assert (y._a, y._b, y._d) == (2, 1, 2)      # (4 + 2i)/4 in lowest terms
    assert GaussRational(7) == 7 and hash(GaussRational(7)) == hash(7)
    assert len({GaussRational(Fraction(6, 3), 1), GaussRational(2, 1)}) == 1
    with pytest.raises(AttributeError):
        half.re = Fraction(1)


def _decimal_value(text):
    """The integer a decimal string spells, read in chunks short enough for
    int() under the interpreter's digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    assert digits.isdigit() and (digits == "0" or digits[0] != "0")
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


@pytest.mark.parametrize("n", [10 ** 5000, 10 ** 5000 - 1, -(10 ** 5000 + 1),
                               2 ** 50000, 3 ** 20000 * 10 ** 3000 + 7],
                         ids=["10^5000", "10^5000-1", "-(10^5000+1)",
                              "2^50000", "3^20000*10^3000+7"])
def test_format_coefficient_past_the_int_str_limit(n):
    assert _decimal_value(format_coefficient(GaussRational(n))) == n
    inverse = format_coefficient(GaussRational(Fraction(1, abs(n))))
    num, den = inverse.split("/")
    assert num == "1" and _decimal_value(den) == abs(n)
    im = format_coefficient(GaussRational(0, n))
    assert im.endswith("*i") and _decimal_value(im[:-2]) == n
