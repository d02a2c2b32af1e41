"""Exact Gaussian-rational scalars.

All series coefficients in this package are Gaussian rationals
(a + b*i)/d, stored as one triple of Python ints.  The triple is
canonical, d > 0 and gcd(a, b, d) = 1, so equal numbers have equal
triples.  A sum, product or quotient builds one object and reduces it
with one three-way gcd; when both denominators are 1 there is nothing to
reduce.  Arithmetic never rounds.  ``re`` and ``im`` give the reduced
real and imaginary parts as ``Fraction``s, for printing and for bounds
on coefficient size.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from .errors import ValidationError

RationalLike = Union[int, Fraction]

_new = object.__new__
_set = object.__setattr__


class GaussRational:
    """Exact complex number (a + b*i)/d with d > 0 and gcd(a, b, d) = 1.

    ``re`` and ``im`` give the reduced parts; the triple is private.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            p, q = re.denominator, im.denominator
            d = p // gcd(p, q) * q
            # canonical as it stands: a prime's full power in d = lcm(p, q)
            # divides p or q, and so not that part's numerator
            a, b = re.numerator * (d // p), im.numerator * (d // q)
        _set(self, "_a", a)
        _set(self, "_b", b)
        _set(self, "_d", d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def of(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussRational")

    # -- parts and predicates ------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def height(self) -> int:
        """Largest |numerator| or denominator of ``re`` and ``im``."""
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return max(abs(a), abs(b), 1)
        g, h = gcd(a, d), gcd(b, d)
        return max(abs(a) // g, abs(b) // h, d // min(g, h))

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussRational:
            other = GaussRational.of(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d,
                        d * e)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + (-GaussRational.of(other))

    def __rsub__(self, other):
        return GaussRational.of(other) + (-self)

    def __mul__(self, other):
        if type(other) is int:
            # canonical as it stands once gcd(k, d) leaves d: a prime of
            # the new d divides neither k/g nor both a and b
            d = self._d
            if d != 1:
                g = gcd(other, d)
                if g != 1:
                    other //= g
                    d //= g
            return _triple(self._a * other, self._b * other, d)
        if type(other) is not GaussRational:
            other = GaussRational.of(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRational:
            other = GaussRational.of(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        f = other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f,
                        self._d * norm)

    def __rtruediv__(self, other):
        return GaussRational.of(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = GaussRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussRational":
        return _triple(self._a, -self._b, self._d)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if type(other) is GaussRational:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self.re)    # that of the int or Fraction it equals
        return hash((self._a, self._b, self._d))

    # -- conversion / formatting ----------------------------------------------

    def __complex__(self):
        # int / int is correctly rounded, so this equals complex(re, im)
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_coefficient(self)


def to_complex(x: GaussRational, where: str) -> complex:
    """x as a complex float, the one conversion the numeric diagnostics
    make; ValidationError naming ``where`` when x or its modulus is past
    the float range."""
    try:
        z = complex(x)
        abs(z)
    except OverflowError:
        raise ValidationError(
            f"{where}: a coefficient is too large for a float") from None
    return z


def _triple(a: int, b: int, d: int) -> GaussRational:
    """The number with triple (a, b, d), which must already be canonical."""
    out = _new(GaussRational)
    _set(out, "_a", a)
    _set(out, "_b", b)
    _set(out, "_d", d)
    return out


def _reduced(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d in canonical form, for d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _triple(a, b, d)


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)

# str() of an int under 2^2000 (at most 603 digits) is within every
# int-to-str digit limit the interpreter allows (the least is 640)
_STR_BITS = 2000


def _int_str(n: int) -> str:
    """Decimal digits of n, however long: str() alone refuses ints over
    the interpreter's digit limit (4300 by default)."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20        # about half of n's digits
    hi, lo = divmod(n, 10 ** k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def _frac_str(f: Fraction) -> str:
    """``p/q``, or ``p`` when q = 1."""
    num = _int_str(f.numerator)
    return num if f.denominator == 1 else f"{num}/{_int_str(f.denominator)}"


def format_coefficient(c: GaussRational) -> str:
    """Canonical literal form: ``3/2``, ``i``, ``-2*i``, ``(1/2+1/3*i)``."""
    re, im = c.re, c.im
    if im == 0:
        return _frac_str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{_frac_str(im)}*i"
    sign = "+" if im > 0 else "-"
    imabs = abs(im)
    impart = "i" if imabs == 1 else f"{_frac_str(imabs)}*i"
    return f"({_frac_str(re)}{sign}{impart})"
