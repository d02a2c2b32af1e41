"""Parser for the series literal DSL.

Accepted syntax: sums/differences of terms like ``3/2*z1^2*c1*s``,
``(1/2+1/3*i)*z2``, the imaginary unit ``i``, parenthesized
subexpressions, and division by unit subexpressions.  Whitespace is
insignificant; ``^`` denotes powers with nonnegative integer exponents
of at most ``MAX_EXPONENT``, and no numerator or denominator may exceed
``MAX_COEFF_BITS`` bits, so a short literal cannot demand unbounded work
and its own coefficients stay printable.  Truncation orders are at most
``MAX_TRUNC`` and dimensions at most ``MAX_DIM``.
Which variable names are legal depends on context (z1..zn, c1..cn, s, t,
w, y1..yN) and is supplied by the caller as the variable tuple; the
caller may also bind names to rationals (the base point x1..x2n of a
prolongation), which then read as constants of degree 0, like ``i``.

One ``findall`` call lexes a literal into parallel lists of token kinds
and texts, closed by an EOF sentinel; a token's line and column are
worked out only for an error message.  A literal is then built term by
term: while a value is one term it is kept as a monomial ``(a, b, d, e)``,
the Gaussian integer ``a + b*i`` over ``d > 0`` (not necessarily in
lowest terms) times ``x^e``, and products, signs, sums and division by a
nonzero constant act on those ints with no gcd.  A variable is one dict
lookup, and a factor 1 is skipped.  Each coefficient is reduced once, when
it is stored in a ``Series``; the bit bound first compares the largest
part of the unreduced triple, which is exact because a reduced number's
numerators and denominator are at most ``max(|a|, |b|, d)``, and reduces
only past it.  Only parenthesized sums of several terms, division by a
non-constant unit and powers of sums use ``Series`` arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import add as _add
from typing import Dict, Mapping, Optional, Tuple

from .errors import ParseError, UnitRequiredError
from .scalars import _reduced
from .series import Series

MAX_EXPONENT = 1000
# bound on --trunc, --order and the trunc/order keys of input files, so
# a command line or a short file cannot demand unbounded work; above
# every truncation order the tests, demos and benchmark use
MAX_TRUNC = 64
# bound on the n key of hypersurface and map files, N of bb files and n, k
# of prolongation files, whose jet variables number (2n+1) C(k+2n+1, k);
# above every dimension the tests, demos and benchmark use
MAX_DIM = 4
# below the 4300 decimal digits (about 14284 bits) Python will convert
# between int and str by default
MAX_COEFF_BITS = 14000

_TOKEN_RE = re.compile(
    r"(\s*)(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()])|(\S))")


def _coeff_bits(coeffs) -> int:
    """Largest bit length of a numerator or denominator of the real and
    imaginary parts, in lowest terms, of the coefficients."""
    return max((c.height() for c in coeffs), default=0).bit_length()


# A parsed value is a Series, or while it is one term a monomial
# (a, b, d, e): the number (a + b*i)/d, d > 0 and not necessarily in
# lowest terms, times x^e; zero when a = b = 0, else of degree <= trunc.

def _degree(v) -> int:
    """Largest total degree of a term of v (0 when v is zero)."""
    if type(v) is tuple:
        return sum(v[3])
    return max(map(sum, v.terms), default=0)


def _bits(v) -> int:
    """The bit bound's measure of v: its coefficients' largest height."""
    if type(v) is tuple:
        return _coeff_bits([_reduced(*v[:3])]) if v[0] or v[1] else 0
    return _coeff_bits(v.terms.values())


def _neg(v):
    return (-v[0], -v[1], v[2], v[3]) if type(v) is tuple else -v


def _raw_terms(v):
    """v's terms as (exponents, (a, b, d)) pairs."""
    if type(v) is tuple:
        return ((v[3], v[:3]),) if v[0] or v[1] else ()
    return [(e, (c._a, c._b, c._d)) for e, c in v.terms.items()]


@lru_cache(maxsize=64)
def _names(vars: Tuple[str, ...], degree_1: bool) -> Dict[str, tuple]:
    """The monomial of each variable, built once per variable tuple (zero
    when the truncation keeps no degree 1)."""
    one = (0,) * len(vars)
    return {v: (1, 0, 1, one[:k] + (1,) + one[k + 1:]) if degree_1
            else (0, 0, 1, one) for k, v in enumerate(vars)}


class _Parser:
    """Recursive descent over the tokens of one literal.

    One ``findall`` lexes the text into parallel lists closed by an
    ``EOF`` sentinel: ``kinds`` holds an operator's own character, or
    ``INT`` or ``NAME``, and ``vals`` the token's text.  A token's
    position is worked out only for an error message."""

    def __init__(self, text: str, vars: Tuple[str, ...], trunc: int,
                 values: Optional[Mapping[str, Fraction]] = None):
        self.text = text
        # the matches tile the text up to trailing whitespace: past
        # whitespace any character starts one (group 5 takes the
        # unexpected ones)
        self.toks = toks = _TOKEN_RE.findall(text)
        kinds = [op or ("INT" if num else "NAME" if name else "")
                 for _, num, name, op, _ in toks]
        if "" in kinds:
            idx = kinds.index("")
            self._error(f"unexpected character {toks[idx][4]!r}", idx)
        self.kinds = kinds + ["EOF"]
        self.vals = [num or name or op for _, num, name, op, _ in toks] + [""]
        self.i = 0
        self.vars = vars
        self.trunc = trunc
        self.cut = cut = max(trunc, 0)      # the truncation a Series keeps
        self.names = _names(vars, cut > 0)
        self.one = one = (0,) * len(vars)
        self.zero = (0, 0, 1, one)
        # the bound names and the unit i: monomials of degree 0
        self.constants = {name: (x.numerator, 0, x.denominator, one)
                          for name, x in (values or {}).items()}
        if not self.names.keys().isdisjoint(self.constants):
            raise ValueError("a name cannot be both a variable and bound")
        self.constants["i"] = (0, 1, 1, one)
        # set when truncation may have dropped a term of the literal
        self.dropped = False

    def _error(self, msg: str, idx: int):
        """Raise a ParseError at token ``idx`` (the end for the sentinel)."""
        toks, text = self.toks, self.text
        pos = len(text) if idx >= len(toks) else \
            sum(len("".join(t)) for t in toks[:idx]) + len(toks[idx][0])
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        raise ParseError(msg, line, col)

    def parse(self) -> Series:
        result = self.expr()
        if self.kinds[self.i] != "EOF":
            self._error(f"unexpected token {self.vals[self.i]!r}", self.i)
        return self._series(result)

    def _series(self, v) -> Series:
        if type(v) is tuple:
            a, b, d, e = v
            return Series._trusted(self.vars, self.trunc,
                                   {e: _reduced(a, b, d)} if a or b else {})
        return v

    def _fit(self, a: int, b: int, d: int, idx: int):
        """The triple, reduced when a part is past MAX_COEFF_BITS; a
        ParseError at token ``idx`` when the reduced number is too.  The
        reduced number's height is at most max(|a|, |b|, d), so a triple
        within the bound needs no gcd."""
        if max(a.bit_length(), b.bit_length(),
               d.bit_length()) <= MAX_COEFF_BITS:
            return a, b, d
        c = _reduced(a, b, d)
        self._check_bits(_coeff_bits([c]), idx)
        return c._a, c._b, c._d

    def _check_bits(self, bits: int, idx: int) -> None:
        if bits > MAX_COEFF_BITS:
            self._error(f"coefficient exceeds {MAX_COEFF_BITS} bits", idx)

    def _note_degree(self, degree: int) -> None:
        """Record a result whose untruncated terms reach ``degree``."""
        if degree > self.trunc:
            self.dropped = True

    def expr(self):
        kinds = self.kinds
        sign = kinds[self.i]
        if sign == "+" or sign == "-":
            self.i += 1
        acc = self.term()
        if sign == "-":
            acc = _neg(acc)
        kind = kinds[self.i]
        if kind != "+" and kind != "-":
            return acc
        # a sum's terms accumulate in one dict of triples, reduced once
        # each when the series is built
        acc = dict(_raw_terms(acc))
        while kind == "+" or kind == "-":
            op = self.i
            self.i += 1
            rhs = _raw_terms(self.term())
            for e, (a, b, d) in rhs:
                if kind == "-":
                    a, b = -a, -b
                cur = acc.get(e)
                if cur is not None:
                    x, y, f = cur
                    if f == d:
                        a, b = a + x, b + y
                    else:
                        a, b, d = a * f + x * d, b * f + y * d, d * f
                if a or b:
                    acc[e] = self._fit(a, b, d, op)
                elif cur is not None:
                    del acc[e]
            kind = kinds[self.i]
        if len(acc) > 1:
            return Series._trusted(self.vars, self.trunc, {
                e: _reduced(a, b, d) for e, (a, b, d) in acc.items()})
        # a sum of one term, such as (2/7+4/7*i), stays a monomial
        return next(((a, b, d, e) for e, (a, b, d) in acc.items()), self.zero)

    def term(self):
        acc = self.factor()
        kinds = self.kinds
        while kinds[self.i] == "*" or kinds[self.i] == "/":
            op = self.i
            kind = kinds[op]
            self.i += 1
            rhs = self.factor()
            if kind == "/" and type(rhs) is tuple:
                c, f, g, e = rhs
                if any(e) or not (c or f):
                    self._error("division by a non-unit series", op)
                # 1 / ((c + f i)/g) = g (c - f i) / (c^2 + f^2)
                rhs = (g * c, -g * f, c * c + f * f, e)
            elif kind == "/":
                try:
                    quotient = self._series(acc) / rhs
                except UnitRequiredError:
                    self._error("division by a non-unit series", op)
                if _degree(rhs) > 0 and _raw_terms(acc):
                    self.dropped = True     # 1/rhs has no last term
                acc = quotient
                self._check_bits(_bits(acc), op)
                continue
            if type(acc) is tuple and type(rhs) is tuple:
                a, b, d, e = acc
                c, f, g, e2 = rhs
                # a constant shares its partner's tuple: 51 KB at J(4, 4)
                e = e2 if e is self.one else e if e2 is self.one else \
                    tuple(map(_add, e, e2))
                degree = sum(e)
                if kind == "*" and degree > self.trunc:
                    self.dropped = True
                if degree > self.cut or not (a or b) or not (c or f):
                    acc = self.zero
                elif (c, f, g) == (1, 0, 1):
                    acc = (a, b, d, e)
                else:
                    acc = (*self._fit(a * c - b * f, a * f + b * c, d * g,
                                      op), e)
                continue
            if kind == "*":
                self._note_degree(_degree(acc) + _degree(rhs))
            acc = self._series(acc) * self._series(rhs)
            self._check_bits(_bits(acc), op)
        return acc

    def factor(self):
        kind = self.kinds[self.i]
        if kind == "+" or kind == "-":
            self.i += 1
            inner = self.factor()
            return _neg(inner) if kind == "-" else inner
        base = self.atom()
        op = self.i
        if self.kinds[op] != "^":
            return base
        tok = op + 1
        self.i += 2
        if self.kinds[tok] != "INT":
            self._error("exponent must be a nonnegative integer", tok)
        text = self.vals[tok]
        exp = text.lstrip("0") or "0"
        if len(exp) > len(str(MAX_EXPONENT)) or int(exp) > MAX_EXPONENT:
            self._error(f"exponent {text} exceeds {MAX_EXPONENT}", tok)
        k = int(exp)
        if type(base) is tuple and base[:3] == (1, 0, 1):
            # 1^k is 1, whose bits pass the bound for every k
            e = tuple(x * k for x in base[3])
            self._note_degree(sum(e))
            return (1, 0, 1, e) if sum(e) <= self.cut else self.zero
        # a power's coefficients have at most k times the bits of the
        # base's when the base is a monomial; refuse before the work
        self._check_bits(k * _bits(base), op)
        self._note_degree(k * _degree(base))
        if type(base) is tuple:
            e = tuple(x * k for x in base[3])
            if sum(e) > self.cut:
                return self.zero
            c = _reduced(*base[:3]) ** k
            base = self.zero if c.is_zero() else (c._a, c._b, c._d, e)
        else:
            base = base ** k
        self._check_bits(_bits(base), op)
        return base

    def atom(self):
        idx = self.i
        self.i += 1
        kind, val = self.kinds[idx], self.vals[idx]
        if kind == "NAME":
            v = self.names.get(val)
            if v is not None:
                self._note_degree(1)
                return v
            v = self.constants.get(val)
            if v is None:
                self._error(f"unknown variable {val!r} "
                            f"(expected one of {', '.join(self.vars)})", idx)
            return v
        if kind == "INT":
            digits = val.lstrip("0") or "0"
            # d digits carry more than 3.3 * (d - 1) bits; test that before
            # int() refuses a literal over its digit limit
            self._check_bits((len(digits) - 1) * 33 // 10, idx)
            value = int(digits)
            self._check_bits(value.bit_length(), idx)
            return (value, 0, 1, self.one)
        if kind == "(":
            inner = self.expr()
            if self.kinds[self.i] != ")":
                self._error("expected ')'", self.i)
            self.i += 1
            return inner
        self._error(f"unexpected token {val!r}" if val else
                    "unexpected end of input", idx)


def parse_series(text: str, vars: Tuple[str, ...], trunc: int,
                 values: Optional[Mapping[str, Fraction]] = None) -> Series:
    """Parse a series literal over the given variable tuple and truncation,
    reading each name in ``values`` as its rational; a name cannot be
    both a variable and bound."""
    return _Parser(text, tuple(vars), trunc, values).parse()


def drops_terms(text: str, vars: Tuple[str, ...], trunc: int) -> bool:
    """Whether parsing the literal at ``trunc`` may drop a term of degree
    above ``trunc``; False means the parsed series is the literal exactly."""
    parser = _Parser(text, tuple(vars), trunc)
    parser.parse()
    return parser.dropped
