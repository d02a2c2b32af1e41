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
w, y1..yN, x1..x2n) and is supplied by the caller as the variable tuple.

A literal is built term by term: while a value is one term it is kept as
a (coefficient, exponent tuple) pair, and products, powers, signs and
division by a nonzero constant act on the pair.  Only parenthesized sums
of several terms, division by a non-constant unit and powers of sums use
``Series`` arithmetic.  The lexer tokenizes in one pass.
"""

from __future__ import annotations

import re
from operator import add as _add
from typing import Tuple

from .errors import ParseError, UnitRequiredError
from .scalars import I, ONE, ZERO, GaussRational
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
    r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()])|(\S))")
_KINDS = (None, "INT", "NAME", "OP")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        # finditer skips nothing: past whitespace any character starts a
        # match (group 4 takes the unexpected ones), so only trailing
        # whitespace goes unmatched
        for m in _TOKEN_RE.finditer(text):
            group = m.lastindex
            if group == 4:
                line, col = self._loc(m.start(4))
                raise ParseError(f"unexpected character {m.group(4)!r}",
                                 line, col)
            self.tokens.append((_KINDS[group], m.group(group), m.start(group)))
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


def _coeff_bits(coeffs) -> int:
    """Largest bit length of a numerator or denominator of the real and
    imaginary parts, in lowest terms, of the coefficients."""
    return max((c.height() for c in coeffs), default=0).bit_length()


# A parsed value is a Series, or while it is one term a monomial
# (coefficient, exponent tuple): zero, or nonzero of degree <= trunc.

def _degree(v) -> int:
    """Largest total degree of a term of v (0 when v is zero)."""
    if type(v) is tuple:
        return sum(v[1])
    return max(map(sum, v.terms), default=0)


def _bits(v) -> int:
    if type(v) is tuple:
        return 0 if v[0].is_zero() else v[0].height().bit_length()
    return _coeff_bits(v.terms.values())


def _neg(v):
    return (-v[0], v[1]) if type(v) is tuple else -v


def _terms(v):
    if type(v) is tuple:
        return () if v[0].is_zero() else ((v[1], v[0]),)
    return v.terms.items()


class _Parser:
    def __init__(self, lexer: _Lexer, vars: Tuple[str, ...], trunc: int):
        self.lx = lexer
        self.vars = vars
        self.trunc = trunc
        self.cut = max(trunc, 0)        # the truncation a Series keeps
        self.zero = (ZERO, (0,) * len(vars))
        # set when truncation may have dropped a term of the literal
        self.dropped = False

    def parse(self) -> Series:
        result = self.expr()
        tok = self.lx.peek()
        if tok[0] != "EOF":
            self.lx.error(f"unexpected token {tok[1]!r}")
        return self._series(result)

    def _mono(self, c: GaussRational, e: Tuple[int, ...]):
        """The monomial c * x^e, or zero when c is 0 or e past trunc."""
        return self.zero if c.is_zero() or sum(e) > self.cut else (c, e)

    def _series(self, v) -> Series:
        if type(v) is tuple:
            return Series._trusted(self.vars, self.trunc, dict(_terms(v)))
        return v

    def expr(self):
        kind, val, _ = self.lx.peek()
        negate = False
        if kind == "OP" and val in "+-":
            self.lx.next()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = _neg(acc)
        kind, val, _ = self.lx.peek()
        if not (kind == "OP" and val in "+-"):
            return acc
        # a sum's terms accumulate in one dict, built into a series once
        acc = dict(_terms(acc))
        while kind == "OP" and val in "+-":
            tok = self.lx.next()
            rhs = _terms(self.term())
            for e, c in rhs:
                cur = acc.get(e)
                s = c if val == "+" else -c
                if cur is not None:
                    s = cur + s
                if s.is_zero():
                    del acc[e]
                else:
                    acc[e] = s
            # only the coefficients at rhs's exponents changed
            self._check_bits(_coeff_bits(acc[e] for e, _ in rhs if e in acc),
                             tok)
            kind, val, _ = self.lx.peek()
        if len(acc) > 1:
            return Series._trusted(self.vars, self.trunc, acc)
        # a sum of one term, such as (2/7+4/7*i), stays a monomial
        return next(((c, e) for e, c in acc.items()), self.zero)

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.lx.peek()
            if not (kind == "OP" and val in "*/"):
                return acc
            tok = self.lx.next()
            rhs = self.factor()
            if val == "*":
                self._note_degree(_degree(acc) + _degree(rhs))
                if type(acc) is tuple and type(rhs) is tuple:
                    e = tuple(map(_add, acc[1], rhs[1]))
                    acc = self.zero if sum(e) > self.cut else \
                        self._mono(acc[0] * rhs[0], e)
                else:
                    acc = self._series(acc) * self._series(rhs)
            elif type(rhs) is tuple:
                c, e = rhs
                if c.is_zero() or any(e):
                    self.lx.error("division by a non-unit series", tok)
                acc = self._mono(acc[0] / c, acc[1]) if type(acc) is tuple \
                    else acc * (ONE / c)
            else:
                try:
                    inv = rhs.reciprocal()
                except UnitRequiredError:
                    self.lx.error("division by a non-unit series", tok)
                if _degree(rhs) > 0 and _terms(acc):
                    self.dropped = True     # 1/rhs has no last term
                acc = self._series(acc) * inv
            self._check_bits(_bits(acc), tok)

    def factor(self):
        kind, val, _ = self.lx.peek()
        if kind == "OP" and val in "+-":
            self.lx.next()
            inner = self.factor()
            return _neg(inner) if val == "-" else inner
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
            # a power's coefficients have at most k times the bits of the
            # base's when the base is a monomial; refuse before the work
            self._check_bits(k * _bits(base), op)
            self._note_degree(k * _degree(base))
            if type(base) is tuple:
                e = tuple(x * k for x in base[1])
                base = self.zero if sum(e) > self.cut else \
                    self._mono(base[0] ** k, e)
            else:
                base = base ** k
            self._check_bits(_bits(base), op)
        return base

    def _note_degree(self, degree: int) -> None:
        """Record a result whose untruncated terms reach ``degree``."""
        if degree > self.trunc:
            self.dropped = True

    def _check_bits(self, bits: int, tok) -> None:
        if bits > MAX_COEFF_BITS:
            self.lx.error(f"coefficient exceeds {MAX_COEFF_BITS} bits", tok)

    def atom(self):
        tok = self.lx.next()
        kind, val, _ = tok
        if kind == "INT":
            digits = val.lstrip("0") or "0"
            # d digits carry more than 3.3 * (d - 1) bits; test that before
            # int() refuses a literal over its digit limit
            self._check_bits((len(digits) - 1) * 33 // 10, tok)
            value = int(digits)
            self._check_bits(value.bit_length(), tok)
            return self._mono(GaussRational(value), self.zero[1])
        if kind == "NAME":
            if val == "i":
                return (I, self.zero[1])
            if val not in self.vars:
                self.lx.error(f"unknown variable {val!r} "
                              f"(expected one of {', '.join(self.vars)})", tok)
            self._note_degree(1)
            idx = self.vars.index(val)
            return self._mono(ONE, (0,) * idx + (1,) +
                              (0,) * (len(self.vars) - idx - 1))
        if kind == "OP" and val == "(":
            inner = self.expr()
            close = self.lx.next()
            if close[:2] != ("OP", ")"):
                self.lx.error("expected ')'", close)
            return inner
        self.lx.error(f"unexpected token {val!r}" if val else "unexpected end of input",
                      tok)


def parse_series(text: str, vars: Tuple[str, ...], trunc: int) -> Series:
    """Parse a series literal over the given variable tuple and truncation."""
    return _Parser(_Lexer(text), tuple(vars), trunc).parse()


def drops_terms(text: str, vars: Tuple[str, ...], trunc: int) -> bool:
    """Whether parsing the literal at ``trunc`` may drop a term of degree
    above ``trunc``; False means the parsed series is the literal exactly."""
    parser = _Parser(_Lexer(text), tuple(vars), trunc)
    parser.parse()
    return parser.dropped
