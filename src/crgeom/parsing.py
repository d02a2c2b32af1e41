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
"""

from __future__ import annotations

import re
from typing import Tuple

from .errors import ParseError, UnitRequiredError
from .scalars import GaussRational
from .series import Series

MAX_EXPONENT = 1000
# bound on --trunc, --order and the trunc/order keys of input files, so
# a command line or a short file cannot demand unbounded work; above
# every truncation order the tests, demos and benchmark use
MAX_TRUNC = 64
# bound on the n key of hypersurface and map files, N of bb files and n, k
# of prolongation files, whose work grows like (k+1)^(2n); above every
# dimension the tests, demos and benchmark use
MAX_DIM = 4
# below the 4300 decimal digits (about 14284 bits) Python will convert
# between int and str by default
MAX_COEFF_BITS = 14000

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._tokenize()
        self.idx = 0

    def _loc(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def _tokenize(self):
        pos = 0
        n = len(self.text)
        while pos < n:
            m = _TOKEN_RE.match(self.text, pos)
            if m is None or m.end() == pos:
                # check for trailing whitespace only
                rest = self.text[pos:]
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


def _degree(s: Series) -> int:
    """Largest total degree of a term of s (0 for the zero series)."""
    return max(map(sum, s.terms), default=0)


class _Parser:
    def __init__(self, lexer: _Lexer, vars: Tuple[str, ...], trunc: int):
        self.lx = lexer
        self.vars = vars
        self.trunc = trunc
        # set when truncation may have dropped a term of the literal
        self.dropped = False

    def parse(self) -> Series:
        result = self.expr()
        tok = self.lx.peek()
        if tok[0] != "EOF":
            self.lx.error(f"unexpected token {tok[1]!r}")
        return result

    def expr(self) -> Series:
        kind, val, _ = self.lx.peek()
        negate = False
        if kind == "OP" and val in "+-":
            self.lx.next()
            negate = val == "-"
        first = self.term()
        # the terms accumulate in one dict, built into a series once
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
                # only the coefficients at rhs's exponents changed
                self._check_bits(_coeff_bits(acc[e] for e in rhs.terms
                                             if e in acc), tok)
            else:
                return Series(self.vars, self.trunc, acc)

    def term(self) -> Series:
        acc = self.factor()
        while True:
            kind, val, _ = self.lx.peek()
            if kind == "OP" and val in "*/":
                tok = self.lx.next()
                rhs = self.factor()
                if val == "*":
                    self._note_degree(_degree(acc) + _degree(rhs))
                    acc = acc * rhs
                else:
                    try:
                        inv = rhs.reciprocal()
                    except UnitRequiredError:
                        self.lx.error("division by a non-unit series", tok)
                    if _degree(rhs) > 0 and not acc.is_zero():
                        self.dropped = True     # 1/rhs has no last term
                    acc = acc * inv
                self._check_bits(_coeff_bits(acc.terms.values()), tok)
            else:
                return acc

    def factor(self) -> Series:
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
            # a power's coefficients have at most k times the bits of the
            # base's when the base is a monomial; refuse before the work
            self._check_bits(k * _coeff_bits(base.terms.values()), op)
            self._note_degree(k * _degree(base))
            base = base ** k
            self._check_bits(_coeff_bits(base.terms.values()), op)
        return base

    def _note_degree(self, degree: int) -> None:
        """Record a result whose untruncated terms reach ``degree``."""
        if degree > self.trunc:
            self.dropped = True

    def _check_bits(self, bits: int, tok) -> None:
        if bits > MAX_COEFF_BITS:
            self.lx.error(f"coefficient exceeds {MAX_COEFF_BITS} bits", tok)

    def atom(self) -> Series:
        tok = self.lx.next()
        kind, val, _ = tok
        if kind == "INT":
            digits = val.lstrip("0") or "0"
            # d digits carry more than 3.3 * (d - 1) bits; test that before
            # int() refuses a literal over its digit limit
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
