"""Parser for the series literal DSL.

Accepted syntax: sums/differences of terms like ``3/2*z1^2*c1*s``,
``(1/2+1/3*i)*z2``, the imaginary unit ``i``, parenthesized
subexpressions, and division by unit subexpressions.  Whitespace is
insignificant; ``^`` denotes powers with nonnegative integer exponents
of at most ``MAX_EXPONENT``, so a short literal cannot demand unbounded
work.
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


class _Parser:
    def __init__(self, lexer: _Lexer, vars: Tuple[str, ...], trunc: int):
        self.lx = lexer
        self.vars = vars
        self.trunc = trunc

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
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.lx.peek()
            if kind == "OP" and val in "+-":
                self.lx.next()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> Series:
        acc = self.factor()
        while True:
            kind, val, _ = self.lx.peek()
            if kind == "OP" and val in "*/":
                tok = self.lx.next()
                rhs = self.factor()
                if val == "*":
                    acc = acc * rhs
                else:
                    try:
                        acc = acc * rhs.reciprocal()
                    except UnitRequiredError:
                        self.lx.error("division by a non-unit series", tok)
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
            self.lx.next()
            tok = self.lx.next()
            if tok[0] != "INT":
                self.lx.error("exponent must be a nonnegative integer", tok)
            if int(tok[1]) > MAX_EXPONENT:
                self.lx.error(f"exponent {tok[1]} exceeds {MAX_EXPONENT}", tok)
            return base ** int(tok[1])
        return base

    def atom(self) -> Series:
        tok = self.lx.next()
        kind, val, _ = tok
        if kind == "INT":
            return Series.const(int(val), self.vars, self.trunc)
        if kind == "NAME":
            if val == "i":
                return Series.const(GaussRational(0, 1), self.vars, self.trunc)
            if val not in self.vars:
                self.lx.error(f"unknown variable {val!r} "
                              f"(expected one of {', '.join(self.vars)})", tok)
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
