"""Exact Gaussian-rational arithmetic of the benchmark's own.

The generator and the output checks use these helpers instead of
``crgeom.scalars`` so that a check never runs the code it checks.  A
number is a pair ``(re, im)`` of ``Fraction``; a polynomial is a dict
from exponent tuples to such pairs.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def conj(a):
    return (a[0], -a[1])


def is_zero(a):
    return a[0] == 0 and a[1] == 0


def power(a, k):
    out = ONE
    for _ in range(k):
        out = mul(out, a)
    return out


def dsl(a) -> str:
    """A coefficient in the input-file series syntax, e.g. ``(1/2-3*i)``."""
    re, im = a
    if im == 0:
        return f"({re})"
    if re == 0:
        return f"({im}*i)"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}*i)"


def parse(text: str):
    """Inverse of the CLI's coefficient rendering: ``3/2``, ``-i``,
    ``-2*i``, ``(1/2+1/3*i)``, ``(1/2-i)``."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1]
    if body.endswith("*"):
        body = body[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re, im = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im in ("", "+"):
        imv = Fraction(1)
    elif im == "-":
        imv = Fraction(-1)
    else:
        imv = Fraction(im)
    return (Fraction(re), imv)


def monomial(names, exps) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_dsl(names, poly) -> str:
    """A polynomial ``{exps: coeff}`` as an input-file series literal, terms
    in sorted exponent order so that equal polynomials render equally."""
    terms = []
    for exps in sorted(poly):
        c = poly[exps]
        if is_zero(c):
            continue
        mono = monomial(names, exps)
        terms.append(f"{dsl(c)}*{mono}" if mono else dsl(c))
    return " + ".join(terms) if terms else "0"
