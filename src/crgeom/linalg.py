"""Exact linear algebra and polynomial utilities.

A matrix is a list of sparse rows, each a dict {column: entry} holding
only its nonzero Gaussian-rational entries; polynomials are coefficient
lists in increasing degree order (over GaussRational or Fraction).
``echelon`` is the one elimination kernel: forward elimination only, so
each pivot row starts at its pivot column with a 1 there.  ``rank``
counts its pivots and ``solve_linear`` back-substitutes through them.
All routines are fraction-exact; nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional

from .scalars import GaussRational

Row = Dict[int, GaussRational]  # column -> nonzero entry
GPoly = List[GaussRational]   # Gaussian-rational coefficients, low degree first
RPoly = List[Fraction]        # real rational coefficients, low degree first

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


# ---------------------------------------------------------------------------
# sparse matrices over the Gaussian rationals
# ---------------------------------------------------------------------------

def echelon(rows: Iterable[Row], width: int) -> List[Optional[Row]]:
    """Forward elimination of rows with columns below width.  Each row in
    turn is reduced by the pivot rows found so far, lowest column first,
    until its lowest column is not a pivot; a nonzero remainder, scaled to
    1 there, becomes that column's pivot row.  Returns, per column, its
    pivot row or None.  The pivot columns are the leading columns of the
    nonzero vectors of the row span, as in any echelon basis."""
    pivots: List[Optional[Row]] = [None] * width
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            pivot = pivots[c]
            if pivot is None:
                inv = _ONE / row[c]
                pivots[c] = {j: x * inv for j, x in row.items()}
                break
            # the pivot row starts at c: columns below c stay clear
            f = -row.pop(c)
            for j, x in pivot.items():
                if j != c:
                    y = row[j] + f * x if j in row else f * x
                    if y.is_zero():
                        del row[j]
                    else:
                        row[j] = y
    return pivots


def rank(rows: Iterable[Row], width: int) -> int:
    return sum(p is not None for p in echelon(rows, width))


def solve_linear(rows: Iterable[Row], width: int
                 ) -> Optional[List[GaussRational]]:
    """One particular solution x of a @ x = b, or None if inconsistent:
    each row holds a row of a in columns below width and its entry of b
    in column width.  Free variables are set to zero, and the pivot
    variables are solved from the highest column down."""
    pivots = echelon(rows, width + 1)
    if pivots[width] is not None:
        return None
    x = [_ZERO] * width
    for c in range(width - 1, -1, -1):
        pivot = pivots[c]
        if pivot is None:
            continue
        s = pivot.get(width, _ZERO)
        for j, v in pivot.items():
            if c < j < width and not x[j].is_zero():
                s = s - v * x[j]
        x[c] = s
    return x


def mat_mul(a: List[Row], b: List[Row]) -> List[Row]:
    """a @ b over the nonzero entries of both."""
    out = []
    for a_row in a:
        row: Row = {}
        for k, x in a_row.items():
            for j, y in b[k].items():
                row[j] = row.get(j, _ZERO) + x * y
        out.append({j: v for j, v in row.items() if not v.is_zero()})
    return out


def char_poly(a: List[Row]) -> GPoly:
    """Characteristic polynomial det(x*I - A), monic, low degree first.
    Faddeev-LeVerrier; exact over the Gaussian rationals."""
    n = len(a)
    coeffs = [_ZERO] * n + [_ONE]   # x^n coefficient
    m: List[Row] = [{i: _ONE} for i in range(n)]
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        tr = sum((m[i].get(i, _ZERO) for i in range(n)), _ZERO)
        c = (-tr) / GaussRational(k)
        coeffs[n - k] = c
        for i in range(n):
            v = m[i].pop(i, _ZERO) + c
            if not v.is_zero():
                m[i][i] = v
    return coeffs


# ---------------------------------------------------------------------------
# dense polynomials
# ---------------------------------------------------------------------------

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return list(p)


def poly_deg(p) -> int:
    return len(poly_trim(p)) - 1


def poly_deriv(p):
    return [c * k for k, c in enumerate(p)][1:]


def poly_divmod(a, b):
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [b[0] * 0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b) and r:
        f = r[-1] / lead
        d = len(r) - len(b)
        q[d] = q[d] + f
        for i, cb in enumerate(b):
            r[d + i] = r[d + i] - f * cb
        r = poly_trim(r)
    return poly_trim(q), r


def poly_monic(p):
    p = poly_trim(p)
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


# ---------------------------------------------------------------------------
# Sturm counting for real rational polynomials
# ---------------------------------------------------------------------------

def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: List[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_chain(p: RPoly) -> List[RPoly]:
    p = poly_trim(p)
    chain = [p, poly_trim(poly_deriv(p))]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def count_eigenvalues_nonpositive_real(p: GPoly) -> int:
    """Number of roots (with multiplicity) of a Gaussian-rational polynomial
    lying on the closed negative real axis R_{<=0}.

    g = gcd(Re p, Im p) has the real roots of p, with their multiplicities.
    Each pass counts the distinct roots of g in (-inf, 0] by the Sturm
    chain of its square-free part g / gcd(g, g'), V(-inf) - V(0), and
    then lowers every multiplicity by one: g <- gcd(g, g')."""
    g = poly_gcd([c.re for c in p], [c.im for c in p])
    total = 0
    while poly_deg(g) >= 1:
        d = poly_gcd(g, poly_deriv(g))
        chain = sturm_chain(poly_divmod(g, d)[0])
        total += (_variations([_sign(q[-1]) * (-1) ** (len(q) - 1)
                               for q in chain])
                  - _variations([_sign(q[0]) for q in chain]))
        g = d
    return total
