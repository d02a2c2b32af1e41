"""Exact linear algebra and polynomial utilities.

Matrices are lists of lists of GaussRational; polynomials are coefficient
lists in increasing degree order (over GaussRational or Fraction).  All
routines are fraction-exact; nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .scalars import GaussRational

Matrix = List[List[GaussRational]]
GPoly = List[GaussRational]   # Gaussian-rational coefficients, low degree first
RPoly = List[Fraction]        # real rational coefficients, low degree first

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


# ---------------------------------------------------------------------------
# matrices over the Gaussian rationals
# ---------------------------------------------------------------------------

def mat_identity(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = _ZERO
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def rref(rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form with lowest-index pivoting; returns
    (rref matrix, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def solve_linear(a: Matrix, b: Sequence[GaussRational]
                 ) -> Optional[List[GaussRational]]:
    """One particular solution of a @ x = b, or None if inconsistent.
    Free variables are set to zero."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(a[i]) + [b[i]] for i in range(nrows)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def char_poly(a: Matrix) -> GPoly:
    """Characteristic polynomial det(x*I - A), monic, low degree first.
    Faddeev-LeVerrier; exact over the Gaussian rationals."""
    n = len(a)
    coeffs = [_ZERO] * n + [_ONE]   # x^n coefficient
    m = mat_identity(n)
    c = _ONE
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        tr = sum((m[i][i] for i in range(n)), _ZERO)
        c = (-tr) / GaussRational(k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] = m[i][i] + c
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
