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


def kernel_basis(rows: Matrix, ncols: int) -> List[List[GaussRational]]:
    """Basis of the right kernel {v : rows @ v = 0}."""
    if not rows:
        return [[_ONE if i == j else _ZERO for i in range(ncols)]
                for j in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


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
    while p and (p[-1].is_zero() if isinstance(p[-1], GaussRational)
                 else p[-1] == 0):
        p = p[:-1]
    return list(p)


def poly_deg(p) -> int:
    return len(poly_trim(p)) - 1


def poly_eval(p, x):
    acc = None
    for c in reversed(poly_trim(p)):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return x * 0
    return acc


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


def squarefree_decomposition(p) -> List[Tuple[List, int]]:
    """Decomposition p = lead * prod q_j^j with q_j square-free (Tobey-
    Horowitz repeated-gcd form), returned as [(q_j, j), ...] with trivial
    factors omitted."""
    p = poly_monic(poly_trim(p))
    if poly_deg(p) < 1:
        return []
    distinct = []   # distinct-factor products of p, gcd(p,p'), ...
    b = p
    while poly_deg(b) >= 1:
        g = poly_gcd(b, poly_deriv(b))
        c, _ = poly_divmod(b, g)
        distinct.append(c)
        b = g
    out = []
    for j, c in enumerate(distinct):
        if j + 1 < len(distinct):
            q, _ = poly_divmod(c, distinct[j + 1])
        else:
            q = c
        if poly_deg(q) >= 1:
            out.append((q, j + 1))
    return out


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


def count_real_roots_nonpositive(p: RPoly) -> int:
    """Number of distinct real roots of a real polynomial in (-inf, 0].
    The input need not be square-free; multiplicity is NOT counted here."""
    p = poly_trim(p)
    if poly_deg(p) < 1:
        return 0
    # deflate roots at zero
    k = 0
    while p and p[0] == 0:
        p = p[1:]
        k += 1
    at_zero = 1 if k > 0 else 0
    p = poly_trim(p)
    if poly_deg(p) < 1:
        return at_zero
    # square-free part for a valid Sturm chain
    sf, _ = poly_divmod(p, poly_gcd(p, poly_deriv(p)))
    chain = sturm_chain(sf)
    neg_inf = [_sign(q[-1]) * (-1) ** poly_deg(q) for q in chain]
    at0 = [_sign(poly_eval(q, Fraction(0))) for q in chain]
    return at_zero + _variations(neg_inf) - _variations(at0)


def real_part_poly(p: GPoly) -> RPoly:
    return [c.re for c in p]


def imag_part_poly(p: GPoly) -> RPoly:
    return [c.im for c in p]


def count_eigenvalues_nonpositive_real(p: GPoly) -> int:
    """Number of roots (with multiplicity) of a Gaussian-rational polynomial
    lying on the closed negative real axis R_{<=0}."""
    total = 0
    for q, mult in squarefree_decomposition(p):
        re = poly_trim(real_part_poly(q))
        im = poly_trim(imag_part_poly(q))
        if not im:
            d = re
        elif not re:
            d = im
        else:
            d = poly_gcd([Fraction(c) for c in re], [Fraction(c) for c in im])
        d = [Fraction(c) for c in d]
        total += mult * count_real_roots_nonpositive(d)
    return total
