"""The sparse echelon kernel against the dense reduced row echelon form
that it replaced, kept here as the reference oracle.

Every echelon basis of a row space has the same pivot columns, the
leading columns of its nonzero vectors, so ``echelon`` must find the
oracle's pivots, ``rank`` its rank and ``solve_linear`` (free variables
zero) its particular solution, or None on the same inconsistent systems.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from crgeom.hypersurface import (ESSENTIALITY_DEGREE, Hypersurface,
                                 _coefficient_functions, essentiality_check)
from crgeom.linalg import echelon, rank, solve_linear
from crgeom.parsing import parse_series
from crgeom.scalars import GaussRational
from crgeom.series import exponent_vectors, hypersurface_vars
from test_cli_fuzz import normal_phi

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


def rref(rows):
    """Dense reduced row echelon form with lowest-index pivoting; returns
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


def dense_solve(a, b):
    """One particular solution of a @ x = b through rref, or None if
    inconsistent; free variables are set to zero."""
    ncols = len(a[0])
    red, pivots = rref([list(row) + [c] for row, c in zip(a, b)])
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def sparse(rows):
    return [{j: x for j, x in enumerate(row) if not x.is_zero()}
            for row in rows]


# mostly zeros, so that rows are sparse and often dependent
entries = st.one_of(
    st.just(_ZERO), st.just(_ZERO),
    st.builds(GaussRational,
              st.fractions(min_value=-3, max_value=3, max_denominator=3),
              st.sampled_from([0, 0, 1, Fraction(-1, 2)])))


@st.composite
def matrices(draw, min_rows=0):
    """A dense matrix whose rows are random, zero, repeats of an earlier
    row or a combination of two earlier rows, so that it is often rank
    deficient."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(min_rows, 7))):
        kind = draw(st.sampled_from(["random"] * 3 + ["zero", "repeat",
                                                      "combination"]))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([_ZERO] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols,
                                      max_size=ncols)))
    return rows, ncols


@given(matrices())
@example(([], 3))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_echelon_has_the_pivots_and_row_span_of_the_dense_rref(case):
    rows, ncols = case
    red, oracle_pivots = rref(rows)
    pivots = echelon(sparse(rows), ncols)
    found = [c for c, row in enumerate(pivots) if row is not None]
    assert found == oracle_pivots
    assert rank(sparse(rows), ncols) == len(oracle_pivots)
    for c in found:
        # each pivot row starts at its column, with a 1 there
        assert min(pivots[c]) == c and pivots[c][c] == _ONE
        assert not any(x.is_zero() for x in pivots[c].values())
    # the pivot rows span the same space: the same reduced form
    basis = [[pivots[c].get(j, _ZERO) for j in range(ncols)] for c in found]
    assert rref(basis)[0] == red[:len(found)]


@st.composite
def systems(draw):
    """a @ x = b with b = a @ x0, sometimes with one entry of b moved, so
    that the system may be inconsistent, and sometimes random."""
    a, ncols = draw(matrices(min_rows=1))
    kind = draw(st.sampled_from(["consistent", "perturbed", "random"]))
    if kind == "random":
        return a, draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    x0 = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    b = [sum((x * y for x, y in zip(row, x0)), _ZERO) for row in a]
    if kind == "perturbed":
        i = draw(st.integers(0, len(a) - 1))
        b[i] = b[i] + _ONE
    return a, b


@given(systems())
# a zero row with a nonzero right-hand side, and a repeated row with two
# different ones: both inconsistent
@example(([[_ZERO, _ZERO], [_ONE, _ONE]], [_ONE, _ZERO]))
@example(([[_ONE, _ZERO], [_ONE, _ZERO]], [_ONE, _ZERO]))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_solve_linear_matches_the_dense_solve(case):
    a, b = case
    ncols = len(a[0])
    rows = sparse(a)
    for row, c in zip(rows, b):
        if not c.is_zero():
            row[ncols] = c
    assert solve_linear(rows, ncols) == dense_solve(a, b)


def unit_row_degree(h):
    """The least d at which every degree-d z-monomial is a unit row of
    the dense rref of the span rows, as essentiality_check read it
    before: e_c lies in the row span iff c is a pivot whose reduced row
    is e_c.  None if no d <= ESSENTIALITY_DEGREE qualifies."""
    n = h.n
    a_funcs = _coefficient_functions(h.psi, n)
    for d in range(1, min(ESSENTIALITY_DEGREE, h.trunc) + 1):
        monos = sorted(exponent_vectors(n, d), key=sum)
        index = {mono: k for k, mono in enumerate(monos)}
        rows = []
        for a in a_funcs:
            for delta in monos:
                if sum(delta) == d:
                    break
                row = [_ZERO] * len(index)
                for exps, c in a.terms.items():
                    ze = tuple(exps[j] + delta[j] for j in range(n))
                    if sum(ze) <= d:
                        row[index[ze]] = row[index[ze]] + c
                if any(not x.is_zero() for x in row):
                    rows.append(row)
        if not rows:
            continue
        red, pivots = rref(rows)
        units = {c for c, row in zip(pivots, red)
                 if sum(not x.is_zero() for x in row) == 1}
        if all(index[mono] in units for mono in monos if sum(mono) == d):
            return d
    return None


@given(st.integers(1, 2).flatmap(
    lambda n: st.tuples(st.just(n), normal_phi(n))))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_essentiality_span_test_matches_the_unit_row_test(case):
    n, phi = case
    h = Hypersurface(n, parse_series(phi, hypersurface_vars(n), 6))
    if h.levi_flat:
        return                  # the terms cancelled
    verdict = essentiality_check(h)
    if verdict.status == "not-essential-up-to":
        return                  # decided before any span test
    d = unit_row_degree(h)
    assert (verdict.status == "certified-essential") == (d is not None)
    if d is not None:
        assert verdict.bound == d
