"""Singular systems t*dy/dt = f(t, y) with f(0,0) = 0: exact formal
series solutions (with log terms at resonances), resonance detection,
eigenvalue classification, and a numeric integration oracle.

Matching t*d/dt (t^k (ln t)^r) = k t^k (ln t)^r + r t^k (ln t)^{r-1}
against f = p*t + A*y + Q(t,y) gives, per power k and log degree r,

    (k I - A) c_{k,r} + (r+1) c_{k,r+1} = g_{k,r},

where g_k depends only on lower-order coefficients.  The linear part
(p, A) is read off f once, and the resonances k <= order once from A, as
cached properties of the system.  k is resonant when kI - A is singular,
decided by its rank alone, and only then are the powers of kI - A ranked
for the index of k, the size of its largest Jordan block; the
characteristic polynomial of A and the Dulac eigenvalue count read from
it are cached properties too, formed only when the report reads them.
Every level k solves as one stacked system in the c_{k,r}, r <= d + index,
d the largest log degree of g_k and index 0 when kI - A is invertible,
with free kernel parameters set to zero and the kernel dimension
recorded in family_dim.
Every solution is checked by substituting it back into t*y' - f(t, y)
through t^K, without the recurrence that produced it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from . import linalg
from .errors import InvariantViolation, ValidationError
from .linalg import (Row, count_eigenvalues_nonpositive_real, mat_mul, rank,
                     solve_linear)
from .scalars import GaussRational, to_complex
from .series import Series

_ZERO = GaussRational(0)
_ONE = GaussRational(1)

ORACLE_T_END = 0.1          # numeric_oracle's |t| at the end of its run
ORACLE_STEPS = 2000         # and its RK4 steps


def bb_vars(N: int) -> Tuple[str, ...]:
    return ("t",) + tuple(f"y{j}" for j in range(1, N + 1))


@dataclass(frozen=True)
class BBSystem:
    N: int
    f: Tuple[Series, ...]            # checked, and stored as a tuple
    order: int

    def __post_init__(self):
        N, order, comps = self.N, self.order, tuple(self.f)
        object.__setattr__(self, "f", comps)
        if len(comps) != N:
            raise ValidationError(f"expected {N} right-hand sides, got {len(comps)}")
        for j, g in enumerate(comps):
            if g.vars != bb_vars(N):
                raise ValidationError(
                    f"f{j+1} must be a series in {bb_vars(N)}")
            if not g.constant_term().is_zero():
                raise ValidationError(
                    f"invalid system: f{j+1}(0,0) = {g.constant_term()} != 0")
            # the t^order coefficient of y needs every term of f of total
            # degree <= order
            if order > g.trunc:
                raise ValidationError(
                    f"order {order} exceeds trunc {g.trunc} of f{j+1}: "
                    f"coefficients past t^{g.trunc} are not determined")

    # cached_property writes to __dict__, which frozen=True leaves open
    @cached_property
    def p(self) -> List[GaussRational]:
        """The coefficient of t in each component of f."""
        t_exp = (1,) + (0,) * self.N
        return [g.coefficient(t_exp) for g in self.f]

    @cached_property
    def A(self) -> List[List[GaussRational]]:
        """A[j][b], the coefficient of y_{b+1} in f_{j+1}."""
        N = self.N
        y_exps = [tuple(1 if i == b + 1 else 0 for i in range(N + 1))
                  for b in range(N)]
        return [[g.coefficient(e) for e in y_exps] for g in self.f]

    @cached_property
    def _A_rows(self) -> List[Row]:
        """The sparse rows of A."""
        return [{j: x for j, x in enumerate(row) if not x.is_zero()}
                for row in self.A]

    def level_rows(self, k: int, offset: int = 0) -> List[Row]:
        """The sparse rows of kI - A, with columns shifted by offset."""
        out = []
        for i, a_row in enumerate(self._A_rows):
            row = {offset + j: -x for j, x in a_row.items()}
            diag = row.pop(offset + i, _ZERO) + k
            if not diag.is_zero():
                row[offset + i] = diag
            out.append(row)
        return out

    @cached_property
    def _resonant(self) -> Dict[int, Tuple[int, int]]:
        """Each positive integer k <= order at which kI - A is singular (an
        integer eigenvalue of A), with its kernel dimension N - rank(kI - A)
        and its index: the least j with rank (kI - A)^j = rank (kI - A)^(j+1),
        the size of its largest Jordan block.  kI - A is ranked once per k,
        and its powers only at a resonance."""
        out = {}
        N = self.N
        for k in range(1, self.order + 1):
            B = self.level_rows(k)
            r = rank(B, N)
            if r == N:
                continue
            index, power, r_index = 1, mat_mul(B, B), r
            while (r_next := rank(power, N)) < r_index:
                index, r_index, power = index + 1, r_next, mat_mul(power, B)
            out[k] = (N - r, index)
        return out

    @cached_property
    def resonances(self) -> List[Tuple[int, int]]:
        """The resonances k <= order, each with its kernel dimension."""
        return [(k, dim) for k, (dim, _) in self._resonant.items()]

    @cached_property
    def index(self) -> Dict[int, int]:
        """The index of each resonance k as an eigenvalue of A."""
        return {k: index for k, (_, index) in self._resonant.items()}

    @cached_property
    def char_poly(self) -> List[GaussRational]:
        """The characteristic polynomial of A; the solver never forms it."""
        # through the module: this property's name is the function's
        return linalg.char_poly(self._A_rows)

    @cached_property
    def nonpositive_real(self) -> int:
        """The number of eigenvalues of A (with multiplicity) on the closed
        negative real axis, counted from char_poly.  The Dulac p is
        N - nonpositive_real, the eigenvalues off that axis."""
        return count_eigenvalues_nonpositive_real(self.char_poly)


@dataclass
class FormalLogSolution:
    coeffs: Dict[Tuple[int, int], List[GaussRational]]   # (k, r) -> vector
    resonances: List[Tuple[int, int]]                    # (k, kernel dim)

    @property
    def family_dim(self) -> int:
        return sum(d for _, d in self.resonances)

    def has_log_terms(self) -> bool:
        return any(r > 0 and any(not c.is_zero() for c in v)
                   for (k, r), v in self.coeffs.items())


# polynomial-in-(t, log) arithmetic: dict {(t_deg, log_deg): GaussRational}

def _add_term(poly: Dict, key, c: GaussRational) -> None:
    cur = poly.get(key, _ZERO) + c
    if cur.is_zero():
        poly.pop(key, None)
    else:
        poly[key] = cur


def _poly_mul(a, b, K: int):
    out: Dict[Tuple[int, int], GaussRational] = {}
    for (ka, ra), ca in a.items():
        for (kb, rb), cb in b.items():
            if ka + kb <= K:
                _add_term(out, (ka + kb, ra + rb), ca * cb)
    return out


def _rhs_at_order(sys: BBSystem, sol: Dict[Tuple[int, int], List[GaussRational]],
                  k: int) -> List[Dict[int, GaussRational]]:
    """Coefficient of t^k in f(t, y) as a map log-degree -> vector entry,
    per component, using only solution coefficients of t-degree < k."""
    N = sys.N
    y_polys = []
    for j in range(N):
        y_polys.append({(kk, r): v[j] for (kk, r), v in sol.items()
                        if kk < k and not v[j].is_zero()})
    out: List[Dict[int, GaussRational]] = [dict() for _ in range(N)]
    for j in range(N):
        for exps, c in sys.f[j].terms.items():
            a = exps[0]
            if a > k:
                continue
            prod = {(a, 0): c}
            ok = True
            for comp in range(N):
                for _ in range(exps[comp + 1]):
                    prod = _poly_mul(prod, y_polys[comp], k)
                    if not prod:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            for (kk, r), cc in prod.items():
                if kk == k:
                    _add_term(out[j], r, cc)
    return out


def formal_solve(sys: BBSystem) -> FormalLogSolution:
    """Exact solution coefficients c_{k,r} through order K = sys.order."""
    N, K = sys.N, sys.order
    index = sys.index
    sol: Dict[Tuple[int, int], List[GaussRational]] = {}
    for k in range(1, K + 1):
        g = _rhs_at_order(sys, sol, k)
        d = max((r for comp in g for r in comp), default=0)
        # the stacked system in c_{k,0}, ..., c_{k,R}: c_{k,d+1+j} is a
        # multiple of (kI - A)^j c_{k,d+1}, which vanishes from j = index
        # on, so no solution has a log degree past R
        R = d + index.get(k, 0)
        rows = []
        for r in range(R + 1):
            for i, row in enumerate(sys.level_rows(k, r * N)):
                if r < R:
                    row[(r + 1) * N + i] = GaussRational(r + 1)
                if r in g[i]:
                    row[N * (R + 1)] = g[i][r]
                rows.append(row)
        x = solve_linear(rows, N * (R + 1))
        if x is None:
            raise InvariantViolation(
                f"level k={k} inconsistent at log depth {R}")
        for r in range(R + 1):
            c = x[r * N:(r + 1) * N]
            if any(not v.is_zero() for v in c):
                sol[(k, r)] = c
    _check_residual(sys, sol, K)
    return FormalLogSolution(coeffs=sol, resonances=sys.resonances)


def _check_residual(sys: BBSystem, sol, K: int) -> None:
    """Back-substitution in one pass, independent of the recurrence:
    expand t*y' - f(t, y) over the whole solution through t^K and require
    every t^k (log t)^r coefficient to vanish.  Each power of each y_j is
    built once as a (t, log t)-polynomial, and every monomial of f is
    summed, the linear A*y terms included."""
    N = sys.N
    y_polys = [{kr: v[j] for kr, v in sol.items() if not v[j].is_zero()}
               for j in range(N)]
    powers = [[{(0, 0): _ONE}] for _ in range(N)]      # powers[j][e] = y_j^e
    for j in range(N):
        residual: Dict[Tuple[int, int], GaussRational] = {}
        for (k, r), c in y_polys[j].items():
            _add_term(residual, (k, r), GaussRational(k) * c)
            if r:
                _add_term(residual, (k, r - 1), GaussRational(r) * c)
        for exps, c in sys.f[j].terms.items():
            if exps[0] > K:
                continue
            prod = {(exps[0], 0): c}
            for b, e in enumerate(exps[1:]):
                while len(powers[b]) <= e:
                    powers[b].append(_poly_mul(powers[b][-1], y_polys[b], K))
                if e:
                    prod = _poly_mul(prod, powers[b][e], K)
            for key, cc in prod.items():
                _add_term(residual, key, -cc)
        if residual:
            (k, r), total = min(residual.items())
            raise InvariantViolation(
                f"residual {total} at t^{k} log^{r} component {j+1}")


def _series_value(coeffs, N: int, t: float) -> List[complex]:
    """The truncated solution at t, from its (k, r, float vector) terms."""
    vals = [0j] * N
    if t == 0:
        return vals
    lg = math.log(abs(t))
    for k, r, v in coeffs:
        for j in range(N):
            vals[j] += v[j] * t ** k * lg ** r
    return vals


def numeric_oracle(sys: BBSystem, sol: FormalLogSolution, t0: float
                   ) -> float:
    """Fixed-step RK4 integration of y' = f(t,y)/t in ORACLE_STEPS steps
    from t0 out to sign(t0)*ORACLE_T_END, started on the truncated series,
    compared against the series along the way; returns the max
    componentwise deviation.

    Requires a pure power-series solution (no log terms) and t0 != 0.
    The coefficients of f and of the solution are converted to floats
    once; a value past the float range, there or in the integration,
    raises ValidationError.
    """
    if sol.has_log_terms():
        raise ValidationError("numeric oracle requires a log-free solution")
    if t0 == 0:
        raise ValidationError("integration cannot start at the singularity")
    N = sys.N
    f = [[(exps, to_complex(c, f"numeric oracle: f{j + 1}"))
          for exps, c in g.terms.items()] for j, g in enumerate(sys.f)]
    coeffs = [(k, r, [to_complex(x, "numeric oracle: solution")
                      for x in v]) for (k, r), v in sol.coeffs.items()]
    sign = 1.0 if t0 > 0 else -1.0
    a, b = t0, sign * ORACLE_T_END
    h = (b - a) / ORACLE_STEPS

    def rhs(t: float, y: List[complex]) -> List[complex]:
        vals = (complex(t), *y)         # in the order of bb_vars(N)
        inv_t = 1 / t
        out = []
        for terms in f:
            total = 0j
            for exps, v in terms:
                for x, e in zip(vals, exps):
                    if e:
                        v *= x ** e
                total += v
            out.append(total * inv_t)
        return out

    def step(y: List[complex], c: float, k: List[complex]) -> List[complex]:
        return [yj + c * kj for yj, kj in zip(y, k)]

    dev = 0.0
    try:
        y = _series_value(coeffs, N, a)
        t = a
        for _ in range(ORACLE_STEPS):
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, step(y, h / 2, k1))
            k3 = rhs(t + h / 2, step(y, h / 2, k2))
            k4 = rhs(t + h, step(y, h, k3))
            y = step(y, h / 6, [p + 2 * q + 2 * r + u
                                for p, q, r, u in zip(k1, k2, k3, k4)])
            t = t + h
            dev = max([dev] + [abs(yj - sj) for yj, sj
                               in zip(y, _series_value(coeffs, N, t))])
    except OverflowError:
        y = [math.nan]
    # a nan, once reached, stays in y but drops out of max()
    if not (math.isfinite(dev) and all(map(cmath.isfinite, y))):
        raise ValidationError(
            f"numeric oracle from t0 = {t0} leaves the float range")
    return dev
