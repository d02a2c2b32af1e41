"""Hypersurfaces in normal form and their biholomorphic invariants.

A hypersurface is Im w = phi(z, zbar, Re w) with phi(z,0,s) = phi(0,chi,s)
= 0 (normality) and phi real.  ``Hypersurface(n, phi)`` checks both once,
at construction, and raises ValidationError naming an offending monomial;
everything downstream relies on them.  A surface computes these at most
once, and every function reads them from it:

  * m    -- least s-power carrying a nonzero (z,c)-part (None = Levi flat)
  * r    -- lowest total degree of phi_m
  * psi  -- phi / s^m

From psi we compute:

  * essentiality of the coefficient ideal of psi(z,chi,0), certified by a
    truncated Nakayama argument
  * the nondegeneracy order ell from chi-derivatives of d(psi)/dz at 0
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

from .errors import TruncationError, ValidationError
from .linalg import rank, rref
from .scalars import GaussRational
from .series import Series, hypersurface_vars


@dataclass(frozen=True)
class Hypersurface:
    n: int
    phi: Series

    def __post_init__(self):
        validate(self)

    @property
    def trunc(self) -> int:
        return self.phi.trunc

    # cached_property writes to __dict__, which frozen=True leaves open
    @cached_property
    def m(self) -> Optional[int]:
        return None if self.phi.is_zero() else self.phi.min_degree_in("s")

    @property
    def levi_flat(self) -> bool:
        return self.m is None

    @cached_property
    def phi_m(self) -> Optional[Series]:
        return None if self.levi_flat else self.phi.coefficient_in("s", self.m)

    @property
    def r(self) -> Optional[int]:
        return None if self.levi_flat else self.phi_m.min_total_degree()

    @cached_property
    def psi(self) -> Optional[Series]:
        m = self.m
        return None if m is None else self.phi.divide_by_power("s", m)

    def vars(self) -> Tuple[str, ...]:
        return hypersurface_vars(self.n)


@dataclass
class EssentialityVerdict:
    status: str                      # "certified-essential" | "not-essential-up-to" | "inconclusive"
    bound: int                       # d for certified, D otherwise
    detail: str = ""

    def as_dict(self):
        return {"status": self.status, "bound": self.bound, "detail": self.detail}


@dataclass
class EllVerdict:
    degenerate: bool
    ell: int                         # ell if nondegenerate, else ell_max probed

    def as_dict(self):
        if self.degenerate:
            return {"status": "degenerate-up-to", "ell_max": self.ell}
        return {"status": "nondegenerate", "ell": self.ell}


@dataclass
class InvariantReport:
    essential: EssentialityVerdict
    ell: EllVerdict
    ell_max: int                     # longest word ell and filtration probe


def validate(h: Hypersurface) -> None:
    """Check normality (phi(z,0,s) = phi(0,chi,s) = 0) and reality of phi;
    the Hypersurface constructor calls it.  Raises ValidationError listing
    an offending monomial."""
    phi = h.phi
    n = h.n
    for exps, _ in phi.terms.items():
        zdeg = sum(exps[:n])
        cdeg = sum(exps[n:2 * n])
        if zdeg == 0 or cdeg == 0:
            raise ValidationError(
                f"normality violation at monomial {phi._monomial_str(exps)}: "
                "phi(z,0,s) and phi(0,chi,s) must vanish")
    if phi.conjugate() != phi:
        diff = phi - phi.conjugate()
        exps = next(iter(diff.terms))
        raise ValidationError(
            f"reality violation near monomial {phi._monomial_str(exps)}: "
            "conjugate(phi) != phi")


def _coefficient_functions(psi: Series, n: int) -> List[Series]:
    """The functions a_alpha(z): coefficients of chi^alpha in psi(z,chi,0),
    for alpha != 0, as series in z only."""
    psi0 = psi.set_var_zero("s")
    by_alpha = {}
    for exps, c in psi0.terms.items():
        alpha = exps[n:2 * n]
        if sum(alpha) == 0:
            continue
        zpart = exps[:n] + (0,) * (n + 1)
        by_alpha.setdefault(alpha, {})[zpart] = c
    return [Series(psi.vars, psi.trunc, terms) for _, terms in
            sorted(by_alpha.items())]


def _z_monomials(n: int, deg: int):
    """All exponent vectors of z-monomials of exact total degree `deg`."""
    if n == 1:
        yield (deg,)
        return
    for head in range(deg + 1):
        for tail in _z_monomials(n - 1, deg - head):
            yield (head,) + tail


def essentiality_check(h: Hypersurface, D: int) -> EssentialityVerdict:
    """Decide m-essentiality up to degree bound D.

    certified-essential(d): every z-monomial of degree d lies in the span of
    the products z^delta * a_alpha reduced mod degree > d; by Nakayama the
    coefficient ideal then contains the d-th power of the maximal ideal,
    hence has finite codimension.  A structural obstruction (a variable
    missing from every a_alpha) yields not-essential-up-to(D); otherwise
    inconclusive.
    """
    if h.levi_flat:
        raise ValidationError("essentiality undefined for Levi-flat input")
    n = h.n
    a_funcs = _coefficient_functions(h.psi, n)
    if not a_funcs:
        return EssentialityVerdict("inconclusive", D,
                                   "no coefficient functions at truncation")
    # structural obstruction: a z-variable absent from every a_alpha
    seen = [False] * n
    for a in a_funcs:
        for exps in a.terms:
            for j in range(n):
                if exps[j] > 0:
                    seen[j] = True
    if not all(seen):
        missing = [f"z{j + 1}" for j, ok in enumerate(seen) if not ok]
        return EssentialityVerdict(
            "not-essential-up-to", D,
            f"variables {missing} absent from every coefficient function")

    for d in range(1, D + 1):
        if d > h.trunc:
            break
        # span of z^delta * a_alpha (mod degree > d), as vectors over the
        # monomial basis of C[z] of degree <= d
        index = {}
        for deg in range(d + 1):
            for mono in _z_monomials(n, deg):
                index[mono] = len(index)
        rows = []
        for a in a_funcs:
            for delta_deg in range(d):
                for delta in _z_monomials(n, delta_deg):
                    row = [GaussRational(0)] * len(index)
                    nonzero = False
                    for exps, c in a.terms.items():
                        ze = tuple(exps[j] + delta[j] for j in range(n))
                        if sum(ze) > d:
                            continue
                        row[index[ze]] = row[index[ze]] + c
                        nonzero = True
                    if nonzero:
                        rows.append(row)
        if not rows:
            continue
        red, pivots = rref(rows)
        # e_c lies in the row span iff c is a pivot whose reduced row is e_c
        units = {c for c, row in zip(pivots, red)
                 if sum(not x.is_zero() for x in row) == 1}
        if all(index[mono] in units for mono in _z_monomials(n, d)):
            return EssentialityVerdict("certified-essential", d, "")
    return EssentialityVerdict("inconclusive", D,
                               f"no certificate found up to degree {D}")


def nondegeneracy_ell(h: Hypersurface, ell_max: int) -> EllVerdict:
    """Least ell such that the chi-derivatives of d(psi)/dz up to order ell,
    evaluated at the origin, span C^n."""
    if h.levi_flat:
        raise ValidationError("nondegeneracy undefined for Levi-flat input")
    n = h.n
    psi = h.psi
    if ell_max + 1 > psi.trunc:
        raise TruncationError(
            f"ell_max={ell_max} needs truncation >= {ell_max + 1} after "
            f"desingularization, have {psi.trunc}")
    psi0 = psi.set_var_zero("s")
    rows = []
    for ell in range(0, ell_max + 1):
        for alpha in _z_monomials(n, ell):
            # row B-component: d^alpha/d chi^alpha  d psi/d z_B at 0
            # = alpha! * coefficient of z_B * chi^alpha  (scaling irrelevant)
            row = []
            for B in range(n):
                exps = tuple(1 if j == B else 0 for j in range(n)) + \
                    tuple(alpha) + (0,)
                row.append(psi0.coefficient(exps))
            if any(not c.is_zero() for c in row):
                rows.append(row)
        if rows and rank(rows) == n:
            return EllVerdict(degenerate=False, ell=ell)
    return EllVerdict(degenerate=True, ell=ell_max)


def full_report(h: Hypersurface) -> InvariantReport:
    """Essentiality up to degree 4 and the nondegeneracy order up to word
    length 4 of a surface that is not Levi flat."""
    essential = essentiality_check(h, 4)     # raises if Levi flat
    # psi = phi / s^m is known through order trunc - m, and a word of
    # length ell needs order ell + 1; a nonzero normal-form phi has
    # trunc >= m + 2, so the bound is at least 1
    ell_max = min(4, h.trunc - h.m - 1)
    return InvariantReport(essential, nondegeneracy_ell(h, ell_max), ell_max)
