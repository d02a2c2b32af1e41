"""Hypersurfaces in normal form and their biholomorphic invariants.

A hypersurface is Im w = phi(z, zbar, Re w) with phi(z,0,s) = phi(0,chi,s)
= 0 (normality) and phi real, over hypersurface_vars(n).
``Hypersurface(n, phi)`` checks all three once, at construction, and
raises ValidationError naming an offending monomial or the variable
tuples; everything downstream relies on them.  A surface computes these at most
once, and every function reads them from it:

  * m    -- least s-power carrying a nonzero (z,c)-part (None = Levi flat)
  * r    -- lowest total degree of phi_m
  * psi  -- phi / s^m
  * chi_coefficients -- psi(z,chi,0) grouped by chi-power alpha, the
    functions a_alpha(z)
  * ell_max -- min(ELL_CAP, trunc - m - 1), the longest word that ell and
    the filtration probe

From the a_alpha we compute:

  * essentiality of the ideal they generate, certified by a truncated
    Nakayama argument up to degree ESSENTIALITY_DEGREE
  * the nondegeneracy order ell from their z_B coefficients, which are
    the chi-derivatives of d(psi)/dz at 0, up to order ell_max
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from .errors import ValidationError
from .linalg import rank
from .scalars import GaussRational
from .series import Exponents, Series, exponent_vectors, hypersurface_vars

ESSENTIALITY_DEGREE = 4              # largest certificate degree tried
ELL_CAP = 4                          # longest word ell and filtration probe


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

    @cached_property
    def chi_coefficients(self) -> Optional[
            Dict[Exponents, Dict[Exponents, GaussRational]]]:
        """psi(z,chi,0) grouped by chi-power: {alpha: a_alpha} in sorted
        alpha order, each a_alpha(z) as {z-exponents: coefficient}.
        Normality makes every alpha nonzero."""
        if self.levi_flat:
            return None
        n, by_alpha = self.n, {}
        for exps, c in self.psi.terms.items():
            if exps[-1] == 0:
                by_alpha.setdefault(exps[n:2 * n], {})[exps[:n]] = c
        return dict(sorted(by_alpha.items()))

    @property
    def ell_max(self) -> Optional[int]:
        # psi = phi / s^m is known through order trunc - m, and a word of
        # length ell needs order ell + 1; a nonzero normal-form phi has
        # trunc >= m + 2, so the bound is at least 1
        m = self.m
        return None if m is None else min(ELL_CAP, self.trunc - m - 1)

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


def validate(h: Hypersurface) -> None:
    """Check normality (phi(z,0,s) = phi(0,chi,s) = 0) and reality of phi;
    the Hypersurface constructor calls it.  Raises ValidationError listing
    an offending monomial, or the variable tuples when phi is not over
    hypersurface_vars(n)."""
    phi = h.phi
    n = h.n
    if n < 0 or phi.vars != h.vars():
        raise ValidationError(
            f"phi is a series over {phi.vars}; a hypersurface with n = {n} "
            f"needs n >= 0 and phi over {h.vars()}")
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


def essentiality_check(h: Hypersurface) -> EssentialityVerdict:
    """Decide m-essentiality up to degree D = ESSENTIALITY_DEGREE.

    certified-essential(d): every z-monomial of degree d lies in the span of
    the products z^delta * a_alpha reduced mod degree > d; by Nakayama the
    coefficient ideal then contains the d-th power of the maximal ideal,
    hence has finite codimension.  A structural obstruction (a variable
    missing from every a_alpha) yields not-essential-up-to(D); otherwise
    inconclusive.
    """
    if h.levi_flat:
        raise ValidationError("essentiality undefined for Levi-flat input")
    n, D = h.n, ESSENTIALITY_DEGREE
    a_funcs = list(h.chi_coefficients.values())
    # structural obstruction: a z-variable absent from every a_alpha
    seen = [False] * n
    for a in a_funcs:
        for exps in a:
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
        # monomial basis of C[z] of degree <= d, ordered by degree
        monos = sorted(exponent_vectors(n, d), key=sum)
        index = {mono: k for k, mono in enumerate(monos)}
        rows = []
        for a in a_funcs:
            for delta in monos:
                if sum(delta) == d:      # monos is ordered by degree
                    break
                row = {}
                for exps, c in a.items():
                    ze = tuple(exps[j] + delta[j] for j in range(n))
                    if sum(ze) <= d:
                        row[index[ze]] = c
                if row:
                    rows.append(row)
        if not rows:
            continue
        # the degree-d unit vectors lie in the row span iff adding them
        # leaves the rank unchanged
        units = [{index[mono]: GaussRational(1)} for mono in monos
                 if sum(mono) == d]
        if rank(rows + units, len(index)) == rank(rows, len(index)):
            return EssentialityVerdict("certified-essential", d, "")
    return EssentialityVerdict("inconclusive", D,
                               f"no certificate found up to degree {D}")


def nondegeneracy_ell(h: Hypersurface) -> EllVerdict:
    """Least ell <= h.ell_max such that the chi-derivatives of d(psi)/dz
    up to order ell, evaluated at the origin, span C^n."""
    if h.levi_flat:
        raise ValidationError("nondegeneracy undefined for Levi-flat input")
    n, ell_max = h.n, h.ell_max
    rows = []
    for ell in range(0, ell_max + 1):
        # row for |alpha| = ell, B-component: d^alpha/d chi^alpha
        # d psi/d z_B at 0 = alpha! * [z_B] a_alpha (scaling irrelevant)
        for alpha, a in h.chi_coefficients.items():
            if sum(alpha) == ell:
                row = {ze.index(1): c for ze, c in a.items() if sum(ze) == 1}
                if row:
                    rows.append(row)
        if rank(rows, n) == n:
            return EllVerdict(degenerate=False, ell=ell)
    return EllVerdict(degenerate=True, ell=ell_max)
