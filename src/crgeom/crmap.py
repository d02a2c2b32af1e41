"""Holomorphic maps between hypersurfaces: restriction to the source,
target containment, the frame data (gamma, eta, xi) of the pushforward,
and the five exact identities these satisfy for genuine CR maps.

A map is given by holomorphic components (F_1,...,F_n,F_{n+1}) in the
ambient variables (z_1,...,z_n,w) with F(0) = 0.  Restricting to
Im w = phi means substituting w -> s + i*phi; then

    s_hat o f = Re F_{n+1}|M,
    gamma^C_B = L_B(F_C|M),     eta^C = S(F_C|M),      S = s^m T,
    f_* S = xi * S_hat + eta^C Lhat_C + conj(eta^C) Lhat_Cbar.

MapCheck(f, source, target) validates its input once and holds the
frames of source and target.  Every piece is formed on first use and
kept: the restriction F (one batched substitution), the target data
composed with f (target_f: a second one, of phihat, its first partials
and the Levi functions h0hat_{ab} (a <= b) and h0barhat_a, unpacked by
name, so each product of image powers is formed once per map),
theta_hat o f, gamma, eta, xi, the containment residual and the
identities.  The types m and m_hat are those of the source and target
Hypersurface.

Errors come in a fixed order.  Building a MapCheck raises
ValidationError on a dimension mismatch, then
InvariantViolation("xi-singular ...") when source or target is Levi
flat.  Reading xi, or anything formed from it, raises ValidationError
when f collapses the source into E' = {w = 0}, then
InvariantViolation("xi-singular ...") when xi is not a smooth function;
so a returned xi is always smooth.

The Levi functions are Frame.h0 and Frame.h0_bar, in the frame's one
normalization h0_{AbarB} = <theta, [L_Abar, L_B]> / s^m, which is the
one produced by <d omega, X ^ Y> = -<omega, [X, Y]> applied to
omega = theta/s^m.  Used on source and target alike it makes all five
identities below exact.  The tail functions h0_Abar come from
[L_Abar, s^m T] = -s^m h0_Abar T and carry no normalization freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import add
from typing import Any, Dict, List, Sequence, Tuple

from .errors import (DivisibilityError, InvariantViolation, UnitRequiredError,
                     ValidationError)
from .frame import Frame
from .hypersurface import Hypersurface
from .scalars import GaussRational
from .series import Series, substitute


def map_vars(n: int) -> Tuple[str, ...]:
    return tuple(f"z{j}" for j in range(1, n + 1)) + ("w",)


@dataclass(frozen=True)
class HoloMap:
    """Holomorphic map germ (C^{n+1},0) -> (C^{nhat+1},0); components are
    series in (z_1..z_n, w) with zero constant term, checked when built."""
    n: int
    components: Tuple[Series, ...]   # any iterable; stored as a tuple

    def __post_init__(self):
        n, comps = self.n, tuple(self.components)
        object.__setattr__(self, "components", comps)
        for j, f in enumerate(comps):
            if not f.constant_term().is_zero():
                raise ValidationError(
                    f"map component {j + 1} does not fix the origin")
            if f.vars != map_vars(n):
                raise ValidationError(
                    f"map component {j + 1} must be a series in {map_vars(n)}")


class MapCheck:
    """A holomorphic map f checked against a source and a target
    hypersurface of one dimension n.  Indices are 0-based, as in Frame:
    gamma[C][B] = L_B(F_C|M) with L_B the source frame's field."""

    def __init__(self, f: HoloMap, source: Hypersurface, target: Hypersurface):
        if f.n != source.n:
            raise ValidationError("map source dimension mismatch")
        if len(f.components) - 1 != target.n:
            raise ValidationError("map/hypersurface dimension mismatch")
        if source.n != target.n:
            raise ValidationError(
                "frame data requires equidimensional source and target")
        if source.levi_flat:
            raise InvariantViolation(
                "xi-singular: source is Levi flat (m = infinity)")
        if target.levi_flat:
            raise InvariantViolation(
                "xi-singular: target is Levi flat (m_hat = infinity)")
        self.f, self.n = f, source.n
        self.frame, self.frame_hat = Frame(source), Frame(target)

    @cached_property
    def F(self) -> List[Series]:
        """F_j|M, j = 1..n+1, by w -> s + i*phi in one batched
        substitution."""
        source = self.frame.hypersurface
        svars, trunc = source.vars(), source.phi.trunc
        w_image = Series.variable("s", svars, trunc) + \
            source.phi * GaussRational(0, 1)
        mapping = {f"z{j}": Series.variable(f"z{j}", svars, trunc)
                   for j in range(1, self.n + 1)}
        mapping["w"] = w_image
        return substitute(self.f.components, mapping)

    @cached_property
    def Fbar(self) -> List[Series]:
        return [comp.conjugate() for comp in self.F]

    @cached_property
    def s_hat(self) -> Series:
        """Re F_{n+1}|M, the target's s composed with f."""
        return (self.F[-1] + self.Fbar[-1]) * GaussRational(Fraction(1, 2))

    def compose(self, gs: Sequence[Series]) -> List[Series]:
        """Each g(zhat, chat, shat) o f as a series on the source, in one
        batched substitution: the image products are formed once for all
        of gs."""
        mapping = {}
        for j in range(1, self.n + 1):
            mapping[f"z{j}"] = self.F[j - 1]
            mapping[f"c{j}"] = self.Fbar[j - 1]
        mapping["s"] = self.s_hat
        return substitute(gs, mapping)

    @cached_property
    def target_f(self) -> Dict[str, Any]:
        """The target data composed with f in one compose call, by name:
        "phi" is phihat o f, "phi_s" and "phi_z" (a list over z_1..z_n)
        its first partials, "h0" the n x n h0hat_CD o f and "h0_bar" the
        h0barhat_C o f.  Only h0hat_{ab} with a <= b is composed: the
        entries with a > b are the conjugates, h0hat_{bbar a} =
        -conj(h0hat_{abar b}) (see frame.Frame), and composing with f
        commutes with conjugation."""
        fr_hat, n = self.frame_hat, self.n
        phihat = fr_hat.hypersurface.phi
        upper = [(a, b) for a in range(n) for b in range(a, n)]
        composed = iter(self.compose(
            [phihat, phihat.diff("s")]
            + [phihat.diff(f"z{C}") for C in range(1, n + 1)]
            + [fr_hat.h0[a][b] for a, b in upper] + fr_hat.h0_bar))
        out = {"phi": next(composed), "phi_s": next(composed),
               "phi_z": [next(composed) for _ in range(n)]}
        h0 = [[None] * n for _ in range(n)]
        for a, b in upper:
            h0[a][b] = next(composed)
            h0[b][a] = -h0[a][b].conjugate() if b > a else h0[a][b]
        out["h0"], out["h0_bar"] = h0, list(composed)
        return out

    @cached_property
    def theta_hat_f(self) -> Dict[str, Series]:
        """The coordinate components of theta_hat composed with f.  The
        z_C component of theta_hat is -i phihat_{z_C} / (1 - i phihat_s)
        = phihat_{z_C} / (phihat_s + i), and composing with f is a ring
        map, so the partials are composed (they are far sparser than the
        quotients) and each quotient is formed after, as one division of
        phihat_{z_C} o f by the unit phihat_s o f + i, with no
        reciprocal.  Fbar is conj(F) and s_hat is real, so composing
        with f commutes with conjugation: each c_C component is the
        conjugate of the z_C one.  The ds component is 1, at the target
        frame's truncation."""
        phihat_s_f, phihat_z_f = self.target_f["phi_s"], self.target_f["phi_z"]
        # -i / (1 - i phihat_s) = 1 / (phihat_s + i)
        unit = phihat_s_f + Series.const(GaussRational(0, 1), phihat_s_f.vars,
                                         phihat_s_f.trunc)
        out = {"s": Series.const(1, phihat_s_f.vars, self.frame_hat.trunc)}
        for C in range(1, self.n + 1):
            out[f"z{C}"] = phihat_z_f[C - 1] / unit
            out[f"c{C}"] = out[f"z{C}"].conjugate()
        return out

    @cached_property
    def gamma(self) -> List[List[Series]]:
        """gamma[C][B] = L_B(F_C|M).  Each F_C|M restricts a holomorphic
        function, so the CR fields annihilate it; InvariantViolation if
        one does not."""
        fr, n, F = self.frame, self.n, self.F
        for B in range(n):
            for C in range(n):
                if not fr.Lbar(B, F[C]).is_zero():
                    raise InvariantViolation(
                        f"L_{B+1}bar(F_{C+1}) != 0: restriction is not CR")
        return [[fr.L(B, F[C]) for B in range(n)] for C in range(n)]

    @cached_property
    def eta(self) -> List[Series]:
        """eta[C] = S(F_C|M)."""
        return [self.frame.S(self.F[C]) for C in range(self.n)]

    @cached_property
    def xi(self) -> Series:
        """The S_hat-component of f_* S: theta_hat o f paired with f_* S,
        whose components are S(s_hat), eta^C and conj(eta^C), divided by
        s_hat^m_hat.

        Raises ValidationError when F_{n+1}|M is zero through its trunc:
        f collapses the source into E' = {w = 0}, where xi is undefined
        and no identity fails.  Raises InvariantViolation("xi-singular
        ...") when the pairing is not divisible by s_hat^m_hat.
        """
        if self.F[-1].is_zero():
            raise ValidationError(
                f"F_{self.n + 1}|M vanishes through trunc {self.F[-1].trunc}: "
                "the map collapses the source into E' = {w = 0}, where xi is "
                "undefined")
        theta, eta = self.theta_hat_f, self.eta
        push = {"s": self.frame.S(self.s_hat)}
        for C in range(self.n):
            push[f"z{C+1}"] = eta[C]
            push[f"c{C+1}"] = eta[C].conjugate()
        # zero components are skipped
        terms = [c * theta[v] for v, c in push.items() if not c.is_zero()]
        if terms:
            paired = sum(terms[1:], terms[0])
        else:
            paired = Series.zero(push["s"].vars,
                                 min(c.trunc for c in push.values()))
        try:
            return paired.divide_unit_form(
                self.s_hat ** self.frame_hat.hypersurface.m)
        except (UnitRequiredError, DivisibilityError) as exc:
            raise InvariantViolation(f"xi-singular: {exc}")

    @cached_property
    def map_residual(self) -> Series:
        """The containment residual Im(F_{n+1}|M) - phihat o f: the zero
        series exactly at truncation iff f maps the source into the
        target."""
        minus_half_i = GaussRational(0, Fraction(-1, 2))
        return (self.F[-1] - self.Fbar[-1]) * minus_half_i - \
            self.target_f["phi"]

    @cached_property
    def identities(self) -> Dict[str, List[Series]]:
        """The five pushforward identities as exact residuals, by family.

        With h0 = <theta, [L_Abar, L_B]> / s^m on both sides and the tail
        functions h0bar from the bracket with s^m T, the residuals are

          levi:      xi*h0_AB       - sum gamma^D_B conj(gamma^C_A) h0hat_CD o f
          levi-tail: L_Abar xi + xi h0bar_A - xi sum conj(gamma^C_A) h0barhat_C o f
                                 + sum conj(gamma^C_A) eta^D h0hat_CD o f
          gamma-cr:  L_Abar gamma^E_B - eta^E h0_AB
          eta-cr:    L_Abar eta^E + eta^E h0bar_A
          gamma-s:   S gamma^E_A - L_A eta^E - eta^E conj(h0bar_A)

        All vanish identically for a map with zero containment residual.
        The sums over C go through one n x n table
        M[A][D] = sum_C conj(gamma^C_A) h0hat_CD o f, which both Levi
        identities read.  Every residual is the exact series cut at the
        smallest trunc among its factors, however the sums are grouped.
        """
        n, fr = self.n, self.frame
        xi, gamma, eta = self.xi, self.gamma, self.eta
        h0, h0bar = fr.h0, fr.h0_bar
        h0_hat, h0bar_hat = self.target_f["h0"], self.target_f["h0_bar"]
        gamma_bar = [[gamma[C][A].conjugate() for A in range(n)]
                     for C in range(n)]
        M = [[reduce(add, [gamma_bar[C][A] * h0_hat[C][D] for C in range(n)])
              for D in range(n)] for A in range(n)]

        res: Dict[str, List[Series]] = {
            "levi": [], "levi-tail": [], "gamma-cr": [], "eta-cr": [],
            "gamma-s": []}
        for A in range(n):
            for B in range(n):
                acc = xi * h0[A][B]
                for D in range(n):
                    acc = acc - gamma[D][B] * M[A][D]
                res["levi"].append(acc)
        for A in range(n):
            tail = h0bar[A]
            for C in range(n):
                tail = tail - gamma_bar[C][A] * h0bar_hat[C]
            acc = fr.Lbar(A, xi) + xi * tail
            for D in range(n):
                acc = acc + eta[D] * M[A][D]
            res["levi-tail"].append(acc)
        for A in range(n):
            for B in range(n):
                for E in range(n):
                    res["gamma-cr"].append(
                        fr.Lbar(A, gamma[E][B]) - eta[E] * h0[A][B])
        for A in range(n):
            for E in range(n):
                res["eta-cr"].append(fr.Lbar(A, eta[E]) + eta[E] * h0bar[A])
        for A in range(n):
            for E in range(n):
                res["gamma-s"].append(fr.S(gamma[E][A]) - fr.L(A, eta[E])
                                      - eta[E] * h0bar[A].conjugate())
        return res

    @cached_property
    def all_zero(self) -> bool:
        """Whether the containment residual and every identity residual
        vanish."""
        return self.map_residual.is_zero() and all(
            r.is_zero() for rs in self.identities.values() for r in rs)

    @cached_property
    def max_checked_order(self) -> int:
        """The smallest trunc among the identity residuals."""
        return min((r.trunc for rs in self.identities.values() for r in rs),
                   default=0)
