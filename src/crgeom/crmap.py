"""Restriction of holomorphic maps to hypersurfaces, target containment,
the frame data (gamma, eta, xi) of the pushforward, and the five exact
identities these satisfy for genuine CR maps.

A map is given by holomorphic components (F_1,...,F_n,F_{n+1}) in the
ambient variables (z_1,...,z_n,w) with F(0) = 0.  Restricting to
Im w = phi means substituting w -> s + i*phi; then

    s_hat o f = Re F_{n+1}|M,
    gamma^C_B = L_B(F_C|M),     eta^C = S(F_C|M),      S = s^m T,
    f_* S = xi * S_hat + eta^C Lhat_C + conj(eta^C) Lhat_Cbar.

The target enters only composed with f: compose_target composes phihat,
its first partials and the target's Levi functions h0hat_{ab} (a <= b)
and h0barhat_a with f in one batched substitution, so each product of
image powers is formed once per map.  maps_into, frame_data and
check_identities read that one result.  frame_data returns gamma, eta,
xi and the types m, m_hat of source and target, the fields applied as
the source frame's derivations.  It raises
InvariantViolation("xi-singular ...") when xi is not a smooth function,
so a returned xi is always smooth.

The Levi functions are those of :mod:`crgeom.frame`, in its one
normalization h0_{AbarB} = <theta, [L_Abar, L_B]> / s^m, which is the
one produced by <d omega, X ^ Y> = -<omega, [X, Y]> applied to
omega = theta/s^m.  Used on source and target alike it makes all five
identities below exact.  The tail functions h0_Abar come from
[L_Abar, s^m T] = -s^m h0_Abar T and carry no normalization freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Dict, List, Sequence, Tuple

from .errors import (DivisibilityError, InvariantViolation, UnitRequiredError,
                     ValidationError)
from .frame import Frame, levi
from .hypersurface import Hypersurface, compute_infinite_type
from .scalars import GaussRational
from .series import Series, substitute


def map_vars(n: int) -> Tuple[str, ...]:
    return tuple(f"z{j}" for j in range(1, n + 1)) + ("w",)


@dataclass(frozen=True)
class HoloMap:
    """Holomorphic map germ (C^{n+1},0) -> (C^{nhat+1},0); components are
    series in (z_1..z_n, w) with zero constant term."""
    n: int
    components: Tuple[Series, ...]

    @staticmethod
    def make(n: int, components) -> "HoloMap":
        comps = tuple(components)
        for j, f in enumerate(comps):
            if not f.constant_term().is_zero():
                raise ValidationError(
                    f"map component {j + 1} does not fix the origin")
            if f.vars != map_vars(n):
                raise ValidationError(
                    f"map component {j + 1} must be a series in {map_vars(n)}")
        return HoloMap(n=n, components=comps)


def restrict_map(f: HoloMap, source: Hypersurface) -> List[Series]:
    """Components F_j|M as series on the source hypersurface, obtained by
    w -> s + i*phi in one batched substitution."""
    if f.n != source.n:
        raise ValidationError("map source dimension mismatch")
    svars = source.vars()
    trunc = source.phi.trunc
    w_image = Series.variable("s", svars, trunc) + \
        source.phi * GaussRational(0, 1)
    mapping = {}
    for j in range(1, f.n + 1):
        mapping[f"z{j}"] = Series.variable(f"z{j}", svars, trunc)
    mapping["w"] = w_image
    return substitute(f.components, mapping)


@dataclass
class RestrictionData:
    F: List[Series]              # F_j|M, j = 1..nhat+1
    Fbar: List[Series]           # conjugates on the source
    s_hat: Series                # Re F_{nhat+1}|M


def restriction_data(f: HoloMap, source: Hypersurface) -> RestrictionData:
    F = restrict_map(f, source)
    Fbar = [comp.conjugate() for comp in F]
    half = GaussRational(Fraction(1, 2))
    s_hat = (F[-1] + Fbar[-1]) * half
    return RestrictionData(F=F, Fbar=Fbar, s_hat=s_hat)


def compose_with_map(gs: Sequence[Series], rd: RestrictionData
                     ) -> List[Series]:
    """Each g(zhat, chat, shat) o f as a series on the source hypersurface,
    in one batched substitution: the image products are formed once for
    all of gs."""
    mapping = {}
    for j in range(1, len(rd.F)):
        mapping[f"z{j}"] = rd.F[j - 1]
        mapping[f"c{j}"] = rd.Fbar[j - 1]
    mapping["s"] = rd.s_hat
    return substitute(gs, mapping)


def maps_into(rd: RestrictionData, phihat_f: Series) -> Series:
    """Target-containment residual Im(F_{nhat+1}|M) - phihat o f, given
    phihat o f (``ComposedTarget.phi``); the zero series exactly at
    truncation iff f maps the source into the target."""
    minus_half_i = GaussRational(0, Fraction(-1, 2))
    return (rd.F[-1] - rd.Fbar[-1]) * minus_half_i - phihat_f


@dataclass
class ComposedTarget:
    """The target data that the identities read, composed with f, and the
    types m, m_hat of source and target."""
    m: int
    m_hat: int
    phi: Series                      # phihat o f
    theta: Dict[str, Series]         # theta_hat o f, by target coordinate
    h0: List[List[Series]]           # h0hat_CD o f
    h0_bar: List[Series]             # h0barhat_C o f


def compose_target(fr: Frame, fr_hat: Frame, rd: RestrictionData
                   ) -> ComposedTarget:
    """phihat, its first partials, h0hat_{ab} (a <= b) and h0barhat_a,
    composed with f in one compose_with_map call: (n+1) + n(n+1)/2 + n + 1
    series.  theta_hat o f is formed from the partials after, and the
    h0hat_{ab} with a > b by conjugation.

    Raises ValidationError on a dimension mismatch and
    InvariantViolation("xi-singular ...") when source or target is Levi
    flat.
    """
    source, target = fr.hypersurface, fr_hat.hypersurface
    if len(rd.F) - 1 != target.n:
        raise ValidationError("map/hypersurface dimension mismatch")
    if source.n != target.n:
        raise ValidationError(
            "frame data requires equidimensional source and target")
    n = target.n
    m, m_hat = _types(source, target)
    upper = [(a, b) for a in range(n) for b in range(a, n)]
    composed = iter(compose_with_map(
        _target_pieces(fr_hat, m_hat, upper), rd))
    phihat_f, phihat_s_f = next(composed), next(composed)
    phihat_z_f = [next(composed) for _ in range(n)]
    # h0hat_{bbar a} = -conj(h0hat_{abar b}) (see frame.Frame), and
    # composing with f commutes with conjugation
    h0 = [[None] * n for _ in range(n)]
    for a, b in upper:
        x = next(composed)
        h0[a][b] = x
        h0[b][a] = -x.conjugate() if b > a else x
    return ComposedTarget(
        m=m, m_hat=m_hat, phi=phihat_f,
        theta=_theta_hat_f(fr_hat, phihat_s_f, phihat_z_f), h0=h0,
        h0_bar=list(composed))


def _types(source: Hypersurface, target: Hypersurface) -> Tuple[int, int]:
    """The types m, m_hat of source and target; raises
    InvariantViolation("xi-singular ...") when either is Levi flat."""
    rep = compute_infinite_type(source)
    rep_hat = compute_infinite_type(target)
    if rep.levi_flat:
        raise InvariantViolation(
            "xi-singular: source is Levi flat (m = infinity)")
    if rep_hat.levi_flat:
        raise InvariantViolation(
            "xi-singular: target is Levi flat (m_hat = infinity)")
    return rep.m, rep_hat.m


def _target_pieces(fr_hat: Frame, m_hat: int, upper: List[Tuple[int, int]]
                   ) -> List[Series]:
    """The series compose_target composes, in its order: phihat, phihat_s,
    phihat_{z_C}, h0hat_{ab} for (a, b) in upper, and h0barhat_a.  The
    rest of the target's Levi data is freed on return, before the
    composition runs."""
    phihat = fr_hat.hypersurface.phi
    tgt = levi(fr_hat, m_hat)
    return ([phihat, phihat.diff("s")]
            + [phihat.diff(f"z{C}") for C in range(1, fr_hat.n + 1)]
            + [tgt.h0[a][b] for a, b in upper] + tgt.h0_bar)


@dataclass
class MapFrameData:
    gamma: List[List[Series]]        # gamma[C][B] = L_B(F_C|M)
    eta: List[Series]                # eta[C] = S(F_C|M)
    xi: Series
    m: int
    m_hat: int


def frame_data(fr: Frame, rd: RestrictionData, ct: ComposedTarget
               ) -> MapFrameData:
    """The pushforward data (gamma, eta, xi) in the source frame fr, for
    the map whose restriction to the source is rd and whose composed
    target data is ct (see compose_target).

    Raises InvariantViolation("xi-singular ...") when the That-component of
    f_* S is not divisible by (s_hat)^m_hat.
    """
    n, m = fr.n, ct.m

    # holomorphy of the restriction: CR fields annihilate conj components
    for B in range(n):
        for C in range(n):
            g = fr.Lbar(B, rd.F[C])
            if not g.is_zero():
                raise InvariantViolation(
                    f"L_{B+1}bar(F_{C+1}) != 0: restriction is not CR")

    gamma = [[fr.L(B, rd.F[C]) for B in range(n)] for C in range(n)]
    eta = [fr.S(m, rd.F[C]) for C in range(n)]

    # the That-component of f_* S is theta_hat o f paired with it
    push_s = {"s": fr.S(m, rd.s_hat)}
    for C in range(n):
        push_s[f"z{C+1}"] = eta[C]
        push_s[f"c{C+1}"] = eta[C].conjugate()
    t_hat_comp = _pair(ct.theta, push_s)

    try:
        xi = t_hat_comp.divide_unit_form(rd.s_hat ** ct.m_hat, unit_var="s")
    except (UnitRequiredError, DivisibilityError) as exc:
        raise InvariantViolation(f"xi-singular: {exc}")
    return MapFrameData(gamma=gamma, eta=eta, xi=xi, m=m, m_hat=ct.m_hat)


def _theta_hat_f(fr_hat: Frame, phihat_s_f: Series,
                 phihat_z_f: List[Series]) -> Dict[str, Series]:
    """The coordinate components of theta_hat composed with f, from the
    first partials of phihat composed with f.  The z_C component of
    theta_hat is -i phihat_{z_C} / (1 - i phihat_s), and composing with f
    is a ring map, so the partials are composed (they are far sparser
    than the quotients) and the quotients formed after, with one shared
    reciprocal.  Fbar is conj(F) and s_hat is real, so composing with f
    commutes with conjugation: each c_C component is the conjugate of
    the z_C one.  The ds component is 1, at the target frame's
    truncation."""
    # -i / (1 - i phihat_s) = 1 / (phihat_s + i)
    inv = (phihat_s_f + Series.const(GaussRational(0, 1), phihat_s_f.vars,
                                     phihat_s_f.trunc)).reciprocal()
    out = {"s": Series.const(1, phihat_s_f.vars, fr_hat.trunc)}
    for C, x in enumerate(phihat_z_f, start=1):
        out[f"z{C}"] = x * inv
        out[f"c{C}"] = out[f"z{C}"].conjugate()
    return out


def _pair(theta_f: Dict[str, Series], push: Dict[str, Series]) -> Series:
    """theta_hat o f paired with a pushed-forward vector given by its
    target-coordinate components (series on the source); zero components
    are skipped."""
    terms = [c * theta_f[v] for v, c in push.items() if not c.is_zero()]
    if not terms:
        first = next(iter(push.values()))
        return Series.zero(first.vars, min(c.trunc for c in push.values()))
    return sum(terms[1:], terms[0])


@dataclass
class ResidualReport:
    map_residual: Series
    identity_residuals: Dict[str, List[Series]]
    xi: Series
    max_checked_order: int = 0

    def all_zero(self) -> bool:
        if not self.map_residual.is_zero():
            return False
        return all(r.is_zero() for rs in self.identity_residuals.values()
                   for r in rs)


def check_identities(f: HoloMap, source: Hypersurface, target: Hypersurface
                     ) -> ResidualReport:
    """Verify the five pushforward identities exactly at truncation.

    With h0 = <theta, [L_Abar, L_B]> / s^m on both sides and the tail
    functions h0bar from the bracket with s^m T, the residuals are

      levi:        xi*h0_AB       - sum gamma^D_B conj(gamma^C_A) h0hat_CD o f
      levi-tail:   L_Abar xi + xi h0bar_A - xi sum conj(gamma^C_A) h0barhat_C o f
                                 + sum conj(gamma^C_A) eta^D h0hat_CD o f
      gamma-cr:    L_Abar gamma^E_B - eta^E h0_AB
      eta-cr:      L_Abar eta^E + eta^E h0bar_A
      gamma-s:     S gamma^E_A - L_A eta^E - eta^E conj(h0bar_A)

    All vanish identically for a map with zero containment residual.
    The sums over C go through one n x n table
    M[A][D] = sum_C conj(gamma^C_A) h0hat_CD o f, which both Levi
    identities read.  Every residual is the exact series cut at the
    smallest trunc among its factors, however the sums are grouped.
    """
    n = source.n
    fr, fr_hat = Frame(source), Frame(target)
    rd = restriction_data(f, source)
    ct = compose_target(fr, fr_hat, rd)
    data = frame_data(fr, rd, ct)
    src = levi(fr, data.m)
    h0, h0bar = src.h0, src.h0_bar

    gamma, eta, xi = data.gamma, data.eta, data.xi
    gamma_bar = [[gamma[C][A].conjugate() for A in range(n)] for C in range(n)]
    M = [[reduce(add, [gamma_bar[C][A] * ct.h0[C][D] for C in range(n)])
          for D in range(n)] for A in range(n)]

    res: Dict[str, List[Series]] = {
        "levi": [], "levi-tail": [], "gamma-cr": [], "eta-cr": [], "gamma-s": []}

    for A in range(n):
        for B in range(n):
            acc = xi * h0[A][B]
            for D in range(n):
                acc = acc - gamma[D][B] * M[A][D]
            res["levi"].append(acc)
    for A in range(n):
        tail = h0bar[A]
        for C in range(n):
            tail = tail - gamma_bar[C][A] * ct.h0_bar[C]
        acc = fr.Lbar(A, xi) + xi * tail
        for D in range(n):
            acc = acc + eta[D] * M[A][D]
        res["levi-tail"].append(acc)
    for A in range(n):
        for B in range(n):
            for E in range(n):
                acc = fr.Lbar(A, gamma[E][B]) - eta[E] * h0[A][B]
                res["gamma-cr"].append(acc)
    for A in range(n):
        for E in range(n):
            acc = fr.Lbar(A, eta[E]) + eta[E] * h0bar[A]
            res["eta-cr"].append(acc)
    for A in range(n):
        for E in range(n):
            acc = fr.S(data.m, gamma[E][A]) - fr.L(A, eta[E]) \
                - eta[E] * h0bar[A].conjugate()
            res["gamma-s"].append(acc)

    mr = maps_into(rd, ct.phi)
    order = min((r.trunc for rs in res.values() for r in rs), default=0)
    return ResidualReport(map_residual=mr, identity_residuals=res, xi=xi,
                          max_checked_order=order)
