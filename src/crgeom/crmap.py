"""Restriction of holomorphic maps to hypersurfaces, target containment,
the frame data (gamma, eta, xi) of the pushforward, and the five exact
identities these satisfy for genuine CR maps.

A map is given by holomorphic components (F_1,...,F_n,F_{n+1}) in the
ambient variables (z_1,...,z_n,w) with F(0) = 0.  Restricting to
Im w = phi means substituting w -> s + i*phi; then

    s_hat o f = Re F_{n+1}|M,
    gamma^C_B = L_B(F_C|M),     eta^C = S(F_C|M),      S = s^m T,
    f_* S = xi * S_hat + eta^C Lhat_C + conj(eta^C) Lhat_Cbar.

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
from typing import Dict, List, Optional, Tuple

from .errors import (DivisibilityError, InvariantViolation, UnitRequiredError,
                     ValidationError)
from .frame import Frame, desingularize, levi_matrix
from .hypersurface import Hypersurface, compute_infinite_type
from .scalars import GaussRational
from .series import Series


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

    @property
    def n_target(self) -> int:
        return len(self.components) - 1


def restrict_map(f: HoloMap, source: Hypersurface) -> List[Series]:
    """Components F_j|M as series on the source hypersurface, obtained by
    w -> s + i*phi."""
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
    return [comp.subs(mapping) for comp in f.components]


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


def compose_with_map(g: Series, rd: RestrictionData, nhat: int) -> Series:
    """g(zhat, chat, shat) o f as a series on the source hypersurface."""
    mapping = {}
    for j in range(1, nhat + 1):
        mapping[f"z{j}"] = rd.F[j - 1]
        mapping[f"c{j}"] = rd.Fbar[j - 1]
    mapping["s"] = rd.s_hat
    return g.subs(mapping)


def maps_into(f: HoloMap, source: Hypersurface, target: Hypersurface) -> Series:
    """Target-containment residual Im(F_{nhat+1}|M) - phihat o f; the zero
    series exactly at truncation iff f maps the source into the target."""
    if f.n_target != target.n:
        raise ValidationError("map target dimension mismatch")
    rd = restriction_data(f, source)
    minus_half_i = GaussRational(0, Fraction(-1, 2))
    im_last = (rd.F[-1] - rd.Fbar[-1]) * minus_half_i
    phihat_f = compose_with_map(target.phi, rd, target.n)
    return (im_last - phihat_f).truncate(min(im_last.trunc, phihat_f.trunc))


@dataclass
class MapFrameData:
    gamma: List[List[Series]]        # gamma[C][B] = L_B(F_C|M)
    eta: List[Series]                # eta[C] = S(F_C|M)
    xi: Series
    xi_smooth: bool
    s_hat: Series
    m: int
    m_hat: int
    restriction: RestrictionData
    tangency_ok: bool                # That-component of f_* L_B vanishes


def frame_data(f: HoloMap, source: Hypersurface, target: Hypersurface,
               source_frame: Optional[Frame] = None,
               target_frame: Optional[Frame] = None) -> MapFrameData:
    """The pushforward data (gamma, eta, xi) in the source/target frames.

    Raises InvariantViolation("xi-singular ...") when the That-component of
    f_* S is not divisible by (s_hat)^m_hat, e.g. for Levi-flat sources.
    """
    if f.n != source.n or f.n_target != target.n:
        raise ValidationError("map/hypersurface dimension mismatch")
    if source.n != target.n:
        raise ValidationError(
            "frame data requires equidimensional source and target")
    n = source.n
    rep = compute_infinite_type(source)
    rep_hat = compute_infinite_type(target)
    if rep.levi_flat:
        raise InvariantViolation(
            "xi-singular: source is Levi flat (m = infinity)")
    if rep_hat.levi_flat:
        raise InvariantViolation(
            "xi-singular: target is Levi flat (m_hat = infinity)")
    m, m_hat = rep.m, rep_hat.m
    fr = source_frame or Frame(source)
    fr_hat = target_frame or Frame(target)
    rd = restriction_data(f, source)

    # holomorphy of the restriction: CR fields annihilate conj components
    for B in range(n):
        for C in range(n):
            g = fr.Lbar[B].apply(rd.F[C])
            if not g.is_zero():
                raise InvariantViolation(
                    f"L_{B+1}bar(F_{C+1}) != 0: restriction is not CR")

    gamma = [[fr.L[B].apply(rd.F[C]) for B in range(n)] for C in range(n)]
    S = fr.S(m)
    eta = [S.apply(rd.F[C]) for C in range(n)]

    # decompose f_* S in the target frame (coefficients composed with f)
    trunc = min(x.trunc for x in (rd.F + rd.Fbar + [rd.s_hat]))
    comp_by_var: Dict[str, Series] = {}
    for C in range(n):
        comp_by_var[f"z{C+1}"] = S.apply(rd.F[C])
        comp_by_var[f"c{C+1}"] = S.apply(rd.Fbar[C])
    comp_by_var["s"] = S.apply(rd.s_hat)
    t_hat_comp = _pushforward_frame_component(comp_by_var, fr_hat, rd, 0)

    try:
        xi = t_hat_comp.divide_unit_form(rd.s_hat ** m_hat, unit_var="s")
        xi_smooth = True
    except (UnitRequiredError, DivisibilityError) as exc:
        raise InvariantViolation(f"xi-singular: {exc}")

    # tangency: f_* L_B has no That-component
    tangency_ok = True
    for B in range(n):
        cb: Dict[str, Series] = {}
        for C in range(n):
            cb[f"z{C+1}"] = gamma[C][B]
            cb[f"c{C+1}"] = Series.zero(source.vars(), trunc)
        cb["s"] = fr.L[B].apply(rd.s_hat)
        if not _pushforward_frame_component(cb, fr_hat, rd, 0).is_zero():
            tangency_ok = False
    return MapFrameData(gamma=gamma, eta=eta, xi=xi, xi_smooth=xi_smooth,
                        s_hat=rd.s_hat, m=m, m_hat=m_hat, restriction=rd,
                        tangency_ok=tangency_ok)


def _pushforward_frame_component(comp_by_var: Dict[str, Series],
                                 fr_hat: Frame, rd: RestrictionData,
                                 j: int) -> Series:
    """Component along the j-th target frame field of a pushed-forward
    vector with the given target-coordinate components (series on the
    source)."""
    nhat = fr_hat.n
    out = None
    for vi, v in enumerate(fr_hat.vars):
        c = comp_by_var.get(v)
        if c is None or c.is_zero():
            continue
        entry = compose_with_map(fr_hat.minv[vi][j], rd, nhat)
        term = c * entry
        out = term if out is None else out + term
    if out is None:
        tr = min(c.trunc for c in comp_by_var.values())
        first = next(iter(comp_by_var.values()))
        return Series.zero(first.vars, tr)
    return out


@dataclass
class ResidualReport:
    map_residual: Series
    identity_residuals: Dict[str, List[Series]]
    xi_smooth: bool
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
    """
    n = source.n
    fr = Frame(source)
    fr_hat = Frame(target)
    data = frame_data(f, source, target, fr, fr_hat)
    rd = data.restriction
    m, m_hat = data.m, data.m_hat

    src = desingularize(fr, levi_matrix(fr, m), m)
    tgt = desingularize(fr_hat, levi_matrix(fr_hat, m_hat), m_hat)
    h0 = src.h0
    h0_hat_f = [[compose_with_map(tgt.h0[a][b], rd, n) for b in range(n)]
                for a in range(n)]
    h0bar = src.h0_bar
    h0bar_hat_f = [compose_with_map(tgt.h0_bar[a], rd, n) for a in range(n)]

    gamma, eta, xi = data.gamma, data.eta, data.xi
    gamma_bar = [[gamma[C][A].conjugate() for A in range(n)] for C in range(n)]
    S = fr.S(m)

    res: Dict[str, List[Series]] = {
        "levi": [], "levi-tail": [], "gamma-cr": [], "eta-cr": [], "gamma-s": []}

    for A in range(n):
        for B in range(n):
            acc = xi * h0[A][B]
            for C in range(n):
                for D in range(n):
                    acc = acc - gamma[D][B] * gamma_bar[C][A] * h0_hat_f[C][D]
            res["levi"].append(acc)
    for A in range(n):
        acc = fr.Lbar[A].apply(xi) + xi * h0bar[A]
        for C in range(n):
            acc = acc - xi * gamma_bar[C][A] * h0bar_hat_f[C]
            for D in range(n):
                acc = acc + gamma_bar[C][A] * eta[D] * h0_hat_f[C][D]
        res["levi-tail"].append(acc)
    for A in range(n):
        for B in range(n):
            for E in range(n):
                acc = fr.Lbar[A].apply(gamma[E][B]) - eta[E] * h0[A][B]
                res["gamma-cr"].append(acc)
    for A in range(n):
        for E in range(n):
            acc = fr.Lbar[A].apply(eta[E]) + eta[E] * h0bar[A]
            res["eta-cr"].append(acc)
    for A in range(n):
        for E in range(n):
            acc = S.apply(gamma[E][A]) - fr.L[A].apply(eta[E]) \
                - eta[E] * h0bar[A].conjugate()
            res["gamma-s"].append(acc)

    mr = maps_into(f, source, target)
    order = min((r.trunc for rs in res.values() for r in rs), default=0)
    return ResidualReport(map_residual=mr, identity_residuals=res,
                          xi_smooth=data.xi_smooth, xi=xi,
                          max_checked_order=order)
