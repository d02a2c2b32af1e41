"""CR frame, its bracket structure constants, the Levi matrix, the
desingularized data and the kernel filtration at the origin.

Frame basis (order fixed throughout): T = d/ds, then L_1..L_n, then
L_1bar..L_nbar with

    L_Abar = d/dc_A - (i phi_{c_A} / (1 + i phi_s)) d/ds,
    L_A    = conjugate(L_Abar).

A frame computes its structure constants once: c[a][j] holds the frame
components of [L_abar, e_j] for e_j in (T, L_1..L_n).  Everything below
reads them, in one normalization:

  * the Levi matrix h_{AbarB} = <theta, [L_Abar, L_B]> = c[A][B][0];
    reports print (1/2i) h, whose desingularized leading term is the
    mixed Hessian of the lowest-order part of phi_m;
  * the tail functions h0_Abar, from [L_Abar, s^m T] = -s^m h0_Abar T;
  * the iterated forms of theta along words in the L_Abar, grown one
    letter at a time by
        (L_{L_abar} omega)_j = L_abar(omega_j) - sum_k omega_k c[a][j][k];
    their L_D-components h_{A1bar..Akbar D} satisfy
    h_{word Cbar D} = L_Cbar h_{word D} + h_{word T} h_{Cbar D}, and the
    length-1 member is h_{Abar D} = -h_{AbarD}.  Their values at the
    origin give the kernel filtration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import InvariantViolation, TruncationError
from .hypersurface import Hypersurface, compute_infinite_type, validate
from .linalg import kernel_basis, rank, series_mat_inverse
from .scalars import GaussRational
from .series import Series


class FrameField:
    """Vector field sum_v comp[v] * d/dv over the hypersurface coordinates."""

    __slots__ = ("vars", "comps")

    def __init__(self, vars: Tuple[str, ...], comps: Dict[str, Series]):
        self.vars = vars
        self.comps = {v: s for v, s in comps.items() if not s.is_zero()}

    def comp(self, var: str, trunc: int) -> Series:
        s = self.comps.get(var)
        if s is None:
            return Series.zero(self.vars, trunc)
        return s

    def apply(self, f: Series) -> Series:
        """Derivation action on a scalar series."""
        out = Series.zero(self.vars, f.trunc - 1)
        for v, c in self.comps.items():
            out = out + c * f.diff(v)
        return out


def bracket(x: FrameField, y: FrameField, trunc: int) -> FrameField:
    """Coordinate Lie bracket [x, y]."""
    comps: Dict[str, Series] = {}
    for v in set(x.comps) | set(y.comps):
        a = x.apply(y.comp(v, trunc))
        b = y.apply(x.comp(v, trunc))
        comps[v] = a - b
    return FrameField(x.vars, comps)


class Frame:
    """The frame (T, L_A, L_Abar) on a validated hypersurface, with the
    exact inverse frame matrix and the structure constants c."""

    def __init__(self, h: Hypersurface):
        validate(h)
        self.hypersurface = h
        self.n = h.n
        self.vars = h.vars()
        phi = h.phi
        trunc = phi.trunc - 1     # frame coefficients involve phi_s
        self.trunc = trunc
        i_unit = GaussRational(0, 1)
        phi_s = phi.diff("s")
        one = Series.const(1, self.vars, trunc)
        denom_bar = (one + phi_s * i_unit).reciprocal()          # 1/(1+i phi_s)
        denom = (one - phi_s * i_unit).reciprocal()              # 1/(1-i phi_s)

        self.T = FrameField(self.vars, {"s": one})
        self.L: List[FrameField] = []
        self.Lbar: List[FrameField] = []
        for A in range(1, self.n + 1):
            phi_c = phi.diff(f"c{A}")
            phi_z = phi.diff(f"z{A}")
            lbar = FrameField(self.vars, {
                f"c{A}": one,
                "s": -(phi_c * i_unit) * denom_bar,
            })
            la = FrameField(self.vars, {
                f"z{A}": one,
                "s": (phi_z * i_unit) * denom,
            })
            self.L.append(la)
            self.Lbar.append(lbar)

        self.fields: List[FrameField] = [self.T] + self.L + self.Lbar
        # frame matrix: rows = frame fields, columns = coordinate basis vars
        mat = [[f.comp(v, trunc) for v in self.vars] for f in self.fields]
        self.minv = series_mat_inverse(mat)   # minv[var][frame index]
        self._var_index = {v: i for i, v in enumerate(self.vars)}
        # c[a][j] = frame components of [L_abar, e_j], e_j in (T, L_1..L_n).
        # [L_abar, L_bbar] = 0: the CR bundle is integrable and the L_bbar
        # have constant c-components, so the bracket has no c-component and
        # is a multiple of d/ds inside span(L_bar), hence zero.  So the
        # L_bar-components of every iterated form of theta stay zero and
        # these n(n+1) brackets are all the Lie derivative needs.
        self.c: List[List[List[Series]]] = [
            [self.frame_components(bracket(lbar, e, trunc))
             for e in self.fields[:self.n + 1]] for lbar in self.Lbar]

    def frame_components(self, x: FrameField) -> List[Series]:
        """Components of a coordinate vector field in the frame basis."""
        k = 2 * self.n + 1
        out = []
        for j in range(k):
            s = Series.zero(self.vars, self.trunc)
            for v, c in x.comps.items():
                s = s + c * self.minv[self._var_index[v]][j]
            out.append(s)
        return out

    def S(self, m: int) -> FrameField:
        s_pow = Series.variable("s", self.vars, self.trunc) ** m
        return FrameField(self.vars, {"s": s_pow})


def iterated_forms(frame: Frame, max_len: int
                   ) -> Iterator[Tuple[Tuple[int, ...], List[Series]]]:
    """(word, omega) for every word (A_1..A_k), 1-based, of length
    1..max_len in length-then-lexicographic order, where
    omega = L_{A_k bar} ... L_{A_1 bar} theta as its (T, L_1..L_n)
    components; the L_bar-components are zero (see Frame.c).  Each word
    grows from its prefix, and only the previous level is kept."""
    n = frame.n
    theta = [Series.const(1, frame.vars, frame.trunc)] + \
        [Series.zero(frame.vars, frame.trunc) for _ in range(n)]
    level = [((), theta)]
    for length in range(1, max_len + 1):
        if frame.trunc - length < 0:
            raise TruncationError(f"word of length {length} exhausts truncation")
        grown = []
        for word, omega in level:
            for a, (lbar, ca) in enumerate(zip(frame.Lbar, frame.c)):
                new = []
                for j in range(n + 1):
                    acc = lbar.apply(omega[j])
                    for k in range(n + 1):
                        acc = acc - omega[k] * ca[j][k]
                    new.append(acc)
                grown.append((word + (a + 1,), new))
                yield grown[-1]
        level = grown


@dataclass
class LeviData:
    m: int
    h: List[List[Series]]            # <theta,[L_Abar, L_B]>
    h0: Optional[List[List[Series]]] = None      # h / s^m
    h0_bar: Optional[List[Series]] = None        # from [L_Abar, s^m T] = -s^m h0_Abar T
    a_bar: Optional[List[Series]] = None         # m (L_Cbar s)/s


@dataclass
class Filtration:
    ranks: List[int]                 # r_k = n - dim F_k(0), k = 0..ell
    ell: int
    nondegenerate: bool
    stabilized: bool
    basis_change: List[List[GaussRational]]   # columns = adapted L'_B in terms of L_A


def levi_matrix(frame: Frame, m: Optional[int] = None) -> LeviData:
    """The Levi matrix h_{AbarB} = <theta,[L_Abar,L_B]> = c[A][B][0]."""
    n = frame.n
    if m is None:
        report = compute_infinite_type(frame.hypersurface)
        if report.levi_flat:
            m = 0
        else:
            m = report.m
    h = [[frame.c[a][b + 1][0] for b in range(n)] for a in range(n)]
    return LeviData(m=m, h=h)


def desingularize(frame: Frame, levi: LeviData, m: Optional[int] = None) -> LeviData:
    """Divide the Levi data by s^m and extract h0_Abar and a_Cbar.

    [L_Abar, s^m T] = s^m (a_Abar + c[A][0][0]) T, so
    h0_Abar = -(a_Abar + c[A][0][0]), cut to the order the bracket with
    s^m T leaves exact.  Raises DivisibilityError (naming the offending
    monomial) when h is not divisible by s^m, which signals a wrong m or
    a non-normal input.
    """
    if m is None:
        m = levi.m
    n = frame.n
    h0 = [[levi.h[a][b].divide_by_power("s", m) for b in range(n)]
          for a in range(n)]
    h0_bar = []
    a_bar = []
    for a in range(n):
        # [L_Abar, T] must be a multiple of T
        for k, comp in enumerate(frame.c[a][0][1:], start=1):
            if not comp.is_zero():
                raise InvariantViolation(
                    f"[L_{a+1}bar, T] has a component along frame field "
                    f"{k}; frame corrupt")
        lbar_s = frame.Lbar[a].comp("s", frame.trunc)
        a_bar.append(lbar_s.divide_by_power("s", 1) * GaussRational(m))
        h0_bar.append(-(a_bar[a] + frame.c[a][0][0]).truncate(
            frame.trunc - 1 - m))
    return LeviData(m=m, h=levi.h, h0=h0, h0_bar=h0_bar, a_bar=a_bar)


def iterated_h0_at_origin(frame: Frame, m: int, max_len: int
                          ) -> Iterator[Tuple[Tuple[int, ...], List[GaussRational]]]:
    """(word, (h^0_{word D}(0))_D) for every word of length 1..max_len,
    in the order of iterated_forms."""
    # a word of length k leaves its form exact through order trunc - k,
    # which must reach s^m
    if max_len >= 1 and frame.trunc - max_len < m:
        raise TruncationError("truncation exhausted for words of length "
                              f"{max(1, frame.trunc - m + 1)}")
    for word, omega in iterated_forms(frame, max_len):
        yield word, [omega[d].divide_by_power("s", m).constant_term()
                     for d in range(1, frame.n + 1)]


def filtration(frame: Frame, m: int, ell_max: int) -> Filtration:
    """The nested kernels F_k(0), their ranks r_k = n - dim F_k(0), the
    stabilization order ell, and a constant basis change adapting L_A to
    the filtration (column-pivoted exact elimination, lowest index first).
    Words are built only up to the length at which the kernels settle."""
    n = frame.n
    values = iterated_h0_at_origin(frame, m, ell_max)
    ranks = [0]                       # r_0 = n - dim F_0 = 0
    kernels = []                      # kernel bases for k = 1..
    rows_so_far: List[List[GaussRational]] = []
    ell = None
    nondeg = False
    prev_dim = n
    for k in range(1, ell_max + 1):
        rows_so_far.extend(vals for _, vals in itertools.islice(values, n ** k))
        kb = kernel_basis(rows_so_far, n)
        dim = len(kb)
        ranks.append(n - dim)
        kernels.append(kb)
        if dim == 0:
            ell = k
            nondeg = True
            break
        if dim == prev_dim and k >= 1 and ell is None and k > 1:
            # stabilized strictly above zero
            ell = k - 1
            break
        prev_dim = dim
    if ell is None:
        stabilized = False
        ell = ell_max
    else:
        stabilized = True
        ranks = ranks[:ell + 1]
        kernels = kernels[:ell]
    basis_change = _adapted_basis(kernels, n)
    return Filtration(ranks=ranks, ell=ell, nondegenerate=nondeg,
                      stabilized=stabilized, basis_change=basis_change)


def _adapted_basis(kernels: List[List[List[GaussRational]]], n: int
                   ) -> List[List[GaussRational]]:
    """Columns r_k+1..n of the result span F_k(0) for each k."""
    chosen: List[List[GaussRational]] = []

    def independent(vec):
        if not chosen:
            return any(not c.is_zero() for c in vec)
        return rank([list(v) for v in chosen] + [list(vec)]) > len(chosen)

    # deepest kernel first so its vectors end up last
    groups: List[List[List[GaussRational]]] = []
    for kb in reversed(kernels):          # F_ell, ..., F_1
        group = []
        for vec in kb:
            if independent(vec):
                chosen.append(vec)
                group.append(vec)
        groups.append(group)
    std = [[GaussRational(1 if i == j else 0) for i in range(n)]
           for j in range(n)]
    complement = []
    for vec in std:
        if independent(vec):
            chosen.append(vec)
            complement.append(vec)
    ordered = complement[:]
    for group in reversed(groups):        # F_1 extension first, deepest last
        ordered.extend(group)
    # columns of the basis-change matrix
    return [[ordered[j][a] for j in range(n)] for a in range(n)]
