"""CR frame, its bracket structure constants and Levi data, and the
kernel filtration at the origin.

Frame basis (order fixed throughout): T = d/ds, then L_1..L_n, then
L_1bar..L_nbar with

    L_Abar = d/dc_A + Q_A d/ds,   Q_A = -i phi_{c_A} / (1 + i phi_s),
    L_A    = d/dz_A + P_A d/ds,   P_A = conj(Q_A).

Q_A = phi_{c_A} / (i - phi_s) is one quotient by a unit (Series /), with
no reciprocal formed, and phi is real (a Hypersurface checks it when it
is built), so each quotient gives both halves.  Each field is a
coordinate field plus a multiple of T, so a Frame stores only Q_A, P_A
and the structure constants below, and applies its fields to a series as
derivations: L(A, f) = f_{z_A} + P_A f_s, Lbar(A, f) = f_{c_A} + Q_A f_s
and S(f) = s^m f_s, with m the type of the frame's hypersurface (h0 and
h0_bar read it there too, and filtration its ell_max; all four raise
ValidationError on a Levi-flat surface, where L and Lbar stay defined).
The coframe theta (theta(T) = 1, theta(L_A) = theta(L_Abar) = 0) is
ds - sum P_A dz_A - sum Q_A dc_A, and every bracket [L_abar, e_j] is a
multiple of T.  A frame computes those multiples once: c[a][j] is the
T-coefficient of [L_abar, e_j] for e_j in (T, L_1..L_n),

    c[a][0]   = -d_s Q_a,
    c[a][b+1] = d_{c_a} P_b - d_{z_b} Q_a + Q_a d_s P_b - P_b d_s Q_a,

and, since T is real and conj [L_bbar, L_a] = -[L_abar, L_b],
c[b][a+1] = -conj(c[a][b+1]): only the n(n+1)/2 entries with a <= b are
formed.  On the diagonal the last two terms of c[a][a+1] are the
conjugates of the first two, so c[a][a+1] = x - conj(x) with
x = d_{c_a} P_a + Q_a d_s P_a, one product.  Everything below reads
them, in one normalization:

  * the Levi matrix h_{AbarB} = <theta, [L_Abar, L_B]> = c[A][B+1];
    reports print (1/2i) h, whose desingularized leading term is the
    mixed Hessian of the lowest-order part of phi_m; Frame.h0 is its
    quotient by s^m;
  * the tail functions Frame.h0_bar, h0_Abar from
    [L_Abar, s^m T] = -s^m h0_Abar T;
  * `filtration`, which grows the Lie derivatives of theta along words
    in the L_Abar one letter at a time by
        (L_{L_abar} omega)_j = L_abar(omega_j) - omega_0 c[a][j];
    their L_D-components h_{A1bar..Akbar D} satisfy
    h_{word Cbar D} = L_Cbar h_{word D} + h_{word T} h_{Cbar D}, and the
    length-1 member is h_{Abar D} = -h_{AbarD}.  Their values at the
    origin give the kernel filtration, whose rank sequence it returns.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

from .errors import ValidationError
from .hypersurface import Hypersurface
from .linalg import Row, rank
from .scalars import GaussRational
from .series import Series


class Frame:
    """The frame on a hypersurface: the s-coefficients Q_A and P_A of its
    fields, and the structure constants c.  Indices A are 0-based here,
    so L(0, f) applies L_1."""

    def __init__(self, h: Hypersurface):
        self.hypersurface = h
        n = self.n = h.n
        self.vars = h.vars()
        phi = h.phi
        trunc = phi.trunc - 1     # frame coefficients involve phi_s
        self.trunc = trunc
        # -i / (1 + i phi_s) = 1 / (i - phi_s)
        unit = Series.const(GaussRational(0, 1), self.vars, trunc) \
            - phi.diff("s")
        Q = self.Q = [phi.diff(f"c{A}") / unit for A in range(1, n + 1)]
        P = self.P = [q.conjugate() for q in Q]

        # c[a][j] = T-coefficient of [L_abar, e_j], e_j in (T, L_1..L_n).
        # Every frame field is a coordinate field plus a multiple of T, so
        # these brackets (and [L_abar, L_bbar], which vanishes because the
        # CR bundle is integrable) are multiples of T.  So the
        # L_bar-components of every iterated form of theta stay zero and
        # these n(n+1) coefficients are all the Lie derivative needs.
        dQ = [q.diff("s") for q in Q]
        dP = [x.conjugate() for x in dQ]
        self.c: List[List[Series]] = [[-x] + [None] * n for x in dQ]
        for a in range(n):
            for b in range(a, n):
                x = P[b].diff(f"c{a + 1}") + Q[a] * dP[b]
                if a == b:
                    # the other two terms are conj(x): one product, not two
                    x = x - x.conjugate()
                else:
                    x = x - Q[a].diff(f"z{b + 1}") - P[b] * dQ[a]
                    self.c[b][a + 1] = -x.conjugate()
                self.c[a][b + 1] = x

    # Each field applied to f is exact through min(f.trunc - 1,
    # self.trunc): P_A and Q_A carry self.trunc even when zero, and a sum
    # keeps the smaller truncation.

    def L(self, A: int, f: Series) -> Series:
        """L_A f = f_{z_A} + P_A f_s."""
        return f.diff(f"z{A + 1}") + self.P[A] * f.diff("s")

    def Lbar(self, A: int, f: Series) -> Series:
        """L_Abar f = f_{c_A} + Q_A f_s."""
        return f.diff(f"c{A + 1}") + self.Q[A] * f.diff("s")

    def S(self, f: Series) -> Series:
        """S f = s^m T f = s^m f_s, m the type of the hypersurface."""
        return (Series.variable("s", self.vars, self.trunc)
                ** self._m * f.diff("s"))

    # The Levi data need the hypersurface not to be Levi flat.  Each is
    # formed on first use and kept.

    @property
    def _m(self) -> int:
        """The type m of the hypersurface, which S, the Levi data and the
        filtration read; ValidationError on a Levi-flat one."""
        if self.hypersurface.levi_flat:
            raise ValidationError("Levi data undefined for Levi-flat input")
        return self.hypersurface.m

    @cached_property
    def h0(self) -> List[List[Series]]:
        """h0_{AbarB} = c[A][B+1] / s^m, the Levi matrix divided by s^m.
        Raises DivisibilityError (naming the offending monomial) when it
        is not divisible by s^m, which signals a non-normal input."""
        n, m = self.n, self._m
        return [[self.c[a][b + 1].divide_by_power("s", m) for b in range(n)]
                for a in range(n)]

    @cached_property
    def h0_bar(self) -> List[Series]:
        """The tail data h0_Abar.  With a_Abar = m (L_Abar s)/s = m Q_A / s,
        [L_Abar, s^m T] = s^m (a_Abar + c[A][0]) T, so
        h0_Abar = -(a_Abar + c[A][0]), cut to the order the bracket with
        s^m T leaves exact.  For m = 0, a_Abar = 0: Q_A need not be
        divisible by s there."""
        m = self._m
        if m == 0:
            return [-ca[0].truncate(self.trunc - 1) for ca in self.c]
        a_bar = [q.divide_by_power("s", 1) * GaussRational(m) for q in self.Q]
        return [-(x + ca[0]).truncate(self.trunc - 1 - m)
                for x, ca in zip(a_bar, self.c)]


def filtration(frame: Frame) -> List[int]:
    """The ranks r_k = n - dim F_k(0) of the nested kernels F_k(0), for
    k = 0..ell; ell = len(ranks) - 1, and the filtration is nondegenerate
    iff ranks[-1] == n.  F_k(0) is the common kernel of the value rows
    h^0_{word D}(0), D = 1..n, of the words of length <= k, so r_k is
    their rank.  Each length of words, in lexicographic order, grows from
    the previous one (only that level is kept), up to the length at which
    the ranks settle or the ell_max of the frame's hypersurface; a word of
    length k <= ell_max leaves its form exact through trunc - k >= m."""
    m, n = frame._m, frame.n
    ell_max = frame.hypersurface.ell_max
    # omega = L_{A_k bar} ... L_{A_1 bar} theta as its (T, L_1..L_n)
    # components; the L_bar-components are zero (see Frame.c)
    level = [[Series.const(1, frame.vars, frame.trunc)]
             + [Series.zero(frame.vars, frame.trunc) for _ in range(n)]]
    ranks = [0]                       # r_0 = n - dim F_0 = 0
    rows: List[Row] = []
    for k in range(1, ell_max + 1):
        level = [[frame.Lbar(a, omega[j]) - omega[0] * ca[j]
                  for j in range(n + 1)]
                 for omega in level for a, ca in enumerate(frame.c)]
        for omega in level:
            vals = [omega[d].divide_by_power("s", m).constant_term()
                    for d in range(1, n + 1)]
            rows.append({d: v for d, v in enumerate(vals) if not v.is_zero()})
        ranks.append(rank(rows, n))
        if ranks[k] == n:
            return ranks
        if k > 1 and ranks[k] == ranks[k - 1]:
            return ranks[:k]          # stabilized strictly above zero
    return ranks
