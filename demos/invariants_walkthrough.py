"""
Hypersurface invariants, step by step
=====================================

Builds two hypersurfaces in normal coordinates Im w = phi(z, zbar, Re w)
and walks through the invariants the package computes: the vanishing
order m of phi in s = Re w, the lowest degree r of the leading slice,
essentiality of the coefficient ideal, and the nondegeneracy order ell.
"""

from crgeom import (Frame, corpus, essentiality_check, filtration,
                    nondegeneracy_ell)
from crgeom.report import HALF_OVER_I

TRUNC = 8

# --- the model surface: phi = s * |z|^2 ---------------------------------
m0 = corpus.model_surface(TRUNC)
print("model surface  phi =", m0.phi.to_literal())

print("  m   =", m0.m, "  (vanishing order of phi in s)")
print("  r   =", m0.r, "  (lowest degree of the s^m slice)")
print("  psi =", m0.psi.to_literal())

ess = essentiality_check(m0)
print("  essentiality:", ess.status, "at degree", ess.bound)
# ell is probed up to word length m0.ell_max = min(4, trunc - m - 1)
ell = nondegeneracy_ell(m0)
print("  nondegeneracy order ell =", ell.ell)

# the desingularized Levi matrix h0 = h / s^m and its origin value, in
# the reports' normalization h = (1/2i) <theta, [L_1bar, L_1]>, which
# the frame holds as its structure constant c[0][1]
fr0 = Frame(m0)
h = fr0.c[0][1] * HALF_OVER_I
h0 = fr0.h0[0][0] * HALF_OVER_I
print("  h   =", h.to_literal())
print("  h0  =", h0.to_literal())
print("  h0(0) =", h0.constant_term())

# --- a surface produced by an implicit solve ----------------------------
# phi is generated by solving t = xi*(s^2 + t^2) for t and composing with
# xi = arctan(z1*c1); the result has vanishing order 2 in s.
e12 = corpus.two_infinite_type_surface(TRUNC)
print()
print("implicit surface  phi =", e12.phi.to_literal())
print("  m =", e12.m, " r =", e12.r)

# --- filtration on a two-variable example -------------------------------
h2 = corpus.filtration_example_surface(TRUNC)
print()
print("two-variable surface  phi =", h2.phi.to_literal())
ranks = filtration(Frame(h2))
print("  kernel ranks:", ranks, " ell =", len(ranks) - 1,
      " nondegenerate =", ranks[-1] == h2.n)

print()
print("full report: m =", m0.m, " r =", m0.r,
      " essential =", ess.status,
      " ell =", ell.as_dict())
