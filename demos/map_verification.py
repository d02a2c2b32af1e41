"""
Verifying holomorphic maps between hypersurfaces
================================================

Checks that (z, w^k) maps the model surface Im w = (Re w)|z|^2 into the
matching family of targets, then evaluates the exact transformation
identities relating the two CR frames along the map.  Every residual is
a truncated series with rational coefficients; "zero" means identically
zero, not small.
"""

from crgeom import MapCheck, corpus

for k in (2, 3, 4):
    trunc = 2 * k + 4
    src = corpus.model_surface(trunc)
    tgt = corpus.power_target(k, trunc)
    print(f"map (z, w^{k}) at truncation {trunc}")

    # one object per map: it restricts F to the source (w -> s + i*phi),
    # composes what it reads of the target with F in one batched
    # substitution, and forms each piece below on first use
    mc = MapCheck(corpus.power_map(k, trunc), src, tgt)

    # containment: Im F_2 - phi_hat(F, Fbar, Re F_2) restricted to M
    print("  containment residual zero:", mc.map_residual.is_zero())

    # frame data along the map: gamma (CR component matrix), eta
    # (characteristic component), and the multiplier xi, which is smooth
    # whenever it is returned (a singular xi raises InvariantViolation)
    print("  xi  =", mc.xi.to_literal(), " smooth:", True)
    print("  eta =", [e.to_literal() for e in mc.eta])

    # the five frame-transformation identities, as exact residuals
    for name, residuals in mc.identities.items():
        print(f"  identity {name:10s} zero:",
              all(r.is_zero() for r in residuals))
    print()

# the identity map is the sanity anchor: xi = 1, everything vanishes
src = corpus.model_surface(9)
mc = MapCheck(corpus.identity_map(1, 9), src, src)
print("identity map: xi =", mc.xi.to_literal(),
      " all residuals zero:", mc.all_zero)
