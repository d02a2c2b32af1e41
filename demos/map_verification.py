"""
Verifying holomorphic maps between hypersurfaces
================================================

Checks that (z, w^k) maps the model surface Im w = (Re w)|z|^2 into the
matching family of targets, then evaluates the exact transformation
identities relating the two CR frames along the map.  Every residual is
a truncated series with rational coefficients; "zero" means identically
zero, not small.
"""

from crgeom import (Frame, check_identities, compose_target, corpus,
                    frame_data, maps_into, restriction_data)

for k in (2, 3, 4):
    trunc = 2 * k + 4
    src = corpus.model_surface(trunc)
    tgt = corpus.power_target(k, trunc)
    f = corpus.power_map(k, trunc)
    print(f"map (z, w^{k}) at truncation {trunc}")

    # F restricted to the source: F(z, s + i*phi), and its conjugate
    rd = restriction_data(f, src)

    # what the identities read of the target (phi_hat, theta_hat and the
    # Levi functions), composed with F in one batched substitution
    fr = Frame(src)
    ct = compose_target(fr, Frame(tgt), rd)

    # containment: Im F_2 - phi_hat(F, Fbar, Re F_2) restricted to M
    res = maps_into(rd, ct.phi)
    print("  containment residual zero:", res.is_zero())

    # frame data along the map: gamma (CR component matrix), eta
    # (characteristic component), and the multiplier xi, which is smooth
    # whenever frame_data returns (a singular xi raises InvariantViolation)
    fd = frame_data(fr, rd, ct)
    print("  xi  =", fd.xi.to_literal(), " smooth:", True)
    print("  eta =", [e.to_literal() for e in fd.eta])

    # the five frame-transformation identities, as exact residuals
    rr = check_identities(f, src, tgt)
    for name, residuals in rr.identity_residuals.items():
        print(f"  identity {name:10s} zero:",
              all(r.is_zero() for r in residuals))
    print()

# the identity map is the sanity anchor: xi = 1, everything vanishes
src = corpus.model_surface(9)
rr = check_identities(corpus.identity_map(1, 9), src, src)
print("identity map: xi =", rr.xi.to_literal(),
      " all residuals zero:", rr.all_zero())
