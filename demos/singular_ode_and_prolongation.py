"""
Singular ODE systems and the prolonged contact system
=====================================================

Solves systems t*y' = f(t, y) with f(0,0) = 0 by an exact power-series
recurrence (with t^k (log t)^r terms at resonances), cross-checks a
solution against numeric integration, and runs the jet-space contact
pipeline whose closure equations reduce to systems of this shape.
"""

from crgeom import (BBSystem, ProlongedSystem, assemble_and_solve, bb_vars,
                    formal_solve, numeric_oracle, parse_series, rhs_vars,
                    var_name)

# --- a nonresonant scalar equation --------------------------------------
sys1 = BBSystem(1, [parse_series("1/2*y1 + t + y1^2", bb_vars(1), 14)], 12)
sol1 = formal_solve(sys1)
print("t*y' = y/2 + t + y^2")
print("  coefficients:", {k: [str(x) for x in v]
                          for k, v in sorted(sol1.coeffs.items())})
for t0 in (1e-2, -1e-2):
    print(f"  oracle deviation from t0 = {t0:+.0e}:",
          f"{numeric_oracle(sys1, sol1, t0=t0):.2e}")

# --- a resonant equation: the forcing hits an eigenvalue ----------------
sys2 = BBSystem(1, [parse_series("y1 + t", bb_vars(1), 12)], 10)
sol2 = formal_solve(sys2)
print()
print("t*y' = y + t   (resonant at k = 1)")
print("  resonances:", sol2.resonances, " family dim:", sol2.family_dim)
print("  log terms:", sol2.has_log_terms(),
      " -> solution t*log(t):", {k: [str(x) for x in v]
                                 for k, v in sol2.coeffs.items()})
print("  eigenvalue count off the nonpositive reals:",
      sys2.N - sys2.nonpositive_real)

# --- the contact pipeline on a toy closure ------------------------------
# one jet variable u with closure (s d/ds) u = 2u + s; the unique formal
# solution is u = -s
ps = ProlongedSystem(0, 0)
ps.supplied[var_name(1, (), 0)] = parse_series("2*u1__0 + s",
                                               rhs_vars(0, 0), 10)
sol = assemble_and_solve(ps, 10)[0].solution
print()
print("toy closure (s d/ds)u = 2u + s")
print("  solution coefficients:", {k: [str(x) for x in v]
                                   for k, v in sol.coeffs.items()})

# counts for a genuine jet space: n = 1, order k = 3
counts = ProlongedSystem(1, 3).counts()
print()
print("jet space n=1, k=3:",
      counts["variables"], "variables,",
      counts["contact_equations"], "contact equations,",
      counts["closure_slots"], "closure slots")
