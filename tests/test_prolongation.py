from fractions import Fraction
from itertools import product
from math import comb

import pytest

from crgeom.errors import ValidationError
from crgeom.parsing import parse_series
from crgeom.prolongation import (assemble_and_solve, contact_prolong,
                                 jet_slots, rhs_vars, var_name)
from crgeom.series import Series


def jet_of_function(u, n, k):
    """Oracle: exact jets (s d/ds)^p d_x^alpha u of an explicit function of
    (x1..x_{2n}, s), for all slots of order <= k."""
    out = {}
    s = Series.variable("s", u.vars, u.trunc)
    for (alpha, p) in jet_slots(n, k):
        g = u
        for j, a in enumerate(alpha):
            for _ in range(a):
                g = g.diff(f"x{j + 1}")
        for _ in range(p):
            g = s.truncate(g.trunc - 1) * g.diff("s")
        out[(alpha, p)] = g
    return out


def test_slot_count_formula():
    # #{(alpha, p) : alpha in Z_+^{2n}, |alpha| + p <= k} = C(k + 2n + 1, 2n + 1)
    for n in (0, 1, 2):
        for k in (0, 1, 2, 3):
            assert len(jet_slots(n, k)) == comb(k + 2 * n + 1, 2 * n + 1)


def test_slots_match_product_and_filter():
    # the enumeration that visits all (total+1)^(2n) tuples of each layer
    # and keeps those with |alpha| <= total, sorted layer by layer
    for n in range(4):
        for k in range(5):
            ref = []
            for total in range(k + 1):
                ref.extend(sorted(
                    (alpha, total - sum(alpha)) for alpha in
                    product(range(total + 1), repeat=2 * n)
                    if sum(alpha) <= total))
            assert jet_slots(n, k) == ref, (n, k)


def test_counts_n1_k3():
    ps = contact_prolong(1, 3)
    assert len(ps.jets.slots) == 20
    assert len(ps.jets.variables) == 60
    assert len(ps.contact) == 57
    assert len(ps.closure_slots) == 3


def test_square_system():
    for n in (0, 1, 2):
        for k in (0, 1, 2):
            ps = contact_prolong(n, k)
            assert len(ps.contact) + len(ps.closure_slots) == \
                len(ps.jets.variables)


def test_k1_unrolled():
    ps = contact_prolong(1, 1)
    assert ps.jets.slots == [((0, 0), 0), ((0, 0), 1), ((0, 1), 0),
                             ((1, 0), 0)]
    # per component: one pure contact equation (s d/ds)u = u^{0,1} with an
    # in-jet target, plus two whose targets leave the jet
    in_jet = [e for e in ps.contact if e.target_in_jet]
    assert len(in_jet) == 3
    assert all(e.alpha == (0, 0) and e.p == 0 for e in in_jet)


def test_k0_fiber_only():
    ps = contact_prolong(1, 0)
    assert len(ps.contact) == 0
    assert len(ps.closure_slots) == 3
    assert len(ps.jets.variables) == 3


def test_contact_chain_against_direct_derivatives():
    # applying (s d/ds) to the exact jets of a polynomial reproduces the
    # next jet in the chain
    vars_u = ("x1", "x2", "s")
    u = parse_series("x1^2*s + x2*s^2 + x1*x2 + s^3", vars_u, 8)
    jets = jet_of_function(u, 1, 3)
    s = Series.variable("s", vars_u, 8)
    checked = 0
    for (alpha, p), g in jets.items():
        nxt = jets.get((alpha, p + 1))
        if nxt is None:
            continue
        lhs = s.truncate(g.trunc - 1) * g.diff("s")
        assert (lhs - nxt.truncate(lhs.trunc)).is_zero()
        checked += 1
    assert checked > 0


def test_toy_closure_solution():
    # (s d/ds) u = 2u + s  ->  u = -s  (c1 = 1/(1-2))
    ps = contact_prolong(0, 0)
    rv = rhs_vars(0, 0)
    ps.supplied[var_name(1, (), 0)] = parse_series("2*u1__0 + s", rv, 10)
    rep = assemble_and_solve(ps, 10)
    sol = rep.samples[0].solution
    assert {kr: [str(x) for x in v] for kr, v in sol.coeffs.items()} == \
        {(1, 0): ["-1"]}


def test_constant_closure_constant_solution():
    # homogeneous closure: zero series, all coefficients vanish
    ps = contact_prolong(1, 0)
    rv = rhs_vars(1, 0)
    for nm in ps.needed_rhs_names():
        ps.supplied[nm] = parse_series(f"1/2*{nm}", rv, 10)
    rep = assemble_and_solve(ps, 8)
    assert rep.samples[0].solution.coeffs == {}


def test_missing_rhs_is_an_error():
    ps = contact_prolong(1, 0)
    with pytest.raises(ValidationError, match="missing right-hand side"):
        assemble_and_solve(ps, 4)


def test_centering_failure():
    ps = contact_prolong(0, 0)
    rv = rhs_vars(0, 0)
    ps.supplied[var_name(1, (), 0)] = parse_series("1 + 2*u1__0 + s", rv, 8)
    with pytest.raises(ValidationError, match="centering failure"):
        assemble_and_solve(ps, 6)


def test_two_samples_give_distinct_series():
    ps = contact_prolong(1, 0)
    rv = rhs_vars(1, 0)
    for nm in ps.needed_rhs_names():
        ps.supplied[nm] = parse_series(f"2*{nm} + x1*s", rv, 10)
    ps.frozen_x = [(Fraction(1, 2), Fraction(0)), (Fraction(3), Fraction(1))]
    rep = assemble_and_solve(ps, 6)
    c1 = [ss.solution.coeffs[(1, 0)][0] for ss in rep.samples]
    assert [str(x) for x in c1] == ["-1/2", "-3"]
    radii = [ss.radius_proxy for ss in rep.samples]
    assert radii[0] == pytest.approx(2.0)
    assert radii[1] == pytest.approx(1.0 / 3.0)


def test_contact_and_closure_satisfied_by_solution():
    # solve a k=1, n=0 chain: variables u^{(p)} for p = 0,1 with contact
    # (s d/ds)u^{(0)} = u^{(1)} and a closure on u^{(1)}
    ps = contact_prolong(0, 1)
    rv = rhs_vars(0, 1)
    names = ps.jets.var_names()
    assert names == ["u1__0", "u1__1"]
    ps.supplied["u1__1"] = parse_series("3*u1__1 + s", rv, 10)
    rep = assemble_and_solve(ps, 8)
    sol = rep.samples[0].solution
    # closure: u1 = -1/2 s from c1 = 1/(1-3); contact: u0 with (s d/ds)u0 = u1
    assert str(sol.coeffs[(1, 0)][1]) == "-1/2"
    assert str(sol.coeffs[(1, 0)][0]) == "-1/2"   # (s d/ds)(c s) = c s
