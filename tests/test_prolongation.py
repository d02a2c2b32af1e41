import hashlib
import json
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from crgeom.briot_bouquet import bb_vars
from crgeom.cli import main
from crgeom.errors import ValidationError
from crgeom.parsing import parse_series
from crgeom.prolongation import (ProlongedSystem, assemble_and_solve,
                                 freeze_x, jet_slots, rhs_vars, var_name)
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


def equations(n, k):
    """Oracle: the contact equations, as (lhs name, target in jet), of
    every slot with p < k, and the names of the closure slots p = k."""
    slots = jet_slots(n, k)
    slotset = set(slots)
    contact, closure = [], []
    for (alpha, p) in slots:
        for i in range(1, 2 * n + 2):
            if p < k:
                contact.append((var_name(i, alpha, p),
                                (alpha, p + 1) in slotset))
            else:
                closure.append(var_name(i, alpha, p))
    return contact, closure


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
    ps = ProlongedSystem(1, 3)
    assert len(ps.slots) == 20
    assert len(ps.var_names()) == 60
    assert ps.counts() == {"variables": 60, "contact_equations": 57,
                           "closure_slots": 3}


def test_square_system():
    # one defining equation per variable; a right-hand side is supplied
    # for each closure slot and each contact equation whose target leaves
    # the jet, closure names first
    for n in (0, 1, 2):
        for k in (0, 1, 2, 3):
            ps = ProlongedSystem(n, k)
            contact, closure = equations(n, k)
            counts = ps.counts()
            assert counts["variables"] == len(ps.var_names())
            assert counts["contact_equations"] == len(contact)
            assert counts["closure_slots"] == len(closure)
            assert len(contact) + len(closure) == counts["variables"]
            assert ps.needed_rhs_names() == closure + [
                nm for nm, in_jet in contact if not in_jet], (n, k)


def test_k1_unrolled():
    ps = ProlongedSystem(1, 1)
    assert ps.slots == [((0, 0), 0), ((0, 0), 1), ((0, 1), 0),
                        ((1, 0), 0)]
    # per component: one pure contact equation (s d/ds)u = u^{0,1} with an
    # in-jet target; every other variable needs a supplied right-hand side
    names = ps.var_names()
    assert names[:3] == ["u1_00_0", "u2_00_0", "u3_00_0"]
    assert ps.needed_rhs_names() == names[3:]


def test_k0_fiber_only():
    ps = ProlongedSystem(1, 0)
    assert ps.counts() == {"variables": 3, "contact_equations": 0,
                           "closure_slots": 3}
    assert ps.needed_rhs_names() == ps.var_names()


def test_negative_order_is_an_error():
    with pytest.raises(ValidationError, match="nonnegative"):
        ProlongedSystem(1, -1)


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
    ps = ProlongedSystem(0, 0)
    rv = rhs_vars(0, 0)
    ps.supplied[var_name(1, (), 0)] = parse_series("2*u1__0 + s", rv, 10)
    sol = assemble_and_solve(ps, 10)[0].solution
    assert {kr: [str(x) for x in v] for kr, v in sol.coeffs.items()} == \
        {(1, 0): ["-1"]}


def test_constant_closure_constant_solution():
    # homogeneous closure: zero series, all coefficients vanish
    ps = ProlongedSystem(1, 0)
    rv = rhs_vars(1, 0)
    for nm in ps.needed_rhs_names():
        ps.supplied[nm] = parse_series(f"1/2*{nm}", rv, 10)
    assert assemble_and_solve(ps, 8)[0].solution.coeffs == {}


def test_missing_rhs_is_an_error():
    ps = ProlongedSystem(1, 0)
    with pytest.raises(ValidationError, match="missing right-hand side"):
        assemble_and_solve(ps, 4)


def test_rhs_over_other_variables_is_an_error():
    # supplied series are relabelled by position, so their variables
    # must be rhs_vars(n, k) in that order
    ps = ProlongedSystem(0, 0)
    ps.supplied["u1__0"] = parse_series("2*u1__0 + s", ("u1__0", "s"), 8)
    with pytest.raises(ValidationError, match="must be a series in"):
        assemble_and_solve(ps, 6)


def test_centering_failure():
    ps = ProlongedSystem(0, 0)
    rv = rhs_vars(0, 0)
    ps.supplied[var_name(1, (), 0)] = parse_series("1 + 2*u1__0 + s", rv, 8)
    with pytest.raises(ValidationError, match="centering failure"):
        assemble_and_solve(ps, 6)


def test_two_samples_give_distinct_series():
    ps = ProlongedSystem(1, 0)
    rv = rhs_vars(1, 0)
    for nm in ps.needed_rhs_names():
        ps.supplied[nm] = parse_series(f"2*{nm} + x1*s", rv, 10)
    ps.frozen_x = [(Fraction(1, 2), Fraction(0)), (Fraction(3), Fraction(1))]
    samples = assemble_and_solve(ps, 6)
    c1 = [ss.solution.coeffs[(1, 0)][0] for ss in samples]
    assert [str(x) for x in c1] == ["-1/2", "-3"]
    radii = [ss.radius_proxy for ss in samples]
    assert radii[0] == pytest.approx(2.0)
    assert radii[1] == pytest.approx(1.0 / 3.0)


def test_x_terms_that_cancel_at_a_sample_leave_no_zero_term():
    # at x = (2, 1), x1*s - 2*x2*s merges into one s term and cancels
    rv = rhs_vars(1, 0)
    g = parse_series("2*u1_00_0 + x1*s - 2*x2*s", rv, 8)
    frozen = freeze_x(g, 1, (Fraction(2), Fraction(1)), bb_vars(3))
    assert frozen.vars == bb_vars(3) and frozen.trunc == 8
    assert frozen.terms == parse_series("2*y1", bb_vars(3), 8).terms

    def solve(u1):
        ps = ProlongedSystem(1, 0)
        ps.supplied.update({
            "u1_00_0": parse_series(u1, rv, 8),
            "u2_00_0": parse_series("-u2_00_0 + x2*s + u1_00_0^2", rv, 8),
            "u3_00_0": parse_series("1/2*u3_00_0 + s", rv, 8)})
        ps.frozen_x = [(Fraction(2), Fraction(1))]
        return assemble_and_solve(ps, 6)[0].solution

    merged = solve("2*u1_00_0 + x1*s - 2*x2*s")
    assert merged.coeffs and merged.coeffs == solve("2*u1_00_0").coeffs


def test_contact_and_closure_satisfied_by_solution():
    # solve a k=1, n=0 chain: variables u^{(p)} for p = 0,1 with contact
    # (s d/ds)u^{(0)} = u^{(1)} and a closure on u^{(1)}
    ps = ProlongedSystem(0, 1)
    rv = rhs_vars(0, 1)
    assert ps.var_names() == ["u1__0", "u1__1"]
    ps.supplied["u1__1"] = parse_series("3*u1__1 + s", rv, 10)
    sol = assemble_and_solve(ps, 8)[0].solution
    # closure: u1 = -1/2 s from c1 = 1/(1-3); contact: u0 with (s d/ds)u0 = u1
    assert str(sol.coeffs[(1, 0)][1]) == "-1/2"
    assert str(sol.coeffs[(1, 0)][0]) == "-1/2"   # (s d/ds)(c s) = c s


# prolong stdout beyond the golden test's n = 1, k = 1 job, pinned by the
# digests of the output before the contact chains became slot arithmetic
N0_K2 = ('n = 0\nk = 2\norder = 6\n'
         'u1__2 = "-1*u1__2 + s + 2*s*u1__0 - u1__1*u1__2 + 1/2*s^2"\n')

# n = 1, k = 2: the 18 variables of the top layer, at two base points
N1_K2_DIAG = ("-1", "-2", "-3", "-1/2", "-3/2")
N1_K2 = 'n = 1\nk = 2\norder = 3\nsamples = "1/2, -1; 2, 1/3"\n' + "".join(
    f'{nm} = "{N1_K2_DIAG[j % 5]}*{nm} + {j % 3 + 1}*s + x{1 + j % 2}*s'
    f' - {j % 4 + 1}/3*{nm}*{nm.split("_")[0]}_00_0 + x2*s^2"\n'
    for j, nm in enumerate(
        f"u{i}_{alpha}_{p}" for alpha, p in (
            ("00", 2), ("01", 1), ("02", 0), ("10", 1), ("11", 0), ("20", 0))
        for i in (1, 2, 3)))


@pytest.mark.parametrize("text, digest", [
    (N0_K2, "3c3de8ffa37d72637e1962ca282ad576dc9b10cb5bd58d404066c88ef67996b3"),
    (N1_K2, "ab78583d077a5315f4cd2c9737a64c4060786559ad7cbf1249f641123b472a2d"),
], ids=["n0_k2", "n1_k2_two_samples"])
def test_prolong_stdout_is_pinned(tmp_path, capsys, text, digest):
    path = tmp_path / "jets.ps"
    path.write_text(text)
    assert main(["prolong", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_resonant_level_stacks_log_degrees_up_to_its_index(tmp_path, capsys,
                                                           monkeypatch):
    # n = 1, k = 2: 30 jet variables; the first top-layer name has
    # eigenvalue 2 and the other 17 have -1.  The resonance k = 2 has
    # index 1, so its stacked solve has 30 (d + 1 + 1) = 60 unknowns at
    # d = 0; stacking log degrees up to d + N solved 930
    import crgeom.briot_bouquet as bb
    names = ProlongedSystem(1, 2).needed_rhs_names()
    text = 'n = 1\nk = 2\norder = 4\nsamples = "1/2,1/3"\n' + "".join(
        f'{name} = "{2 if j == 0 else "(-1)"}*{name} + s"\n'
        for j, name in enumerate(names))
    unknowns = []
    solve_linear = bb.solve_linear

    def counted(a, b):
        unknowns.append(len(a[0]))
        return solve_linear(a, b)
    monkeypatch.setattr(bb, "solve_linear", counted)
    path = tmp_path / "resonant.ps"
    path.write_text(text)
    assert main(["prolong", str(path)]) == 0
    assert max(unknowns) == 60
    rep = json.loads(capsys.readouterr().out)
    assert rep["samples"][0]["family_dim"] == 1
