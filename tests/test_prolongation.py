import hashlib
import json
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from crgeom.briot_bouquet import bb_vars
from crgeom.cli import main
from crgeom.errors import ValidationError
from crgeom.parsing import drops_terms, parse_series
from crgeom.prolongation import (ProlongedSystem, assemble_and_solve,
                                 base_vars, jet_slots, rhs_vars, var_name)
from crgeom.scalars import GaussRational
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


def freeze_x(g: Series, n: int, sample, names) -> Series:
    """Oracle: the base point bound after parsing.  Substitute rational
    values for x1..x_{2n}, the first 2n variables of g, and name the
    remaining variables ``names`` in order."""
    m = 2 * n
    values = [GaussRational(x) for x in sample]
    terms = {}
    for exps, c in g.terms.items():
        for v, e in zip(values, exps[:m]):
            if e:
                c = c * v ** e
        key = exps[m:]
        cur = terms.get(key, GaussRational(0)) + c
        if cur.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = cur
    # dropping the x's only lowers degrees, so the terms stay canonical
    return Series._trusted(tuple(names), g.trunc, terms)


def at_points(n, k, texts, points=((),), trunc=10):
    """A system whose right-hand sides ``{name: literal}`` are read once
    per base point, with x bound to it."""
    ps = ProlongedSystem(n, k)
    for point in points:
        values = dict(zip(base_vars(n), point))
        ps.samples.append((point, {
            nm: parse_series(text, rhs_vars(n, k), trunc, values)
            for nm, text in texts.items()}))
    return ps


def test_toy_closure_solution():
    # (s d/ds) u = 2u + s  ->  u = -s  (c1 = 1/(1-2))
    ps = at_points(0, 0, {var_name(1, (), 0): "2*u1__0 + s"})
    sol = assemble_and_solve(ps, 10)[0].solution
    assert {kr: [str(x) for x in v] for kr, v in sol.coeffs.items()} == \
        {(1, 0): ["-1"]}


def test_constant_closure_constant_solution():
    # homogeneous closure: zero series, all coefficients vanish
    ps = at_points(1, 0, {nm: f"1/2*{nm}"
                          for nm in ProlongedSystem(1, 0).needed_rhs_names()})
    assert assemble_and_solve(ps, 8)[0].solution.coeffs == {}


def test_missing_rhs_is_an_error():
    ps = ProlongedSystem(1, 0)
    with pytest.raises(ValidationError, match="missing right-hand side"):
        assemble_and_solve(ps, 4)


def test_rhs_over_other_variables_is_an_error():
    # supplied series are relabelled by position, so their variables
    # must be rhs_vars(n, k) in that order
    ps = ProlongedSystem(0, 0)
    ps.samples.append(((), {"u1__0": parse_series("2*u1__0 + s",
                                                  ("u1__0", "s"), 8)}))
    with pytest.raises(ValidationError, match="must be a series in"):
        assemble_and_solve(ps, 6)


def test_centering_failure():
    ps = at_points(0, 0, {var_name(1, (), 0): "1 + 2*u1__0 + s"}, trunc=8)
    with pytest.raises(ValidationError, match="centering failure"):
        assemble_and_solve(ps, 6)


def test_two_samples_give_distinct_series():
    ps = at_points(1, 0, {nm: f"2*{nm} + x1*s"
                          for nm in ProlongedSystem(1, 0).needed_rhs_names()},
                   [(Fraction(1, 2), Fraction(0)), (Fraction(3), Fraction(1))])
    samples = assemble_and_solve(ps, 6)
    c1 = [ss.solution.coeffs[(1, 0)][0] for ss in samples]
    assert [str(x) for x in c1] == ["-1/2", "-3"]
    radii = [ss.radius_proxy for ss in samples]
    assert radii[0] == pytest.approx(2.0)
    assert radii[1] == pytest.approx(1.0 / 3.0)


def test_x_terms_that_cancel_at_a_sample_leave_no_zero_term():
    # at x = (2, 1), x1*s - 2*x2*s merges into one s term and cancels
    rv, point = rhs_vars(1, 0), {"x1": Fraction(2), "x2": Fraction(1)}
    g = parse_series("2*u1_00_0 + x1*s - 2*x2*s", rv, 8, point)
    assert g.vars == rv and g.trunc == 8
    assert g.terms == parse_series("2*u1_00_0", rv, 8).terms
    frozen = freeze_x(parse_series("2*u1_00_0 + x1*s - 2*x2*s",
                                   base_vars(1) + rv, 8),
                      1, tuple(point.values()), bb_vars(3))
    assert frozen.vars == bb_vars(3) and frozen.trunc == 8
    assert frozen.terms == parse_series("2*y1", bb_vars(3), 8).terms

    def solve(u1):
        ps = at_points(1, 0, {"u1_00_0": u1,
                              "u2_00_0": "-u2_00_0 + x2*s + u1_00_0^2",
                              "u3_00_0": "1/2*u3_00_0 + s"},
                       [(Fraction(2), Fraction(1))], trunc=8)
        return assemble_and_solve(ps, 6)[0].solution

    merged = solve("2*u1_00_0 + x1*s - 2*x2*s")
    assert merged.coeffs and merged.coeffs == solve("2*u1_00_0").coeffs


X_RHS_ATOMS = ["x1", "x2", "x1^3", "x2^5", "(x1 - 1/2)^2", "(x2 + s)^2",
               "s", "s^2", "i", "3/4", "(2 - i)"]


@st.composite
def x_polynomial_rhs(draw):
    """A right-hand side polynomial in x, s and the jet variables of
    J(1, k), its trunc, and a rational base point."""
    k = draw(st.integers(0, 1))
    atoms = st.sampled_from(X_RHS_ATOMS + list(rhs_vars(1, k)))
    text = " + ".join("*".join(draw(st.lists(atoms, min_size=1, max_size=4)))
                      for _ in range(draw(st.integers(1, 4))))
    point = tuple(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
                  for _ in range(2))
    return k, text, draw(st.integers(1, 8)), point


@given(x_polynomial_rhs())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_binding_x_while_parsing_matches_freezing_it_after(case):
    # where the parse over x, s and the jets drops no term, x bound as the
    # literal is read gives the series that freezing x afterwards gives
    k, text, trunc, point = case
    rv = rhs_vars(1, k)
    with_x = base_vars(1) + rv
    if drops_terms(text, with_x, trunc):
        return
    bound = parse_series(text, rv, trunc, dict(zip(base_vars(1), point)))
    assert bound == freeze_x(parse_series(text, with_x, trunc), 1, point, rv)


# n = 1, k = 0 at the base point x1 = 1: x1^12*s is s there, but over
# x, s and the jets its degree 13 is past the default trunc 10
X_PAST_TRUNC = ('n = 1\nk = 0\norder = 3\n{}'
                'u1_00_0 = "(-1)*u1_00_0 + {}"\n'
                'u2_00_0 = "(-1)*u2_00_0"\nu3_00_0 = "(-1)*u3_00_0"\n')


def test_x_powers_past_the_trunc_are_kept(tmp_path, capsys):
    outs = []
    for forcing in ("x1^12*s", "s"):
        path = tmp_path / "jets.ps"
        path.write_text(X_PAST_TRUNC.format('samples = "1,0"\n', forcing))
        assert main(["prolong", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["samples"][0]["coefficients"] == [
        {"k": 1, "r": 0, "vector": ["1/2", "0", "0"]}]
    # without samples, x past the trunc is refused like any other x
    path.write_text(X_PAST_TRUNC.format("", "x1^12*s"))
    assert main(["prolong", str(path)]) == 1
    err = capsys.readouterr().err
    assert "'samples'" in err and "u1_00_0" in err and "x1" in err


def test_bound_powers_are_held_to_the_bit_bound(tmp_path, capsys):
    # a 13991-bit x1 to the 8th is past MAX_COEFF_BITS: a parse error at
    # its ^, in file coordinates, before any solve
    big = str(2 ** 13990)
    path = tmp_path / "big.ps"
    path.write_text(X_PAST_TRUNC.format(f'samples = "{big},0"\n', "x1^8*s"))
    assert main(["prolong", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("key 'u1_00_0', line 5, col 29: coefficient exceeds 14000 bits"
            in captured.err)


def test_contact_and_closure_satisfied_by_solution():
    # solve a k=1, n=0 chain: variables u^{(p)} for p = 0,1 with contact
    # (s d/ds)u^{(0)} = u^{(1)} and a closure on u^{(1)}
    ps = at_points(0, 1, {"u1__1": "3*u1__1 + s"})
    assert ps.var_names() == ["u1__0", "u1__1"]
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

    def counted(rows, width):
        unknowns.append(width)
        return solve_linear(rows, width)
    monkeypatch.setattr(bb, "solve_linear", counted)
    path = tmp_path / "resonant.ps"
    path.write_text(text)
    assert main(["prolong", str(path)]) == 0
    assert max(unknowns) == 60
    rep = json.loads(capsys.readouterr().out)
    assert rep["samples"][0]["family_dim"] == 1
