import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import crgeom.briot_bouquet as bb
from crgeom.briot_bouquet import (BBSystem, bb_vars, formal_solve,
                                  numeric_oracle)
from crgeom.errors import InvariantViolation, ValidationError
from crgeom.linalg import count_eigenvalues_nonpositive_real, mat_mul
from crgeom.parsing import parse_series
from crgeom.scalars import GaussRational
from crgeom.series import Series
from test_linalg import dense_solve, sparse


def mk(N, exprs, order=10, trunc=12):
    return BBSystem(
        N, [parse_series(e, bb_vars(N), trunc) for e in exprs], order)


def dulac_p(sys_):
    """The Dulac count p: eigenvalues of A off the closed negative real
    axis, as bb-solve prints it."""
    return sys_.N - sys_.nonpositive_real


def coeffs_str(sol):
    return {kr: [str(x) for x in v] for kr, v in sol.coeffs.items()}


def test_constant_term_rejected():
    with pytest.raises(ValidationError, match="invalid system"):
        mk(1, ["1 + y1"])


def test_constructor_checks_the_system():
    # the checks run in the constructor, which stores f as a tuple
    f1 = parse_series("1/2*y1 + t", bb_vars(1), 12)
    assert BBSystem(1, [f1], 10).f == (f1,)
    with pytest.raises(ValidationError, match="expected 2 right-hand sides"):
        mk(2, ["y1"])
    with pytest.raises(ValidationError, match="must be a series in"):
        BBSystem(1, [parse_series("y1", bb_vars(2), 12)], 10)
    with pytest.raises(ValidationError, match="exceeds trunc"):
        mk(1, ["y1 + t"], order=10, trunc=8)


def test_linear_part_readoff():
    sys1 = mk(1, ["3/2*y1 + t"])
    assert [str(x) for x in sys1.p] == ["1"]
    assert [[str(x) for x in r] for r in sys1.A] == [["3/2"]]

    sys2 = mk(2, ["y2 + t^2", "y1"])
    assert [str(x) for x in sys2.p] == ["0", "0"]
    assert [[str(x) for x in r] for r in sys2.A] == [["0", "1"], ["1", "0"]]
    assert [str(c) for c in sys2.char_poly] == ["-1", "0", "1"]  # k^2 - 1
    # read off f once, and kept
    assert sys2.A is sys2.A and sys2.p is sys2.p
    assert sys2.char_poly is sys2.char_poly


def test_resonances():
    assert mk(1, ["y1"]).resonances == [(1, 1)]
    assert mk(1, ["1/2*y1"]).resonances == []
    assert mk(2, ["y2 + t^2", "y1"]).resonances == [(1, 1)]
    # only k <= order is probed
    assert mk(1, ["3*y1"], order=2).resonances == []
    assert mk(1, ["3*y1"], order=3).resonances == [(3, 1)]


def test_resonance_index_is_the_largest_jordan_block():
    # the index of k: the least j with rank (kI - A)^j = rank (kI - A)^(j+1)
    assert mk(2, ["y1", "y2"]).index == {1: 1}
    assert mk(2, ["y1 + y2 + t", "y2 + t^2"], order=6).index == {1: 2}
    jordan3 = mk(3, ["2*y1 + y2 + t*y3", "2*y2 + y3 + t^2 + y1*y2",
                     "2*y3 + t"], order=8)
    assert jordan3.resonances == [(2, 1)] and jordan3.index == {2: 3}
    assert mk(1, ["1/2*y1"]).index == {}


@st.composite
def jordan_system(draw):
    """A triangular system whose resonant eigenvalue k0 in {1, 2} has
    Jordan blocks of size 1 to 3, with forcing and nonlinear terms."""
    N = draw(st.integers(1, 3))
    k0 = draw(st.integers(1, 2))
    diag = [str(k0)] + [draw(st.sampled_from([str(k0), "-1", "1/2"]))
                        for _ in range(N - 1)]
    names = [f"y{j}" for j in range(1, N + 1)]
    comps = []
    for j in range(N):
        terms = [f"{diag[j]}*{names[j]}"]
        # a superdiagonal 1 joins equal eigenvalues into one block
        if j + 1 < N and draw(st.booleans()):
            terms.append(names[j + 1])
        terms += draw(st.lists(st.sampled_from(
            ["t", "t^2", "3*t", "t*" + names[-1], f"{names[0]}^2",
             f"{names[0]}*{names[-1]}"]), max_size=2))
        comps.append(" + ".join(terms))
    return N, comps, draw(st.integers(k0, 5))


@given(jordan_system())
# a block of size 2 at k = 1 whose forcing needs log degree 2, below N = 3
@example((3, ["y1 + y2", "y2 + t", "-1*y3 + t*y1"], 4))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_log_depth_past_the_index_changes_nothing(case):
    # the stacked solve at a resonance stops at log degree d + index; the
    # solution through d + N, the old bound, is the same
    N, comps, order = case
    short, full = mk(N, comps, order=order), mk(N, comps, order=order)
    for k in full.index:
        full.index[k] = N
    assert coeffs_str(formal_solve(short)) == coeffs_str(formal_solve(full))


def level_loop(sys_):
    """The level loop that formal_solve replaced, kept as its oracle, on
    dense rows: a nonresonant level solves top-down in r, one log degree
    at a time, and a resonant level as one stacked system through
    R = d + index."""
    N, zero = sys_.N, GaussRational(0)
    sol = {}
    for k in range(1, sys_.order + 1):
        g = bb._rhs_at_order(sys_, sol, k)
        d = max((r for comp in g for r in comp), default=0)
        B = [[GaussRational(k if i == j else 0) - sys_.A[i][j]
              for j in range(N)] for i in range(N)]
        level = {}
        if k not in sys_.index:
            upper = [zero] * N
            for r in range(d, -1, -1):
                upper = dense_solve(B, [g[j].get(r, zero)
                                        - GaussRational(r + 1) * upper[j]
                                        for j in range(N)])
                level[r] = upper
        else:
            R = d + sys_.index[k]
            size = N * (R + 1)
            big = [[zero] * size for _ in range(size)]
            for r in range(R + 1):
                for i in range(N):
                    for j in range(N):
                        big[r * N + i][r * N + j] = B[i][j]
                    if r < R:
                        big[r * N + i][(r + 1) * N + i] = GaussRational(r + 1)
            x = dense_solve(big, [g[i].get(r, zero) for r in range(R + 1)
                                  for i in range(N)])
            level = {r: x[r * N:(r + 1) * N] for r in range(R + 1)}
        for r, c in level.items():
            if any(not v.is_zero() for v in c):
                sol[(k, r)] = c
    return sol


@st.composite
def nonresonant_system(draw):
    """A system whose A has no eigenvalue among 1..order, with forcing
    and nonlinear terms."""
    N = draw(st.integers(1, 3))
    names = [f"y{j}" for j in range(1, N + 1)]
    entry = st.sampled_from(["0", "0", "1", "-1", "1/2", "-3/2", "i",
                             "(1 + i)"])
    comps = []
    for j in range(N):
        terms = [f"{draw(entry)}*{y}" for y in names]
        terms += draw(st.lists(st.sampled_from(
            ["t", "t^2", "-2*t", "t*" + names[-1], f"{names[0]}^2",
             f"{names[0]}*{names[-1]}", "1/3*t^3"]), max_size=3))
        comps.append(" + ".join(terms))
    return N, comps, draw(st.integers(1, 5))


@given(nonresonant_system())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_nonresonant_levels_match_the_top_down_solve(case):
    N, comps, order = case
    sys_ = mk(N, comps, order=order)
    assume(not sys_.index)
    assert formal_solve(sys_).coeffs == level_loop(sys_)


@given(jordan_system())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_levels_past_a_log_term_match_the_old_level_loop(case):
    # a resonance leaves log terms in g at every later, nonresonant
    # level, whose top-down solve then starts at r = d > 0
    N, comps, order = case
    sys_ = mk(N, comps, order=order)
    assert formal_solve(sys_).coeffs == level_loop(sys_)


def test_nonresonant_solution():
    # t y' = (3/2) y + t  ->  y = -2t
    sol = formal_solve(mk(1, ["3/2*y1 + t"]))
    assert coeffs_str(sol) == {(1, 0): ["-2"]}
    assert sol.family_dim == 0
    assert not sol.has_log_terms()


def test_resonant_log_solution():
    # t y' = y + t  ->  y = t ln t, free parameter at (1,0) set to zero
    sol = formal_solve(mk(1, ["y1 + t"]))
    assert coeffs_str(sol) == {(1, 1): ["1"]}
    assert sol.family_dim == 1
    assert sol.resonances == [(1, 1)]
    assert sol.has_log_terms()


def test_homogeneous_solution_is_zero():
    sol = formal_solve(mk(1, ["1/2*y1"]))
    assert sol.coeffs == {}
    assert sol.family_dim == 0
    # even with a resonance, no forcing means the minimal solution is zero
    sol2 = formal_solve(mk(2, ["y2", "y1"]))
    assert sol2.coeffs == {}
    assert sol2.family_dim == 1


def test_nonlinear_solution_residual():
    # residual check happens inside formal_solve; just exercise a system
    # with genuine nonlinear feedback
    sol = formal_solve(mk(1, ["1/2*y1 + t + y1^2"]))
    assert (1, 0) in sol.coeffs
    assert str(sol.coeffs[(1, 0)][0]) == "2"
    # c2: (2 - 1/2) c2 = c1^2 -> c2 = 8/3
    assert str(sol.coeffs[(2, 0)][0]) == "8/3"


def test_residual_check_is_independent_of_the_recurrence(monkeypatch):
    # a fault in the recurrence's right-hand side (the t^2 forcing counted
    # twice) must be caught by the back-substitution, not reproduced by it
    recurrence_rhs = bb._rhs_at_order

    def doubled_t2_forcing(sys_, sol, k):
        g = recurrence_rhs(sys_, sol, k)
        if k == 2:
            forcing = sys_.f[0].coefficient((2, 0))
            g[0][0] = g[0].get(0, GaussRational(0)) + forcing
        return g

    monkeypatch.setattr(bb, "_rhs_at_order", doubled_t2_forcing)
    with pytest.raises(InvariantViolation, match="residual"):
        formal_solve(mk(1, ["1/2*y1 + t + t^2 + y1^2"]))


def test_scaling_covariance():
    # t -> a t maps solutions with c_k -> a^k c_k (pure power case)
    a = GaussRational(Fraction(3, 2))
    base = mk(1, ["1/2*y1 + t + y1^2"])
    sol = formal_solve(base)
    # rescaled system: f(a*t, y)
    v = bb_vars(1)
    t = Series.variable("t", v, 12)
    y = Series.variable("y1", v, 12)
    scaled = BBSystem(1, [base.f[0].subs({"t": t * a, "y1": y})], 10)
    sol_scaled = formal_solve(scaled)
    for (k, r), vec in sol.coeffs.items():
        assert sol_scaled.coeffs[(k, r)][0] == vec[0] * a ** k


def test_nonresonant_uniqueness_by_perturbation():
    # re-solving after perturbing the forcing restores distinct, unique
    # coefficients: the recurrence has no kernel off resonance
    sol = formal_solve(mk(1, ["1/2*y1 + t + t^2"]))
    sol_p = formal_solve(mk(1, ["1/2*y1 + t + 2*t^2"]))
    assert sol.coeffs[(1, 0)] == sol_p.coeffs[(1, 0)]
    assert sol.coeffs[(2, 0)] != sol_p.coeffs[(2, 0)]


def test_dulac_counts():
    assert dulac_p(mk(1, ["-2*y1"])) == 0
    assert dulac_p(mk(1, ["y1"])) == 1
    # rotation: eigenvalues +-i, both count toward p
    assert dulac_p(mk(2, ["y2", "-1*y1"])) == 2
    # mixed: eigenvalues 1 and -2
    mixed = mk(2, ["y1", "-2*y2"])
    assert dulac_p(mixed) == 1 and mixed.nonpositive_real == 1


def test_dulac_count_matches_chosen_roots():
    # lead * prod (x - r) over chosen roots r, among them 0, repeated and
    # non-real roots, with a leading coefficient that may be non-real: the
    # count is the number of chosen roots on (-inf, 0], with multiplicity
    rng = random.Random(2024)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(4000):
        roots = []
        for _ in range(rng.randint(0, 6)):
            pick = rng.random()
            if pick < 0.2:
                roots.append(GaussRational(0))
            elif pick < 0.4 and roots:
                roots.append(rng.choice(roots))
            elif pick < 0.7:
                roots.append(GaussRational(rational()))
            else:
                roots.append(GaussRational(rational(), rng.choice((-1, 1))
                                           * Fraction(rng.randint(1, 4), 2)))
        lead = GaussRational(rng.randint(1, 3) * rng.choice((-1, 1)),
                             rng.randint(-2, 2))
        p = [lead]
        for r in roots:               # p <- p * (x - r), low degree first
            p = ([-r * p[0]] + [p[k - 1] - r * p[k] for k in range(1, len(p))]
                 + [p[-1]])
        want = sum(1 for r in roots if r.im == 0 and r.re <= 0)
        assert count_eigenvalues_nonpositive_real(p) == want


def test_dulac_similarity_invariance():
    # A -> P^-1 A P preserves the characteristic polynomial, hence p
    base = mk(2, ["y1 + y2", "-3*y2"])
    g = GaussRational
    p_mat = [{0: g(1), 1: g(2)}, {0: g(1), 1: g(3)}]
    p_inv = [{0: g(3), 1: g(-2)}, {0: g(-1), 1: g(1)}]
    sim = mat_mul(p_inv, mat_mul(sparse(base.A), p_mat))
    exprs = []
    for i in range(2):
        parts = []
        for j, c in sorted(sim[i].items()):
            parts.append(f"({c.re})*y{j+1}" if c.im == 0 else "?")
        exprs.append(" + ".join(parts) if parts else "t*0")
    sys2 = mk(2, exprs)
    assert dulac_p(sys2) == dulac_p(base)


def test_numeric_oracle_both_signs():
    sys_ = mk(1, ["1/2*y1 + t"], order=10)
    sol = formal_solve(sys_)
    assert str(sol.coeffs[(1, 0)][0]) == "2"      # y = 2t exactly
    for t0 in (1e-2, -1e-2):
        assert numeric_oracle(sys_, sol, t0=t0) < 1e-8


def test_numeric_oracle_nonlinear():
    sys_ = mk(1, ["1/2*y1 + t + y1^2"], order=12, trunc=14)
    sol = formal_solve(sys_)
    for t0 in (1e-2, -1e-2):
        assert numeric_oracle(sys_, sol, t0=t0) < 1e-8


def test_numeric_oracle_rejects_logs():
    sys_ = mk(1, ["y1 + t"])
    sol = formal_solve(sys_)
    with pytest.raises(ValidationError):
        numeric_oracle(sys_, sol, t0=1e-2)
    with pytest.raises(ValidationError):
        numeric_oracle(mk(1, ["1/2*y1"]), formal_solve(mk(1, ["1/2*y1"])),
                       t0=0.0)


def test_numeric_oracle_leaving_the_float_range():
    # 1/t overflows to inf at t0 = 1e-320, and t^k overflows at t0 = 1e200:
    # a ValidationError, not a silent nan or an OverflowError
    sys_ = mk(1, ["1/2*y1 + t + y1^2"], order=12, trunc=14)
    sol = formal_solve(sys_)
    for t0 in (1e-320, 1e200):
        with pytest.raises(ValidationError, match="float range"):
            numeric_oracle(sys_, sol, t0=t0)
