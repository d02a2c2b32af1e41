import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings, strategies as st

from crgeom import corpus
from crgeom.errors import InvariantViolation, ValidationError
from crgeom.frame import Frame, filtration
from crgeom.hypersurface import Hypersurface
from crgeom.linalg import rank
from crgeom.parsing import parse_series
from crgeom.report import HALF_OVER_I
from crgeom.scalars import GaussRational
from crgeom.series import Series, hypersurface_vars
from test_cli_fuzz import normal_phi
from test_linalg import sparse

T = 8


def surfaces():
    yield corpus.model_surface(T)
    yield corpus.two_infinite_type_surface(T)
    yield corpus.power_target(2, T)
    yield corpus.filtration_example_surface(T)
    # psi with genuine s-dependence
    v = hypersurface_vars(1)
    z, c, s = (Series.variable(x, v, T) for x in ("z1", "c1", "s"))
    yield Hypersurface(1, s * z * c + s * s * z * c)


def random_surface(n=3, trunc=6, seed=7):
    """A real normal-form phi = s*|z|^2 + (random terms z_a c_b s^k and
    their conjugates, k = 1, 2), so psi = phi / s depends on s."""
    rng = random.Random(seed)
    v = hypersurface_vars(n)
    z = [Series.variable(f"z{a}", v, trunc) for a in range(1, n + 1)]
    c = [Series.variable(f"c{a}", v, trunc) for a in range(1, n + 1)]
    s = Series.variable("s", v, trunc)
    phi = s * sum((z[a] * c[a] for a in range(1, n)), z[0] * c[0])
    for _ in range(4):
        a, b, k = rng.randrange(n), rng.randrange(n), rng.choice((1, 2))
        q = GaussRational(rng.randint(-3, 3), rng.randint(-3, 3))
        extra = z[a] * c[b] * (z[rng.randrange(n)] if rng.random() < 0.5
                               else Series.const(1, v, trunc))
        term = extra * s ** k * q
        phi = phi + term + term.conjugate()
    return Hypersurface(n, phi)


def frame_surfaces():
    yield from surfaces()
    yield random_surface()


class Field:
    """Coordinate vector field sum_v comps[v] * d/dv, the independent
    oracle for the frame's derivations, its closed-form coframe and its
    structure constants."""

    def __init__(self, vars, comps):
        self.vars = vars
        self.comps = {v: s for v, s in comps.items() if not s.is_zero()}

    def comp(self, var, trunc):
        s = self.comps.get(var)
        return Series.zero(self.vars, trunc) if s is None else s

    def apply(self, f):
        """Derivation action on a scalar series."""
        out = Series.zero(self.vars, f.trunc - 1)
        for v, c in self.comps.items():
            out = out + c * f.diff(v)
        return out


def bracket(x, y, trunc):
    """Coordinate Lie bracket [x, y]."""
    comps = {}
    for v in set(x.comps) | set(y.comps):
        comps[v] = x.apply(y.comp(v, trunc)) - y.apply(x.comp(v, trunc))
    return Field(x.vars, comps)


def fields(fr):
    """The frame basis as coordinate fields, in its fixed order: T,
    L_1..L_n, L_1bar..L_nbar."""
    one = Series.const(1, fr.vars, fr.trunc)
    return ([Field(fr.vars, {"s": one})]
            + [Field(fr.vars, {f"z{A}": one, "s": p})
               for A, p in enumerate(fr.P, start=1)]
            + [Field(fr.vars, {f"c{A}": one, "s": q})
               for A, q in enumerate(fr.Q, start=1)])


def theta(fr):
    """The coframe theta = ds - sum P_A dz_A - sum Q_A dc_A by its
    coordinate components, read off the frame's s-coefficients."""
    out = {"s": Series.const(1, fr.vars, fr.trunc)}
    for A, (p, q) in enumerate(zip(fr.P, fr.Q), start=1):
        out[f"z{A}"] = -p
        out[f"c{A}"] = -q
    return out


def two_sided_frame(h):
    """(L, Lbar, c) built without the conjugation symmetry: each half with
    its own reciprocal, 1/(1 + i phi_s) and 1/(1 - i phi_s), and all n^2
    brackets [L_abar, L_b] by Field.apply."""
    vars, trunc = h.vars(), h.phi.trunc - 1
    i_unit = GaussRational(0, 1)
    phi_s = h.phi.diff("s")
    one = Series.const(1, vars, trunc)
    denom_bar = (one + phi_s * i_unit).reciprocal()
    denom = (one - phi_s * i_unit).reciprocal()
    L, Lbar = [], []
    for A in range(1, h.n + 1):
        Lbar.append(Field(vars, {
            f"c{A}": one, "s": -(h.phi.diff(f"c{A}") * i_unit) * denom_bar}))
        L.append(Field(vars, {
            f"z{A}": one, "s": (h.phi.diff(f"z{A}") * i_unit) * denom}))
    c = []
    for lbar in Lbar:
        lbar_s = lbar.comp("s", trunc)
        c.append([-lbar_s.diff("s")] + [
            lbar.apply(la.comp("s", trunc)) - la.apply(lbar_s) for la in L])
    return L, Lbar, c


def iterated_forms(frame, max_len):
    """(word, omega) for every word (A_1..A_k), 1-based, of length
    1..max_len in length-then-lexicographic order, where
    omega = L_{A_k bar} ... L_{A_1 bar} theta as its (T, L_1..L_n)
    components; the L_bar-components are zero (see Frame.c).  Each word
    grows from its prefix, and only the previous level is kept.  The
    word-by-word oracle for the one loop inside `filtration`."""
    n = frame.n
    theta = [Series.const(1, frame.vars, frame.trunc)] + \
        [Series.zero(frame.vars, frame.trunc) for _ in range(n)]
    level = [((), theta)]
    for length in range(1, max_len + 1):
        assert frame.trunc - length >= 0, "word exhausts truncation"
        grown = []
        for word, omega in level:
            for a, ca in enumerate(frame.c):
                new = [frame.Lbar(a, omega[j]) - omega[0] * ca[j]
                       for j in range(n + 1)]
                grown.append((word + (a + 1,), new))
                yield grown[-1]
        level = grown


def iterated_h0_at_origin(frame, max_len):
    """(word, (h^0_{word D}(0))_D) for every word of length 1..max_len,
    in the order of iterated_forms."""
    m = frame.hypersurface.m
    # a word of length k leaves its form exact through order trunc - k,
    # which must reach s^m
    assert max_len < 1 or frame.trunc - max_len >= m, "truncation exhausted"
    for word, omega in iterated_forms(frame, max_len):
        yield word, [omega[d].divide_by_power("s", m).constant_term()
                     for d in range(1, frame.n + 1)]


def word_filtration(frame):
    """(ranks, ell, nondegenerate) of the kernel filtration, read word by
    word off iterated_h0_at_origin: the oracle for `filtration`."""
    n, ell_max = frame.n, frame.hypersurface.ell_max
    values = iterated_h0_at_origin(frame, ell_max)
    ranks = [0]
    rows = []
    for k in range(1, ell_max + 1):
        rows.extend({d: v for d, v in enumerate(vals) if not v.is_zero()}
                    for _, vals in itertools.islice(values, n ** k))
        ranks.append(rank(rows, n))
        if ranks[k] == n:
            return ranks, k, True
        if k > 1 and ranks[k] == ranks[k - 1]:
            return ranks[:k], k - 1, False
    return ranks, ell_max, False


def same(a, b):
    tr = min(a.trunc, b.trunc)
    return (a.truncate(tr) - b.truncate(tr)).is_zero()


def identical(a, b):
    return a == b and a.trunc == b.trunc


def test_frame_matches_two_sided_construction():
    # one quotient per Q_A, its conjugate for P_A, and the n(n+1)/2
    # brackets with a <= b give the same series, terms and truncation, as
    # both reciprocals times the partials and all n^2 brackets taken apart
    for n in (1, 2, 3):
        for seed in range(3):
            fr = Frame(random_surface(n=n, trunc=6, seed=seed))
            L, Lbar, c = two_sided_frame(fr.hypersurface)
            for mine, want in zip(fr.P + fr.Q, L + Lbar):
                assert identical(mine, want.comp("s", fr.trunc))
            assert all(identical(x, y) for row, want_row in zip(fr.c, c)
                       for x, y in zip(row, want_row))


def test_frame_divides_without_a_reciprocal(monkeypatch):
    # Q_A = phi_{c_A} / (i - phi_s) is one quotient each: no reciprocal
    # is formed and multiplied
    def refused(self):
        raise AssertionError("Frame took a reciprocal")
    monkeypatch.setattr(Series, "reciprocal", refused)
    for h in frame_surfaces():
        Frame(h)


def test_derivations_match_coordinate_fields():
    # L(A, f), Lbar(A, f) and S(f) give the terms and the truncation,
    # min(f.trunc - 1, fr.trunc), of the coordinate fields they stand for,
    # also where Q_A is zero (Levi flat) and for f exact past or short of
    # the frame's truncation; S is s^m d/ds with the surface's own m,
    # which is 1 and 2 among frame_surfaces
    assert {1, 2} <= {h.m for h in frame_surfaces()}
    for h in list(frame_surfaces()) + [corpus.levi_flat_surface(T)]:
        fr = Frame(h)
        n = fr.n
        fs = fields(fr)
        s_m = None if h.levi_flat else Field(
            fr.vars, {"s": Series.variable("s", fr.vars, fr.trunc) ** h.m})
        z1 = Series.variable("z1", fr.vars, fr.trunc + 3)
        for f in (h.phi, fr.c[0][0], h.phi.truncate(fr.trunc - 2),
                  z1 * Series.variable("s", fr.vars, fr.trunc + 3) + z1):
            for A in range(n):
                assert identical(fr.L(A, f), fs[1 + A].apply(f))
                assert identical(fr.Lbar(A, f), fs[1 + n + A].apply(f))
            if s_m is not None:
                assert identical(fr.S(f), s_m.apply(f))


def test_frame_duality():
    # theta(T) = 1 and theta vanishes on every L_A and L_Abar
    for h in frame_surfaces():
        fr = Frame(h)
        th = theta(fr)
        for j, e in enumerate(fields(fr)):
            paired = sum((th[v] * e.comp(v, fr.trunc) for v in fr.vars),
                         Series.zero(fr.vars, fr.trunc))
            assert paired == Series.const(1 if j == 0 else 0, fr.vars,
                                          fr.trunc)


def test_cr_fields_commute():
    # [L_a, L_b] = 0, and [L_abar, L_bbar] = 0 keeps the L_bar-components
    # of every iterated form of theta zero
    for h in frame_surfaces():
        fr = Frame(h)
        fs = fields(fr)
        for group in (fs[1:fr.n + 1], fs[fr.n + 1:]):
            for x, y in itertools.combinations(group, 2):
                br = bracket(x, y, fr.trunc)
                assert all(c.is_zero() for c in br.comps.values())


def test_brackets_are_multiples_of_t():
    # every bracket of frame fields, [L_Abar, T] included, is a multiple
    # of T = d/ds: it has no other coordinate component
    for h in frame_surfaces():
        fr = Frame(h)
        for x, y in itertools.combinations(fields(fr), 2):
            assert set(bracket(x, y, fr.trunc).comps) <= {"s"}


def test_structure_constants_match_coordinate_bracket():
    # c[a][j] is the T-coefficient (the s-component) of [L_abar, e_j]
    for h in frame_surfaces():
        fr = Frame(h)
        fs = fields(fr)
        for a, lbar in enumerate(fs[fr.n + 1:]):
            for j, e in enumerate(fs[:fr.n + 1]):
                br = bracket(lbar, e, fr.trunc).comp("s", fr.trunc - 1)
                assert same(fr.c[a][j], br)


def test_levi_matrix_hermitian():
    # (1/2i) <theta, [L_Abar, L_B]> is Hermitian
    for h in surfaces():
        fr = Frame(h)
        n = h.n
        for a in range(n):
            for b in range(n):
                lhs = fr.c[a][b + 1] * HALF_OVER_I
                rhs = (fr.c[b][a + 1] * HALF_OVER_I).conjugate()
                assert lhs == rhs.truncate(lhs.trunc)


def test_desingularized_leading_term_is_mixed_hessian():
    # (1/2i) h0(0)[A][B] equals the coefficient of z_B * c_A in the
    # lowest-order part of phi_m
    for h in surfaces():
        fr = Frame(h)
        n = h.n
        lowest = {e: c for e, c in h.phi_m.terms.items()
                  if sum(e) == h.r}
        for a in range(n):
            for b in range(n):
                exps = tuple(1 if j == b else 0 for j in range(n)) + \
                    tuple(1 if j == a else 0 for j in range(n)) + (0,)
                expected = lowest.get(exps, GaussRational(0))
                assert fr.h0[a][b].constant_term() * HALF_OVER_I == expected


@st.composite
def hermitian_leading_surfaces(draw):
    """(m, h) for a random real normal-form phi over n = 1..3 whose s^m
    slice has a nonzero Hermitian quadratic part, so r = 2, plus random
    real terms of higher degree at s^m and of any degree at s^(m+1)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    small = st.integers(-3, 3)
    terms = {}

    def put(alpha, beta, k, c):
        # c z^alpha c^beta s^k and its conjugate, so phi stays real
        e, ebar = alpha + beta + (k,), beta + alpha + (k,)
        if e == ebar:
            c = GaussRational(c.re)
        terms[e] = terms.get(e, GaussRational(0)) + c
        if e != ebar:
            terms[ebar] = terms.get(ebar, GaussRational(0)) + c.conjugate()

    def unit(j):
        return tuple(int(i == j) for i in range(n))

    for a in range(n):
        for b in range(a, n):
            if (a, b) == (0, 0):
                re = draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))
            else:
                re = draw(small)
            im = draw(small) if a != b else 0
            put(unit(b), unit(a), m, GaussRational(re, im))
    for _ in range(draw(st.integers(0, 4))):
        alpha = tuple(draw(st.integers(0, 2)) for _ in range(n))
        beta = tuple(draw(st.integers(0, 2)) for _ in range(n))
        if not any(alpha) or not any(beta):
            continue
        k = m + 1 if sum(alpha) + sum(beta) < 3 else \
            draw(st.sampled_from((m, m + 1)))
        put(alpha, beta, k, GaussRational(draw(small), draw(small)))
    phi = Series(hypersurface_vars(n), m + 4, terms)
    return m, Hypersurface(n, phi)


@given(hermitian_leading_surfaces())
@settings(max_examples=25, deadline=None)
def test_levi_leading_term_matches_sympy_hessian(case):
    # (1/2i) h0(0)[A][B] is the mixed Hessian d^2/dz_B dc_A of the
    # lowest-order (here quadratic) part of phi_m, which sympy computes
    # from phi's monomials alone
    m, h = case
    n = h.n
    zs = sympy.symbols(f"z1:{n + 1}")
    cs = sympy.symbols(f"c1:{n + 1}")
    s = sympy.Symbol("s")
    phi = sympy.Add(*[
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        * sympy.Mul(*[x ** k for x, k in zip(zs + cs + (s,), e)])
        for e, c in h.phi.terms.items()])
    phi_m = sympy.expand(phi).coeff(s, m)
    quadratic = sympy.Add(*[
        coeff * sympy.Mul(*[x ** k for x, k in zip(zs + cs, monom)])
        for monom, coeff in sympy.Poly(phi_m, *zs, *cs).terms()
        if sum(monom) == 2])
    assert quadratic != 0
    assert (h.m, h.r) == (m, 2)
    fr = Frame(h)
    for a in range(n):
        for b in range(n):
            want = sympy.diff(quadratic, zs[b], cs[a])
            re, im = sympy.re(want), sympy.im(want)
            assert fr.h0[a][b].constant_term() * HALF_OVER_I == GaussRational(
                Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def test_model_bracket_and_levi_values():
    fr = Frame(corpus.model_surface(9))
    _, l1, l1bar = fields(fr)
    br = bracket(l1bar, l1, fr.trunc).comp("s", fr.trunc)
    # [L_1bar, L_1] = (2is + O(3)) T
    assert br.coefficient((0, 0, 1)) == GaussRational(0, 2)
    assert fr.c[0][1] == br
    assert fr.h0[0][0].constant_term() == GaussRational(0, 2)
    # phi = s*g(z,c) makes the bracket with s^m T collapse exactly
    assert fr.h0_bar[0].is_zero()
    # a_1bar = m Q_1 / s = -i z/(1 + i z c), with m = 1: h0_bar forms
    # it from the frame's Q
    assert fr.hypersurface.m == 1
    assert fr.Q[0].coefficient((1, 0, 1)) == GaussRational(0, -1)
    assert fr.Q[0].coefficient((2, 1, 1)) == GaussRational(-1)


def test_iterated_recursion():
    # h_{word Cbar D} = L_Cbar h_{word D} + h_{word T} * h_{Cbar D}
    for h in [corpus.model_surface(T), corpus.filtration_example_surface(T),
              next(s for s in surfaces() if s.phi.min_degree_in("s") == 1
                   and s.n == 1 and len(s.phi.terms) > 1)]:
        fr = Frame(h)
        n = fr.n
        forms = dict(iterated_forms(fr, 3))
        for word in forms:
            if len(word) == 3:
                continue
            for c in range(1, n + 1):
                for d in range(1, n + 1):
                    lhs = forms[word + (c,)][d]
                    rhs = fr.Lbar(c - 1, forms[word][d]) + \
                        forms[word][0] * forms[(c,)][d]
                    tr = min(lhs.trunc, rhs.trunc)
                    assert (lhs.truncate(tr) - rhs.truncate(tr)).is_zero()


def coordinate_lie_derivative(x, omega):
    """(L_X omega)_v = X(omega_v) + sum_u omega_u d_v X^u for a 1-form
    omega = sum_v omega_v dv given by its coordinate components."""
    out = {}
    for v, w in omega.items():
        acc = x.apply(w)
        for u, xu in x.comps.items():
            acc = acc + omega[u] * xu.diff(v)
        out[v] = acc
    return out


def test_iterated_forms_match_coordinate_lie_derivative():
    # theta = sum_v theta_v dv (dual to the frame, see test_frame_duality),
    # differentiated in coordinates with no bracket and no structure
    # constant, paired with every frame field
    for h in surfaces():
        fr = Frame(h)
        n = fr.n
        fs = fields(fr)
        coord = {(): theta(fr)}
        for word, omega in iterated_forms(fr, 2):
            coord[word] = coordinate_lie_derivative(fs[n + word[-1]],
                                                    coord[word[:-1]])
            for j, e in enumerate(fs):
                paired = sum((coord[word][v] * e.comp(v, fr.trunc)
                              for v in fr.vars), Series.zero(fr.vars, fr.trunc))
                want = omega[j] if j <= n else Series.zero(fr.vars, fr.trunc)
                tr = min(paired.trunc, want.trunc)
                assert (paired.truncate(tr) - want.truncate(tr)).is_zero()
        assert len(coord) == 1 + n + n * n


def test_filtration_model():
    # ell = 1, and nondegenerate: the last rank is n
    assert filtration(Frame(corpus.model_surface(T))) == [0, 1]


def test_filtration_example():
    # ell = 2, and nondegenerate: the last rank is n
    h = corpus.filtration_example_surface(T)
    assert filtration(Frame(h)) == [0, 1, 2]


def test_filtration_matches_nondegeneracy_order():
    from crgeom.hypersurface import nondegeneracy_ell
    for h in surfaces():
        ranks = filtration(Frame(h))
        verdict = nondegeneracy_ell(h)
        assert (ranks[-1] == h.n) == (not verdict.degenerate)
        if ranks[-1] == h.n:
            assert len(ranks) - 1 == verdict.ell


# the kernel dimension repeats at k = 2 before it drops at k = 3
STALL_PHI = "s*z1*c1 + s*z2*c2^3 + s*z2^3*c2"


def chi_row_ranks(h):
    """The cumulative ranks of the chi-rows, the z_B coefficients of the
    a_alpha with |alpha| <= k, for k = 0..h.ell_max, read from
    h.chi_coefficients; the sequence stops once the rank is n."""
    n, rows, ranks = h.n, [], []
    for k in range(h.ell_max + 1):
        for alpha, a in h.chi_coefficients.items():
            row = {ze.index(1): c for ze, c in a.items() if sum(ze) == 1}
            if sum(alpha) == k and row:
                rows.append(row)
        ranks.append(rank(rows, n))
        if ranks[-1] == n:
            break
    return ranks


def test_stall_surface_rank_sequences():
    h = Hypersurface(2, parse_series(STALL_PHI, hypersurface_vars(2), 8))
    assert filtration(Frame(h)) == [0, 1]
    assert chi_row_ranks(h) == [0, 1, 1, 2]


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), normal_phi(n), st.integers(7, 9))))
@example((2, STALL_PHI, 8))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_filtration_ranks_are_a_prefix_of_the_chi_row_ranks(case):
    # the word-by-word filtration reads the chi-rows' cumulative ranks,
    # up to the length at which it stops
    n, phi, trunc = case
    h = Hypersurface(n, parse_series(phi, hypersurface_vars(n), trunc))
    if h.levi_flat:
        return                  # the terms cancelled
    ranks = filtration(Frame(h))
    assert chi_row_ranks(h)[:len(ranks)] == ranks


def literal_case(h):
    return h.n, h.phi.to_literal(), h.trunc, False


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), normal_phi(n), st.integers(5, 9), st.booleans())))
@example((2, STALL_PHI, 8, False))
@example(literal_case(corpus.model_surface(T)))
@example(literal_case(corpus.two_infinite_type_surface(T)))
@example(literal_case(corpus.power_target(2, T)))
@example(literal_case(corpus.filtration_example_surface(T)))
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_filtration_matches_the_word_by_word_oracle(case):
    # the one loop reads the ranks, and report's ell and nondegenerate
    # read off them, that the word-by-word pipeline reads; phi times s in
    # half the draws brings m = 2
    n, phi, trunc, times_s = case
    if times_s:
        phi = f"s*({phi})"
    h = Hypersurface(n, parse_series(phi, hypersurface_vars(n), trunc))
    if h.levi_flat:
        return                  # the terms cancelled
    ranks = filtration(Frame(h))
    want_ranks, want_ell, want_nondegenerate = word_filtration(Frame(h))
    assert ranks == want_ranks
    assert len(ranks) - 1 == want_ell
    assert (ranks[-1] == n) == want_nondegenerate


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), normal_phi(n), st.booleans())))
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_filtration_runs_at_the_least_admitted_truncs(case):
    # at trunc m + 2 and m + 3, the least that keep the type m, every word
    # the loop builds stays exact through s^m: no error, and ell stays
    # within ell_max
    n, phi, times_s = case
    if times_s:
        phi = f"s*({phi})"
    vars = hypersurface_vars(n)
    m = Hypersurface(n, parse_series(phi, vars, 9)).m
    if m is None:
        return                  # the terms cancelled
    for trunc in (m + 2, m + 3):
        h = Hypersurface(n, parse_series(phi, vars, trunc))
        if h.m != m:
            continue            # the cut dropped the s^m terms
        ranks = filtration(Frame(h))
        assert 1 <= len(ranks) - 1 <= h.ell_max


def test_levi_data_refuse_a_levi_flat_surface():
    # Frame and its fields L, Lbar stay defined on a Levi-flat surface
    # (see test_derivations_match_coordinate_fields); S, h0, h0_bar and
    # the filtration need the type m, and say so
    fr = Frame(corpus.levi_flat_surface(6))
    z1 = Series.variable("z1", fr.vars, fr.trunc)
    for read in (lambda: fr.h0, lambda: fr.h0_bar, lambda: fr.S(z1),
                 lambda: filtration(fr)):
        with pytest.raises(ValidationError, match="Levi-flat") as exc:
            read()
        assert not isinstance(exc.value, InvariantViolation)


def test_kernel_lemma():
    # vectors annihilated by all length-k value rows lie in F_k; for the
    # example surface F_1 = span(e2) and F_2 = 0
    h = corpus.filtration_example_surface(T)
    fr = Frame(h)
    values = dict(iterated_h0_at_origin(fr, 2))
    rows_12 = sparse(values.values())
    rows_1 = [row for w, row in zip(values, rows_12) if len(w) == 1]
    # rank 1 with every row zero in slot 2: the kernel is span(e2)
    assert rank(rows_1, 2) == 1
    assert all(1 not in row for row in rows_1)
    assert rank(rows_12, 2) == 2


def test_type_two_detection():
    # type 2 (h0(0) != 0) holds for every corpus surface of finite type
    for h in surfaces():
        fr = Frame(h)
        some_nonzero = any(not fr.h0[a][b].constant_term().is_zero()
                           for a in range(h.n) for b in range(h.n))
        assert some_nonzero == (h.r == 2)
