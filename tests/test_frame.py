import itertools

from crgeom import corpus
from crgeom.frame import (Frame, bracket, desingularize, filtration,
                          iterated_forms, iterated_h0_at_origin, levi_matrix)
from crgeom.hypersurface import Hypersurface, compute_infinite_type
from crgeom.report import HALF_OVER_I
from crgeom.scalars import GaussRational
from crgeom.series import Series, hypersurface_vars

T = 8


def surfaces():
    yield corpus.model_surface(T)
    yield corpus.two_infinite_type_surface(T)
    yield corpus.power_target(2, T)
    yield corpus.filtration_example_surface(T)
    # psi with genuine s-dependence
    v = hypersurface_vars(1)
    z, c, s = (Series.variable(x, v, T) for x in ("z1", "c1", "s"))
    yield Hypersurface.from_phi(1, s * z * c + s * s * z * c)


def test_frame_duality():
    for h in surfaces():
        fr = Frame(h)
        for j, f in enumerate(fr.fields):
            comps = fr.frame_components(f)
            for k, cseries in enumerate(comps):
                expected = Series.const(1 if k == j else 0, fr.vars,
                                        cseries.trunc)
                assert cseries == expected


def test_cr_fields_commute():
    # [L_a, L_b] = 0, and [L_abar, L_bbar] = 0 keeps the L_bar-components
    # of every iterated form of theta zero
    for h in surfaces():
        fr = Frame(h)
        for fields in (fr.L, fr.Lbar):
            for x, y in itertools.combinations(fields, 2):
                br = bracket(x, y, fr.trunc)
                assert all(c.is_zero() for c in br.comps.values())


def test_brackets_are_multiples_of_t():
    for h in surfaces():
        fr = Frame(h)
        n = fr.n
        fields = fr.L + fr.Lbar + [fr.T]
        for x, y in itertools.combinations(fields, 2):
            dec = fr.frame_components(bracket(x, y, fr.trunc))
            for j in range(1, 2 * n + 1):
                assert dec[j].is_zero()


def test_levi_matrix_hermitian():
    # (1/2i) <theta, [L_Abar, L_B]> is Hermitian
    for h in surfaces():
        fr = Frame(h)
        levi = levi_matrix(fr)
        n = fr.n
        for a in range(n):
            for b in range(n):
                lhs = levi.h[a][b] * HALF_OVER_I
                rhs = (levi.h[b][a] * HALF_OVER_I).conjugate()
                assert lhs == rhs.truncate(lhs.trunc)


def test_desingularized_leading_term_is_mixed_hessian():
    # (1/2i) h0(0)[A][B] equals the coefficient of z_B * c_A in the
    # lowest-order part of phi_m
    for h in surfaces():
        rep = compute_infinite_type(h)
        fr = Frame(h)
        levi = desingularize(fr, levi_matrix(fr, rep.m), rep.m)
        n = h.n
        lowest = {e: c for e, c in rep.phi_m.terms.items()
                  if sum(e) == rep.r}
        for a in range(n):
            for b in range(n):
                exps = tuple(1 if j == b else 0 for j in range(n)) + \
                    tuple(1 if j == a else 0 for j in range(n)) + (0,)
                expected = lowest.get(exps, GaussRational(0))
                assert levi.h0[a][b].constant_term() * HALF_OVER_I == expected


def test_model_bracket_and_levi_values():
    fr = Frame(corpus.model_surface(9))
    dec = fr.frame_components(bracket(fr.Lbar[0], fr.L[0], fr.trunc))
    # [L_1bar, L_1] = (2is + O(3)) T
    assert dec[0].coefficient((0, 0, 1)) == GaussRational(0, 2)
    assert fr.c[0][1][0] == dec[0]
    levi = desingularize(fr, levi_matrix(fr, 1), 1)
    assert levi.h[0][0].coefficient((0, 0, 1)) == GaussRational(0, 2)
    assert levi.h0[0][0].constant_term() == GaussRational(0, 2)
    # phi = s*g(z,c) makes the bracket with s^m T collapse exactly
    assert levi.h0_bar[0].is_zero()
    # a_1bar = m (L_1bar s)/s = -i z/(1 + i z c)
    assert levi.a_bar[0].coefficient((1, 0, 0)) == GaussRational(0, -1)
    assert levi.a_bar[0].coefficient((2, 1, 0)) == GaussRational(-1)


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
                    rhs = fr.Lbar[c - 1].apply(forms[word][d]) + \
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
    # theta = sum_v minv[v][0] dv, differentiated in coordinates with no
    # bracket and no structure constant, paired with every frame field
    for h in surfaces():
        fr = Frame(h)
        n = fr.n
        theta = {v: fr.minv[i][0] for i, v in enumerate(fr.vars)}
        coord = {(): theta}
        for word, omega in iterated_forms(fr, 2):
            coord[word] = coordinate_lie_derivative(fr.Lbar[word[-1] - 1],
                                                    coord[word[:-1]])
            for j, e in enumerate(fr.fields):
                paired = sum((coord[word][v] * e.comp(v, fr.trunc)
                              for v in fr.vars), Series.zero(fr.vars, fr.trunc))
                want = omega[j] if j <= n else Series.zero(fr.vars, fr.trunc)
                tr = min(paired.trunc, want.trunc)
                assert (paired.truncate(tr) - want.truncate(tr)).is_zero()
        assert len(coord) == 1 + n + n * n


def test_filtration_model():
    fr = Frame(corpus.model_surface(T))
    filt = filtration(fr, 1, 4)
    assert filt.ranks == [0, 1]
    assert filt.ell == 1
    assert filt.nondegenerate
    assert filt.stabilized


def test_filtration_example():
    h = corpus.filtration_example_surface(T)
    fr = Frame(h)
    filt = filtration(fr, 1, 4)
    assert filt.ranks == [0, 1, 2]
    assert filt.ell == 2
    assert filt.nondegenerate


def test_filtration_matches_nondegeneracy_order():
    from crgeom.hypersurface import nondegeneracy_ell
    for h in surfaces():
        rep = compute_infinite_type(h)
        fr = Frame(h)
        filt = filtration(fr, rep.m, 4)
        verdict = nondegeneracy_ell(h, 4)
        assert filt.nondegenerate == (not verdict.degenerate)
        if filt.nondegenerate:
            assert filt.ell == verdict.ell


def test_adapted_basis_kills_short_words():
    # in the adapted basis, h0_{A1bar..Ajbar a}(0) = 0 whenever a indexes
    # an F_k direction and j < k
    h = corpus.filtration_example_surface(T)
    fr = Frame(h)
    filt = filtration(fr, 1, 4)
    values = dict(iterated_h0_at_origin(fr, 1, filt.ell))
    tv = _transform_word_values(values, filt.basis_change, fr.n)
    n = fr.n
    for k in range(1, filt.ell + 1):
        r_k = filt.ranks[k]
        for word, vals in tv.items():
            if len(word) < k:
                for d in range(r_k, n):
                    assert vals[d].is_zero()


def test_kernel_lemma():
    # vectors annihilated by all length-k value rows lie in F_k; for the
    # example surface F_1 = span(e2) and F_2 = 0
    h = corpus.filtration_example_surface(T)
    fr = Frame(h)
    values = dict(iterated_h0_at_origin(fr, 1, 2))
    rows_1 = [v for w, v in values.items() if len(w) == 1]
    rows_12 = list(values.values())
    from crgeom.linalg import kernel_basis
    k1 = kernel_basis(rows_1, 2)
    assert len(k1) == 1 and k1[0][0].is_zero()
    assert kernel_basis(rows_12, 2) == []


def test_type_two_detection():
    # type 2 (h0(0) != 0) holds for every corpus surface of finite type
    for h in surfaces():
        rep = compute_infinite_type(h)
        fr = Frame(h)
        levi = desingularize(fr, levi_matrix(fr, rep.m), rep.m)
        some_nonzero = any(not levi.h0[a][b].constant_term().is_zero()
                           for a in range(h.n) for b in range(h.n))
        assert some_nonzero == (rep.r == 2)


def _transform_word_values(values, p, n):
    """Iterated h^0 values at 0 after the constant frame change
    L'_B = sum_A p[A][B] L_A (word slots transform by conj(p))."""
    out = {}
    for word, _ in values.items():
        k = len(word)
        new_vals = []
        for d in range(n):
            total = GaussRational(0)
            for old in itertools.product(range(n), repeat=k):
                for old_d in range(n):
                    coeff = GaussRational(1)
                    for slot, a in enumerate(word):
                        coeff = coeff * p[old[slot]][a - 1].conjugate()
                    coeff = coeff * p[old_d][d]
                    key = tuple(x + 1 for x in old)
                    total = total + coeff * values[key][old_d]
            new_vals.append(total)
        out[word] = new_vals
    return out
