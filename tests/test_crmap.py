import hashlib
import json

import pytest

import crgeom.crmap
from crgeom import corpus
from crgeom.cli import main
from crgeom.crmap import (HoloMap, check_identities, compose_target,
                          compose_with_map, frame_data, map_vars, maps_into,
                          restrict_map, restriction_data)
from crgeom.errors import InvariantViolation, ValidationError
from crgeom.frame import Frame
from crgeom.hypersurface import Hypersurface
from crgeom.parsing import parse_series
from crgeom.report import HALF_OVER_I
from crgeom.scalars import GaussRational
from crgeom.series import Series, hypersurface_vars, implicit_solve

T = 9
# the source of the n = 2 scale specimen M2 (ROADMAP)
M2_PHI = "s*z1*c1 + s*z2*c2^2 + s*z2^2*c2 + s^2*z1*c2 + s^2*z2*c1"


def map_frame_data(f, source, target):
    fr, rd = Frame(source), restriction_data(f, source)
    return frame_data(fr, rd, compose_target(fr, Frame(target), rd))


def containment(f, source, target):
    rd = restriction_data(f, source)
    return maps_into(rd, compose_with_map([target.phi], rd)[0])


def assert_tangent(f, source, target):
    """f_* L_B has no That-component: theta_hat o f paired with it, whose
    That-part is L_B(s_hat) and whose Lhat_C-part is gamma^C_B (its
    Lhat_Cbar-part vanishes by holomorphy), is zero for every B."""
    fr, fr_hat, rd = Frame(source), Frame(target), restriction_data(f, source)
    ct = compose_target(fr, fr_hat, rd)
    fd = frame_data(fr, rd, ct)
    theta_f = ct.theta
    for B in range(source.n):
        paired = theta_f["s"] * fr.L(B, rd.s_hat)
        for C in range(target.n):
            paired = paired + theta_f[f"z{C + 1}"] * fd.gamma[C][B]
        assert paired.is_zero()


def test_restrict_substitutes_w():
    m0 = corpus.model_surface(T)
    f = corpus.power_map(1, T)
    F = restrict_map(f, m0)
    # F2|M = s + i*phi
    s = Series.variable("s", m0.vars(), T)
    assert F[1] == s + m0.phi * GaussRational(0, 1)


def test_map_must_fix_origin():
    mv = map_vars(1)
    one = Series.const(1, mv, T)
    with pytest.raises(ValidationError, match="does not fix the origin"):
        HoloMap(1, [Series.variable("z1", mv, T), one])
    with pytest.raises(ValidationError, match="must be a series in"):
        HoloMap(2, [Series.variable("z1", mv, T)])
    # the constructor stores the components as a tuple
    z1 = Series.variable("z1", mv, T)
    assert HoloMap(1, [z1, z1]).components == (z1, z1)


def test_power_maps_into_targets():
    for k in (2, 3, 4):
        trunc = 2 * k + 4
        m0 = corpus.model_surface(trunc)
        mk = corpus.power_target(k, trunc)
        res = containment(corpus.power_map(k, trunc), m0, mk)
        assert res.is_zero()


def test_wrong_target_gives_nonzero_residual():
    m0 = corpus.model_surface(T)
    m3 = corpus.power_target(3, T)
    res = containment(corpus.power_map(2, T), m0, m3)
    assert not res.is_zero()


def test_frame_data_power_map():
    m0 = corpus.model_surface(T)
    m2 = corpus.power_target(2, T)
    fd = map_frame_data(corpus.power_map(2, T), m0, m2)
    assert fd.xi == Series.const(2, fd.xi.vars, fd.xi.trunc)
    assert fd.gamma[0][0].constant_term() == GaussRational(1)
    assert all(e.is_zero() for e in fd.eta)
    assert_tangent(corpus.power_map(2, T), m0, m2)
    assert (m0.m, m2.m) == (1, 1)


def test_identity_map_xi_one():
    m0 = corpus.model_surface(T)
    rr = check_identities(corpus.identity_map(1, T), m0, m0)
    assert rr.all_zero()
    assert rr.xi.to_literal() == "1"


def test_identities_vanish_for_corpus_maps():
    for k in (2, 3, 4):
        trunc = 2 * k + 4
        m0 = corpus.model_surface(trunc)
        mk = corpus.power_target(k, trunc)
        rr = check_identities(corpus.power_map(k, trunc), m0, mk)
        assert rr.map_residual.is_zero()
        assert rr.all_zero()
        assert rr.xi.to_literal() == str(k)


def test_identity_map_on_higher_dimensional_surface():
    h = corpus.filtration_example_surface(T)
    rr = check_identities(corpus.identity_map(2, T), h, h)
    assert rr.all_zero()
    assert rr.xi.to_literal() == "1"


def test_functoriality_square_map_between_targets():
    # (z, w^2) also maps M'_2 into M'_4, and gamma/xi compose
    trunc = 12
    m0 = corpus.model_surface(trunc)
    m2 = corpus.power_target(2, trunc)
    m4 = corpus.power_target(4, trunc)
    f2 = corpus.power_map(2, trunc)
    res = containment(f2, m2, m4)
    assert res.is_zero()
    rr_step = check_identities(f2, m2, m4)
    assert rr_step.all_zero()

    # compose: (z, (w^2)^2) = (z, w^4)
    fd_first = map_frame_data(f2, m0, m2)
    fd_second = map_frame_data(f2, m2, m4)
    fd_total = map_frame_data(corpus.power_map(4, trunc), m0, m4)
    # xi is multiplicative along the composition: 2 * (xi_2 o f) = 4
    xi2_of = fd_second.xi     # equals 2 exactly here
    prod = fd_first.xi * xi2_of.truncate(fd_first.xi.trunc)
    tr = min(prod.trunc, fd_total.xi.trunc)
    assert prod.truncate(tr) == fd_total.xi.truncate(tr)


def test_levi_flat_source_is_xi_singular():
    flat = corpus.levi_flat_surface(T)
    m0 = corpus.model_surface(T)
    with pytest.raises(InvariantViolation, match="xi-singular"):
        map_frame_data(corpus.identity_map(1, T), flat, m0)


def test_levi_flat_target_is_xi_singular():
    flat = corpus.levi_flat_surface(T)
    m0 = corpus.model_surface(T)
    with pytest.raises(InvariantViolation, match="xi-singular"):
        map_frame_data(corpus.identity_map(1, T), m0, flat)


def test_origin_value_of_levi_identity():
    # at the origin the first identity reads xi * h0 = |gamma|^2 * h0hat;
    # with the reported (1/2i) factor, 2 * 1 = 1 * 1 * 2 for (z, w^2):
    # model -> power target
    m0 = corpus.model_surface(T)
    m2 = corpus.power_target(2, T)
    fd = map_frame_data(corpus.power_map(2, T), m0, m2)
    h0 = Frame(m0).h0
    h0hat = Frame(m2).h0
    xi0 = fd.xi.constant_term()
    g0 = fd.gamma[0][0].constant_term()
    lhs = xi0 * h0[0][0].constant_term() * HALF_OVER_I
    rhs = g0 * g0.conjugate() * h0hat[0][0].constant_term() * HALF_OVER_I
    assert lhs == rhs
    assert lhs == GaussRational(2)


def test_non_map_has_nonzero_residuals():
    # (2z, w) does not map Im w = s|z|^2 into itself
    m0 = corpus.model_surface(T)
    mv = map_vars(1)
    f = HoloMap(1, [Series.variable("z1", mv, T) * 2,
                    Series.variable("w", mv, T)])
    rr = check_identities(f, m0, m0)
    assert not rr.map_residual.is_zero()
    assert not rr.all_zero()


def w_dependent_example(trunc):
    """(z (1 + w), w) maps Im w = s|z|^2 into Im w = s|z|^2 / |1 + w|^2,
    whose phi solves t = s z c / ((1 + s)^2 + t^2); its first component
    depends on w, so eta = S(F_1|M) is nonzero."""
    ivars = ("u", "s", "t")
    u, s, t = (Series.variable(x, ivars, trunc) for x in ivars)
    one = Series.const(1, ivars, trunc)
    theta = implicit_solve(s * u * ((one + s) ** 2 + t * t).reciprocal(), "t")
    v = hypersurface_vars(1)
    phi = theta.subs({"u": Series.variable("z1", v, trunc) *
                      Series.variable("c1", v, trunc),
                      "s": Series.variable("s", v, trunc)})
    mv = map_vars(1)
    z, w = (Series.variable(x, mv, trunc) for x in mv)
    f = HoloMap(1, [z + z * w, w])
    return f, corpus.model_surface(trunc), Hypersurface(1, phi)


def test_identities_vanish_for_w_dependent_map():
    f, src, tgt = w_dependent_example(T)
    fd = map_frame_data(f, src, tgt)
    assert not fd.eta[0].is_zero()
    assert_tangent(f, src, tgt)
    rr = check_identities(f, src, tgt)
    assert rr.map_residual.is_zero()
    assert rr.all_zero()
    assert rr.xi.constant_term() == GaussRational(1)


def test_theta_hat_f_matches_composed_quotient():
    # composing phihat's first partials and forming the quotient after
    # gives the dense theta_hat components composed with f, terms and
    # truncation, on maps whose images are not linear: the w-dependent
    # map, and a map with z-quadratic components (not a CR map between
    # these surfaces; the composition does not need one)
    mv = map_vars(2)
    z1, z2, w = (Series.variable(x, mv, T) for x in mv)
    quadratic = HoloMap(2, [z1 + z2 * z2,
                            z2 + z1 * z2 * GaussRational(0, 1),
                            w + z1 * z1 - z1 * z2])
    h = corpus.filtration_example_surface(T)
    for f, src, tgt in [w_dependent_example(T), (quadratic, h, h)]:
        fr_hat = Frame(tgt)
        rd = restriction_data(f, src)
        got = compose_target(Frame(src), fr_hat, rd).theta
        for C, p in enumerate(fr_hat.P, start=1):
            want = compose_with_map([-p], rd)[0]
            assert len(want.terms) > 1
            assert got[f"z{C}"] == want and got[f"z{C}"].trunc == want.trunc
            assert got[f"c{C}"] == want.conjugate()
            assert got[f"c{C}"].trunc == want.trunc


def test_batched_composition_matches_one_by_one():
    # the one batched composition gives each series, terms and trunc, as
    # composing it alone would; its members have truncs 9 (phihat), 8 (its
    # partials) and 6 (the Levi functions) here, so products formed for
    # the deeper ones are cut for the others, and h0hat_{ab} with a > b,
    # filled in by conjugation, is checked too
    mv = map_vars(2)
    z1, z2, w = (Series.variable(x, mv, T) for x in mv)
    quadratic = HoloMap(2, [z1 + z2 * z2 + z1 * w,
                            z2 + z1 * z2 * GaussRational(0, 1),
                            w + z1 * z1 * w - z1 * z2 * w])
    src = Hypersurface(
        2, parse_series(M2_PHI, hypersurface_vars(2), T))
    rd = restriction_data(quadratic, src)
    fr_hat = Frame(src)
    ct = compose_target(Frame(src), fr_hat, rd)

    def alone(g):
        return compose_with_map([g], rd)[0]

    pairs = [(ct.phi, alone(src.phi))]
    pairs += [(ct.h0[a][b], alone(fr_hat.h0[a][b]))
              for a in range(2) for b in range(2)]
    pairs += [(x, alone(y)) for x, y in zip(ct.h0_bar, fr_hat.h0_bar)]
    assert sorted({want.trunc for _, want in pairs}) == [6, 9]
    for got, want in pairs:
        assert not want.is_zero()
        assert got == want and got.trunc == want.trunc


def test_check_identities_builds_each_piece_once(monkeypatch):
    # one restriction and one batched composition of (n+1) + n(n+1)/2 +
    # n + 1 series: phihat and its n + 1 first partials, the target's h0
    # with a <= b, and its h0bar
    calls = {"restrict_map": [], "compose_with_map": []}
    for name in calls:
        original = getattr(crgeom.crmap, name)

        def counted(*args, _original=original, _name=name):
            calls[_name].append(len(args[0]) if _name == "compose_with_map"
                                else 1)
            return _original(*args)
        monkeypatch.setattr(crgeom.crmap, name, counted)
    h = corpus.filtration_example_surface(T)
    n = h.n
    assert check_identities(corpus.identity_map(n, T), h, h).all_zero()
    assert calls["restrict_map"] == [1]
    assert calls["compose_with_map"] == [(n + 1) + n * (n + 1) // 2 + n + 1]


def test_check_map_truncations_are_pinned():
    # every residual states the order through which it is exact; a series
    # kernel that skipped a clamp or a cut would change these truncs without
    # changing any printed term (values recorded from the term-by-term
    # kernels: products that visit every pair, subs by repeated addition)
    f, src, tgt = w_dependent_example(T)
    fd = map_frame_data(f, src, tgt)
    assert [[g.trunc for g in row] for row in fd.gamma] == [[8]]
    assert [e.trunc for e in fd.eta] == [8]
    rr = check_identities(f, src, tgt)
    assert {k: [r.trunc for r in rs]
            for k, rs in rr.identity_residuals.items()} == {
        "levi": [6], "levi-tail": [6], "gamma-cr": [6], "eta-cr": [6],
        "gamma-s": [6]}
    assert rr.xi.trunc == 7
    assert rr.map_residual.trunc == 9
    assert rr.max_checked_order == 6


# check-map inputs for three maps that are not CR maps between their
# surfaces, so their residuals are nonzero: genuine maps print only zeros,
# and only these pin a reordered Levi sum or a wrong truncation in the
# batched composition.  Each is (surface file, map file); the map's
# source and target are the surface.  The n = 2 map's last component is
# w times a unit, so that s_hat is s times a unit and xi is smooth.
NON_MAPS = {
    "z1w_w2_t6": ('n = 1\ntrunc = 6\nphi = "s*z1*c1"\n',
                  'n = 1\ntrunc = 6\nF1 = "z1*w"\nF2 = "w^2"\n'),
    "2z1_w_model": ('n = 1\ntrunc = 8\nphi = "s*z1*c1"\n',
                    'n = 1\ntrunc = 8\nF1 = "2*z1"\nF2 = "w"\n'),
    "quadratic_m2_t7": (f'n = 2\ntrunc = 7\nphi = "{M2_PHI}"\n',
                        'n = 2\ntrunc = 7\nF1 = "z1 + z2^2 + z1*w"\n'
                        'F2 = "z2 + i*z1*z2"\nF3 = "w + z1^2*w - z1*z2*w"\n'),
}


# sha256 of each stdout, recorded before the composition was batched
NON_MAP_DIGESTS = {
    "z1w_w2_t6":
        "c74a110cafa4d56305bb89eadeabf613793a58d6b3bb546da3d48a6ca7be079d",
    "2z1_w_model":
        "d22f34de88eaf2135d8227028ff305c8abe2e58816bd85ec8e1b153582d12ec6",
    "quadratic_m2_t7":
        "55707180d159e19aec8f6c15811bf733a1298198fa6815ac0f95349b4e640aeb",
}


@pytest.mark.parametrize("name", sorted(NON_MAPS))
def test_non_map_check_map_stdout_is_pinned(tmp_path, capsys, name):
    surface, mapping = NON_MAPS[name]
    (tmp_path / "m.hs").write_text(surface)
    mp = tmp_path / "f.map"
    mp.write_text(mapping + "source = m.hs\ntarget = m.hs\n")
    assert main(["check-map", str(mp)]) == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["residuals"]["maps_into"] is False
    assert any(r != "0" for r in rep["residuals"]["identities"]["levi"])
    if name == "z1w_w2_t6":
        assert rep["residuals"]["identities"]["levi"] == ["4*i - 2*i*s^2"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        NON_MAP_DIGESTS[name]
