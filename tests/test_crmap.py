import pytest

from crgeom import corpus
from crgeom.crmap import (HoloMap, check_identities, frame_data, map_vars,
                          maps_into, restrict_map)
from crgeom.errors import InvariantViolation, ValidationError
from crgeom.scalars import GaussRational
from crgeom.series import Series

T = 9


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
    with pytest.raises(ValidationError):
        HoloMap.make(1, [Series.variable("z1", mv, T), one])


def test_power_maps_into_targets():
    for k in (2, 3, 4):
        trunc = 2 * k + 4
        m0 = corpus.model_surface(trunc)
        mk = corpus.power_target(k, trunc)
        res = maps_into(corpus.power_map(k, trunc), m0, mk)
        assert res.is_zero()


def test_wrong_target_gives_nonzero_residual():
    m0 = corpus.model_surface(T)
    m3 = corpus.power_target(3, T)
    res = maps_into(corpus.power_map(2, T), m0, m3)
    assert not res.is_zero()


def test_frame_data_power_map():
    m0 = corpus.model_surface(T)
    m2 = corpus.power_target(2, T)
    fd = frame_data(corpus.power_map(2, T), m0, m2)
    assert fd.xi == Series.const(2, fd.xi.vars, fd.xi.trunc)
    assert fd.gamma[0][0].constant_term() == GaussRational(1)
    assert all(e.is_zero() for e in fd.eta)
    assert fd.xi_smooth
    assert fd.tangency_ok
    assert (fd.m, fd.m_hat) == (1, 1)


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
        assert rr.xi_smooth


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
    res = maps_into(f2, m2, m4)
    assert res.is_zero()
    rr_step = check_identities(f2, m2, m4)
    assert rr_step.all_zero()

    # compose: (z, (w^2)^2) = (z, w^4)
    fd_first = frame_data(f2, m0, m2)
    fd_second = frame_data(f2, m2, m4)
    fd_total = frame_data(corpus.power_map(4, trunc), m0, m4)
    # xi is multiplicative along the composition: 2 * (xi_2 o f) = 4
    xi2_of = fd_second.xi     # equals 2 exactly here
    prod = fd_first.xi * xi2_of.truncate(fd_first.xi.trunc)
    tr = min(prod.trunc, fd_total.xi.trunc)
    assert prod.truncate(tr) == fd_total.xi.truncate(tr)


def test_levi_flat_source_is_xi_singular():
    flat = corpus.levi_flat_surface(T)
    m0 = corpus.model_surface(T)
    with pytest.raises(InvariantViolation, match="xi-singular"):
        frame_data(corpus.identity_map(1, T), flat, m0)


def test_levi_flat_target_is_xi_singular():
    flat = corpus.levi_flat_surface(T)
    m0 = corpus.model_surface(T)
    with pytest.raises(InvariantViolation, match="xi-singular"):
        frame_data(corpus.identity_map(1, T), m0, flat)


def test_origin_value_of_levi_identity():
    # at the origin the first identity reads xi * h0 = |gamma|^2 * h0hat;
    # with the reported (1/2i) factor, 2 * 1 = 1 * 1 * 2 for (z, w^2):
    # model -> power target
    m0 = corpus.model_surface(T)
    m2 = corpus.power_target(2, T)
    fd = frame_data(corpus.power_map(2, T), m0, m2)
    from crgeom.frame import Frame, desingularize, levi_matrix
    from crgeom.report import HALF_OVER_I
    h0 = desingularize(Frame(m0), levi_matrix(Frame(m0), 1), 1)
    h0hat = desingularize(Frame(m2), levi_matrix(Frame(m2), 1), 1)
    xi0 = fd.xi.constant_term()
    g0 = fd.gamma[0][0].constant_term()
    lhs = xi0 * h0.h0[0][0].constant_term() * HALF_OVER_I
    rhs = g0 * g0.conjugate() * h0hat.h0[0][0].constant_term() * HALF_OVER_I
    assert lhs == rhs
    assert lhs == GaussRational(2)
