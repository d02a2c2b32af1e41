from fractions import Fraction

import pytest

from crgeom import corpus
from crgeom.errors import (InvariantViolation, TruncationError,
                           ValidationError)
from crgeom.hypersurface import (Hypersurface, essentiality_check,
                                 full_report, nondegeneracy_ell, validate)
from crgeom.scalars import GaussRational
from crgeom.series import Series, hypersurface_vars

T = 8
V1 = hypersurface_vars(1)
V2 = hypersurface_vars(2)


def sv(name, vars_=V1, trunc=T):
    return Series.variable(name, vars_, trunc)


def model():
    return corpus.model_surface(T)


def test_validate_accepts_model():
    validate(model())


def test_validate_rejects_non_normal():
    phi = sv("s") * sv("z1")
    with pytest.raises(ValidationError) as exc:
        Hypersurface(1, phi)
    assert "normality" in str(exc.value)


def test_validate_rejects_non_real():
    phi = sv("s") * sv("z1") * sv("c1") * GaussRational(0, 1)
    with pytest.raises(ValidationError) as exc:
        Hypersurface(1, phi)
    assert "reality" in str(exc.value)


def test_model_invariants():
    h = model()
    assert h.m == 1
    assert h.r == 2
    z, c = sv("z1", trunc=h.psi.trunc), sv("c1", trunc=h.psi.trunc)
    assert h.psi == z * c
    assert h.phi_m.to_literal() == "z1*c1"


def test_levi_flat():
    h = corpus.levi_flat_surface(T)
    assert h.levi_flat
    assert h.m is None
    with pytest.raises(ValidationError):
        essentiality_check(corpus.levi_flat_surface(T), 3)
    with pytest.raises(ValidationError):
        nondegeneracy_ell(corpus.levi_flat_surface(T), 3)


def test_two_infinite_type_surface():
    h = corpus.two_infinite_type_surface(T)
    validate(h)
    assert h.m == 2
    assert h.r == 2


def test_essentiality_certified_for_model():
    v = essentiality_check(model(), 4)
    assert v.status == "certified-essential"
    assert v.bound == 1


def test_essentiality_higher_degree_certificate():
    # psi = z^2 chi^2: the coefficient ideal is (z^2), codimension 2
    phi = sv("s") * (sv("z1") * sv("c1")) ** 2
    v = essentiality_check(Hypersurface(1, phi), 4)
    assert v.status == "certified-essential"
    assert v.bound == 2


def test_essentiality_structural_obstruction():
    # z2 never appears: ideal sits inside (z1), infinite codimension
    z1, c1, s = sv("z1", V2), sv("c1", V2), sv("s", V2)
    phi = s * z1 * c1
    v = essentiality_check(Hypersurface(2, phi), 4)
    assert v.status == "not-essential-up-to"
    assert "z2" in v.detail


def test_nondegeneracy_model():
    v = nondegeneracy_ell(model(), 4)
    assert not v.degenerate
    assert v.ell == 1


def test_nondegeneracy_order_two():
    h = corpus.filtration_example_surface(T)
    v = nondegeneracy_ell(h, 4)
    assert not v.degenerate
    assert v.ell == 2


def test_nondegeneracy_truncation_guard():
    with pytest.raises(TruncationError) as exc:
        nondegeneracy_ell(model(), T + 5)
    # asking for more words than the trunc determines means the input is
    # too short; no theory is violated
    assert isinstance(exc.value, ValidationError)
    assert not isinstance(exc.value, InvariantViolation)


def test_full_report_model():
    rep = full_report(model())
    assert rep.essential.status == "certified-essential"
    assert rep.ell.as_dict() == {"status": "nondegenerate", "ell": 1}


def test_invariants_under_exact_rotation():
    # z -> U z with the rational orthogonal matrix [[3/5,4/5],[-4/5,3/5]]
    # preserves normal form and all numeric invariants
    h = corpus.filtration_example_surface(T)
    u = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    zs = [sv("z1", V2), sv("z2", V2)]
    cs = [sv("c1", V2), sv("c2", V2)]
    mapping = {"s": sv("s", V2)}
    for j in range(2):
        mapping[f"z{j+1}"] = zs[0] * GaussRational(u[j][0]) + \
            zs[1] * GaussRational(u[j][1])
        mapping[f"c{j+1}"] = cs[0] * GaussRational(u[j][0]) + \
            cs[1] * GaussRational(u[j][1])
    phi_rot = h.phi.subs(mapping)
    h_rot = Hypersurface(2, phi_rot)     # checks normal form and reality
    assert h.m == h_rot.m
    assert h.r == h_rot.r
    assert nondegeneracy_ell(h, 4).ell == nondegeneracy_ell(h_rot, 4).ell
    assert essentiality_check(h, 4).status == \
        essentiality_check(h_rot, 4).status
