from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crgeom import corpus
from crgeom.errors import ValidationError
from crgeom.hypersurface import (EllVerdict, Hypersurface, essentiality_check,
                                 nondegeneracy_ell, validate)
from crgeom.linalg import rank
from crgeom.parsing import parse_series
from crgeom.scalars import GaussRational
from crgeom.series import Series, exponent_vectors, hypersurface_vars
from test_cli_fuzz import normal_phi
from test_linalg import coefficient_functions

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


@pytest.mark.parametrize("n, vars_", [(2, V1), (1, V2)])
def test_validate_rejects_phi_over_other_variables(n, vars_):
    # an n = 1 phi on an n = 2 surface was built, and report then raised a
    # bare "variable mismatch"; an n = 2 phi on an n = 1 surface read as
    # a normality violation
    phi = sv("s", vars_) * sv("z1", vars_) * sv("c1", vars_)
    with pytest.raises(ValidationError) as exc:
        Hypersurface(n, phi)
    assert str(vars_) in str(exc.value)
    assert str(hypersurface_vars(n)) in str(exc.value)


def test_validate_rejects_negative_n():
    with pytest.raises(ValidationError, match="n >= 0"):
        Hypersurface(-1, Series.zero(("s",), T))


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
    assert h.ell_max is None
    with pytest.raises(ValidationError):
        essentiality_check(h)
    with pytest.raises(ValidationError):
        nondegeneracy_ell(h)


def test_two_infinite_type_surface():
    h = corpus.two_infinite_type_surface(T)
    validate(h)
    assert h.m == 2
    assert h.r == 2


def test_essentiality_certified_for_model():
    v = essentiality_check(model())
    assert v.status == "certified-essential"
    assert v.bound == 1


def test_essentiality_higher_degree_certificate():
    # psi = z^2 chi^2: the coefficient ideal is (z^2), codimension 2
    phi = sv("s") * (sv("z1") * sv("c1")) ** 2
    v = essentiality_check(Hypersurface(1, phi))
    assert v.status == "certified-essential"
    assert v.bound == 2


def test_essentiality_structural_obstruction():
    # z2 never appears: ideal sits inside (z1), infinite codimension
    z1, c1, s = sv("z1", V2), sv("c1", V2), sv("s", V2)
    phi = s * z1 * c1
    v = essentiality_check(Hypersurface(2, phi))
    assert v.status == "not-essential-up-to"
    assert "z2" in v.detail


# n = 2, m = 1: the a_alpha are -z2, -z1^2*z2^2, z1 and z1^2, so the
# ideal contains z1 and z2; both z2 terms have degree 6
PAST_TRUNC_PHI = ("-z2*c1^2*c2^2*s - z1^2*z2^2*c2*s + z1*c1^2*s"
                  " + z1^2*c1*s")


@pytest.mark.xfail(strict=True, reason=(
    "the absent-variable scan reads a_alpha past the z-degree "
    "trunc - m - |alpha| that the trunc determines (ROADMAP item 6)"))
def test_essentiality_is_not_refuted_by_a_lower_trunc():
    verdicts = {trunc: essentiality_check(Hypersurface(2, parse_series(
        PAST_TRUNC_PHI, V2, trunc))) for trunc in (5, 6, 8)}
    assert verdicts[6] == verdicts[8]
    assert (verdicts[8].status, verdicts[8].bound) == \
        ("certified-essential", 1)
    # at trunc 5 truncation drops both z2 terms, which is no evidence
    # that z2 is absent
    assert verdicts[5].status != "not-essential-up-to"


def test_nondegeneracy_model():
    v = nondegeneracy_ell(model())
    assert not v.degenerate
    assert v.ell == 1


def test_nondegeneracy_order_two():
    h = corpus.filtration_example_surface(T)
    v = nondegeneracy_ell(h)
    assert not v.degenerate
    assert v.ell == 2


def coefficient_read_ell(h):
    """nondegeneracy_ell read the older way, kept as its oracle: psi at
    s = 0, and one coefficient lookup of z_B chi^alpha per (alpha, B)."""
    n, ell_max = h.n, h.ell_max
    psi0 = h.psi.set_var_zero("s")
    rows = []
    for ell in range(0, ell_max + 1):
        for alpha in exponent_vectors(n, ell):
            if sum(alpha) < ell:
                continue                 # probed at a lower order
            row = {}
            for B in range(n):
                exps = tuple(1 if j == B else 0 for j in range(n)) + \
                    tuple(alpha) + (0,)
                c = psi0.coefficient(exps)
                if not c.is_zero():
                    row[B] = c
            if row:
                rows.append(row)
        if rank(rows, n) == n:
            return EllVerdict(degenerate=False, ell=ell)
    return EllVerdict(degenerate=True, ell=ell_max)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), normal_phi(n), st.integers(3, 9))))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_chi_coefficients_match_the_coefficient_reads(case):
    # the one table of a_alpha gives the a_alpha read through Series, and
    # the ell that one coefficient lookup per (alpha, B) gives
    n, phi, trunc = case
    h = Hypersurface(n, parse_series(phi, hypersurface_vars(n), trunc))
    if h.levi_flat:
        return                  # the terms cancelled or were truncated away
    table = h.chi_coefficients
    # psi's s^0 part is phi_m, which is nonzero: essentiality_check
    # always has a coefficient function to read
    assert table and list(table) == sorted(table)
    assert [{ze + (0,) * (n + 1): c for ze, c in a.items()}
            for a in table.values()] == \
        [a.terms for a in coefficient_functions(h.psi, n)]
    assert nondegeneracy_ell(h) == coefficient_read_ell(h)


def test_nondegeneracy_with_no_z():
    # with n = 0 normality leaves only phi = 0, which is Levi flat, so
    # this surface is built past validation, with m set by hand: no row
    # is needed to span C^0
    h = object.__new__(Hypersurface)
    object.__setattr__(h, "n", 0)
    object.__setattr__(h, "phi", Series.zero(hypersurface_vars(0), T))
    h.__dict__["m"] = 1
    assert h.chi_coefficients == {}
    assert nondegeneracy_ell(h) == coefficient_read_ell(h) == \
        EllVerdict(degenerate=False, ell=0)


def test_model_verdicts():
    h = model()
    assert h.ell_max == 4
    assert essentiality_check(h).status == "certified-essential"
    assert nondegeneracy_ell(h).as_dict() == {"status": "nondegenerate",
                                              "ell": 1}
    # psi = phi / s is known through order 2 at trunc 3: words of length 1
    short = corpus.model_surface(3)
    assert short.ell_max == 1
    assert nondegeneracy_ell(short).ell == 1


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
    assert nondegeneracy_ell(h).ell == nondegeneracy_ell(h_rot).ell
    assert essentiality_check(h).status == essentiality_check(h_rot).status
