"""Built-in worked examples: model surfaces, power-map targets, maps,
and the degenerate/higher-dimensional specimens the test-suite and the
CLI ``examples`` command share.

Everything here is generated at runtime from first principles (implicit
solves, binomial data); nothing is hard-coded beyond the defining
equations.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from .crmap import HoloMap, map_vars
from .hypersurface import Hypersurface
from .scalars import GaussRational
from .series import Series, hypersurface_vars, implicit_solve

DEFAULT_TRUNC = 8
# below trunc 4 the implicit surface's m and r, and the filtration
# example's ranks, are not determined
MIN_TRUNC = 4


def model_surface(trunc: int = DEFAULT_TRUNC) -> Hypersurface:
    """Im w = Re w * |z|^2 in C^2: the basic 1-infinite-type model."""
    v = hypersurface_vars(1)
    phi = Series.variable("s", v, trunc) * Series.variable("z1", v, trunc) \
        * Series.variable("c1", v, trunc)
    return Hypersurface(1, phi)


def power_target_factor(k: int, trunc: int):
    """The rational factor h_k(|z|^2) with Im w = Re w * h_k, built from
    Re (s+it)^k = s^k + sum a_j s^j t^{k-j} and Im (s+it)^k = sum b_j s^j
    t^{k-j}: h_k(u) = (sum b_j u^{k-j}) / (1 + sum a_j u^{k-j})."""
    v = hypersurface_vars(1)
    u = Series.variable("z1", v, trunc) * Series.variable("c1", v, trunc)
    num = Series.zero(v, trunc)
    den = Series.const(1, v, trunc)
    for j in range(k):
        c = GaussRational(0, 1) ** (k - j) * GaussRational(comb(k, j))
        a_j, b_j = GaussRational(c.re), GaussRational(c.im)
        u_pow = u ** (k - j)
        num = num + u_pow * b_j
        den = den + u_pow * a_j
    return num / den


def power_target(k: int, trunc: int = DEFAULT_TRUNC) -> Hypersurface:
    """The target surface of the power map (z, w^k) applied to the model
    surface."""
    v = hypersurface_vars(1)
    phi = Series.variable("s", v, trunc) * power_target_factor(k, trunc)
    return Hypersurface(1, phi)


def power_map(k: int, trunc: int = DEFAULT_TRUNC) -> HoloMap:
    """(z, w) -> (z, w^k)."""
    mv = map_vars(1)
    z = Series.variable("z1", mv, trunc)
    w = Series.variable("w", mv, trunc)
    return HoloMap(1, [z, w ** k])


def identity_map(n: int, trunc: int = DEFAULT_TRUNC) -> HoloMap:
    mv = map_vars(n)
    comps = [Series.variable(f"z{j}", mv, trunc) for j in range(1, n + 1)]
    comps.append(Series.variable("w", mv, trunc))
    return HoloMap(n, comps)


def arctan_series(x: Series) -> Series:
    """arctan(x) for a series with zero constant term."""
    out = Series.zero(x.vars, x.trunc)
    power = x
    x2 = x * x
    j = 0
    while not power.is_zero():
        coeff = GaussRational(Fraction((-1) ** j, 2 * j + 1))
        out = out + power * coeff
        power = power * x2
        j += 1
    return out


def two_infinite_type_surface(trunc: int = DEFAULT_TRUNC) -> Hypersurface:
    """Im w = theta(arctan |z|^2, Re w) where t = theta(xi, s) solves
    t = xi (s^2 + t^2): a 2-infinite-type surface whose phi is produced
    by an implicit solve, not hard-coded."""
    ivars = ("xi", "s", "t")
    xi = Series.variable("xi", ivars, trunc)
    s = Series.variable("s", ivars, trunc)
    t = Series.variable("t", ivars, trunc)
    g = xi * (s * s + t * t)          # t = g(xi, s, t) defines t = theta
    theta = implicit_solve(g, "t")
    v = hypersurface_vars(1)
    u = Series.variable("z1", v, trunc) * Series.variable("c1", v, trunc)
    phi = theta.subs({"xi": arctan_series(u),
                      "s": Series.variable("s", v, trunc)})
    return Hypersurface(1, phi)


def filtration_example_surface(trunc: int = DEFAULT_TRUNC) -> Hypersurface:
    """n = 2 surface with psi = z1 c1 + z2 c2^2 + z2^2 c2: the filtration
    has ranks r_1 = 1, r_2 = 2 (nondegenerate at order 2)."""
    v = hypersurface_vars(2)
    z1, z2 = (Series.variable(x, v, trunc) for x in ("z1", "z2"))
    c1, c2 = (Series.variable(x, v, trunc) for x in ("c1", "c2"))
    s = Series.variable("s", v, trunc)
    phi = s * (z1 * c1 + z2 * c2 * c2 + z2 * z2 * c2)
    return Hypersurface(2, phi)


def levi_flat_surface(trunc: int = DEFAULT_TRUNC) -> Hypersurface:
    v = hypersurface_vars(1)
    return Hypersurface(1, Series.zero(v, trunc))
