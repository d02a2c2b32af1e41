"""Jet variables, contact chains, and assembly of the prolonged singular
system (s d/ds) U = R(U) solved per frozen base point.

Jet variables are u_i^{alpha,p} ~ (s d/ds)^p d_x^alpha u_i for the
2n+1 components u_i and the slots (alpha, p) with |alpha| + p <= k.
Below the top layer |alpha| + p = k, the defining equation of a
variable is the contact equation (s d/ds) u_i^{alpha,p} = u_i^{alpha,p+1},
whose right-hand side is the next variable of its chain.  Every variable
of the top layer needs a supplied right-hand side: the closure slot
(0, k) and the slots whose contact target leaves the jet.  So the system
is square, with (2n+1)(#slots - 1) contact and 2n+1 closure equations.

Supplied right-hand sides are series in rhs_vars(n, k): the base
variables x, then s, then the jet variables.  The x's are frozen at
rational sample points before solving, so each sample yields an exact
Briot-Bouquet system in (t = s, y = jet variables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .briot_bouquet import BBSystem, FormalLogSolution, bb_vars, formal_solve
from .errors import ValidationError
from .scalars import GaussRational, to_complex
from .series import Series, exponent_vectors

Slot = Tuple[Tuple[int, ...], int]          # (alpha, p)

_ZERO = GaussRational(0)


def jet_slots(n: int, k: int) -> List[Slot]:
    """All (alpha, p) with alpha in Z_+^{2n}, p >= 0, |alpha| + p <= k,
    graded-lexicographically ordered."""
    return [(alpha, total - sum(alpha)) for total in range(k + 1)
            for alpha in exponent_vectors(2 * n, total)]


def var_name(i: int, alpha: Tuple[int, ...], p: int) -> str:
    return f"u{i}_" + "".join(str(a) for a in alpha) + f"_{p}"


@dataclass
class ProlongedSystem:
    """The jet slots and contact chains of order k >= 0 over n, built
    with the system, and the supplied right-hand sides of the top layer;
    variables are ordered by slot, then component."""
    n: int
    k: int
    supplied: Dict[str, Series] = field(default_factory=dict)
    frozen_x: List[Tuple[Fraction, ...]] = field(default_factory=list)
    slots: List[Slot] = field(init=False)

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError("jet order must be nonnegative")
        self.slots = jet_slots(self.n, self.k)

    def _names(self, slots) -> List[str]:
        return [var_name(i, alpha, p) for (alpha, p) in slots
                for i in range(1, 2 * self.n + 2)]

    def var_names(self) -> List[str]:
        return self._names(self.slots)

    def needed_rhs_names(self) -> List[str]:
        """The top layer |alpha| + p = k, in slot order; its first slot
        (0, k) is the closure slot."""
        return self._names((alpha, p) for (alpha, p) in self.slots
                           if sum(alpha) + p == self.k)

    def counts(self) -> Dict[str, int]:
        c = 2 * self.n + 1
        return {"variables": c * len(self.slots),
                "contact_equations": c * (len(self.slots) - 1),
                "closure_slots": c}


def base_vars(n: int) -> Tuple[str, ...]:
    return tuple(f"x{j}" for j in range(1, 2 * n + 1))


def rhs_vars(n: int, k: int) -> Tuple[str, ...]:
    """Variable tuple for supplied right-hand sides: base x's, then s,
    then the jet variables in canonical order."""
    return base_vars(n) + ("s",) + tuple(ProlongedSystem(n, k).var_names())


def freeze_x(g: Series, n: int, sample: Sequence[Fraction],
             names: Sequence[str]) -> Series:
    """Substitute rational base-point values for x1..x_{2n}, the first 2n
    variables of g, and name the remaining variables ``names`` in order."""
    m = 2 * n
    values = [GaussRational(x) for x in sample]
    terms: Dict[tuple, GaussRational] = {}
    for exps, c in g.terms.items():
        for v, e in zip(values, exps[:m]):
            if e:
                c = c * v ** e
        key = exps[m:]
        cur = terms.get(key, _ZERO) + c
        if cur.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = cur
    # dropping the x's only lowers degrees, so the terms stay canonical
    return Series._trusted(tuple(names), g.trunc, terms)


@dataclass
class SampleSolution:
    sample: Tuple[Fraction, ...]
    solution: FormalLogSolution
    growth: float                # max_k ||c_k||_inf^{1/k} (0 if trivial)
    radius_proxy: Optional[float]  # 1/growth if a finite float, else None


def assemble_and_solve(ps: ProlongedSystem, order: int
                       ) -> List[SampleSolution]:
    """Per frozen sample: freeze x, build the Briot-Bouquet system over
    (t = s, y = jet variables), and solve formally to the given order.
    Every sample is frozen and centering-checked before the first solve."""
    n, c = ps.n, 2 * ps.n + 1
    N = c * len(ps.slots)
    needed = ps.needed_rhs_names()
    rv = rhs_vars(n, ps.k)
    for nm in needed:
        g = ps.supplied.get(nm)
        if g is None:
            raise ValidationError(f"missing right-hand side for {nm}")
        if g.vars != rv:
            raise ValidationError(
                f"right-hand side for {nm} must be a series in {rv}")
        if not ps.frozen_x and any(any(e[:2 * n]) for e in g.terms):
            raise ValidationError(
                f"right-hand side for {nm} depends on "
                f"{', '.join(base_vars(n))}: "
                "base points must be given with the 'samples' key")

    bbv = bb_vars(N)
    trunc = max(order, max((g.trunc for g in ps.supplied.values()),
                           default=order))
    # below the top layer, u_i^{alpha,p} is driven by u_i^{alpha,p+1};
    # the top layer takes the supplied series, in the order of `needed`
    position = {slot: j for j, slot in enumerate(ps.slots)}
    rhs_chain: List[Optional[Series]] = [None] * N
    top: List[int] = []
    for j, (alpha, p) in enumerate(ps.slots):
        if sum(alpha) + p == ps.k:
            top.extend(range(c * j, c * j + c))
            continue
        target = c * position[(alpha, p + 1)]
        for i in range(c):
            rhs_chain[c * j + i] = Series.variable(
                f"y{target + i + 1}", bbv, trunc)

    systems = []
    for sample in ps.frozen_x or [tuple()]:
        rhs_list = list(rhs_chain)
        for nm, j in zip(needed, top):
            frozen = freeze_x(ps.supplied[nm], n, sample, bbv)
            if not frozen.constant_term().is_zero():
                raise ValidationError(
                    f"centering failure at sample {tuple(map(str, sample))}: "
                    f"rhs for {nm} has constant term {frozen.constant_term()}")
            rhs_list[j] = frozen
        systems.append((sample, BBSystem(N, rhs_list, order)))

    results = []
    for sample, system in systems:
        sol = formal_solve(system)
        where = f"growth at sample {tuple(map(str, sample))}"
        growth = 0.0
        for (k, r), v in sol.coeffs.items():
            mag = max(abs(to_complex(x, where)) for x in v)
            if mag > 0:
                growth = max(growth, mag ** (1.0 / k))
        # JSON has no infinity: no proxy when the growth is 0 or its
        # reciprocal leaves the float range
        radius = 1.0 / growth if growth > 0 else math.inf
        results.append(SampleSolution(
            sample=tuple(sample), solution=sol, growth=growth,
            radius_proxy=radius if math.isfinite(radius) else None))
    return results
