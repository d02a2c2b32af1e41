"""Jet variables, contact equations, and assembly of the prolonged
singular system (s d/ds) U = R(U) solved per frozen base point.

Jet variables are u_i^{alpha,p} ~ (s d/ds)^p d_x^alpha u_i for the
2n+1 components u_i and multi-indices with |alpha| + p <= k.  Contact
equations (s d/ds) u_i^{alpha,p} = u_i^{alpha,p+1} are emitted for every
slot with p < k; when the target slot leaves the jet (|alpha|+p = k)
the right-hand side must be supplied as a series at assembly, as must
the closure slots p = k.  The union is square: one defining equation per
variable.

The base variables x in supplied right-hand sides are frozen at rational
sample points before solving, so each sample yields an exact
Briot-Bouquet system in (s, jet variables).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .briot_bouquet import BBSystem, FormalLogSolution, bb_vars, formal_solve
from .errors import ValidationError
from .scalars import GaussRational
from .series import Series

Slot = Tuple[Tuple[int, ...], int]          # (alpha, p)


def jet_slots(n: int, k: int) -> List[Slot]:
    """All (alpha, p) with alpha in Z_+^{2n}, p >= 0, |alpha| + p <= k,
    graded-lexicographically ordered."""
    out = []
    dim = 2 * n
    for total in range(k + 1):
        layer = []
        for alpha in itertools.product(range(total + 1), repeat=dim):
            p = total - sum(alpha)
            if p >= 0:
                layer.append((alpha, p))
        layer.sort()
        out.extend(layer)
    return out


def var_name(i: int, alpha: Tuple[int, ...], p: int) -> str:
    return f"u{i}_" + "".join(str(a) for a in alpha) + f"_{p}"


@dataclass
class JetSpace:
    n: int
    k: int
    slots: List[Slot]

    @property
    def components(self) -> int:
        return 2 * self.n + 1

    @property
    def variables(self) -> List[Tuple[int, Tuple[int, ...], int]]:
        """(i, alpha, p) ordered by slot, then component index."""
        return [(i, alpha, p) for (alpha, p) in self.slots
                for i in range(1, self.components + 1)]

    def var_names(self) -> List[str]:
        return [var_name(i, alpha, p) for (i, alpha, p) in self.variables]


@dataclass
class ContactEquation:
    i: int
    alpha: Tuple[int, ...]
    p: int
    target_in_jet: bool          # u_i^{alpha,p+1} is itself a jet variable

    @property
    def lhs_name(self) -> str:
        return var_name(self.i, self.alpha, self.p)

    @property
    def target_name(self) -> str:
        return var_name(self.i, self.alpha, self.p + 1)


@dataclass
class ProlongedSystem:
    jets: JetSpace
    contact: List[ContactEquation]
    closure_slots: List[Tuple[int, Tuple[int, ...], int]]   # need supplied rhs
    supplied: Dict[str, Series] = field(default_factory=dict)
    frozen_x: List[Tuple[Fraction, ...]] = field(default_factory=list)
    initial: Dict[str, GaussRational] = field(default_factory=dict)

    def needed_rhs_names(self) -> List[str]:
        names = [var_name(i, a, p) for (i, a, p) in self.closure_slots]
        names.extend(eq.lhs_name for eq in self.contact if not eq.target_in_jet)
        return names


def contact_prolong(n: int, k: int) -> ProlongedSystem:
    """Enumerate jet variables and contact equations at order k >= 0."""
    if k < 0:
        raise ValidationError("jet order must be nonnegative")
    jets = JetSpace(n=n, k=k, slots=jet_slots(n, k))
    contact = []
    closure = []
    slotset = set(jets.slots)
    for (alpha, p) in jets.slots:
        for i in range(1, jets.components + 1):
            if p < k:
                contact.append(ContactEquation(
                    i=i, alpha=alpha, p=p,
                    target_in_jet=(alpha, p + 1) in slotset))
            else:
                closure.append((i, alpha, p))
    return ProlongedSystem(jets=jets, contact=contact, closure_slots=closure)


def base_vars(n: int) -> Tuple[str, ...]:
    return tuple(f"x{j}" for j in range(1, 2 * n + 1))


def rhs_vars(n: int, k: int) -> Tuple[str, ...]:
    """Variable tuple for supplied right-hand sides: base x's, then s,
    then the jet variables in canonical order."""
    jets = JetSpace(n=n, k=k, slots=jet_slots(n, k))
    return base_vars(n) + ("s",) + tuple(jets.var_names())


def freeze_x(g: Series, n: int, sample: Sequence[Fraction]) -> Series:
    """Substitute rational base-point values for x1..x_{2n}, dropping the
    x slots from the exponent vectors (remaining vars keep their names)."""
    xnames = base_vars(n)
    idx = [g.vars.index(x) for x in xnames]
    keep = [j for j in range(len(g.vars)) if j not in idx]
    new_vars = tuple(g.vars[j] for j in keep)
    terms: Dict[tuple, GaussRational] = {}
    for exps, c in g.terms.items():
        for pos, j in enumerate(idx):
            e = exps[j]
            if e:
                c = c * GaussRational(sample[pos]) ** e
        key = tuple(exps[j] for j in keep)
        cur = terms.get(key, GaussRational(0)) + c
        if cur.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = cur
    return Series(new_vars, g.trunc, terms)


def shift_variable(g: Series, name: str, c0: GaussRational) -> Series:
    """g with the variable replaced by (variable + c0), expanded
    binomially; used for centering at a nonzero initial value."""
    if c0.is_zero():
        return g
    i = g.vars.index(name)
    out = Series.zero(g.vars, g.trunc)
    from math import comb
    for exps, c in g.terms.items():
        e = exps[i]
        for j in range(e + 1):
            coeff = c * GaussRational(comb(e, j)) * c0 ** (e - j)
            key = exps[:i] + (j,) + exps[i + 1:]
            out = out + Series(g.vars, g.trunc, {key: coeff})
    return out


@dataclass
class SampleSolution:
    sample: Tuple[Fraction, ...]
    solution: FormalLogSolution
    resonances: List[Tuple[int, int]]
    growth: float                # max_k ||c_k||_inf^{1/k} (0 if trivial)
    radius_proxy: Optional[float]


@dataclass
class ProlongationReport:
    system: ProlongedSystem
    order: int
    samples: List[SampleSolution]


def assemble_and_solve(ps: ProlongedSystem, order: int) -> ProlongationReport:
    """Per frozen sample: freeze x, center at the supplied initial values,
    build the Briot-Bouquet system over (t = s, y = jet variables), and
    solve formally to the given order."""
    jets = ps.jets
    n = jets.n
    names = jets.var_names()
    name_index = {nm: j for j, nm in enumerate(names)}
    N = len(names)
    needed = ps.needed_rhs_names()
    for nm in needed:
        if nm not in ps.supplied:
            raise ValidationError(f"missing right-hand side for {nm}")

    if n > 0 and not ps.frozen_x:
        xs = base_vars(n)
        for nm in needed:
            g = ps.supplied[nm]
            idx = [g.vars.index(x) for x in xs]
            if any(exps[j] for exps in g.terms for j in idx):
                raise ValidationError(
                    f"right-hand side for {nm} depends on {', '.join(xs)}: "
                    "base points must be given with the 'samples' key")

    bbv = bb_vars(N)
    results = []
    samples = ps.frozen_x or [tuple()]
    for sample in samples:
        rhs_list: List[Optional[Series]] = [None] * N
        trunc = max(order, max((g.trunc for g in ps.supplied.values()),
                               default=order))
        # contact equations with in-jet targets are linear
        for eq in ps.contact:
            if eq.target_in_jet:
                rhs_list[name_index[eq.lhs_name]] = Series.variable(
                    f"y{name_index[eq.target_name] + 1}", bbv, trunc)
        # supplied equations: freeze x, center, translate variables
        translation = {"s": Series.variable("t", bbv, trunc)}
        for nm, j in name_index.items():
            translation[nm] = Series.variable(f"y{j + 1}", bbv, trunc)
        for nm in needed:
            g = ps.supplied[nm]
            frozen = freeze_x(g, n, sample) if n > 0 else g
            for vn, c0 in ps.initial.items():
                if not c0.is_zero():
                    frozen = shift_variable(frozen, vn, c0)
            if not frozen.constant_term().is_zero():
                raise ValidationError(
                    f"centering failure at sample {tuple(map(str, sample))}: "
                    f"rhs for {nm} has constant term {frozen.constant_term()}")
            rhs_list[name_index[nm]] = frozen.subs(translation)
        sys = BBSystem.make(N, rhs_list, order)
        sol = formal_solve(sys)
        growth = 0.0
        for (k, r), v in sol.coeffs.items():
            mag = max(abs(complex(x)) for x in v)
            if mag > 0:
                growth = max(growth, mag ** (1.0 / k))
        radius = (1.0 / growth) if growth > 0 else None
        results.append(SampleSolution(sample=tuple(sample), solution=sol,
                                      resonances=sol.resonances,
                                      growth=growth, radius_proxy=radius))
    return ProlongationReport(system=ps, order=order, samples=results)


def jet_of_function(u: Series, n: int, k: int) -> Dict[Slot, Series]:
    """Oracle: exact jets (s d/ds)^p d_x^alpha u of an explicit function of
    (x1..x_{2n}, s), for all slots of order <= k."""
    out: Dict[Slot, Series] = {}
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
