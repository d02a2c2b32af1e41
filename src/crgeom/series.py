"""Sparse truncated multivariate formal power series over Gaussian rationals.

A series lives over a fixed ordered variable tuple (for hypersurface work
``('z1',...,'zn','c1',...,'cn','s')``, for singular ODE work
``('t','y1',...,'yN')``, etc.).  Terms are stored as a map from exponent
vectors to nonzero GaussRational coefficients; every stored term has total
degree <= the truncation order.  All operations are pure; every binary
operation truncates to the minimum of the operand truncations so that
divisibility checks downstream stay honest.

Input is validated at the boundary: ``Series(...)`` and the public
constructors check every exponent vector and drop zero coefficients and
terms past the truncation.  Ring operations (``+``, ``-``, ``*``, ``/``,
``diff``, ``subs``, ``reciprocal``, ...) build results that are
canonical by construction and skip those checks, as do ``const`` and
``variable``.  A product visits only the term pairs that survive the
truncation and accumulates each output coefficient as Gaussian-integer
numerators over a denominator, ``[x, y, den]`` per exponent, rescaled to
an lcm only when a contribution's denominator differs; each output
coefficient is reduced once, and one that cancels is not stored.  A
one-term operand, the constant 1 included, takes the same path.  A
quotient ``a / u`` by a unit u solves ``u * g = a`` degree by degree on
the same accumulator, dividing each output coefficient by u's constant
term as it is reduced, so a reciprocal (the quotient of 1) is never
formed only to be multiplied.  ``substitute`` maps several series
through one image set in one recursive walk over the trie of their
exponent vectors, so the monomials below a node share the product of
image powers on its path, formed once for all of them (``Series.subs``
is the one-series case).  At a leaf, each member with that monomial
adds its coefficient times the product's terms of degree <= its trunc
to its output on the same accumulator, and each output coefficient is
reduced once.  ``conjugate`` reads a z <-> c index map computed once per
variable tuple.  ``to_literal`` prints each coefficient from its
``(a, b, d)`` triple, reducing each part by its gcd with d, with no
``Fraction``.
"""

from __future__ import annotations

import re as _re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, islice
from math import lcm
from operator import add as _add
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import (
    DivisibilityError,
    NotAContractionError,
    UnitRequiredError,
)
from .scalars import ONE, GaussRational, _format_triple, _reduced

Exponents = Tuple[int, ...]

_CONJ_RE = _re.compile(r"^([zc])(\d+)$")

_new = object.__new__
_set = object.__setattr__


def _total_degree(term) -> int:
    return sum(term[0])


def _literal_order(term) -> Tuple[int, Exponents]:
    return sum(term[0]), term[0]


def _upto(terms: Mapping[Exponents, GaussRational], trunc: int
          ) -> Dict[Exponents, GaussRational]:
    """The terms of total degree <= trunc, as a new dict."""
    return {e: c for e, c in terms.items() if sum(e) <= trunc}


def conjugate_variable(name: str) -> str:
    """Partner of a variable under formal conjugation: z_k <-> c_k, rest fixed."""
    m = _CONJ_RE.match(name)
    if m is None:
        return name
    return ("c" if m.group(1) == "z" else "z") + m.group(2)


@lru_cache(maxsize=64)
def _conjugation_index(vars: Tuple[str, ...]) -> Tuple[int, ...]:
    """Position in ``vars`` of each variable's conjugation partner."""
    missing = [v for v in vars if conjugate_variable(v) not in vars]
    if missing:
        raise ValueError(f"conjugate partner missing for {missing}")
    return tuple(vars.index(conjugate_variable(v)) for v in vars)


def _add_products(acc: Dict[Exponents, list], ea: Exponents, xa: int,
                  ya: int, da: int, rows) -> None:
    """Add (xa + ya i)/da x^ea times each row (eb, xb, yb, db) to acc, which
    holds each exponent's sum as Gaussian-integer numerators over a
    denominator, [x, y, den], unreduced; a contribution over another
    denominator rescales the sum to their lcm."""
    get = acc.get
    shift = any(ea)
    for eb, xb, yb, db in rows:
        e = tuple(map(_add, ea, eb)) if shift else eb
        x, y, d = xa * xb - ya * yb, xa * yb + ya * xb, da * db
        cur = get(e)
        if cur is None:
            acc[e] = [x, y, d]
        elif cur[2] == d:
            cur[0] += x
            cur[1] += y
        else:
            f = cur[2]
            m = lcm(f, d)
            cur[0] = cur[0] * (m // f) + x * (m // d)
            cur[1] = cur[1] * (m // f) + y * (m // d)
            cur[2] = m


class Series:
    __slots__ = ("vars", "trunc", "terms")

    def __init__(self, vars: Tuple[str, ...], trunc: int,
                 terms: Mapping[Exponents, GaussRational] | None = None):
        if trunc < 0:
            trunc = 0
        clean: Dict[Exponents, GaussRational] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff.is_zero():
                    continue
                if len(exps) != len(vars):
                    raise ValueError("exponent vector length mismatch")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                if sum(exps) <= trunc:
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def _trusted(vars: Tuple[str, ...], trunc: int,
                 terms: Dict[Exponents, GaussRational]) -> "Series":
        """Series from terms already canonical: tuple exponent vectors of
        the right length, nonzero coefficients, total degree <= trunc.
        Ring operations build their results here; a negative trunc
        clamps to 0 as in ``Series(...)``."""
        out = _new(Series)
        _set(out, "vars", vars)
        _set(out, "trunc", trunc if trunc > 0 else 0)
        _set(out, "terms", terms)
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, vars, trunc):
        return cls(vars, trunc)

    @classmethod
    def const(cls, c, vars, trunc):
        c = GaussRational.of(c) if not isinstance(c, GaussRational) else c
        vars = tuple(vars)
        return cls._trusted(vars, trunc,
                            {} if c.is_zero() else {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars, trunc):
        vars = tuple(vars)
        idx = vars.index(name)
        exps = (0,) * idx + (1,) + (0,) * (len(vars) - idx - 1)
        return cls._trusted(vars, trunc, {exps: ONE} if trunc >= 1 else {})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> GaussRational:
        return self.terms.get((0,) * len(self.vars), GaussRational(0))

    def min_total_degree(self):
        """Lowest total degree of a nonzero term, or None for the zero series."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def coefficient(self, exps: Exponents) -> GaussRational:
        return self.terms.get(tuple(exps), GaussRational(0))

    def _vidx(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} for series over {self.vars}")

    def coefficient_in(self, name: str, k: int) -> "Series":
        """Series coefficient of ``name**k`` (the variable is removed, i.e.
        its exponent is zero in the result, which keeps the same var tuple)."""
        i = self._vidx(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                out[exps[:i] + (0,) + exps[i + 1:]] = c
        return Series._trusted(self.vars, self.trunc - k, out)

    def min_degree_in(self, name: str):
        """Least exponent of ``name`` over nonzero terms, or None if zero."""
        if not self.terms:
            return None
        i = self._vidx(name)
        return min(exps[i] for exps in self.terms)

    def set_var_zero(self, name: str) -> "Series":
        i = self._vidx(name)
        out = {exps: c for exps, c in self.terms.items() if exps[i] == 0}
        return Series._trusted(self.vars, self.trunc, out)

    # -- ring operations -------------------------------------------------------

    def _compat(self, other: "Series"):
        if self.vars != other.vars:
            raise ValueError(
                f"variable mismatch: {self.vars} vs {other.vars}")

    def truncate(self, trunc: int) -> "Series":
        if trunc >= self.trunc:
            return self
        trunc = max(trunc, 0)
        return Series._trusted(self.vars, trunc, _upto(self.terms, trunc))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = Series.const(other, self.vars, self.trunc)
        self._compat(other)
        trunc = min(self.trunc, other.trunc)
        # operands of a larger trunc lose their terms past the smaller one
        out = (_upto(self.terms, trunc) if self.trunc > trunc
               else dict(self.terms))
        rhs = _upto(other.terms, trunc) if other.trunc > trunc else other.terms
        for exps, c in rhs.items():
            cur = out.get(exps)
            if cur is None:
                out[exps] = c
            else:
                s = cur + c
                if s.is_zero():
                    del out[exps]
                else:
                    out[exps] = s
        return Series._trusted(self.vars, trunc, out)

    __radd__ = __add__

    def __neg__(self):
        return Series._trusted(self.vars, self.trunc,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = Series.const(other, self.vars, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            c = other if isinstance(other, GaussRational) else GaussRational.of(other)
            if c.is_zero():
                return Series._trusted(self.vars, self.trunc, {})
            return Series._trusted(self.vars, self.trunc,
                                   {e: v * c for e, v in self.terms.items()})
        self._compat(other)
        trunc = min(self.trunc, other.trunc)
        a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        # the sparser operand outermost; the other's terms ordered by total
        # degree, so each inner loop ends at the last pair within trunc
        rows = sorted([(e, c._a, c._b, c._d) for e, c in b.terms.items()],
                      key=_total_degree)
        degrees = [sum(row[0]) for row in rows]
        acc: Dict[Exponents, list] = {}
        for ea, ca in a.terms.items():
            _add_products(acc, ea, ca._a, ca._b, ca._d,
                          islice(rows, bisect_right(degrees, trunc - sum(ea))))
        # each output coefficient is reduced once
        return Series._trusted(self.vars, trunc, {
            e: _reduced(x, y, d) for e, (x, y, d) in acc.items() if x or y})

    __rmul__ = __mul__

    def __truediv__(self, u: "Series") -> "Series":
        """Exact quotient by a unit u (nonzero constant term), at the
        smaller truncation: the g with u * g = self, solved degree by
        degree, g_d = (self_d - sum_{k=1..d} u_k g_{d-k}) / u_0."""
        if not isinstance(u, Series):
            return NotImplemented
        self._compat(u)
        c0 = u.constant_term()
        if c0.is_zero():
            raise UnitRequiredError(
                "division requires a unit (nonzero constant term)")
        trunc = min(self.trunc, u.trunc)
        # -u_k, by degree k >= 1, and self_d, by degree d
        minus_u = [[] for _ in range(trunc + 1)]
        for e, c in u.terms.items():
            k = sum(e)
            if 0 < k <= trunc:
                minus_u[k].append((e, -c._a, -c._b, c._d))
        by_degree = [[] for _ in range(trunc + 1)]
        for e, c in self.terms.items():
            d = sum(e)
            if d <= trunc:
                by_degree[d].append((e, c._a, c._b, c._d))
        # (x + y i)/den / ((p + q i)/r) = (x + y i)(p - q i) r / (den norm)
        p, q, r = c0._a, c0._b, c0._d
        norm = p * p + q * q
        g: List[list] = []              # g_d as rows (e, a, b, d)
        out: Dict[Exponents, GaussRational] = {}
        for d in range(trunc + 1):
            acc = {e: [x, y, den] for e, x, y, den in by_degree[d]}
            for k in range(1, d + 1):
                for eu, xu, yu, du in minus_u[k]:
                    _add_products(acc, eu, xu, yu, du, g[d - k])
            g_d = []
            for e, (x, y, den) in acc.items():
                if x or y:
                    c = out[e] = _reduced((x * p + y * q) * r,
                                          (y * p - x * q) * r, den * norm)
                    g_d.append((e, c._a, c._b, c._d))
            g.append(g_d)
        return Series._trusted(self.vars, trunc, out)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k == 0:
            return Series.const(1, self.vars, self.trunc)
        # start from the base, so that no product by 1 is formed
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Series is unhashable; compare structurally")

    # -- calculus -------------------------------------------------------------

    def diff(self, name: str) -> "Series":
        """Exact partial derivative; truncation drops by one."""
        i = self._vidx(name)
        # lowering one exponent is one-to-one, so no two terms meet
        out = {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: c * exps[i]
               for exps, c in self.terms.items() if exps[i]}
        return Series._trusted(self.vars, self.trunc - 1, out)

    # -- conjugation -----------------------------------------------------------

    def conjugate(self) -> "Series":
        """Swap z_k <-> c_k exponents and conjugate every coefficient."""
        partner = _conjugation_index(self.vars)
        return Series._trusted(self.vars, self.trunc, {
            tuple(map(exps.__getitem__, partner)): c.conjugate()
            for exps, c in self.terms.items()})

    def is_real(self) -> bool:
        return self.conjugate() == self

    # -- division --------------------------------------------------------------

    def reciprocal(self) -> "Series":
        """Multiplicative inverse at truncation, the quotient of 1;
        requires a unit (nonzero constant term)."""
        return Series.const(ONE, self.vars, self.trunc) / self

    def divide_by_power(self, name: str, m: int) -> "Series":
        """Exact division by ``name**m``; every term must be divisible."""
        if m < 0:
            raise ValueError("power must be nonnegative")
        if m == 0:
            return self
        i = self._vidx(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] < m:
                raise DivisibilityError(
                    f"monomial {self._monomial_str(exps)} not divisible by {name}^{m}",
                    monomial=exps)
            out[exps[:i] + (exps[i] - m,) + exps[i + 1:]] = c
        return Series._trusted(self.vars, self.trunc - m, out)

    def divide_unit_form(self, b: "Series") -> "Series":
        """Exact division a/b where b factors as s^k * (unit).

        Raises UnitRequiredError when b has no such factorization and
        DivisibilityError when a is not divisible by s^k.
        """
        self._compat(b)
        if b.is_zero():
            raise UnitRequiredError("division by the zero series")
        k = b.min_degree_in("s")
        bred = b.divide_by_power("s", k)
        if bred.constant_term().is_zero():
            raise UnitRequiredError("divisor is not of the form s^k * unit")
        return self.divide_by_power("s", k) / bred

    # -- substitution -----------------------------------------------------------

    def subs(self, mapping: Mapping[str, "Series"]) -> "Series":
        """Substitute series for variables: the one-member case of
        :func:`substitute`."""
        return substitute([self], mapping)[0]

    # -- formatting ---------------------------------------------------------------

    def _monomial_str(self, exps: Exponents) -> str:
        """``z1^2*c1*s``; ``1`` for the constant monomial."""
        return "*".join([name if e == 1 else f"{name}^{e}"
                         for name, e in zip(self.vars, exps) if e]) or "1"

    def to_literal(self) -> str:
        """Canonical literal: terms ordered by (total degree, exponents).
        Each term is printed from its coefficient's (a, b, d) triple; a
        negative real part alone, or a negative imaginary part alone,
        gives the term's sign."""
        if not self.terms:
            return "0"
        out = []
        for exps, c in sorted(self.terms.items(), key=_literal_order):
            a, b, d = c._a, c._b, c._d
            sign = " + "
            if (a < 0 and b == 0) or (a == 0 and b < 0):
                sign, a, b = " - ", -a, -b
            cs, mono = _format_triple(a, b, d), self._monomial_str(exps)
            out += (sign, cs if mono == "1" else mono if cs == "1"
                    else f"{cs}*{mono}")
        out[0] = "" if out[0] == " + " else "-"
        return "".join(out)

    def __repr__(self):
        return f"<Series {self.to_literal()} + O(deg {self.trunc + 1})>"


def substitute(series: Sequence[Series], mapping: Mapping[str, Series]
               ) -> List[Series]:
    """Substitute series for variables in every member of ``series``.

    The members share one variable tuple and one image set.  Every
    variable occurring with positive exponent in some member must be
    mapped; each image in use must have zero constant term so that the
    results are well-defined at truncation.  All images share one
    variable tuple, which becomes the results' variable tuple.  A
    member's result is exact through the minimum of its own trunc and
    those of the images it uses, as if it were substituted alone.

    The union of the members' monomials is walked as a trie of exponent
    vectors: the monomials below a node share the product of the image
    powers on the path to it, formed once for all of them, at the
    largest trunc that a member with such a monomial needs.
    """
    if not series:
        return []
    vars = series[0].vars
    if any(g.vars != vars for g in series):
        raise ValueError("substitution into series over mixed variable tuples")
    uses = [{i for exps in g.terms for i, e in enumerate(exps) if e}
            for g in series]
    used = {vars[i] for u in uses for i in u}
    missing = sorted(used - set(mapping))
    if missing:
        raise ValueError(f"no substitution supplied for {missing}")
    target_vars = next(iter(mapping.values())).vars if mapping else vars
    for name in used:
        img = mapping[name]
        if img.vars != target_vars:
            raise ValueError("substitution images over mixed variable tuples")
        if not img.constant_term().is_zero():
            raise ValueError(
                f"substitution image for {name!r} has nonzero constant term")
    truncs = [min([g.trunc] + [mapping[vars[i]].trunc for i in u])
              for g, u in zip(series, uses)]
    # powers[i][e] = (image of variable i)^e, grown on demand, at the
    # largest trunc of a member that uses variable i
    powers = {i: [None, mapping[vars[i]].truncate(
                  max(t for u, t in zip(uses, truncs) if i in u))]
              for i in set().union(*uses)}
    outs = [{} for _ in series]
    # one row per monomial: (exponents, largest trunc of a member with
    # it, the (coefficient, trunc, output) of each such member)
    members: Dict[Exponents, list] = {}
    for g, t, out in zip(series, truncs, outs):
        for exps, c in g.terms.items():
            members.setdefault(exps, []).append((c, t, out))
    rows = sorted((exps, max(t for _, t, _ in ms), ms)
                  for exps, ms in members.items())
    one = (0,) * len(target_vars)

    def walk(rows, i, prefix):
        # prefix: the product of the image powers at positions < i shared
        # by every row here (None for 1)
        if i == len(vars):
            (_, _, ms), = rows
            terms = {one: ONE} if prefix is None else prefix.terms
            for c, t, out in ms:
                _add_products(out, one, c._a, c._b, c._d,
                              [(e, v._a, v._b, v._d) for e, v in terms.items()
                               if sum(e) <= t])
            return
        for e, group in groupby(rows, key=lambda row: row[0][i]):
            group = list(group)
            p = prefix
            if e:
                plist = powers[i]
                while len(plist) <= e:
                    plist.append(plist[-1] * plist[1])
                p = plist[e] if p is None else \
                    p.truncate(max(row[1] for row in group)) * plist[e]
            walk(group, i + 1, p)

    walk(rows, 0, None)
    # each output coefficient is reduced once
    return [Series._trusted(target_vars, t, {e: _reduced(x, y, d)
                                             for e, (x, y, d) in out.items()
                                             if x or y})
            for t, out in zip(truncs, outs)]


def hypersurface_vars(n: int) -> Tuple[str, ...]:
    """Variable tuple (z1..zn, c1..cn, s) used for hypersurface series."""
    return tuple(f"z{i}" for i in range(1, n + 1)) + \
        tuple(f"c{i}" for i in range(1, n + 1)) + ("s",)


def exponent_vectors(dim: int, budget: int) -> List[Exponents]:
    """All alpha in Z_+^dim with |alpha| <= budget, in lexicographic order."""
    if dim == 0:
        return [()]
    return [(a,) + rest for a in range(budget + 1)
            for rest in exponent_vectors(dim - 1, budget - a)]


def implicit_solve(G: Series, unknown: str) -> Series:
    """Unique series solution t(params) with t(0)=0 of t = G(params, t).

    Requires G(0)=0 and dG/d(unknown)(0)=0 so that fixed-point iteration
    t <- G(params, t) is a contraction on truncated series; it stabilizes
    after at most ``trunc`` iterations.  The unknown variable keeps its slot
    (with zero exponent) in the result.
    """
    if not G.constant_term().is_zero():
        raise NotAContractionError("equation has a constant term")
    dG = G.diff(unknown)
    if not dG.constant_term().is_zero():
        raise NotAContractionError(
            f"d/d{unknown} at 0 is {dG.constant_term()}, must vanish")
    ident = {name: Series.variable(name, G.vars, G.trunc)
             for name in G.vars if name != unknown}
    t = Series.zero(G.vars, G.trunc)
    for _ in range(G.trunc + 1):
        nxt = G.subs({**ident, unknown: t})
        nxt = nxt.truncate(G.trunc)
        if nxt == t:
            break
        t = nxt
    else:
        raise NotAContractionError("fixed-point iteration failed to stabilize")
    # back-substitution safety check
    resid = G.subs({**ident, unknown: t}) - t
    if not resid.is_zero():
        raise NotAContractionError("inconsistent implicit equation")
    return t
