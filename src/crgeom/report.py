"""Input-file parsing and deterministic JSON report assembly.

Input files are line-oriented ``key = value`` with ``#`` comments; series
values are double-quoted literals in the series DSL, numbers are exact
integers or rationals like ``3/2``.  Reports are plain dicts with fixed
insertion order, serialized by :func:`to_json`; series appear as
canonical literals, never as floats (floats occur only in the
diagnostics of explicitly numeric operations).
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import corpus
from .briot_bouquet import (BBSystem, FormalLogSolution, bb_vars,
                            formal_solve, numeric_oracle)
from .crmap import HoloMap, check_identities, map_vars
from .errors import ParseError, ValidationError
from .frame import Frame, filtration
from .hypersurface import (Hypersurface, essentiality_check,
                           nondegeneracy_ell)
from .parsing import (MAX_COEFF_BITS, MAX_DIM, MAX_TRUNC, drops_terms,
                      parse_series)
from .prolongation import ProlongedSystem, assemble_and_solve, rhs_vars
from .scalars import GaussRational, format_coefficient
from .series import Series, hypersurface_vars

SCHEMA_VERSION = 1

# Reports print the Levi matrix as (1/2i) <theta, [L_Abar, L_B]>, whose
# desingularized leading term is the mixed Hessian of the lowest-order
# part of phi_m; inside the package it stays <theta, [L_Abar, L_B]>.
HALF_OVER_I = GaussRational(0, Fraction(-1, 2))   # 1/(2i) = -i/2


# ---------------------------------------------------------------------------
# key = value input files
# ---------------------------------------------------------------------------

def parse_keyvalue_file(path: str
                        ) -> Tuple[Dict[str, str], Dict[str, Tuple[int, int]]]:
    """The key = value pairs of a file, and the (line, column) at which
    each value starts (inside the quotes, for a quoted value)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    pairs: Dict[str, str] = {}
    where: Dict[str, Tuple[int, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key.replace("_", "").isalnum():
            raise ParseError(f"bad key {key!r}", lineno, 1)
        if key in pairs:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        col = len(raw) - len(raw[raw.index("=") + 1:].lstrip()) + 1
        if value.startswith('"'):
            if not value.endswith('"') or len(value) < 2:
                raise ParseError("unterminated string", lineno, len(line))
            value = value[1:-1]
            col += 1
        pairs[key] = value
        where[key] = (lineno, col)
    return pairs, where


def _series(pairs: Dict[str, str], where: Dict[str, Tuple[int, int]],
            key: str, path: str, vars: Tuple[str, ...], trunc: int) -> Series:
    """Parse the series literal under key; a ParseError names the key and
    its position in the file."""
    text = _require(pairs, key, path)
    try:
        return parse_series(text, vars, trunc)
    except ParseError as exc:
        line, col = where[key]
        raise ParseError(f"key {key!r}, line {line}, "
                         f"col {col + exc.col - 1}: {exc.reason}") from None


def _require(pairs: Dict[str, str], key: str, path: str) -> str:
    if key not in pairs:
        raise ValidationError(f"{path}: missing required key {key!r}")
    return pairs[key]


def _bounded(pairs: Dict[str, str], key: str, path: str, lo: int, hi: int,
             default: Optional[int] = None) -> int:
    """An integer key in ``lo..hi``, like ``--trunc``, so that a short
    file cannot demand unbounded work; a default is not a key and is not
    checked."""
    if key not in pairs and default is not None:
        return default
    try:
        value = int(_require(pairs, key, path))
    except ValueError:
        raise ValidationError(f"{path}: key {key!r} must be an integer")
    if not lo <= value <= hi:
        raise ValidationError(
            f"{path}: key {key!r} = {value} is outside {lo}..{hi}")
    return value


def load_hypersurface(path: str, trunc_override: Optional[int] = None
                      ) -> Hypersurface:
    pairs, where = parse_keyvalue_file(path)
    n = _bounded(pairs, "n", path, 0, MAX_DIM)
    trunc = (trunc_override if trunc_override is not None
             else _bounded(pairs, "trunc", path, 1, MAX_TRUNC, default=8))
    vars = hypersurface_vars(n)
    phi = _series(pairs, where, "phi", path, vars, trunc)
    # a zero phi means Levi-flat, a claim about every order: make it only
    # when the literal itself is zero, not when truncation emptied it
    if phi.is_zero() and drops_terms(pairs["phi"], vars, trunc):
        raise ValidationError(
            f"{path}: phi truncates to 0 at trunc {trunc}, which leaves "
            f"its invariants undetermined; raise trunc")
    return Hypersurface(n, phi)


def load_map(path: str, trunc_override: Optional[int] = None
             ) -> Tuple[HoloMap, Hypersurface, Hypersurface]:
    pairs, where = parse_keyvalue_file(path)
    n = _bounded(pairs, "n", path, 0, MAX_DIM)
    trunc = (trunc_override if trunc_override is not None
             else _bounded(pairs, "trunc", path, 1, MAX_TRUNC, default=8))
    base = os.path.dirname(os.path.abspath(path))
    src = load_hypersurface(os.path.join(base, _require(pairs, "source", path)),
                            trunc)
    tgt = load_hypersurface(os.path.join(base, _require(pairs, "target", path)),
                            trunc)
    comps = []
    j = 1
    while f"F{j}" in pairs:
        comps.append(_series(pairs, where, f"F{j}", path, map_vars(n), trunc))
        j += 1
    if len(comps) != tgt.n + 1:
        raise ValidationError(
            f"{path}: expected {tgt.n + 1} components F1..F{tgt.n + 1}, "
            f"got {len(comps)}")
    return HoloMap(n, comps), src, tgt


def load_bb_system(path: str, order_override: Optional[int] = None
                   ) -> BBSystem:
    pairs, where = parse_keyvalue_file(path)
    N = _bounded(pairs, "N", path, 0, MAX_DIM)
    order = (order_override if order_override is not None
             else _bounded(pairs, "order", path, 1, MAX_TRUNC, default=10))
    trunc = _bounded(pairs, "trunc", path, 1, MAX_TRUNC,
                     default=max(order + 2, 12))
    comps = [_series(pairs, where, f"f{j}", path, bb_vars(N), trunc)
             for j in range(1, N + 1)]
    return BBSystem(N, comps, order)


def load_prolonged_system(path: str) -> Tuple[ProlongedSystem, int]:
    pairs, where = parse_keyvalue_file(path)
    n = _bounded(pairs, "n", path, 0, MAX_DIM)
    k = _bounded(pairs, "k", path, 0, MAX_DIM)
    order = _bounded(pairs, "order", path, 1, MAX_TRUNC, default=8)
    trunc = _bounded(pairs, "trunc", path, 1, MAX_TRUNC,
                     default=max(order + 2, 10))
    ps = ProlongedSystem(n, k)
    rv = rhs_vars(n, k)
    for name in ps.needed_rhs_names():
        ps.supplied[name] = _series(pairs, where, name, path, rv, trunc)
    if "samples" in pairs and pairs["samples"].strip():
        for chunk in pairs["samples"].split(";"):
            vals = tuple(_rational(x.strip(), chunk, path)
                         for x in chunk.split(",") if x.strip())
            if len(vals) != 2 * n:
                raise ValidationError(
                    f"{path}: sample {chunk.strip()!r} must have {2*n} entries")
            ps.frozen_x.append(vals)
    return ps, order


_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _rational(text: str, sample: str, path: str) -> Fraction:
    """A sample entry: an optionally signed integer or p/q with q != 0,
    each of at most MAX_COEFF_BITS bits."""
    m = _RATIONAL.fullmatch(text)
    if m:
        p, q = (d.lstrip("0") or "0" for d in (m[2], m[3] or "1"))
        # d digits carry more than 3.3 * (d - 1) bits; test that before int()
        if (max(len(p), len(q)) - 1) * 33 // 10 <= MAX_COEFF_BITS:
            p, q = int(p), int(q)
            if q and max(p.bit_length(), q.bit_length()) <= MAX_COEFF_BITS:
                return Fraction(-p if m[1] == "-" else p, q)
    raise ValidationError(
        f"{path}: sample {sample.strip()!r}: entry {text!r} must be an "
        f"integer or p/q with q != 0, of at most {MAX_COEFF_BITS} bits")


# ---------------------------------------------------------------------------
# report dictionaries
# ---------------------------------------------------------------------------

def hypersurface_report(h: Hypersurface) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": "report",
        "input": {"n": h.n, "trunc": h.trunc, "phi": h.phi.to_literal()},
        "invariants": {
            "m": "infinity" if h.levi_flat else h.m,
            "levi_flat": h.levi_flat,
        },
    }
    if h.levi_flat:
        return out
    inv = out["invariants"]
    inv["r"] = h.r
    inv["phi_m"] = h.phi_m.to_literal()
    inv["essential"] = essentiality_check(h).as_dict()
    inv["ell"] = nondegeneracy_ell(h).as_dict()

    fr = Frame(h)
    type2 = any(not fr.h0[a][b].constant_term().is_zero()
                for a in range(h.n) for b in range(h.n))
    inv["type_2"] = type2
    filt = filtration(fr)
    inv["filtration_ranks"] = filt.ranks
    inv["filtration_ell"] = filt.ell
    inv["filtration_nondegenerate"] = filt.nondegenerate
    hs = [[fr.c[a][b + 1] * HALF_OVER_I for b in range(h.n)]
          for a in range(h.n)]
    h0s = [[fr.h0[a][b] * HALF_OVER_I for b in range(h.n)]
           for a in range(h.n)]
    out["levi"] = {
        "h": [[x.to_literal() for x in row] for row in hs],
        "h0": [[x.to_literal() for x in row] for row in h0s],
        "h0_at_origin": [[format_coefficient(x.constant_term()) for x in row]
                         for row in h0s],
    }
    return out


def map_report(f: HoloMap, src: Hypersurface, tgt: Hypersurface) -> dict:
    rr = check_identities(f, src, tgt)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "check-map",
        "input": {
            "n": f.n,
            "components": [c.to_literal() for c in f.components],
            "source_phi": src.phi.to_literal(),
            "target_phi": tgt.phi.to_literal(),
        },
        "residuals": {
            "map_residual": rr.map_residual.to_literal(),
            "maps_into": rr.map_residual.is_zero(),
            "identities": {name: [r.to_literal() for r in rs]
                           for name, rs in rr.identity_residuals.items()},
            "all_zero": rr.all_zero(),
        },
        "xi": rr.xi.to_literal(),
        # check_identities raises InvariantViolation("xi-singular ...")
        # otherwise
        "xi_smooth": True,
    }


def bb_report(sys: BBSystem, oracle_t0: Optional[float] = None) -> dict:
    sol = formal_solve(sys)
    lists = _solution_lists(sol)
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": "bb-solve",
        "input": {"N": sys.N, "order": sys.order,
                  "f": [g.to_literal() for g in sys.f]},
        "linear_part": {
            "p": [format_coefficient(x) for x in sys.p],
            "A": [[format_coefficient(x) for x in row] for row in sys.A],
            "char_poly": [format_coefficient(c) for c in sys.char_poly],
        },
        "resonances": lists["resonances"],
        "dulac": {"p": sys.N - sys.nonpositive_real,
                  "nonpositive_real": sys.nonpositive_real},
        "solution": {
            "family_dim": sol.family_dim,
            "has_log_terms": sol.has_log_terms(),
            "coefficients": lists["coefficients"],
        },
    }
    if oracle_t0 is not None:
        dev_pos = numeric_oracle(sys, sol, t0=abs(oracle_t0))
        dev_neg = numeric_oracle(sys, sol, t0=-abs(oracle_t0))
        out["diagnostics"] = {"oracle_deviation_pos": dev_pos,
                              "oracle_deviation_neg": dev_neg}
    return out


def prolong_report(ps: ProlongedSystem, order: int) -> dict:
    samples = assemble_and_solve(ps, order)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "prolong",
        "jet": {"n": ps.n, "k": ps.k, **ps.counts()},
        "samples": [
            {
                "x": [str(v) for v in ss.sample],
                **_solution_lists(ss.solution),
                "family_dim": ss.solution.family_dim,
                "diagnostics": {"growth": ss.growth,
                                "radius_proxy": ss.radius_proxy},
            } for ss in samples],
    }


def _solution_lists(sol: FormalLogSolution) -> dict:
    """The ``coefficients`` and ``resonances`` lists of a solution, as
    bb-solve and prolong print them."""
    return {"coefficients": [
                {"k": k, "r": r, "vector": [format_coefficient(x) for x in v]}
                for (k, r), v in sorted(sol.coeffs.items())],
            "resonances": [{"k": k, "kernel_dim": d}
                           for k, d in sol.resonances]}


# ---------------------------------------------------------------------------
# built-in example corpus
# ---------------------------------------------------------------------------

def examples_report(trunc: Optional[int] = None) -> dict:
    """Run the built-in corpus and assert its expected invariants; any
    mismatch is reported with ok = false (and a nonzero exit downstream)."""
    entries = []

    def check(name: str, expected, actual) -> None:
        entries.append({"name": name, "expected": expected, "actual": actual,
                        "ok": expected == actual})

    t = corpus.DEFAULT_TRUNC if trunc is None else trunc
    if t < corpus.MIN_TRUNC:
        raise ValidationError(
            f"examples needs --trunc >= {corpus.MIN_TRUNC}: below it the "
            "implicit surface's m and r and the filtration are undetermined")
    m0 = corpus.model_surface(t)
    check("model-surface m", 1, m0.m)
    check("model-surface r", 2, m0.r)
    check("model-surface ell", {"status": "nondegenerate", "ell": 1},
          nondegeneracy_ell(m0).as_dict())
    check("model-surface essential",
          {"status": "certified-essential", "bound": 1, "detail": ""},
          essentiality_check(m0).as_dict())
    h0 = Frame(m0).h0
    check("model-surface type-2 leading term", "1",
          format_coefficient(h0[0][0].constant_term() * HALF_OVER_I))

    e12 = corpus.two_infinite_type_surface(t)
    check("implicit-surface m", 2, e12.m)
    check("implicit-surface r", 2, e12.r)

    for k in (2, 3, 4):
        tk = max(t, 2 * k + 4)
        mk = corpus.power_target(k, tk)
        fmap = corpus.power_map(k, tk)
        rr = check_identities(fmap, corpus.model_surface(tk), mk)
        check(f"power-map k={k} residuals", True, rr.all_zero())
        check(f"power-map k={k} xi", str(k), rr.xi.to_literal())

    ident = corpus.identity_map(1, t)
    rr_id = check_identities(ident, m0, m0)
    check("identity-map xi", "1", rr_id.xi.to_literal())
    check("identity-map residuals", True, rr_id.all_zero())

    filt = filtration(Frame(corpus.filtration_example_surface(t)))
    check("filtration ranks", [0, 1, 2], filt.ranks)
    check("filtration ell", 2, filt.ell)

    return {
        "schema_version": SCHEMA_VERSION,
        "command": "examples",
        "trunc": t,
        "entries": entries,
        "all_ok": all(e["ok"] for e in entries),
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def summary_table(report: dict) -> str:
    """Short fixed-width text rendering of the examples report."""
    lines = []
    width = max(len(e["name"]) for e in report["entries"])
    for e in report["entries"]:
        status = "ok" if e["ok"] else "FAIL"
        lines.append(f"{e['name']:<{width}}  {status}")
    lines.append(f"{'all':<{width}}  "
                 f"{'ok' if report['all_ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
