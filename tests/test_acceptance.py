"""End-to-end acceptance checks for the whole package.

Each test evaluates one criterion, prints a single pass/fail line, and
then asserts, so a plain run (with -s or on failure) shows a compact
scoreboard.
"""

import json

from crgeom import corpus
from crgeom.briot_bouquet import (bb_vars, BBSystem, formal_solve,
                                  numeric_oracle)
from crgeom.cli import main
from crgeom.crmap import MapCheck
from crgeom.frame import Frame, iterated_forms
from crgeom.hypersurface import essentiality_check, nondegeneracy_ell
from crgeom.parsing import parse_series
from crgeom.prolongation import (ProlongedSystem, assemble_and_solve,
                                 rhs_vars, var_name)
from crgeom.report import HALF_OVER_I
from crgeom.scalars import GaussRational


def _verdict(label, ok):
    print(f"criterion {label}: {'pass' if ok else 'FAIL'}", flush=True)
    assert ok


def corpus_surfaces(t=8):
    return [corpus.model_surface(t), corpus.two_infinite_type_surface(t),
            corpus.power_target(2, t), corpus.filtration_example_surface(t)]


def test_criterion_01_model_invariants():
    h = corpus.model_surface(8)
    essential = essentiality_check(h)
    fr = Frame(h)
    ok = (h.m == 1 and h.r == 2
          and nondegeneracy_ell(h).as_dict() == {"status": "nondegenerate",
                                                 "ell": 1}
          and essential.status == "certified-essential"
          and essential.bound == 1
          and fr.h0[0][0].constant_term() * HALF_OVER_I == GaussRational(1))
    _verdict("01 model-surface invariants", ok)


def test_criterion_02_implicit_surface_pipeline():
    h = corpus.two_infinite_type_surface(8)
    _verdict("02 implicit-surface pipeline", h.m == 2 and h.r == 2)


def test_criterion_03_power_map_containment():
    ok = True
    for k in (2, 3, 4):
        t = 2 * k + 4
        mc = MapCheck(corpus.power_map(k, t), corpus.model_surface(t),
                      corpus.power_target(k, t))
        ok = ok and mc.map_residual.is_zero()
    _verdict("03 power-map containment", ok)


def test_criterion_04_levi_divisibility_and_leading_term():
    ok = True
    for h in corpus_surfaces():
        fr = Frame(h)
        fr.h0   # raises if not divisible
        lowest = {e: c for e, c in h.phi_m.terms.items()
                  if sum(e) == h.r}
        n = h.n
        for a in range(n):
            for b in range(n):
                exps = tuple(1 if j == b else 0 for j in range(n)) + \
                    tuple(1 if j == a else 0 for j in range(n)) + (0,)
                want = lowest.get(exps, GaussRational(0))
                ok = ok and fr.h0[a][b].constant_term() * HALF_OVER_I == want
    _verdict("04 levi divisibility and leading term", ok)


def test_criterion_05_iterated_recursion():
    ok = True
    for h in [corpus.model_surface(8), corpus.filtration_example_surface(8)]:
        fr = Frame(h)
        n = fr.n
        forms = dict(iterated_forms(fr, 3))
        for word, omega in forms.items():
            if len(word) == 1:
                continue
            body, c = word[:-1], word[-1]
            for d in range(1, n + 1):
                lhs = omega[d]
                rhs = fr.Lbar(c - 1, forms[body][d]) + \
                    forms[body][0] * forms[(c,)][d]
                tr = min(lhs.trunc, rhs.trunc)
                ok = ok and (lhs.truncate(tr) - rhs.truncate(tr)).is_zero()
    _verdict("05 iterated pairing recursion", ok)


def test_criterion_06_map_identities():
    t = 9
    m0 = corpus.model_surface(t)
    mc_id = MapCheck(corpus.identity_map(1, t), m0, m0)
    mc_sq = MapCheck(corpus.power_map(2, t), m0, corpus.power_target(2, t))
    ok = (mc_id.all_zero and mc_id.xi.to_literal() == "1"
          and mc_sq.all_zero and mc_sq.xi.to_literal() == "2")
    _verdict("06 map transformation identities", ok)


def test_criterion_07_numeric_oracle():
    sys_ = BBSystem(
        1, [parse_series("1/2*y1 + t", bb_vars(1), 12)], 10)
    sol = formal_solve(sys_)
    ok = all(numeric_oracle(sys_, sol, t0=t0) < 1e-8
             for t0 in (1e-2, -1e-2))
    _verdict("07 singular ODE numeric oracle", ok)


def test_criterion_08_resonance_and_log_terms():
    sol = formal_solve(BBSystem(
        1, [parse_series("y1 + t", bb_vars(1), 12)], 10))
    ok = (sol.has_log_terms() and sol.family_dim == 1
          and [k for k, _ in sol.resonances] == [1]
          and {kr: [str(x) for x in v] for kr, v in sol.coeffs.items()}
          == {(1, 1): ["1"]})
    for exprs, want_p in ((["y1"], 1), (["-2*y1"], 0),
                          (["y2", "-1*y1"], 2)):
        N = len(exprs)
        sys_ = BBSystem(N, [parse_series(e, bb_vars(N), 12) for e in exprs], 6)
        ok = ok and sys_.N - sys_.nonpositive_real == want_p
    _verdict("08 resonance and log terms", ok)


def test_criterion_09_prolongation_counts_and_toy():
    ps = ProlongedSystem(1, 3)
    ok = (ps.counts() == {"variables": 60, "contact_equations": 57,
                          "closure_slots": 3} and len(ps.slots) == 20)
    toy = ProlongedSystem(0, 0)
    toy.supplied[var_name(1, (), 0)] = parse_series(
        "2*u1__0 + s", rhs_vars(0, 0), 10)
    sol = assemble_and_solve(toy, 10)[0].solution
    ok = ok and {kr: [str(x) for x in v] for kr, v in sol.coeffs.items()} \
        == {(1, 0): ["-1"]}
    _verdict("09 prolongation counts and toy closure", ok)


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ok = main(["examples", "--json", "--out", str(a)]) == 0
    ok = ok and main(["examples", "--json", "--out", str(b)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    ok = ok and json.loads(a.read_text())["all_ok"] is True
    _verdict("10 deterministic example reports", ok)
