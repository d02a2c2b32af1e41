"""Output checks of the crgeom benchmark, run outside the timed region.

Each check takes a job's exit code and stdout plus the generator's check
data and returns a list of problems (empty when the output is right).
They use only the benchmark's own arithmetic (``exact``), never
``crgeom``:

* ``report``: ``m`` and ``r`` recomputed from phi's monomials;
* ``check-map``: the map was built to send the source into the target,
  so ``maps_into`` and ``all_zero`` must hold and ``xi = lambda^(1-m)``;
* ``bb-solve``: the resonant orders are the positive-integer diagonal
  entries, and the returned ``c_{k,r}`` make ``t*y' - f(t, y)`` vanish
  through order K;
* ``prolong``: the jet counts, the same residual for the assembled
  system at each frozen sample, and the contact relations.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import exact

_NUMBER = re.compile(r"(?<![\w^])(\d+)")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def max_coeff_bits(text: str) -> int:
    """Largest bit length of a numerator or denominator printed in any
    string of a JSON report (exponents and variable indices excluded)."""
    best = 0

    def walk(x):
        nonlocal best
        if isinstance(x, str):
            for m in _NUMBER.finditer(x):
                best = max(best, int(m.group(1)).bit_length())
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
    walk(json.loads(text))
    return best


def _terms(data):
    return {tuple(e): (Fraction(c[0]), Fraction(c[1])) for e, c in data}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _m_r(phi, n: int, trunc: int):
    live = [e for e, c in phi.items() if sum(e) <= trunc and not exact.is_zero(c)]
    m = min(e[2 * n] for e in live)
    r = min(sum(e[:2 * n]) for e in live if e[2 * n] == m)
    return m, r


def check_report(rep, data):
    n, trunc = data["n"], data["trunc"]
    m, r = _m_r(_terms(data["phi"]), n, trunc)
    inv = rep["invariants"]
    probs = []
    if rep["input"]["n"] != n or rep["input"]["trunc"] != trunc:
        probs.append(f"input echo {rep['input']['n']}, {rep['input']['trunc']}")
    if inv["levi_flat"] or inv["m"] != m or inv.get("r") != r:
        probs.append(f"m, r = {inv['m']}, {inv.get('r')}; expected {m}, {r}")
    return probs


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def check_map(rep, data):
    n = data["n"]
    m, _ = _m_r(_terms(data["phi"]), n, 10 ** 9)
    xi = str(Fraction(data["lambda"]) ** (1 - m))
    res = rep["residuals"]
    probs = []
    if res["maps_into"] is not True:
        probs.append("maps_into is not true")
    if res["all_zero"] is not True:
        probs.append("all_zero is not true")
    if rep["xi"] != xi or rep["xi_smooth"] is not True:
        probs.append(f"xi = {rep['xi']}, expected {xi}")
    return probs


# ---------------------------------------------------------------------------
# singular systems
# ---------------------------------------------------------------------------

def _tl_mul(a, b, K):
    """Product of polynomials in (t, log t) as {(k, r): coeff}, t-degree <= K."""
    out = {}
    for (ka, ra), ca in a.items():
        for (kb, rb), cb in b.items():
            k = ka + kb
            if k > K:
                continue
            key = (k, ra + rb)
            out[key] = exact.add(out.get(key, exact.ZERO), exact.mul(ca, cb))
    return out


def _residual(f, coeffs, N: int, K: int):
    """Nonzero coefficients of t*y' - f(t, y) with t-degree <= K, where
    y = sum c_{k,r} t^k (log t)^r and f is a list of {(a, e_1..e_N): coeff}."""
    ys = [{kr: v[j] for kr, v in coeffs.items() if not exact.is_zero(v[j])}
          for j in range(N)]
    powers = [[{(0, 0): exact.ONE}] for _ in range(N)]

    def power(j, e):
        while len(powers[j]) <= e:
            powers[j].append(_tl_mul(powers[j][-1], ys[j], K))
        return powers[j][e]

    bad = []
    for j in range(N):
        acc = {}
        for (k, r), c in ys[j].items():
            acc[(k, r)] = exact.add(acc.get((k, r), exact.ZERO),
                                    exact.mul(exact.g(k), c))
            if r:
                acc[(k, r - 1)] = exact.add(acc.get((k, r - 1), exact.ZERO),
                                            exact.mul(exact.g(r), c))
        for exps, c in f[j].items():
            if exps[0] > K:
                continue
            prod = {(exps[0], 0): c}
            for b in range(N):
                if exps[b + 1]:
                    prod = _tl_mul(prod, power(b, exps[b + 1]), K)
            for key, v in prod.items():
                acc[key] = exact.add(acc.get(key, exact.ZERO), exact.mul(exact.g(-1), v))
        bad.extend((j + 1, k, r) for (k, r), v in acc.items()
                   if k <= K and not exact.is_zero(v))
    return bad


def _coeffs(entries):
    return {(e["k"], e["r"]): [exact.parse(x) for x in e["vector"]]
            for e in entries}


def _solution_problems(f, entries, N, K, where=""):
    coeffs = _coeffs(entries)
    if any(len(v) != N for v in coeffs.values()):
        return [f"{where}coefficient vectors are not of length {N}"]
    bad = _residual(f, coeffs, N, K)
    if bad:
        return [f"{where}t*y' - f(t, y) != 0 at (component, k, r) {bad[:3]}"]
    return []


def check_bb(rep, data):
    N, K = data["N"], data["order"]
    f = [_terms(fj) for fj in data["f"]]
    want = sorted({int(d) for d in map(Fraction, data["diag"])
                   if d.denominator == 1 and 1 <= d <= K})
    got = [x["k"] for x in rep["resonances"]]
    probs = [] if got == want else [f"resonances at {got}, expected {want}"]
    return probs + _solution_problems(f, rep["solution"]["coefficients"], N, K)


def _prolonged_system(data, sample):
    """The Briot-Bouquet right-hand sides over (t, y_1..y_N) that the
    prolongation assembles at one frozen sample."""
    names, rv = data["names"], data["rhs_vars"]
    N = len(names)
    nx = 2 * data["n"]
    index = {nm: j for j, nm in enumerate(names)}
    f = []
    for nm in names:
        row = data["rows"][nm]
        if "contact" in row:
            e = [0] * (N + 1)
            e[index[row["contact"]] + 1] = 1
            f.append({tuple(e): exact.ONE})
            continue
        poly = {}
        for exps, c in _terms(row["rhs"]).items():
            for x, ex in zip(sample, exps[:nx]):
                c = exact.mul(c, exact.power(exact.g(x), ex))
            e = [exps[nx]] + [0] * N
            for name, ex in zip(rv[nx + 1:], exps[nx + 1:]):
                e[index[name] + 1] += ex
            poly[tuple(e)] = exact.add(poly.get(tuple(e), exact.ZERO), c)
        f.append(poly)
    return f


def check_prolong(rep, data):
    names, rows, K = data["names"], data["rows"], data["order"]
    N = len(names)
    contact = {nm: row["contact"] for nm, row in rows.items() if "contact" in row}
    jet = rep["jet"]
    n_contact = sum(1 for nm in names if int(nm.rsplit("_", 1)[1]) < data["k"])
    want = {"variables": N, "contact_equations": n_contact,
            "closure_slots": N - n_contact}
    probs = [f"jet {k} = {jet[k]}, expected {v}"
             for k, v in want.items() if jet[k] != v]
    if [s["x"] for s in rep["samples"]] != data["samples"]:
        probs.append("samples differ from the input")
        return probs
    index = {nm: j for j, nm in enumerate(names)}
    for sample, out in zip(data["samples"], rep["samples"]):
        where = f"sample {sample}: "
        f = _prolonged_system(data, [Fraction(x) for x in sample])
        probs += _solution_problems(f, out["coefficients"], N, K, where)
        # contact: (t d/dt) u^{alpha,p} = u^{alpha,p+1}, coefficientwise
        coeffs = _coeffs(out["coefficients"])
        zero = [exact.ZERO] * N
        keys = set(coeffs) | {(k, r - 1) for k, r in coeffs if r}
        for lhs, target in contact.items():
            a, b = index[lhs], index[target]
            for k, r in sorted(keys):
                v = coeffs.get((k, r), zero)
                up = coeffs.get((k, r + 1), zero)[a]
                left = exact.add(exact.mul(exact.g(k), v[a]),
                                 exact.mul(exact.g(r + 1), up))
                if left != v[b]:
                    probs.append(f"{where}contact {lhs} -> {target} fails at t^{k}")
                    break
    return probs


CHECKS = {"report": check_report, "check-map": check_map,
          "bb-solve": check_bb, "prolong": check_prolong}


def check_output(code, text: str, data) -> list:
    """Problems with one job's result; exit code first, then the content."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if rep.get("command") != data["kind"]:
        return [f"command {rep.get('command')!r}, expected {data['kind']!r}"]
    try:
        return CHECKS[data["kind"]](rep, data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"]
