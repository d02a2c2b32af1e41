"""Seeded input generator for the crgeom benchmark.

    python3 perfbench/gen.py --workload maps --seed 3 --out DIR

writes the workload's ``.hs``, ``.map``, ``.bb`` and ``.ps`` input files
into DIR, plus ``manifest.json``: the job list (CLI argument vectors
relative to DIR) and, per job, the data the output checks need.  The same
seed gives byte-identical files.

Monomials and the magnitudes of their coefficients are fixed per job
(``SETTINGS``, ``MAGNITUDES``); the signs of the coefficients, the
unitary and the scale of the maps, and the frozen samples are drawn
from the seed.  Nothing here imports ``crgeom``; the ``maps`` targets are
expanded by sympy.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import exact  # noqa: E402

# Monomials and coefficient magnitudes are fixed per job; only signs,
# the unitary and the scale are drawn from the seed, so that every seed
# asks for about the same amount of work and the pass time spreads
# little across seeds.
#
# phi: each listed monomial z^a c^b s^k gets a random coefficient and,
# unless a = b, its conjugate partner z^b c^a s^k the conjugate one, so
# phi is real; every monomial has z- and c-degree >= 1 (normal form).
# trunc >= m + 5 lets `report` probe iterated Levi words of length 4.
SETTINGS = {
    "invariants": {
        "surfaces": [
            {"n": 2, "trunc": 6, "phi": ["s*z1*c1", "s^2*z1*c2"]},
            {"n": 2, "trunc": 6, "phi": ["s*z1*c1*c2", "s^2*z2*c2"]},
            {"n": 2, "trunc": 6, "phi": ["s*z2*c2", "s*z1*c2^2"]},
            {"n": 2, "trunc": 6, "phi": ["s*z1*c2", "s^2*z1*c1"]},
            {"n": 3, "trunc": 6, "phi": ["s*z1*c1", "s^3*z2*c3"]},
        ],
    },
    "maps": {
        "surfaces": [
            {"n": 2, "trunc": 6, "phi": ["s*z1*c1", "s*z2*c2^2", "s^2*z1*c2"]},
            {"n": 2, "trunc": 6, "phi": ["s*z1*c1", "s*z2*c2", "s^2*z1*c2^2"]},
            {"n": 2, "trunc": 6, "phi": ["s*z1*c2^2", "s*z2*c2", "s^2*z1*c1"]},
            {"n": 2, "trunc": 6, "phi": ["s^2*z1*c1", "s^2*z2*c1^2", "s^3*z1*c2"]},
            {"n": 2, "trunc": 6, "phi": ["s*z1*c2", "s*z1*c1^2", "s^2*z2*c2"]},
            {"n": 2, "trunc": 6, "phi": ["s*z2*c2", "s*z1*c1", "s^2*z1*c1*c2"]},
            {"n": 2, "trunc": 6, "phi": ["s^2*z1*c1", "s^2*z2*c2", "s^3*z1*c2"]},
            {"n": 2, "trunc": 7, "phi": ["s*z1*c1", "s*z2*c2^2", "s^2*z1*c2"]},
        ],
    },
    "odes": {
        # f_j = p_j t + sum_{b<j} L_jb y_b + diag_j y_j + the listed
        # nonlinear monomials.  The linear part is triangular: an integer
        # diagonal entry k is a resonance at order k, usually with a log
        # term; a fraction is not.
        "systems": [
            {"order": 8, "diag": [1, 2], "f": [["y1^2", "t*y2"], ["y1*y2", "t^2"]]},
            {"order": 8, "diag": [2, "-1/2"], "f": [["y2^2", "t*y1"], ["y1^2", "t*y2"]]},
            {"order": 9, "diag": [1, "1/3"], "f": [["y1*y2", "t^2"], ["y2^2", "t*y1"]]},
            {"order": 7, "diag": [1, 2, "-1/2"],
             "f": [["y3^2", "t*y2"], ["y1*y3", "t^2"], ["y1*y2", "t*y3"]]},
            {"order": 8, "diag": [1, 2], "f": [["y2^2", "t*y1"], ["y1^2", "t*y2"]]},
            {"order": 8, "diag": [2, "-1/2"], "f": [["y1*y2", "t^2"], ["y2^2", "t*y1"]]},
            {"order": 9, "diag": [1, "1/3"], "f": [["y1^2", "t*y2"], ["y1*y2", "t^2"]]},
            {"order": 7, "diag": ["1/2", 1, 3],
             "f": [["y2*y3", "t*y1"], ["y3^2", "t^2"], ["y1^2", "t*y2"]]},
        ],
        # n = 1, k = 1: 12 jet variables.  A supplied right-hand side is
        # diag * (own variable) + a s + b x_j s + c (own variable) u_i^{00,0};
        # diagonal entries avoid positive integers, so no resonance.
        "prolong": [
            {"n": 1, "k": 1, "order": 2, "diag": [-1, -2, -3], "samples": 1},
        ],
    },
}

MAGNITUDES = tuple(Fraction(x) for x in ("1", "1/2", "2/3", "3/2", "1/3", "2"))

# The scale lambda of the maps; both choices give coefficients of one size.
SCALES = (Fraction(2, 3), Fraction(3, 2))


def signed(rng, k: int) -> Fraction:
    """The ``k``-th magnitude (cyclically) with a random sign."""
    return rng.choice((-1, 1)) * MAGNITUDES[k % len(MAGNITUDES)]


def exponents(text: str, names):
    """``"s^2*z1*c2"`` as an exponent vector over ``names``."""
    e = [0] * len(names)
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        e[names.index(name)] += int(power or 1)
    return tuple(e)


# ---------------------------------------------------------------------------
# hypersurfaces
# ---------------------------------------------------------------------------

def random_phi(rng, n: int, monomials):
    """phi as {(z-exps + c-exps + (s,)): coeff}, real and in normal form."""
    phi = {}
    for k, text in enumerate(monomials):
        key = exponents(text, hs_names(n))
        partner = key[n:2 * n] + key[:n] + key[2 * n:]
        if key == partner:
            phi[key] = (signed(rng, k), Fraction(0))
        else:
            c = (signed(rng, k), signed(rng, k + 1))
            phi[key] = c
            phi[partner] = exact.conj(c)
    return phi


def hs_names(n: int):
    return ([f"z{j}" for j in range(1, n + 1)]
            + [f"c{j}" for j in range(1, n + 1)] + ["s"])


def terms_json(poly):
    return [[list(e), [str(c[0]), str(c[1])]] for e, c in sorted(poly.items())]


def write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def hs_file(path: str, n: int, trunc: int, phi) -> None:
    write(path, [f"n = {n}", f"trunc = {trunc}",
                 f'phi = "{exact.poly_dsl(hs_names(n), phi)}"'])


def gen_invariants(rng, out: str):
    jobs = []
    for idx, spec in enumerate(SETTINGS["invariants"]["surfaces"]):
        n, trunc = spec["n"], spec["trunc"]
        phi = random_phi(rng, n, spec["phi"])
        name = f"surface{idx}.hs"
        hs_file(os.path.join(out, name), n, trunc, phi)
        jobs.append({"argv": ["report", name],
                     "check": {"kind": "report", "n": n, "trunc": trunc,
                               "phi": terms_json(phi)}})
    return jobs


def cayley_unitary(rng, n: int, sp):
    """U = (I - A)(I + A)^-1 for a random skew-Hermitian A: unitary with
    Gaussian-rational entries.  The diagonal of A alternates +-i and each
    entry above it is one of +-1 +-2i, +-2 +-i; the seed picks only signs
    and order, so every U has entries of the same size and every seed asks
    for about the same work."""
    A = sp.zeros(n, n)
    a = rng.choice((-1, 1))
    for j in range(n):
        A[j, j] = sp.I * a * (-1) ** j
        for k in range(j + 1, n):
            re, im = rng.choice(((1, 2), (2, 1)))
            A[j, k] = rng.choice((-1, 1)) * re + sp.I * rng.choice((-1, 1)) * im
            A[k, j] = -sp.conjugate(A[j, k])
    U = (sp.eye(n) - A) * (sp.eye(n) + A).inv()
    U = U.applyfunc(lambda e: sp.nsimplify(sp.expand(e)))
    if sp.simplify(U * U.H - sp.eye(n)) != sp.zeros(n, n):
        raise RuntimeError("Cayley transform is not unitary")
    return U


def to_pair(e, sp):
    re, im = sp.expand(e).as_real_imag()
    return (Fraction(int(sp.numer(re)), int(sp.denom(re))),
            Fraction(int(sp.numer(im)), int(sp.denom(im))))


def gen_maps(rng, out: str):
    import sympy as sp

    jobs = []
    for idx, spec in enumerate(SETTINGS["maps"]["surfaces"]):
        n, trunc = spec["n"], spec["trunc"]
        phi = random_phi(rng, n, spec["phi"])
        U = cayley_unitary(rng, n, sp)
        lam = rng.choice(SCALES)
        gens = sp.symbols(hs_names(n))
        z, c, s = gens[:n], gens[n:2 * n], gens[2 * n]
        phi_expr = sum((sp.Rational(cf[0]) + sp.I * sp.Rational(cf[1]))
                       * sp.prod([v ** k for v, k in zip(gens, e)])
                       for e, cf in phi.items())
        # target phihat(zh, ch, sh) = lam * phi(U^* zh, U^T ch, sh / lam)
        lam_s = sp.Rational(lam)
        zz = U.H * sp.Matrix(z)
        cc = U.T * sp.Matrix(c)
        subs = {**{z[j]: zz[j] for j in range(n)},
                **{c[j]: cc[j] for j in range(n)}, s: s / lam_s}
        target = sp.expand(lam_s * phi_expr.subs(subs, simultaneous=True))
        poly = sp.Poly(target, *gens)
        phihat = {tuple(e): to_pair(cf, sp) for e, cf in poly.terms()}
        src, tgt, mp = f"source{idx}.hs", f"target{idx}.hs", f"map{idx}.map"
        hs_file(os.path.join(out, src), n, trunc, phi)
        hs_file(os.path.join(out, tgt), n, trunc, phihat)
        mv = [f"z{j}" for j in range(1, n + 1)] + ["w"]
        comps = [exact.poly_dsl(mv, {exponents(mv[i], mv): to_pair(U[j, i], sp)
                                     for i in range(n)}) for j in range(n)]
        comps.append(exact.poly_dsl(mv, {exponents("w", mv): (lam, Fraction(0))}))
        write(os.path.join(out, mp),
              [f"n = {n}", f"trunc = {trunc}", f"source = {src}",
               f"target = {tgt}"]
              + [f'F{j + 1} = "{comp}"' for j, comp in enumerate(comps)])
        jobs.append({"argv": ["check-map", mp],
                     "check": {"kind": "check-map", "n": n,
                               "phi": terms_json(phi), "lambda": str(lam)}})
    return jobs


# ---------------------------------------------------------------------------
# singular systems
# ---------------------------------------------------------------------------

def gen_bb(rng, spec):
    """The right-hand sides of one system as polynomials over (t, y1..yN)."""
    N = len(spec["diag"])
    names = ["t"] + [f"y{j}" for j in range(1, N + 1)]
    f = []
    for j in range(N):
        drawn = ["t"] + [f"y{b + 1}" for b in range(j)] + spec["f"][j]
        poly = {exponents(text, names): (signed(rng, j + k), Fraction(0))
                for k, text in enumerate(drawn)}
        poly[exponents(f"y{j + 1}", names)] = (Fraction(spec["diag"][j]), Fraction(0))
        f.append(poly)
    return f


def jet_slots(n: int, k: int):
    """(alpha, p) with |alpha| + p <= k, graded by total order, sorted
    within a grade: the order of the prolongation file format."""
    slots = []
    for total in range(k + 1):
        layer = []

        def rec(prefix, left):
            if len(prefix) == 2 * n:
                layer.append((tuple(prefix), left))
                return
            for a in range(left + 1):
                rec(prefix + [a], left - a)
        rec([], total)
        slots.extend(sorted(layer))
    return slots


def jet_name(i: int, alpha, p: int) -> str:
    return f"u{i}_" + "".join(str(a) for a in alpha) + f"_{p}"


def gen_prolong(rng, spec, out: str, idx: int):
    n, k, order = spec["n"], spec["k"], spec["order"]
    slots = jet_slots(n, k)
    slotset = set(slots)
    names = [jet_name(i, a, p) for (a, p) in slots
             for i in range(1, 2 * n + 2)]
    rv = [f"x{j}" for j in range(1, 2 * n + 1)] + ["s"] + names
    rows = {}
    for (a, p) in slots:
        for i in range(1, 2 * n + 2):
            nm = jet_name(i, a, p)
            if p < k and (a, p + 1) in slotset:
                rows[nm] = {"contact": jet_name(i, a, p + 1)}
    diag = [Fraction(d) for d in spec["diag"]]
    supplied = {}
    for row, nm in enumerate(nm for nm in names if nm not in rows):
        base = jet_name(int(nm.split("_")[0][1:]), (0,) * (2 * n), 0)
        poly = {exponents(nm, rv): (diag[row % len(diag)], Fraction(0))}
        for pos, text in enumerate(("s", f"x{1 + row % (2 * n)}*s",
                                    f"{nm}*{base}")):
            poly[exponents(text, rv)] = (signed(rng, row + pos), Fraction(0))
        supplied[nm] = poly
        rows[nm] = {"rhs": terms_json(poly)}
    samples = [[str(signed(rng, j)) for j in range(2 * n)]
               for _ in range(spec["samples"])]
    path = f"jets{idx}.ps"
    write(os.path.join(out, path),
          [f"n = {n}", f"k = {k}", f"order = {order}",
           f'samples = "{"; ".join(", ".join(x) for x in samples)}"']
          + [f'{nm} = "{exact.poly_dsl(rv, poly)}"'
             for nm, poly in supplied.items()])
    return {"argv": ["prolong", path],
            "check": {"kind": "prolong", "n": n, "k": k, "order": order,
                      "names": names, "rhs_vars": rv, "rows": rows,
                      "samples": samples}}


def gen_odes(rng, out: str):
    jobs = []
    for idx, spec in enumerate(SETTINGS["odes"]["systems"]):
        f = gen_bb(rng, spec)
        N = len(f)
        names = ["t"] + [f"y{j}" for j in range(1, N + 1)]
        path = f"system{idx}.bb"
        write(os.path.join(out, path),
              [f"N = {N}", f"order = {spec['order']}"]
              + [f'f{j + 1} = "{exact.poly_dsl(names, fj)}"'
                 for j, fj in enumerate(f)])
        jobs.append({"argv": ["bb-solve", path],
                     "check": {"kind": "bb-solve", "N": N,
                               "order": spec["order"],
                               "diag": [str(Fraction(d)) for d in spec["diag"]],
                               "f": [terms_json(fj) for fj in f]}})
    for idx, spec in enumerate(SETTINGS["odes"]["prolong"]):
        jobs.append(gen_prolong(rng, spec, out, idx))
    return jobs


GENERATORS = {"invariants": gen_invariants, "maps": gen_maps, "odes": gen_odes}


def generate(workload: str, seed: int, out: str) -> dict:
    os.makedirs(out, exist_ok=True)
    rng = random.Random(f"crgeom-bench:{workload}:{seed}")
    jobs = GENERATORS[workload](rng, out)
    manifest = {"workload": workload, "seed": seed,
                "settings": SETTINGS[workload], "jobs": jobs}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
