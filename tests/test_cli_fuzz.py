"""Random bounded check-map inputs through the CLI.

Hypothesis writes a source and a target hypersurface file and a map
file, some surfaces real and in normal form, some not, and some maps
genuine, collapsing or malformed, and runs ``main(["check-map", ...])``.
Every case must exit 0, 1, 2 or 3 without raising; an exit 0 prints
strict JSON, and an exit 2 carries one of the documented invariant
violations: a Levi-flat source or target, or an xi that is not smooth
(``xi-singular``).  The search is derandomized, so a run is repeatable.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from crgeom.cli import main

REAL = ["1", "2", "-1", "3/5", "-1/2"]
# each coefficient and its conjugate
CONJ = {**{a: a for a in REAL}, "i": "(-i)", "(1/2 + 1/3*i)": "(1/2 - 1/3*i)",
        "(3/5 + 4/5*i)": "(3/5 - 4/5*i)"}
COEFFS = sorted(CONJ)

EXIT_2 = re.compile(
    r"invariant violation: xi-singular: ("
    r"source is Levi flat \(m = infinity\)"
    r"|target is Levi flat \(m_hat = infinity\)"
    r"|division by the zero series"
    r"|divisor is not of the form s\^k \* unit"
    r"|monomial \S+ not divisible by s\^\d+)\n")


def monomial(factors):
    """'z1^2*c1*s' from [('z1', 2), ('c1', 1), ('s', 1)]; '1' if empty."""
    parts = [v if e == 1 else f"{v}^{e}" for v, e in factors if e]
    return "*".join(parts) or "1"


@st.composite
def multi_index(draw, names):
    """Exponents over names of total degree 1 or 2."""
    picked = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
    return [(v, picked.count(v)) for v in names]


@st.composite
def normal_phi(draw, n):
    """A real phi in normal form: terms a z^alpha c^beta s^e and their
    conjugates, with |alpha|, |beta| >= 1."""
    zs = [f"z{j}" for j in range(1, n + 1)]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        alpha, beta = draw(multi_index(zs)), draw(multi_index(zs))
        e = draw(st.integers(0, 2))
        if alpha == beta:
            a = draw(st.sampled_from(REAL))
            terms.append(f"{a}*" + monomial(
                alpha + [("c" + v[1:], k) for v, k in beta] + [("s", e)]))
            continue
        a = draw(st.sampled_from(COEFFS))
        for x, y, c in ((alpha, beta, a), (beta, alpha, CONJ[a])):
            terms.append(f"{c}*" + monomial(
                x + [("c" + v[1:], k) for v, k in y] + [("s", e)]))
    return " + ".join(terms)


@st.composite
def any_phi(draw, n):
    """Random monomials over z, c and s: mostly neither real nor in
    normal form."""
    names = [f"z{j}" for j in range(1, n + 1)] + \
        [f"c{j}" for j in range(1, n + 1)] + ["s"]
    terms = [f"{draw(st.sampled_from(COEFFS))}*"
             + monomial([(v, draw(st.integers(0, 2))) for v in names])
             for _ in range(draw(st.integers(1, 3)))]
    return " + ".join(terms)


@st.composite
def surface(draw):
    n = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["normal"] * 6 + ["any", "flat"]))
    phi = {"normal": normal_phi, "any": any_phi}[kind](n) if kind != "flat" \
        else st.just("0")
    phi = draw(phi)
    return n, f'n = {n}\ntrunc = {draw(st.integers(2, 6))}\nphi = "{phi}"\n'


@st.composite
def component(draw, n, j, kind):
    zs = [f"z{k}" for k in range(1, n + 1)]
    if kind == "linear":
        var = zs[j] if j < n else "w"
        return f"{draw(st.sampled_from(COEFFS))}*{var}"
    if kind == "collapse" and j == n:
        return "0"
    terms = [f"{draw(st.sampled_from(COEFFS))}*"
             + monomial([(v, draw(st.integers(0, 2))) for v in zs + ["w"]])
             for _ in range(draw(st.integers(1, 3)))]
    return " + ".join(terms)


@st.composite
def check_map_case(draw):
    n_src, src = draw(surface())
    n_tgt, tgt = draw(st.one_of(st.just((n_src, src)), surface()))
    n = draw(st.sampled_from([n_src] * 4 + [n_tgt, 1, 2]))
    kind = draw(st.sampled_from(["identity", "linear", "random",
                                 "collapse"]))
    if kind == "identity":
        comps = [f"z{j}" for j in range(1, n_tgt + 1)] + ["w"]
        comps = comps if n == n_tgt else comps[:n] + ["w"]
    else:
        comps = [draw(component(n, j, kind)) for j in range(n_tgt + 1)]
    lines = [f"n = {n}", f"trunc = {draw(st.integers(3, 6))}",
             "source = src.hs", "target = tgt.hs"]
    lines += [f'F{j} = "{c}"' for j, c in enumerate(comps, start=1)]
    return src, tgt, "\n".join(lines) + "\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(check_map_case())
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_check_map_fuzz(case):
    src, tgt, mapping = case
    with tempfile.TemporaryDirectory() as d:
        for name, text in (("src.hs", src), ("tgt.hs", tgt), ("f.map", mapping)):
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-map", os.path.join(d, "f.map")])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    if code == 0:
        rep = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert rep["command"] == "check-map"
    if code == 2:
        assert EXIT_2.fullmatch(err.getvalue()), err.getvalue()
