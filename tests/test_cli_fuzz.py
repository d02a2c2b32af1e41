"""Random bounded inputs through the CLI.

Hypothesis writes input files and runs ``main``: for ``check-map`` a
source and a target hypersurface file and a map file, some surfaces real
and in normal form, some not, and some maps genuine, collapsing or
malformed; for ``report``, ``bb-solve`` and ``prolong`` one ``.hs``,
``.bb`` or ``.ps`` file whose series are built from the parser test's
literal atoms or from random monomials, with keys sometimes missing or
misspelled.  Every case must exit 0, 1, 2 or 3 without raising, and an
exit 0 prints strict JSON.  A ``check-map`` exit 2 carries one of the
documented invariant violations: a Levi-flat source or target, or an xi
that is not smooth (``xi-singular``); ``prolong`` has none, since a
formal log solution always exists.  A ``report``, ``bb-solve`` or
``prolong`` exit 3 names the key and the line and column of the error in
the file.  A ``prolong`` case passes ``linalg.rref`` no matrix wider
than a fixed multiple of its jet-variable count.  The search is
derandomized, so a run is repeatable.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

import crgeom.linalg
from crgeom.cli import main
from crgeom.prolongation import ProlongedSystem, base_vars
from test_series import LITERAL_ATOMS

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


def run_cli(command, files):
    """Write the files into a fresh directory and run ``command`` on the
    first: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as d:
        for name, text in files:
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, os.path.join(d, files[0][0])])
    return code, out.getvalue(), err.getvalue()


@given(check_map_case())
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_check_map_fuzz(case):
    src, tgt, mapping = case
    code, out, err = run_cli("check-map", [("f.map", mapping), ("src.hs", src),
                                           ("tgt.hs", tgt)])
    assert code in (0, 1, 2, 3), (code, err)
    if code == 0:
        rep = json.loads(out, parse_constant=_reject_constant)
        assert rep["command"] == "check-map"
    if code == 2:
        assert EXIT_2.fullmatch(err), err


# -- report and bb-solve -------------------------------------------------------

PARSE_ERROR = re.compile(r"parse error: key '[^']+', line \d+, col \d+: .+\n")


@st.composite
def atom_literal(draw, names):
    """Products of the parser test's literal atoms and of the names,
    summed; one in four gets a stray character."""
    atoms = st.sampled_from(LITERAL_ATOMS + names + ["1/2", "(1/2 + 1/3*i)"])
    text = " + ".join("*".join(draw(st.lists(atoms, min_size=1, max_size=4)))
                      for _ in range(draw(st.integers(1, 3))))
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(
            ["#", "@", ")", "(", "^", "x", "1.5", '"', "/0"])) + text[k:]
    return text


@st.composite
def key_value_file(draw, entries):
    """'key = value' lines, each key kept, dropped or misspelled."""
    lines = []
    for key, value in entries:
        fate = draw(st.sampled_from(["keep"] * 16 + ["drop", "misspell"]))
        if fate == "drop":
            continue
        if fate == "misspell":
            key = draw(st.sampled_from([key.swapcase(), key + "2", key[1:]
                                        or "x"]))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@st.composite
def report_case(draw):
    n = draw(st.sampled_from([1] * 4 + [2] * 2 + [0]))
    names = [f"{x}{j}" for x in "zc" for j in range(1, n + 1)] + ["s"]
    kind = draw(st.sampled_from(["normal"] * 4 + ["any", "atoms", "atoms"]))
    if n == 0 or kind == "atoms":
        phi = draw(atom_literal(names))
    else:
        phi = draw({"normal": normal_phi, "any": any_phi}[kind](n))
    n_value = draw(st.sampled_from([str(n)] * 8 + ["5", "x"]))
    trunc = draw(st.sampled_from([str(t) for t in range(1, 7)] + ["0"]))
    return draw(key_value_file([("n", n_value), ("trunc", trunc),
                                ("phi", f'"{phi}"')]))


@st.composite
def bb_term(draw, names):
    coeff = draw(st.sampled_from(COEFFS + ["2^1000", "0"]))
    return f"{coeff}*" + monomial(
        [(v, draw(st.integers(0, 2))) for v in names])


@st.composite
def bb_case(draw):
    N = draw(st.integers(1, 2))
    names = ["t"] + [f"y{j}" for j in range(1, N + 1)]
    comps = []
    for j in range(1, N + 1):
        if draw(st.integers(0, 4)) == 0:
            comps.append(draw(atom_literal(names)))
            continue
        # a diagonal entry of 2 or 3 is a resonance at that order
        diag = draw(st.sampled_from(["-1", "1/2", "1", "2", "3", "i"]))
        terms = [f"{diag}*y{j}"] + draw(st.lists(bb_term(names), max_size=3))
        comps.append(" + ".join(terms))
    order = draw(st.integers(1, 6))
    entries = [("N", str(N)), ("order", str(order))]
    if draw(st.booleans()):
        entries.append(("trunc", str(draw(st.integers(order - 1, 8)))))
    entries += [(f"f{j}", f'"{c}"') for j, c in enumerate(comps, start=1)]
    return draw(key_value_file(entries))


def check_exit(command, name, text):
    code, out, err = run_cli(command, [(name, text)])
    assert code in (0, 1, 2, 3), (code, err)
    if code == 0:
        rep = json.loads(out, parse_constant=_reject_constant)
        assert rep["command"] == command
    if code == 3:
        assert PARSE_ERROR.fullmatch(err), err
    return code


@given(report_case())
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_report_fuzz(text):
    check_exit("report", "s.hs", text)


@given(bb_case())
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bb_solve_fuzz(text):
    check_exit("bb-solve", "y.bb", text)


# -- prolong ------------------------------------------------------------------

# the stacked solve at a resonance of a system of N jet variables has
# N (R + 1) columns, and its augmented matrix one more, for log degrees
# up to R = d + index; R stayed <= 3 over 600 derandomized draws.
# Stacking up to R = d + N instead passes N (N + 1) + 1 columns or more,
# past this bound once N >= 6: the n = 1, k = 1 and k = 2 systems, with
# N = 12 and 30.
RREF_COLUMNS_PER_JET_VARIABLE = 6


@st.composite
def prolong_case(draw):
    """A .ps file: each top-layer name u gets "(diag)*u + rest", the diag
    drawn from -2..3, so that some levels resonate and some eigenvalues
    repeat; rest is a forcing, possibly coupling u to another top-layer
    name, or, in one file in six, for one name, literal atoms."""
    n, k = draw(st.sampled_from([0, 1, 1])), draw(st.integers(0, 2))
    ps = ProlongedSystem(n, k)
    names = ps.needed_rhs_names()
    x = list(base_vars(n))
    forcing = ["s", "3*s", "s^2", "-1/2*s + s^2", "s*" + names[0],
               "s + " + names[-1], "2*s + " + names[0]] + \
        [f"s*{v}" for v in x]
    rhs = {name: f"({draw(st.integers(-2, 3))})*{name} + "
           + draw(st.sampled_from(forcing)) for name in names}
    if draw(st.integers(0, 5)) == 0:
        rhs[draw(st.sampled_from(names))] = draw(atom_literal(
            x + ["s"] + names[:2]))
    order = draw(st.integers(1, 4))
    entries = [("n", str(n)), ("k", str(k)), ("order", str(order))]
    if draw(st.booleans()):
        entries.append(("trunc", str(draw(st.integers(order - 1, 6)))))
    entries += [(name, f'"{text}"') for name, text in rhs.items()]
    if n and draw(st.integers(0, 7)) or draw(st.integers(0, 5)) == 0:
        # mostly exact rationals, sometimes not, sometimes too few or too
        # many entries
        point = st.sampled_from(["1/2", "-1/3", "0", "2", "3/4"] * 4
                                + ["1.5", "x", "1/0", "2^3", ""])
        count = st.sampled_from([2 * n] * 8 + [2 * n + 1, max(2 * n - 1, 0)])
        samples = "; ".join(",".join(draw(point) for _ in range(draw(count)))
                            for _ in range(draw(st.integers(1, 2))))
        entries.append(("samples", f'"{samples}"'))
    N = len(ps.var_names())
    if draw(st.integers(0, 7)) == 0:
        return draw(key_value_file(entries)), N
    return "".join(f"{key} = {value}\n" for key, value in entries), N


@contextlib.contextmanager
def rref_columns():
    """The most columns of a matrix passed to linalg.rref, as [max]."""
    rref, widest = crgeom.linalg.rref, [0]

    def counted(rows):
        widest[0] = max(widest[0], len(rows[0]) if rows else 0)
        return rref(rows)
    crgeom.linalg.rref = counted
    try:
        yield widest
    finally:
        crgeom.linalg.rref = rref


@given(prolong_case())
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_prolong_fuzz(case):
    text, N = case
    with rref_columns() as widest:
        code = check_exit("prolong", "u.ps", text)
    assert code != 2
    assert widest[0] <= RREF_COLUMNS_PER_JET_VARIABLE * N + 1
