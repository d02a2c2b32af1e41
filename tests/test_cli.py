import json
import os
import subprocess
import sys

import pytest

from crgeom.cli import main
from crgeom.parsing import MAX_DIM, MAX_TRUNC

MODEL = 'n = 1\ntrunc = 8\nphi = "s*z1*c1"\n'
TARGET2 = 'n = 1\ntrunc = 8\nphi = "2*z1*c1*s + 2*z1^3*c1^3*s"\n'
FLAT = 'n = 1\ntrunc = 8\nphi = "0"\n'


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_report_model(tmp_path, capsys):
    path = write(tmp_path, "m0.hs", MODEL)
    code, rep = run_json(capsys, ["report", path])
    assert code == 0
    inv = rep["invariants"]
    assert inv["m"] == 1
    assert inv["r"] == 2
    assert inv["ell"] == {"status": "nondegenerate", "ell": 1}
    assert inv["type_2"] is True
    assert rep["input"]["n"] == 1


def test_report_at_minimal_trunc_clamps_ell(tmp_path, capsys):
    # trunc 3 leaves psi = phi / s known through order 2: ell and the
    # filtration probe words of length 1 only
    path = write(tmp_path, "m0t3.hs", 'n = 1\ntrunc = 3\nphi = "s*z1*c1"\n')
    code, rep = run_json(capsys, ["report", path])
    assert code == 0
    inv = rep["invariants"]
    assert inv["ell"] == {"status": "nondegenerate", "ell": 1}
    assert inv["filtration_ranks"] == [0, 1]
    # n = 2 at trunc m + 2 = 3: the filtration's words of length 1 stay
    # exact through s^m
    path = write(tmp_path, "n2t3.hs",
                 'n = 2\ntrunc = 3\nphi = "s*z1*c1 + s*z2*c2"\n')
    code, rep = run_json(capsys, ["report", path])
    assert code == 0
    assert rep["invariants"]["filtration_ranks"] == [0, 2]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_filtration_does_not_stall(tmp_path, capsys):
    # the kernel dimension repeats at k = 2 (ranks 1, 1) before it drops
    # at k = 3; ell already reads nondegenerate 3
    path = write(tmp_path, "stall.hs",
                 'n = 2\ntrunc = 8\n'
                 'phi = "s*z1*c1 + s*z2*c2^3 + s*z2^3*c2"\n')
    code, rep = run_json(capsys, ["report", path])
    assert code == 0
    inv = rep["invariants"]
    assert inv["ell"] == {"status": "nondegenerate", "ell": 3}
    assert inv["filtration_ranks"] == [0, 1, 1, 2]
    assert inv["filtration_ell"] == 3
    assert inv["filtration_nondegenerate"] is True


def test_each_surface_is_validated_once(tmp_path, capsys, monkeypatch):
    # count through every crgeom module that binds validate, so that a
    # call from an imported name counts too
    from crgeom.hypersurface import validate
    calls = []

    def counted(h):
        calls.append(h)
        validate(h)
    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "crgeom"
                and getattr(mod, "validate", None) is validate):
            monkeypatch.setattr(mod, "validate", counted)
    src = write(tmp_path, "m0.hs", MODEL)
    tgt = write(tmp_path, "m2.hs", TARGET2)
    mp = write(tmp_path, "sq.map",
               'n = 1\ntrunc = 8\nsource = m0.hs\ntarget = m2.hs\n'
               'F1 = "z1"\nF2 = "w^2"\n')
    assert main(["report", src]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["check-map", mp]) == 0
    assert len(calls) == 2
    capsys.readouterr()


def test_each_type_is_computed_once(tmp_path, capsys, monkeypatch):
    # the type m is a cached property of the Hypersurface: one s-order
    # per surface, however many stages read it; check-map's third call
    # is the unit-form division of xi
    from crgeom.series import Series
    calls = []
    min_degree_in = Series.min_degree_in

    def counted(self, var):
        calls.append(var)
        return min_degree_in(self, var)
    monkeypatch.setattr(Series, "min_degree_in", counted)
    src = write(tmp_path, "m0.hs", MODEL)
    tgt = write(tmp_path, "m2.hs", TARGET2)
    mp = write(tmp_path, "sq.map",
               'n = 1\ntrunc = 8\nsource = m0.hs\ntarget = m2.hs\n'
               'F1 = "z1"\nF2 = "w^2"\n')
    assert main(["report", src]) == 0
    assert calls == ["s"]
    calls.clear()
    assert main(["check-map", mp]) == 0
    assert calls == ["s"] * 3
    capsys.readouterr()


def test_each_linear_part_is_read_once(tmp_path, capsys, monkeypatch):
    # p, A and the resonances are cached properties of the BBSystem:
    # bb-solve reads the N coefficients of p and the rows of A off f once
    # for the solver and the report, and ranks kI - A once per k, and
    # (I - A)^2 once more for the index of the resonance k = 1
    import crgeom.briot_bouquet as bb
    from crgeom.series import Series
    import crgeom.linalg as linalg
    coefficients, a_reads, ranks, char_polys = [], [], [], []
    coefficient, rank = Series.coefficient, bb.rank
    char_poly = linalg.char_poly
    a_property = bb.BBSystem.__dict__["A"]
    read_a = a_property.func

    def counted_coefficient(self, exps):
        coefficients.append(exps)
        return coefficient(self, exps)

    def counted_read_a(sys_):
        a_reads.append(sys_.N)
        return read_a(sys_)

    def counted_rank(rows, width):
        ranks.append(len(rows))
        return rank(rows, width)
    def counted_char_poly(A):
        char_polys.append(len(A))
        return char_poly(A)
    monkeypatch.setattr(Series, "coefficient", counted_coefficient)
    monkeypatch.setattr(a_property, "func", counted_read_a)
    monkeypatch.setattr(bb, "rank", counted_rank)
    monkeypatch.setattr(linalg, "char_poly", counted_char_poly)
    path = write(tmp_path, "two.bb", 'N = 2\norder = 7\n'
                 'f1 = "y1 + t + y1*y2"\nf2 = "-1/2*y2 + t*y1"\n')
    assert main(["bb-solve", path]) == 0
    assert len(coefficients) == 2
    assert a_reads == [2]
    assert ranks == [2] * 8
    # the characteristic polynomial is a cached property too, read for
    # the printed char_poly and for the Dulac count
    assert char_polys == [2]
    capsys.readouterr()


def test_report_levi_flat_m_infinity(tmp_path, capsys):
    path = write(tmp_path, "flat.hs", FLAT)
    code, rep = run_json(capsys, ["report", path])
    assert code == 0
    assert rep["invariants"]["m"] == "infinity"


def test_report_phi_truncated_to_zero_exit_1(tmp_path, capsys):
    # s*z1*c1 has degree 3: trunc 2 empties it, which is no evidence that
    # the surface is Levi-flat
    path = write(tmp_path, "m0t2.hs", 'n = 1\ntrunc = 2\nphi = "s*z1*c1"\n')
    assert main(["report", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err and "trunc 2" in captured.err
    # a literal zero stays Levi-flat at any trunc
    flat = write(tmp_path, "flat2.hs", 'n = 1\ntrunc = 2\nphi = "0"\n')
    code, rep = run_json(capsys, ["report", flat])
    assert code == 0
    assert rep["invariants"] == {"m": "infinity", "levi_flat": True}


def test_trunc_override_bounds(tmp_path, capsys):
    path = write(tmp_path, "flat.hs", FLAT)
    for bad in ("-3", "0", str(MAX_TRUNC + 1)):
        assert main(["report", path, "--trunc", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--trunc {bad} is outside 1..{MAX_TRUNC}" in captured.err
    for good in (1, MAX_TRUNC):
        code, rep = run_json(capsys, ["report", path, "--trunc", str(good)])
        assert code == 0
        assert rep["input"]["trunc"] == good


def expect_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err and message in captured.err


def test_file_trunc_keys_are_bounded(tmp_path, capsys):
    # trunc = 100000 used to run on past a 5 s timeout; -5 reached the parser
    for bad in ("100000", "-5", "0", str(MAX_TRUNC + 1)):
        hs = write(tmp_path, "t.hs", f'n = 1\ntrunc = {bad}\nphi = "s*z1*c1"\n')
        expect_exit_1(capsys, ["report", hs],
                      f"key 'trunc' = {int(bad)} is outside 1..{MAX_TRUNC}")
        write(tmp_path, "m0.hs", MODEL)
        mp = write(tmp_path, "t.map", f'n = 1\ntrunc = {bad}\nsource = m0.hs\n'
                   'target = m0.hs\nF1 = "z1"\nF2 = "w"\n')
        expect_exit_1(capsys, ["check-map", mp], "key 'trunc'")
        bb = write(tmp_path, "t.bb", f'N = 1\norder = 2\ntrunc = {bad}\n'
                   'f1 = "1/2*y1 + t"\n')
        expect_exit_1(capsys, ["bb-solve", bb], "key 'trunc'")
        pr = write(tmp_path, "t.pr", f'n = 0\nk = 0\norder = 2\ntrunc = {bad}\n'
                   'u1__0 = "2*u1__0 + s"\n')
        expect_exit_1(capsys, ["prolong", pr], "key 'trunc'")
    # --trunc still overrides the file's key
    hs = write(tmp_path, "t.hs", 'n = 1\ntrunc = 100000\nphi = "s*z1*c1"\n')
    code, rep = run_json(capsys, ["report", hs, "--trunc", "6"])
    assert code == 0 and rep["input"]["trunc"] == 6


def test_file_order_keys_are_bounded(tmp_path, capsys):
    for bad in ("0", "-3", str(MAX_TRUNC + 1)):
        bb = write(tmp_path, "o.bb", f'N = 1\norder = {bad}\ntrunc = 12\n'
                   'f1 = "1/2*y1 + t"\n')
        expect_exit_1(capsys, ["bb-solve", bb],
                      f"key 'order' = {int(bad)} is outside 1..{MAX_TRUNC}")
        pr = write(tmp_path, "o.pr", f'n = 0\nk = 0\norder = {bad}\ntrunc = 10\n'
                   'u1__0 = "2*u1__0 + s"\n')
        expect_exit_1(capsys, ["prolong", pr], "key 'order'")


def test_order_override_bounds(tmp_path, capsys):
    # --order 0 was silently ignored, and --order -3 printed "order": -3
    path = write(tmp_path, "lin.bb",
                 'N = 1\norder = 10\ntrunc = 12\nf1 = "1/2*y1 + t"\n')
    for bad in ("0", "-3", str(MAX_TRUNC + 1)):
        expect_exit_1(capsys, ["bb-solve", path, "--order", bad],
                      f"--order {bad} is outside 1..{MAX_TRUNC}")
    code, rep = run_json(capsys, ["bb-solve", path, "--order", "1"])
    assert code == 0 and rep["input"]["order"] == 1


def test_file_dimension_keys_are_bounded(tmp_path, capsys):
    # report on n = 24 took 2.9 s and n = 40 ran past a 30 s timeout; a
    # prolongation's jet enumeration grows like (k+1)^(2n)
    write(tmp_path, "m0.hs", MODEL)
    for bad in ("-1", str(MAX_DIM + 1), "40"):
        hs = write(tmp_path, "d.hs", f'n = {bad}\ntrunc = 8\nphi = "s*z1*c1"\n')
        expect_exit_1(capsys, ["report", hs],
                      f"key 'n' = {int(bad)} is outside 0..{MAX_DIM}")
        mp = write(tmp_path, "d.map", f'n = {bad}\ntrunc = 8\nsource = m0.hs\n'
                   'target = m0.hs\nF1 = "z1"\nF2 = "w"\n')
        expect_exit_1(capsys, ["check-map", mp], "key 'n'")
        bb = write(tmp_path, "d.bb", f'N = {bad}\norder = 2\nf1 = "1/2*y1 + t"\n')
        expect_exit_1(capsys, ["bb-solve", bb], "key 'N'")
        for key, n, k in (("n", bad, "0"), ("k", "0", bad)):
            pr = write(tmp_path, "d.pr", f'n = {n}\nk = {k}\norder = 2\n'
                       'u1__0 = "2*u1__0 + s"\n')
            expect_exit_1(capsys, ["prolong", pr], f"key {key!r}")
    # the bound itself is a dimension
    hs = write(tmp_path, "top.hs", f'n = {MAX_DIM}\ntrunc = 4\nphi = "s*z1*c1"\n')
    code, rep = run_json(capsys, ["report", hs])
    assert code == 0 and rep["input"]["n"] == MAX_DIM


def test_trunc_flag_only_where_it_is_read(tmp_path, capsys):
    # bb-solve and prolong accepted --trunc and printed the same output
    # as without it
    bb = write(tmp_path, "t.bb", 'N = 1\norder = 2\nf1 = "1/2*y1 + t"\n')
    pr = write(tmp_path, "t.pr", 'n = 0\nk = 0\norder = 2\n'
               'u1__0 = "2*u1__0 + s"\n')
    for argv in (["bb-solve", bb], ["prolong", pr]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trunc", "3"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --trunc 3" in capsys.readouterr().err
        code, _ = run_json(capsys, argv)
        assert code == 0


@pytest.mark.parametrize("command, text", [
    ("report", MODEL),
    ("check-map", 'n = 1\ntrunc = 8\nsource = m0.hs\ntarget = m0.hs\n'
                  'F1 = "z1"\nF2 = "w"\n'),
    ("bb-solve", 'N = 1\norder = 2\nf1 = "1/2*y1 + t"\n'),
    ("prolong", 'n = 0\nk = 0\norder = 2\nu1__0 = "2*u1__0 + s"\n'),
])
def test_json_flag_only_on_examples(tmp_path, capsys, command, text):
    # these commands always print JSON; --json was accepted and ignored
    write(tmp_path, "m0.hs", MODEL)
    path = write(tmp_path, "in.txt", text)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--json"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --json" in capsys.readouterr().err
    code, _ = run_json(capsys, [command, path])
    assert code == 0


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    # argparse exits 2 on a usage error, the code of an exact-invariant
    # violation
    for argv, message in ((["report"], "required: input"),
                          (["frobnicate"], "invalid choice: 'frobnicate'"),
                          (["check-map", "x.map", "--order", "3"],
                           "unrecognized arguments: --order 3"),
                          (["report", "x.hs", "--trunc", "six"],
                           "argument --trunc: invalid int value: 'six'"),
                          ([], "required: command")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: crgeom") and message in err, err
    for argv in (["--help"], ["report", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: crgeom")


def test_report_prints_coefficients_past_the_int_str_limit(tmp_path, capsys):
    # phi = C*z1*c1*s with C = 2^13990, inside the parser's bit bound;
    # h = C*s - 3*C^3*z1^2*c1^2*s, and 3*C^3 has more than 4300 digits
    literal = "*".join(["(2^1000)"] * 13 + ["(2^990)", "z1*c1*s"])
    path = write(tmp_path, "big.hs", f'n = 1\ntrunc = 8\nphi = "{literal}"\n')
    code, rep = run_json(capsys, ["report", path])
    assert code == 0
    lead, rest = rep["levi"]["h"][0][0].split(" - ")
    digits = rest.removesuffix("*z1^2*c1^2*s")
    exact = 3 * 2 ** (3 * 13990)
    assert digits.isdigit() and len(digits) > 4300
    assert 10 ** (len(digits) - 1) <= exact < 10 ** len(digits)
    assert digits[-50:] == f"{exact % 10 ** 50:050d}"
    assert lead.removesuffix("*s")[-50:] == f"{2 ** 13990 % 10 ** 50:050d}"


def test_report_out_file(tmp_path, capsys):
    path = write(tmp_path, "m0.hs", MODEL)
    out = tmp_path / "rep.json"
    assert main(["report", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["invariants"]["m"] == 1


def test_check_map_square(tmp_path, capsys):
    src = write(tmp_path, "m0.hs", MODEL)
    tgt = write(tmp_path, "m2.hs", TARGET2)
    mp = write(tmp_path, "sq.map",
               'n = 1\ntrunc = 8\nsource = m0.hs\ntarget = m2.hs\n'
               'F1 = "z1"\nF2 = "w^2"\n')
    code, rep = run_json(capsys, ["check-map", mp])
    assert code == 0
    assert rep["residuals"]["all_zero"] is True
    assert rep["xi"] == "2"
    assert rep["xi_smooth"] is True


def test_check_map_forms_each_frames_levi_data_once(tmp_path, capsys,
                                                   monkeypatch):
    # h0 and h0_bar are cached properties of a Frame: one check-map run
    # forms each once on the source frame and once on the target frame,
    # though it reads h0hat_{ab} for three (a, b) at n = 2.  The count
    # wraps the function the cached property calls, so a plain property
    # (which has no such function) fails here too
    from crgeom.frame import Frame
    formed = {"h0": [], "h0_bar": []}
    for name, frames in formed.items():
        prop = Frame.__dict__[name]

        def counted(self, func=prop.func, frames=frames):
            frames.append(self)
            return func(self)
        monkeypatch.setattr(prop, "func", counted)
    write(tmp_path, "m.hs", 'n = 2\ntrunc = 6\n'
          'phi = "s*z1*c1 + s*z2*c2 + s^2*z1*c2 + s^2*z2*c1"\n')
    mp = write(tmp_path, "id.map",
               'n = 2\ntrunc = 6\nsource = m.hs\ntarget = m.hs\n'
               'F1 = "z1"\nF2 = "z2"\nF3 = "w"\n')
    code, rep = run_json(capsys, ["check-map", mp])
    assert code == 0 and rep["residuals"]["all_zero"] is True
    for frames in formed.values():
        assert len(frames) == 2 and frames[0] is not frames[1]


def test_check_map_collapsing_map_exit_1(tmp_path, capsys):
    # (z, w) -> (z, 0) maps Im w = s|z|^2 into itself but collapses it
    # into E' = {w = 0}: xi is undefined there, and no identity failed
    write(tmp_path, "m0.hs", 'n = 1\ntrunc = 6\nphi = "s*z1*c1"\n')
    mp = write(tmp_path, "collapse.map",
               'n = 1\ntrunc = 6\nsource = m0.hs\ntarget = m0.hs\n'
               'F1 = "z1"\nF2 = "0"\n')
    assert main(["check-map", mp]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "E' = {w = 0}" in err and "trunc 6" in err


def test_check_map_levi_flat_exit_2(tmp_path, capsys):
    src = write(tmp_path, "flat.hs", FLAT)
    tgt = write(tmp_path, "m0.hs", MODEL)
    mp = write(tmp_path, "id.map",
               'n = 1\ntrunc = 8\nsource = flat.hs\ntarget = m0.hs\n'
               'F1 = "z1"\nF2 = "w"\n')
    assert main(["check-map", mp]) == 2
    assert "invariant violation" in capsys.readouterr().err


SPHERE = 'n = 1\ntrunc = 6\nphi = "z1*c1"\n'


@pytest.mark.parametrize("F1, genuine", [("z1", True),
                                         ("(3/5 + 4/5*i)*z1", True),
                                         ("2*z1", False)])
def test_check_map_on_the_sphere(tmp_path, capsys, F1, genuine):
    # Im w = |z|^2 has m = 0: its Levi tail functions are formed without
    # dividing Q_A by s, which need not be divisible by it there
    write(tmp_path, "sphere.hs", SPHERE)
    mp = write(tmp_path, "f.map",
               'n = 1\ntrunc = 6\nsource = sphere.hs\ntarget = sphere.hs\n'
               f'F1 = "{F1}"\nF2 = "w"\n')
    code, rep = run_json(capsys, ["check-map", mp])
    assert code == 0
    assert rep["residuals"]["maps_into"] is genuine
    assert rep["residuals"]["all_zero"] is genuine
    if genuine:
        assert rep["xi"] == "1"


def test_validation_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.hs", 'n = 1\ntrunc = 8\nphi = "s*z1"\n')
    assert main(["report", path]) == 1
    assert "validation error" in capsys.readouterr().err


def test_constant_monomial_is_named_1(tmp_path, capsys):
    # the constant monomial printed blank: "at monomial : phi(z,0,s) ..."
    path = write(tmp_path, "const.hs", 'n = 1\ntrunc = 6\nphi = "1 + s*z1*c1"\n')
    assert main(["report", path]) == 1
    assert capsys.readouterr().err == (
        "validation error: normality violation at monomial 1: "
        "phi(z,0,s) and phi(0,chi,s) must vanish\n")


@pytest.mark.parametrize("command, text, key, line", [
    # a misspelled trunc ran at the default trunc 8
    ("report", 'n = 1\ntrnc = 3\nphi = "s*z1*c1"\n', "trnc", 2),
    # a component past N was dropped
    ("bb-solve", 'N = 1\nf1 = "1/2*y1 + t"\nf2 = "t"\n', "f2", 3),
    ("prolong", 'n = 0\nk = 0\nu1__0 = "2*u1__0 + s"\nu2__0 = "s"\n',
     "u2__0", 4),
    # a component after a gap was never read
    ("check-map", 'n = 1\nsource = m0.hs\ntarget = m0.hs\nF1 = "z1"\n'
     'F2 = "w"\nF4 = "w"\n', "F4", 6),
    ("check-map", 'F0 = "z1"\nn = 1\nsource = m0.hs\ntarget = m0.hs\n'
     'F1 = "z1"\nF2 = "w"\n', "F0", 1),
    # a key of the surface file a map reads is checked too
    ("check-map", 'n = 1\nsource = typo.hs\ntarget = m0.hs\nF1 = "z1"\n'
     'F2 = "w"\n', "Phi", 3),
])
def test_unknown_keys_exit_1(tmp_path, capsys, command, text, key, line):
    write(tmp_path, "m0.hs", MODEL)
    typo = write(tmp_path, "typo.hs", 'n = 1\ntrunc = 6\nPhi = "s*z1*c1"\n')
    path = write(tmp_path, "input", text)
    assert main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    named = typo if key == "Phi" else path
    assert captured.err == (
        f"validation error: {named}, line {line}: unknown key {key!r}\n")


def test_parse_error_exit_3(tmp_path, capsys):
    path = write(tmp_path, "garbage.hs", "this is not key = value = pairs\n")
    assert main(["report", path]) == 3
    assert "parse error" in capsys.readouterr().err
    path2 = write(tmp_path, "badexpr.hs", 'n = 1\ntrunc = 8\nphi = "s*%"\n')
    assert main(["report", path2]) == 3
    capsys.readouterr()
    # an exponent past the cap is refused before any arithmetic, at its
    # token, in file coordinates
    path3 = write(tmp_path, "bigexp.hs", 'n = 1\ntrunc = 8\n'
                  'phi = "z1*c1*s + 2^99999999*z1*c1"\n')
    assert main(["report", path3]) == 3
    err = capsys.readouterr().err
    assert "key 'phi', line 3, col 20: exponent 99999999 exceeds 1000" in err
    # coefficients past MAX_COEFF_BITS: a nested power, a long product and
    # a long integer literal
    for name, literal, col in [
            ("nested.hs", "z1*c1*s + (2^1000)^1000*z1*c1*s^2", 26),
            ("product.hs", "z1*c1*s + " + "*".join(["2^1000"] * 20), 108),
            ("literal.hs", "z1*c1*s*1" + "0" * 5000, 16)]:
        path = write(tmp_path, name, f'n = 1\ntrunc = 8\nphi = "{literal}"\n')
        assert main(["report", path]) == 3
        err = capsys.readouterr().err
        assert f"line 3, col {col}: coefficient exceeds 14000 bits" in err


def test_trailing_comments(tmp_path, capsys):
    # a # outside the quotes starts a comment, after a quoted value and
    # after a bare one; the file loads as the file without comments
    plain = write(tmp_path, "plain.hs", MODEL)
    assert main(["report", plain]) == 0
    want = capsys.readouterr().out
    for name, text in [
            ("quoted.hs", 'n = 1\ntrunc = 8\nphi = "s*z1*c1"  # the model\n'),
            ("bare.hs", 'n = 1  # dimension\ntrunc = 8 #\nphi = "s*z1*c1"\n')]:
        assert main(["report", write(tmp_path, name, text)]) == 0, name
        assert capsys.readouterr().out == want, name


def test_hash_inside_quotes_is_not_a_comment(tmp_path, capsys):
    # inside a quoted value # belongs to the series literal, and an
    # unclosed quote still runs to the end of the line
    path = write(tmp_path, "hash.hs", 'n = 1\ntrunc = 8\nphi = "s*z1*c1 # x"\n')
    assert main(["report", path]) == 3
    assert ("key 'phi', line 3, col 16: unexpected character '#'"
            in capsys.readouterr().err)
    path = write(tmp_path, "open.hs", 'n = 1\ntrunc = 8\nphi = "s*z1*c1  # x\n')
    assert main(["report", path]) == 3
    assert "line 3, col 19: unterminated string" in capsys.readouterr().err


def test_bb_solve_with_oracle(tmp_path, capsys):
    path = write(tmp_path, "lin.bb",
                 'N = 1\norder = 10\ntrunc = 12\nf1 = "1/2*y1 + t"\n')
    code, rep = run_json(capsys, ["bb-solve", path, "--oracle", "1e-2"])
    assert code == 0
    assert rep["resonances"] == []
    assert rep["solution"]["family_dim"] == 0
    assert rep["solution"]["has_log_terms"] is False
    assert rep["diagnostics"]["oracle_deviation_pos"] < 1e-8
    assert rep["diagnostics"]["oracle_deviation_neg"] < 1e-8


def test_bb_solve_resonant(tmp_path, capsys):
    path = write(tmp_path, "res.bb",
                 'N = 1\norder = 8\ntrunc = 10\nf1 = "y1 + t"\n')
    code, rep = run_json(capsys, ["bb-solve", path])
    assert code == 0
    assert rep["solution"]["has_log_terms"] is True
    assert rep["solution"]["family_dim"] == 1


def test_bb_solve_order_beyond_trunc_exit_1(tmp_path, capsys):
    # f known through degree 3 does not determine coefficients past t^3
    path = write(tmp_path, "short.bb",
                 'N = 1\norder = 10\ntrunc = 3\nf1 = "1/2*y1 + t + y1^2"\n')
    assert main(["bb-solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err and "trunc 3" in captured.err
    code, rep = run_json(capsys, ["bb-solve", path, "--order", "3"])
    assert code == 0
    assert [c["k"] for c in rep["solution"]["coefficients"]] == [1, 2, 3]


def test_prolong_toy(tmp_path, capsys):
    path = write(tmp_path, "toy.pr",
                 'n = 0\nk = 0\norder = 8\ntrunc = 10\n'
                 'u1__0 = "2*u1__0 + s"\n')
    code, rep = run_json(capsys, ["prolong", path])
    assert code == 0
    sample = rep["samples"][0]
    assert sample["coefficients"] == [{"k": 1, "r": 0, "vector": ["-1"]}]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_prolong_radius_proxy_past_the_float_range_is_null(tmp_path, capsys):
    # growth 2^-1074 (5e-324): its reciprocal overflows to inf, which
    # printed as Infinity, and that is not JSON
    path = write(tmp_path, "tiny.pr", 'n = 0\nk = 0\norder = 1\n'
                 'u1__0 = "(-1)*u1__0 + 2*(1/2^537)^2*s"\n')
    assert main(["prolong", path]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    diagnostics = rep["samples"][0]["diagnostics"]
    assert diagnostics["growth"] == 5e-324
    assert diagnostics["radius_proxy"] is None


def test_prolong_x_dependent_without_samples_exit_1(tmp_path, capsys):
    path = write(tmp_path, "nox.pr",
                 'n = 1\nk = 0\norder = 6\ntrunc = 8\n'
                 'u1_00_0 = "2*u1_00_0 + x1*s"\n'
                 'u2_00_0 = "3*u2_00_0 + s"\n'
                 'u3_00_0 = "1/2*u3_00_0"\n')
    assert main(["prolong", path]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "'samples'" in err and "u1_00_0" in err


def test_prolong_checks_every_sample_before_solving(tmp_path, capsys,
                                                   monkeypatch):
    # the second sample leaves u3_00_0 a constant term: the run fails
    # before the first sample is solved
    import crgeom.prolongation
    formal_solve, solves = crgeom.prolongation.formal_solve, []

    def counted(sys_):
        solves.append(sys_)
        return formal_solve(sys_)
    monkeypatch.setattr(crgeom.prolongation, "formal_solve", counted)
    path = write(tmp_path, "two.ps",
                 'n = 1\nk = 0\norder = 4\nsamples = "1, 0; 1, 1"\n'
                 'u1_00_0 = "(-1)*u1_00_0 + s"\n'
                 'u2_00_0 = "(-2)*u2_00_0 + x1*s"\n'
                 'u3_00_0 = "(-3)*u3_00_0 + x2"\n')
    assert main(["prolong", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "centering failure at sample ('1', '1')" in captured.err
    assert "u3_00_0 has constant term 1" in captured.err
    assert solves == []


JETS_K0 = ('n = 1\nk = 0\norder = 4\nsamples = "{}"\n'
           'u1_00_0 = "(-1)*u1_00_0 + {}*s"\n'
           'u2_00_0 = "(-2)*u2_00_0 + x1*s"\n'
           'u3_00_0 = "(-3)*u3_00_0 + x2*s"\n')


def test_prolong_samples_are_exact_rationals(tmp_path, capsys):
    # malformed, zero-denominator, float-syntax and huge-exponent entries
    # are validation errors, not a traceback or unbounded work
    for sample in ("abc", "1/0, 1", "1e400, 1", "1e100000000, 1"):
        path = write(tmp_path, "bad.ps", JETS_K0.format(sample, 1))
        assert main(["prolong", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err
        assert f"sample {sample!r}" in captured.err
    path = write(tmp_path, "ok.ps", JETS_K0.format("-3/4, +2; 007, 1/3", 1))
    code, rep = run_json(capsys, ["prolong", path])
    assert code == 0
    assert [s["x"] for s in rep["samples"]] == [["-3/4", "2"], ["7", "1/3"]]


def test_float_diagnostics_stay_in_range(tmp_path, capsys):
    # a non-finite --oracle, and a coefficient past the float range in
    # bb-solve --oracle or in a prolong solution, are validation errors,
    # not a silent 0.0 deviation or an OverflowError traceback
    lin = write(tmp_path, "l.bb", 'N = 1\norder = 6\nf1 = "(-1)*y1 + t"\n')
    big = write(tmp_path, "big.bb",
                'N = 1\norder = 6\nf1 = "(-1)*y1 + (10^300)^2*t"\n')
    jets = write(tmp_path, "big.ps", JETS_K0.format("1, 1/2", "(10^300)^2"))
    # parts that fit a float but whose modulus does not ("absolute value
    # too large")
    wide = write(tmp_path, "wide.ps",
                 JETS_K0.format("1, 1/2", "(30*10^307 + 30*10^307*i)"))
    for argv, names in [
            (["bb-solve", lin, "--oracle", "nan"], "--oracle nan"),
            (["bb-solve", lin, "--oracle", "inf"], "--oracle inf"),
            (["bb-solve", big, "--oracle", "0.01"], "f1"),
            (["prolong", jets], "sample ('1', '1/2')"),
            (["prolong", wide], "sample ('1', '1/2')")]:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err and names in captured.err
    # without the oracle the exact solution prints as before
    code, rep = run_json(capsys, ["bb-solve", big])
    assert code == 0
    assert rep["solution"]["coefficients"][0]["vector"] == ["5" + "0" * 599]


def test_examples_json_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["examples", "--json", "--out", str(out1)]) == 0
    assert main(["examples", "--json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["all_ok"] is True
    assert all(e["ok"] for e in rep["entries"])


def test_examples_table(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


@pytest.mark.parametrize("trunc", ["2", "3"])
def test_examples_below_trunc_4_exit_1(capsys, trunc):
    # below trunc 4 the implicit surface's m and r and the filtration are
    # undetermined: trunc 2 ended in a traceback, trunc 3 in exit 2
    assert main(["examples", "--trunc", trunc]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert "--trunc >= 4" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("trunc", ["4", "5"])
def test_examples_at_trunc_4_and_5_all_ok(capsys, trunc):
    # the filtration probes words up to the surface's ell_max
    code, rep = run_json(capsys, ["examples", "--json", "--trunc", trunc])
    assert code == 0
    assert rep["trunc"] == int(trunc)
    assert rep["all_ok"] is True


def _file_error_case(tmp_path, kind):
    """argv that makes the CLI open an unreadable input or output, and the
    path the error must name."""
    model = write(tmp_path, "m0.hs", MODEL)
    if kind == "missing":
        missing = str(tmp_path / "nope.hs")
        return ["report", missing], missing
    if kind == "missing-map-source":
        mp = write(tmp_path, "id.map",
                   'n = 1\ntrunc = 8\nsource = gone.hs\ntarget = m0.hs\n'
                   'F1 = "z1"\nF2 = "w"\n')
        return ["check-map", mp], str(tmp_path / "gone.hs")
    if kind == "directory":
        return ["report", str(tmp_path)], str(tmp_path)
    if kind == "not-utf8":
        path = tmp_path / "latin1.hs"
        path.write_bytes('n = 1\nphi = "s*z1*c1"  # r\xe9el\n'.encode("latin-1"))
        return ["report", str(path)], str(path)
    out = str(tmp_path / "no_such_dir" / "rep.json")   # kind == "out"
    return ["report", model, "--out", out], out


@pytest.mark.parametrize("kind", ["missing", "missing-map-source",
                                  "directory", "not-utf8", "out"])
def test_file_errors_exit_1(tmp_path, capsys, kind):
    argv, path = _file_error_case(tmp_path, kind)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert path in captured.err
    assert "Traceback" not in captured.err


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # nothing imports numpy, the --oracle path included
    import crgeom
    src = os.path.dirname(os.path.dirname(os.path.abspath(crgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    path = write(tmp_path, "lin.bb", 'N = 1\norder = 10\nf1 = "1/2*y1 + t"\n')
    probe = ("import contextlib, io, sys, crgeom.cli\n"
             "print('numpy' in sys.modules)\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = crgeom.cli.main(['bb-solve', {path!r}, "
             "'--oracle', '1e-2'])\n"
             "print(code, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False\n0 False\n"
