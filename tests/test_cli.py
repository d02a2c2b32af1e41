import json

from crgeom.cli import main

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


def test_report_levi_flat_m_infinity(tmp_path, capsys):
    path = write(tmp_path, "flat.hs", FLAT)
    code, rep = run_json(capsys, ["report", path])
    assert code == 0
    assert rep["invariants"]["m"] == "infinity"


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


def test_check_map_levi_flat_exit_2(tmp_path, capsys):
    src = write(tmp_path, "flat.hs", FLAT)
    tgt = write(tmp_path, "m0.hs", MODEL)
    mp = write(tmp_path, "id.map",
               'n = 1\ntrunc = 8\nsource = flat.hs\ntarget = m0.hs\n'
               'F1 = "z1"\nF2 = "w"\n')
    assert main(["check-map", mp]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_validation_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "bad.hs", 'n = 1\ntrunc = 8\nphi = "s*z1"\n')
    assert main(["report", path]) == 1
    assert "validation error" in capsys.readouterr().err


def test_parse_error_exit_3(tmp_path, capsys):
    path = write(tmp_path, "garbage.hs", "this is not key = value = pairs\n")
    assert main(["report", path]) == 3
    assert "parse error" in capsys.readouterr().err
    path2 = write(tmp_path, "badexpr.hs", 'n = 1\ntrunc = 8\nphi = "s*%"\n')
    assert main(["report", path2]) == 3


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


def test_prolong_toy(tmp_path, capsys):
    path = write(tmp_path, "toy.pr",
                 'n = 0\nk = 0\norder = 8\ntrunc = 10\n'
                 'u1__0 = "2*u1__0 + s"\n')
    code, rep = run_json(capsys, ["prolong", path])
    assert code == 0
    sample = rep["samples"][0]
    assert sample["coefficients"] == [{"k": 1, "r": 0, "vector": ["-1"]}]


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
