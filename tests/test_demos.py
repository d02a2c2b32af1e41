"""Smoke tests: each demo runs to completion and prints its key values."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")

EXPECTED = {
    "invariants_walkthrough.py": [
        "  h   = s - 3*z1^2*c1^2*s\n",
        "  h0  = 1 - 3*z1^2*c1^2\n",
        "  h0(0) = 1\n",
        "  kernel ranks: [0, 1, 2]  ell = 2  nondegenerate = True\n",
    ],
    "map_verification.py": [
        "map (z, w^2) at truncation 8\n",
        "  xi  = 2  smooth: True\n",
        "  identity gamma-s    zero: True\n",
    ],
    "singular_ode_and_prolongation.py": [
        "  resonances: [(1, 1)]  family dim: 1\n",
        "  solution coefficients: {(1, 0): ['-1']}\n",
        "jet space n=1, k=3: 60 variables, 57 contact equations, "
        "3 closure slots\n",
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    out = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in out
    assert "False" not in out
