"""Byte-identity gate: the CLI's stdout on seed 0 of each benchmark
workload must match the SHA-256 digests recorded in perfbench/golden.json.

The inputs come from the benchmark's own generator (perfbench/gen.py,
run as a child process); nothing under perfbench/ is written.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from crgeom.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 0


@pytest.mark.parametrize("workload", ["invariants", "maps", "odes"])
def test_golden_stdout(workload, tmp_path):
    subprocess.run([sys.executable, os.path.join(PERFBENCH, "gen.py"),
                    "--workload", workload, "--seed", str(SEED),
                    "--out", str(tmp_path)], check=True, timeout=300,
                   env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[workload][str(SEED)]
    assert len(jobs) == len(golden)
    for job, want in zip(jobs, golden):
        argv = [a if i == 0 else str(tmp_path / a)
                for i, a in enumerate(job["argv"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, argv
        got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert got == want, f"stdout of {' '.join(job['argv'])} changed"
