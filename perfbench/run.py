"""The crgeom benchmark: seeded CLI workloads, end-to-end timings, and a
separate outside-in traced run per layer.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each job is one in-process call of ``crgeom.cli.main(argv)`` on input
files the generator (``gen.py``, run as a child process) wrote from the
seed.  One client runs one job at a time, closed loop, in this process
with no extra threads.

Set-up (import, input generation, loading the golden digests and one
untimed warm-up pass) is repeated three times and its median reported.
Then passes over the workload's fixed job list run until ``--seconds``
have elapsed.  Outputs are checked afterwards, outside the timed region:
every job's stdout must equal the warm-up pass's, match the golden
digest when the seed has one (``golden.json``) and pass the independent
checks in ``checks.py``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:
``setup_s``, ``wall_s`` (median pass) and ``peak_rss_mb``.  The table
above the result line also prints ``job_p50_s`` (median job), too
unsteady on a shared host to bound, and ``fail_frac``, which travels in
the result as ``failed``/``attempted``.  ``--trace 1`` spends the first half of the
time on untraced passes and the second on traced ones (``tracer.py``),
prints the per-layer metrics with the tracing overhead, and writes every
span to ``.bench_out/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from statistics import median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("invariants", "maps", "odes")
SETUP_REPEATS = 3


def metric_units():
    """{name: unit} of the end-to-end and of the per-layer metrics, as
    BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [{m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")]


def import_program():
    """Import ``crgeom.cli`` afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "crgeom" or m.startswith("crgeom.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("crgeom.cli")


def generate(workload: str, seed: int, work: str) -> dict:
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", work], check=True, timeout=150)
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_golden(workload: str, seed: int):
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_job(cli, argv):
    """One CLI call: (seconds, exit code or None if it raised, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def run_pass(cli, jobs, before_job=None):
    results = []
    for argv in jobs:
        if before_job is not None:
            before_job()
        results.append(run_job(cli, argv))
    return results


def timed_passes(cli, jobs, seconds: float, before_job=None, after_pass=None):
    passes, walls = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, jobs, before_job))
        walls.append(time.perf_counter() - t0)
        if after_pass is not None:
            after_pass()
    return passes, walls


def verdicts(manifest, golden, reference, passes):
    """Per job of the job list: the problems of its warm-up output, and
    per timed result whether it failed."""
    problems = []
    for j, (job, (_, code, out, err)) in enumerate(zip(manifest["jobs"],
                                                     reference)):
        probs = checks.check_output(code, out, job["check"])
        if code != 0 and err.strip():
            probs.append(err.strip().splitlines()[-1])
        if golden is not None and checks.digest(out) != golden[j]:
            probs.append("stdout differs from the golden output")
        problems.append(probs)
    failed = 0
    for results in passes:
        for j, (_, code, out, _) in enumerate(results):
            if problems[j] or code != 0 or out != reference[j][2]:
                failed += 1
    return problems, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="crgeom benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "crgeom", "cli.py")):
        print(f"no crgeom sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    e2e_units, layer_units = metric_units()
    if list(layer_units) != list(tracing.MOVES):
        print("the per-layer metrics of BENCHMARK.json and tracer.MOVES differ",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = import_program()
        manifest = generate(args.workload, args.seed, work)
        golden = load_golden(args.workload, args.seed)
        jobs = [[a if i == 0 else os.path.join(work, a)
                 for i, a in enumerate(job["argv"])] for job in manifest["jobs"]]
        reference = run_pass(cli, jobs)
        setups.append(time.perf_counter() - t0)

    if args.trace:
        passes, walls = timed_passes(cli, jobs, args.seconds / 2)
        peak = None
        metrics, traced = traced_metrics(cli, jobs, args, walls, reference,
                                         layer_units)
        passes += traced
    else:
        passes, walls = timed_passes(cli, jobs, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, failed = verdicts(manifest, golden, reference, passes)
    attempted = sum(len(p) for p in passes)

    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per "
          f"pass, {len(passes)} timed passes, one client, closed loop")
    for j, probs in enumerate(problems):
        for p in probs:
            print(f"  FAIL job {j} ({' '.join(manifest['jobs'][j]['argv'])}): {p}")
    print(f"  checks: {'golden digests and ' if golden else 'no golden digests for this seed; '}"
          f"independent checks, {sum(1 for p in problems if not p)}/{len(problems)} jobs pass")
    if not args.trace:
        # Each job's median over the passes, then the median over the job
        # list: the jobs' times cluster, so the median of all timings
        # pooled would fall in a gap between clusters and jump with noise.
        job_times = [median(p[j][0] for p in passes) for j in range(len(jobs))]
        table = {"setup_s": median(setups), "wall_s": median(walls),
                 "job_p50_s": median(job_times), "peak_rss_mb": peak}
        metrics = {k: {"value": table[k], "unit": u} for k, u in e2e_units.items()}
        print(f"  {'setup_s':<12}{table['setup_s']:12.4f} s      median of {len(setups)} set-ups")
        print(f"  {'wall_s':<12}{table['wall_s']:12.4f} s      median of {len(walls)} passes")
        print(f"  {'job_p50_s':<12}{table['job_p50_s']:12.4f} s      median of {len(job_times)} jobs' medians over {len(walls)} passes")
        print(f"  {'fail_frac':<12}{failed / attempted:12.4f} ratio  {failed}/{attempted} jobs")
        print(f"  {'peak_rss_mb':<12}{peak:12.1f} MB")
    else:
        for name, m in metrics.items():
            e2e, on = tracing.MOVES[name]
            print(f"  {name:<42}{m['value']:>14.6g} {m['unit']:<6} "
                  f"moves {e2e} on {on}")
    result = {"correct": failed == 0 and not any(problems),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def traced_metrics(cli, jobs, args, untraced_walls, reference, units):
    """Traced passes for the second half of the time: the per-layer
    metrics named in ``units`` and the traced passes' results."""
    tracer = tracing.Tracer()
    job_ids = itertools.count()

    def before_job():
        tracer.job = next(job_ids)

    def snapshot():
        counts.append(({k: c[0] for k, c in tracer.scalar_calls.items()},
                       tracer.term_pairs[0]))

    counts = []
    tracer.install()
    try:
        snapshot()
        passes, walls = timed_passes(cli, jobs, args.seconds / 2, before_job,
                                     snapshot)
    finally:
        tracer.uninstall()
    n = len(jobs)
    per_pass = tracer.per_pass(n, len(passes))
    per_pass_counts = [({k: b[0][k] - a[0][k] for k in b[0]}, b[1] - a[1])
                       for a, b in zip(counts, counts[1:])]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"),
                 [list(range(k * n, (k + 1) * n)) for k in range(len(passes))])
    scalar_counts = {k: median_low(c[0][k] for c in per_pass_counts)
                     for k in per_pass_counts[0][0]}
    counters = {"series.mul_term_pairs": median_low(c[1] for c in per_pass_counts),
                "series.max_terms": tracer.max_terms[0],
                "linalg.max_matrix_dim": tracer.max_dim[0]}
    bits = max((checks.max_coeff_bits(r[2]) for r in reference if r[1] == 0),
               default=0)
    metrics = tracing.layer_metrics(units, per_pass, scalar_counts, counters, bits,
                                    median(walls), median(untraced_walls))
    return metrics, passes


if __name__ == "__main__":
    sys.exit(main())
