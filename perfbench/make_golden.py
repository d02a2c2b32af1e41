"""Record the golden stdout digests of the benchmark's jobs.

    python3 perfbench/make_golden.py --seeds 0-31

For every workload and seed: generate the inputs, run the job list once,
require exit code 0 and the independent checks to pass, and store the
SHA-256 of each job's stdout in ``perfbench/golden.json``.  Those digests
are the byte-identity oracle ``run.py`` checks outputs against, so
regenerate them only when an output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import checks
import gen
import run


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="inclusive range such as 0-31")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    cli = run.import_program()
    golden = {}
    for workload in run.WORKLOADS:
        golden[workload] = {}
        for seed in args.seeds:
            work = os.path.join(run.ROOT, ".bench_work", f"{workload}-{seed}")
            manifest = gen.generate(workload, seed, work)
            results = run.run_pass(cli, [[a if i == 0 else os.path.join(work, a)
                                          for i, a in enumerate(job["argv"])]
                                         for job in manifest["jobs"]])
            for job, (_, code, out, err) in zip(manifest["jobs"], results):
                probs = checks.check_output(code, out, job["check"])
                if probs:
                    print(f"{workload} seed {seed} {job['argv']}: {probs} {err}",
                          file=sys.stderr)
                    return 1
            golden[workload][str(seed)] = [checks.digest(r[2]) for r in results]
            print(f"{workload} seed {seed}: {len(results)} digests", flush=True)
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
