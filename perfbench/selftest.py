#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks, with one-second runs:
  1. every workload prints every metric BENCHMARK.json names, with its
     unit, in both modes (end-to-end with --trace 0, per-layer with
     --trace 1), and passes its own correctness checks;
  2. a deliberately wrong reference answer is caught: the run reports
     failed studies and a pass_ratio below 1 instead of hiding them;
  3. in a directory that holds only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 0 when all hold; prints each failed expectation otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
SEED = 2020  # The seed data/reference.json was written at.
# Runnable but not in BENCHMARK.json (see README), so checked here too.
EXTRA_WORKLOADS = ["sweep-cold"]


def run(args, cwd=ROOT, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", *args, "--seconds",
           str(seconds)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if p.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return p.returncode, result, p.stderr


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(what)
            print("FAIL", what)

    for wl in [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{wl} --trace {trace}"
            rc, res, err = run(["--workload", wl, "--seed", str(SEED),
                                "--trace", str(trace)])
            expect(rc == 0 and res is not None,
                   f"{tag}: exit {rc}\n{err[-2000:]}")
            if res is None:
                continue
            expect(sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], f"{tag}: result keys")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{tag}: checks failed")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{tag}: metrics {got} != {want}")

        # A wrong reference answer must fail studies, not vanish.
        SCRATCH.mkdir(parents=True, exist_ok=True)
        ref = json.loads((HERE / "data" / "reference.json").read_text())
        ref["scenarios"]["pace-combined"]["best_total_kg"] *= 1.0 + 1e-12
        ref["explain_total_kg"][0] *= 1.0 + 1e-12
        wrong = SCRATCH / "wrong-reference.json"
        wrong.write_text(json.dumps(ref))
        rc, res, err = run(["--workload", wl, "--seed", str(SEED),
                            "--reference", str(wrong)])
        expect(rc == 0 and res is not None
               and not res["correct"] and res["failed"] > 0
               and res["metrics"]["pass_ratio"]["value"] < 1.0,
               f"{wl}: wrong reference answer not reported")

    # Without the program's sources the benchmark must fail cleanly.
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench")
    p = subprocess.run([sys.executable, "perfbench/run.py"], cwd=bare,
                       capture_output=True, text=True, timeout=180)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "bare directory: expected a non-zero exit and no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
