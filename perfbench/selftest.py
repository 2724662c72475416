#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the repository).

    python3 perfbench/selftest.py

Run from the repository root. For every workload it runs a one-second
untraced pass and asserts that the result is correct and names every
`end_to_end` metric of BENCHMARK.json with its unit (run.py refuses a
result that does not). It runs one short traced pass and asserts the same
for every `per_layer` metric. Then it reruns each workload with
`--corrupt-reference`, which perturbs every expected output digest, and
asserts that the run fails without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def result(p):
    last = p.stdout.strip().split("\n")[-1] if p.stdout.strip() else ""
    try:
        return json.loads(last)
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    # Every workload the command accepts, gated in BENCHMARK.json or not.
    for w in ("paper-batch", "fleet-openloop", "wire-sessions", "sim-sweep"):
        p = run("--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0")
        r = result(p)
        expect(p.returncode == 0 and r is not None and r["correct"], f"{w}: untraced pass is correct")
        if r is not None:
            want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == want, f"{w}: every end_to_end metric printed with its unit")
        p = run("--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0",
                "--corrupt-reference")
        expect(p.returncode != 0 and result(p) is None,
               f"{w}: a wrong expected digest fails the run")

    p = run("--workload", "paper-batch", "--seed", "7", "--seconds", "2", "--trace", "1")
    r = result(p)
    expect(p.returncode == 0 and r is not None and r["correct"], "traced pass is correct")
    if r is not None:
        want = {m["name"]: m["unit"] for m in bench["per_layer"]}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        expect(got == want, "traced pass: every per_layer metric printed with its unit")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
