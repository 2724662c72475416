#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, path dependencies on `crates/`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and checks that its result line names
exactly the metrics `BENCHMARK.json` declares for the pass (`end_to_end`
for `--trace 0`, `per_layer` for `--trace 1`), each with its unit. The
result line is the last line of standard output; nothing is printed as a
result when the build, a check, or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end well inside 180 s; the first run also builds.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else None
    if trace not in ("0", "1"):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ directory is missing: nothing to benchmark")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench")] + args,
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if run.returncode != 0:
        fail(f"run failed (exit {run.returncode}): {lines[-1]}")
    result = json.loads(lines[-1])
    want = declared(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {units}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
