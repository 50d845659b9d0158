#!/usr/bin/env python3
"""Build and run the geochoice benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a geochoice checkout. The first run configures and
builds perfbench/ (which builds the library from the checkout's sources)
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only rebuild what changed. The measuring program's output is passed
through; its last line is the result object. This script checks that
object against BENCHMARK.json and exits nonzero, without a result line,
when it does not match.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no geochoice sources under {ROOT}; run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "geochoice_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the program's own.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "geochoice_perfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def check_result(line, spec, trace):
    """Returns a reason the result line breaks the contract, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys are not " + ", ".join(sorted(RESULT_KEYS))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units):
        return ("metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(units) - set(got))}, extra "
                f"{sorted(set(got) - set(units))}")
    for name, m in got.items():
        if m.get("unit") != units[name] or not isinstance(
                m.get("value"), (int, float)):
            return f"metric {name} is malformed: {m}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check trips on an "
                             "injected wrong result")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        fail(f"measuring program exited {proc.returncode} without a result",
             proc.returncode or 3)
    why = check_result(lines[-1], spec, args.trace == 1)
    if why:
        fail(why, 3)
    print(lines[-1])
    return proc.returncode  # 1 when an output check failed


if __name__ == "__main__":
    sys.exit(main())
