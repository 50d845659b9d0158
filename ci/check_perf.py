#!/usr/bin/env python3
"""Perf-regression gate for the CI bench smoke.

Compares speedup metrics in a freshly generated bench JSON (e.g.
BENCH_batch.json) against committed floors in bench/baseline.json and exits
nonzero on any regression below a floor. The floors are deliberately set
well under the reference values measured at development time ("tolerance"),
so cross-machine noise does not flake the gate while a real regression —
say the torus batch path sliding back to ~1.0x — still fails loudly.

Every tripped metric reports its name, measured value, floor, and percent
margin ((value - floor) / floor); --verbose prints the same detail for
passing metrics, so a close call is visible before it becomes a failure.

Usage:
  check_perf.py [--verbose] RESULTS_JSON BASELINE_JSON
  check_perf.py --self-test BASELINE_JSON    # prove the gate can fail: for
        every gated file, check that results at the floors (plus the
        benches' "machine" fingerprint) pass, synthesize results regressed
        below the floors and
        assert both the rejection and the failure-message format (value,
        floor, and an exact -50.0% margin for the injected halving); a
        metric that records its "parent" value (what the algorithm it
        replaced measured) is also fed that value, which must trip too

baseline.json schema:
  {"files": {"<results filename>": {"<metric>": {
      "min": <floor>, "reference": <dev-time value>,
      "parent": <optional: the value the replaced algorithm measured;
                 --self-test asserts the floor rejects it>}}}}
"""
import json
import os
import re
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def margin_pct(value, floor):
    """Percent headroom above the floor (negative = below it)."""
    return (value - floor) / floor * 100.0


def check(results, gates, label, verbose=False):
    """Return a list of failure strings for one results dict."""
    failures = []
    for metric, gate in gates.items():
        value = results.get(metric)
        if value is None:
            failures.append(f"{label}: metric '{metric}' missing from results")
            continue
        floor = gate["min"]
        ref = gate.get("reference")
        margin = margin_pct(value, floor)
        tripped = value < floor
        status = "REGRESSION" if tripped else "ok"
        detail = (f"{label}:{metric} = {value:.3f} (floor {floor:.3f}, "
                  f"margin {margin:+.1f}%, reference {ref})")
        if tripped or verbose:
            print(f"  {status:>10} {detail}")
        else:
            print(f"  {status:>10} {label}:{metric} = {value:.3f} "
                  f"(floor {floor:.3f})")
        if tripped:
            failures.append(f"{label}: {detail}")
    return failures


# What every failure line must look like; --self-test holds check() to it
# so a reformat cannot silently drop the value/floor/margin detail CI logs
# are grepped for.
FAILURE_RE = re.compile(
    r"^\S+: \S+ = -?\d+\.\d{3} \(floor -?\d+\.\d{3}, "
    r"margin [+-]\d+\.\d%, reference .*\)$")


def self_test(baseline):
    """Inject regressions and assert the gate fails with the right words."""
    print("self-test: injecting regressions below every floor")
    total = 0
    for fname, gates in baseline["files"].items():
        # Results sitting exactly on every floor pass, and the "machine"
        # fingerprint the benches write is ignored, not gated.
        at_floor = {metric: gate["min"] for metric, gate in gates.items()}
        at_floor["machine"] = {"cpu_model": "self-test", "nproc": 1}
        if check(at_floor, gates, fname):
            print(f"self-test FAILED: {fname} rejects results at its floors")
            return 1
        fake = {metric: gate["min"] * 0.5 for metric, gate in gates.items()}
        failures = check(fake, gates, fname)
        expected = len(gates)
        if len(failures) != expected:
            print(f"self-test FAILED: {fname} flagged {len(failures)} of "
                  f"{expected} injected regressions")
            return 1
        for line in failures:
            if not FAILURE_RE.match(line):
                print(f"self-test FAILED: malformed failure line: {line!r}")
                return 1
            # Halving the floor is exactly 50% under it; the margin in the
            # message must say so.
            if "margin -50.0%" not in line:
                print("self-test FAILED: expected margin -50.0% in: "
                      f"{line!r}")
                return 1
        total += expected
        # A floor meant to lock in a rewrite must reject what the old
        # algorithm measured.
        for metric, gate in gates.items():
            if "parent" not in gate:
                continue
            old = {metric: gate["parent"]}
            if not check(old, {metric: gate}, fname):
                print(f"self-test FAILED: {fname}:{metric} passes at the "
                      f"parent's {gate['parent']}")
                return 1
            total += 1
    print(f"self-test passed: all {total} injected regressions were caught "
          "and correctly formatted")
    return 0


def main(argv):
    args = [a for a in argv[1:] if a != "--verbose"]
    verbose = len(args) != len(argv) - 1
    if len(args) == 2 and args[0] == "--self-test":
        return self_test(load(args[1]))
    if len(args) != 2:
        print(__doc__)
        return 2
    results_path, baseline_path = args
    results = load(results_path)
    baseline = load(baseline_path)
    fname = os.path.basename(results_path)
    gates = baseline["files"].get(fname)
    if gates is None:
        print(f"no gates for '{fname}' in {baseline_path}")
        return 2
    print(f"perf gate: {results_path} vs {baseline_path}")
    failures = check(results, gates, fname, verbose=verbose)
    if failures:
        print("\nPERF GATE FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
