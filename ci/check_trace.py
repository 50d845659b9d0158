#!/usr/bin/env python3
"""Schema check for Chrome trace-event JSON written by --trace-out.

CI runs one simulated and one UDP scenario with --trace-out and feeds the
files through this script, so "both transports emit loadable Perfetto /
chrome://tracing input" is a gate, not a hope. The check is structural —
it validates what the viewers actually require to load a file — plus the
repo's own conventions (instant events in the "net" cat with node-id tids),
so a formatting slip in obs/trace.cpp's hand-rolled printer fails the build
before it corrupts anyone's trace.

Usage: check_trace.py TRACE_JSON [MIN_EVENTS [NAME ...]]
  MIN_EVENTS (default 1): fail if fewer events were recorded — the smoke
  scenarios know roughly how many messages they generate, so an empty or
  truncated trace is caught even though it parses.
  NAME ...: event names ("<message> <phase>", e.g. "place scheduled") that
  must each appear at least once. CI passes the same list for the
  simulated and the UDP trace, so both transports are held to one
  lifecycle vocabulary.

Exit 0 when valid; nonzero with a per-violation message otherwise.
"""
import json
import numbers
import sys

# Phases the trace-event spec defines and the repo could plausibly emit.
# obs/trace.cpp only writes instants ("i") today; a new phase letter is a
# one-line addition here, an unknown one is a typo.
ALLOWED_PH = {"i", "B", "E", "X", "C", "M"}


def fail(msg):
    print(f"check_trace: FAIL: {msg}")
    return 1


def check_event(i, ev):
    """Return a list of violations for one trace event."""
    errs = []
    if not isinstance(ev, dict):
        return [f"event[{i}] is not an object: {ev!r}"]
    name = ev.get("name")
    if not isinstance(name, str) or not name:
        errs.append(f"event[{i}] needs a nonempty string 'name': {ev!r}")
    ph = ev.get("ph")
    if ph not in ALLOWED_PH:
        errs.append(f"event[{i}] has unknown phase {ph!r} "
                    f"(allowed: {sorted(ALLOWED_PH)})")
    ts = ev.get("ts")
    if not isinstance(ts, numbers.Real) or isinstance(ts, bool) or ts < 0:
        errs.append(f"event[{i}] needs a non-negative numeric 'ts': {ts!r}")
    for key in ("pid", "tid"):
        v = ev.get(key)
        if not isinstance(v, int) or isinstance(v, bool):
            errs.append(f"event[{i}] needs an integer '{key}': {v!r}")
    if "args" in ev and not isinstance(ev["args"], dict):
        errs.append(f"event[{i}] 'args' must be an object: {ev['args']!r}")
    return errs


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    path = argv[1]
    min_events = int(argv[2]) if len(argv) >= 3 else 1
    required = argv[3:]
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: not loadable JSON: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level must be an object, got "
                    f"{type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail(f"{path}: missing 'traceEvents' array")
    if len(events) < min_events:
        return fail(f"{path}: only {len(events)} event(s), expected at "
                    f"least {min_events}")

    errs = []
    for i, ev in enumerate(events):
        errs.extend(check_event(i, ev))
        if len(errs) >= 20:
            errs.append("... (truncated)")
            break
    if errs:
        for e in errs:
            print(f"check_trace: FAIL: {path}: {e}")
        return 1

    dropped = doc.get("geochoiceDroppedRecords", 0)
    names = {ev["name"] for ev in events}
    missing = [n for n in required if n not in names]
    if missing:
        return fail(f"{path}: no event named {', '.join(map(repr, missing))}"
                    f" (present: {', '.join(sorted(names))})")
    print(f"check_trace: ok: {path}: {len(events)} events, "
          f"{len(names)} distinct names, {dropped} dropped records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
