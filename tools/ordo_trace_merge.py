#!/usr/bin/env python3
"""ordo_trace_merge: validate ordo's Chrome trace files.

A sharded run (run_study --shards N with ORDO_TRACE set) leaves one trace
file per process. Each worker writes `<path>.shard<k>`, a complete trace
labelled "shard k" that opens on its own. The parent's export at `<path>`
(obs::write_chrome_trace, src/obs/trace.hpp) appends every worker file's
events after its own spans, with one `process_name` / `process_sort_index`
metadata pair per real pid, so chrome://tracing (or Perfetto) shows each
process as a named row. A crashed parent's leftovers need no stitch: open
each `.shard<k>` file on its own.

This tool is the stdlib-only validator CI runs on both kinds of file: every
span is well-typed and every span-emitting pid has a process_name row.

Usage:
  ordo_trace_merge.py --check trace.json --expect-processes 3
  ordo_trace_merge.py --check trace.json.shard0 --expect-processes 1
  ordo_trace_merge.py --self-test

Stdlib only; exit status: 0 ok, 1 validation failure.
"""

import argparse
import json
import sys

METADATA_PHASE = "M"


def check(path, expect_processes):
    """Returns a list of problems with a trace file (empty = valid)."""
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"cannot parse {path}: {e}"]
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        return [f"{path}: traceEvents missing or not a list"]

    named_pids = {}
    span_pids = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"traceEvents[{i}] is not an object")
            continue
        phase = event.get("ph")
        if phase == METADATA_PHASE:
            if event.get("name") == "process_name":
                name = (event.get("args") or {}).get("name")
                if not isinstance(name, str) or not name:
                    errors.append(f"traceEvents[{i}]: process_name row "
                                  f"without args.name")
                else:
                    named_pids[event.get("pid")] = name
            continue
        if phase != "X":
            continue  # future phases are legal Chrome trace content
        for key, kind in (("name", str), ("ts", (int, float)),
                          ("dur", (int, float)), ("pid", int),
                          ("tid", int)):
            if not isinstance(event.get(key), kind):
                errors.append(
                    f"traceEvents[{i}]: span {key} missing or mistyped")
        if isinstance(event.get("pid"), int):
            span_pids.add(event["pid"])

    unnamed = span_pids - set(named_pids)
    if unnamed:
        errors.append(f"spans from pids {sorted(unnamed)} have no "
                      f"process_name metadata row")
    if expect_processes is not None and len(named_pids) != expect_processes:
        errors.append(f"expected {expect_processes} named processes, "
                      f"found {len(named_pids)}: {sorted(named_pids)}")
    if not errors:
        rows = ", ".join(f"{named_pids[pid]} (pid {pid})"
                         for pid in sorted(named_pids))
        print(f"ordo_trace_merge --check: {path} valid — "
              f"{len(span_pids)} span-emitting processes, rows: {rows}")
    return errors


def process_rows(pid, label, sort_index):
    return [
        {"name": "process_name", "ph": METADATA_PHASE, "pid": pid,
         "args": {"name": label}},
        {"name": "process_sort_index", "ph": METADATA_PHASE, "pid": pid,
         "args": {"sort_index": sort_index}},
    ]


def span(name, pid, ts=100):
    return {"name": name, "cat": "ordo", "ph": "X", "ts": ts, "dur": 50,
            "pid": pid, "tid": 1, "args": {"depth": 0}}


def self_test():
    """Runs check() on good and bad fixture documents in a temp dir."""
    import os
    import tempfile

    processes = ((1000, "parent"), (1001, "shard 0"), (1002, "shard 1"))
    merged = []
    for k, (pid, label) in enumerate(processes):
        merged += process_rows(pid, label, k)
        # A control byte in a span name: ordo writes it as \u0001.
        merged.append(span(f"study/matrix/m\u0001{k}", pid, ts=100 * k))
    shard = [process_rows(1001, "shard 0", 0)[0], span("study/task", 1001)]
    # (document or raw text, --expect-processes, should pass)
    fixtures = {
        "merged": ({"traceEvents": merged}, 3, True),
        "shard": ({"pid": 1001, "process_label": "shard 0",
                   "traceEvents": shard}, 1, True),
        "wrong_count": ({"traceEvents": merged}, 2, False),
        "unnamed_pid": ({"traceEvents": merged + [span("x", 7)]}, None,
                        False),
        "mistyped_span": ({"traceEvents": merged + [
            dict(span("x", 1000), ts="100")]}, None, False),
        "no_events": ({"displayTimeUnit": "ms"}, None, False),
        "torn": ('{"traceEvents": [{"name": "a\\u0001', None, False),
        # An unescaped control byte is not JSON; strict readers refuse it.
        "raw_control": ('{"traceEvents": [{"name": "a\x01", "ph": "M"}]}',
                        None, False),
    }
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (doc, expect, should_pass) in fixtures.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(doc if isinstance(doc, str) else json.dumps(doc))
            if name == "merged":
                with open(path, encoding="utf-8") as f:
                    if "\\u0001" not in f.read():
                        errors.append("self-test: fixture lost its \\u0001 "
                                      "escape")
            problems = check(path, expect)
            if should_pass and problems:
                errors.append(f"self-test: {name} rejected: {problems}")
            if not should_pass and not problems:
                errors.append(f"self-test: {name} accepted")
    for error in errors:
        print(f"ordo_trace_merge --self-test FAILED: {error}")
    if not errors:
        print("ordo_trace_merge --self-test: PASS")
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="validate a trace file")
    parser.add_argument("--expect-processes", type=int,
                        help="with --check: require exactly N named "
                             "process rows")
    parser.add_argument("--self-test", action="store_true",
                        help="check good and bad fixture traces in a temp "
                             "dir (CI smoke)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.check:
        parser.error("nothing to do: use --check FILE or --self-test")
    errors = check(args.check, args.expect_processes)
    for error in errors:
        print(f"ordo_trace_merge --check FAILED: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
