#!/usr/bin/env python3
"""The ordo benchmark: one command that builds, runs, checks and reports.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

Workloads (see perfbench/README.md for why each exists):
  sweep_mixed  fresh 40-matrix study sweep, scale 0.3, jobs 4, telemetry off
  sweep_fleet  the same sweep as 2 shards x 2 jobs with every telemetry
               surface on (trace, metrics, heartbeat, fleet, watchdog)
  host_spmv    engine::spmv on three large stand-ins x {Original, RCM,
               Gray} x {csr_1d, csr_2d} at 2 threads

Each measured unit is a fresh ordo_perfbench process; the run repeats units
until --seconds is used up (at least MIN_UNITS) and reports medians.
--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced units with units of the link-time traced driver and
prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed correctness check
exits with status 1.

Everything is built and written under .bench_build/ at the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORKLOADS = ("sweep_mixed", "sweep_fleet", "host_spmv")
MIN_UNITS = 3        # untraced units per --trace 0 run
MIN_PAIRS = 2        # (untraced, traced) unit pairs per --trace 1 run
UNIT_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(traced):
    """Configures once and builds incrementally; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    targets = ["ordo_perfbench"] + (["ordo_perfbench_traced"] if traced else [])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", "4", "--target"] + targets)
    with open(log_path, "a") as out:
        for cmd in steps:
            try:
                ok = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode == 0
            except OSError as e:
                out.write("%s\n" % e)
                ok = False
            if not ok:
                out.flush()
                with open(log_path) as f:
                    log("".join(f.readlines()[-30:]))
                log("perfbench: build failed (%s)" % " ".join(cmd))
                sys.exit(1)


def clean_env():
    """The caller's environment without any ordo knob, so a unit sees only
    the telemetry its workload turns on."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ORDO_") and k != "PERFBENCH_SPAN_DIR"}


def run_unit(workload, seed, tiny, traced=False, calibrate=False):
    """Runs one fresh driver process; returns (facts, unit directory)."""
    unit_dir = os.path.join(BUILD, "work", "%s-%d-%d-%d" % (
        workload, seed, os.getpid(), time.monotonic_ns()))
    out_dir = os.path.join(unit_dir, "out")
    os.makedirs(out_dir)
    env = clean_env()
    if workload == "sweep_fleet":
        tel = os.path.join(unit_dir, "telemetry")
        os.makedirs(tel)
        env["ORDO_TRACE"] = os.path.join(tel, "trace.json")
        env["ORDO_METRICS"] = os.path.join(tel, "metrics.json")
        env["ORDO_STATUS_FILE"] = os.path.join(tel, "status.json")
    if traced:
        env["PERFBENCH_SPAN_DIR"] = os.path.join(unit_dir, "spans")
        os.makedirs(env["PERFBENCH_SPAN_DIR"])
    binary = os.path.join(CMAKE_DIR, "ordo_perfbench_traced" if traced
                          else "ordo_perfbench")
    cmd = [binary, workload, "--seed", str(seed), "--out", out_dir]
    cmd += ["--tiny"] if tiny else []
    cmd += ["--calibrate"] if calibrate else []
    # A session of its own, so a timeout can stop forked shard workers too.
    proc = subprocess.Popen(cmd, env=env, cwd=unit_dir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("%s unit timed out" % workload)
    if proc.returncode != 0:
        raise RuntimeError("%s unit exited %d: %s" % (
            workload, proc.returncode, stderr.strip()[-2000:]))
    return json.loads(stdout.strip().splitlines()[-1]), unit_dir


# --- sweep correctness --------------------------------------------------------

def sweep_digest(out_dir):
    """(digest of all result files, {matrix: digest of its rows})."""
    names = sorted(n for n in os.listdir(out_dir)
                   if n.endswith(".txt") and "_threads_ss" in n)
    whole = hashlib.sha256()
    rows = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as f:
            data = f.read()
        whole.update(name.encode() + b"\0" + data)
        for line in data.splitlines()[1:]:
            matrix = b" ".join(line.split(b" ", 2)[:2]).decode()
            rows.setdefault(matrix, hashlib.sha256()).update(
                name.encode() + b"\0" + line)
    return whole.hexdigest(), {k: v.hexdigest() for k, v in rows.items()}, len(names)


def binary_digest():
    h = hashlib.sha256()
    with open(os.path.join(CMAKE_DIR, "ordo_perfbench"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


class DigestStore:
    """Result digests of sweep_mixed per seed, kept across runs of this
    build, so every sweep unit of either workload is compared with it."""

    def __init__(self, seed, tiny):
        self.path = os.path.join(BUILD, "digests", "seed-%d%s.json" % (
            seed, "-tiny" if tiny else ""))
        self.binary = binary_digest()
        self.ref = None
        if os.path.exists(self.path):
            with open(self.path) as f:
                ref = json.load(f)
            if ref.get("binary") == self.binary:
                self.ref = ref

    def set(self, digest, rows):
        self.ref = {"binary": self.binary, "digest": digest, "rows": rows}
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.ref, f)
        os.replace(tmp, self.path)

    def mismatched(self, digest, rows):
        if digest == self.ref["digest"]:
            return 0
        ref_rows = self.ref["rows"]
        return sum(rows.get(m) != h for m, h in ref_rows.items()) + \
            sum(m not in ref_rows for m in rows)


def check_sweep(facts, unit_dir, store, notes):
    """Failed operations (matrices) of one sweep unit. The first sweep_mixed
    unit of a seed sets the reference digest."""
    digest, rows, files = sweep_digest(os.path.join(unit_dir, "out"))
    if store.ref is None:
        store.set(digest, rows)
    matrices = int(facts["matrices"])
    structural_ok = (facts["failures"] == 0 and facts["resumed"] == 0 and
                     facts["computed"] == matrices and facts["tables"] == 16 and
                     files == 16 and facts["min_rows"] == matrices)
    mismatched = store.mismatched(digest, rows)
    notes.setdefault("digests", set()).add(digest)
    failed = int(facts["failures"]) + mismatched
    if not structural_ok:
        failed = max(failed, matrices)
    return failed


# --- metrics -------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def peak_rss(facts):
    # For a sharded run: the parent's peak plus shards x the largest
    # worker's peak, an upper bound on the fleet's summed peak.
    return facts["rss_self_mb"] + facts.get("shards", 0) * facts["rss_child_max_mb"]


E2E = (("setup_s", "s", lambda f: f["setup_s"]),
       ("wall_s", "s", lambda f: f["wall_s"]),
       ("cpu_s", "s", lambda f: f["cpu_s"]),
       ("peak_rss_mb", "MB", peak_rss))

PER_LAYER_UNITS = {"engine.plan_cache.hit_ratio": "ratio",
                   "pipeline.parallel_efficiency": "ratio",
                   "obs.artifact_bytes": "bytes",
                   "spmv.csr_1d_gflops": "GF/s", "spmv.csr_2d_gflops": "GF/s",
                   "spmv.gflops_geomean": "GF/s", "spmv.serial_gflops": "GF/s",
                   "spmv.computed_gbps": "GB/s", "spmv.bw_fraction": "ratio"}


def per_layer_unit(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.startswith(("perfmodel.host_rel_error", "perfmodel.host_rank")):
        return "ratio"
    return "s"


def dir_bytes(path):
    total = 0
    for dirpath, _, names in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test shapes (seconds, not minutes)")
    args = parser.parse_args()

    build(traced=args.trace == 1)
    sweep = args.workload.startswith("sweep")
    store = DigestStore(args.seed, args.tiny) if sweep else None
    notes = {}
    attempted = failed = 0
    untraced, traced = [], []

    def account(facts, unit_dir):
        nonlocal attempted, failed
        if sweep:
            attempted += int(facts["matrices"])
            failed += check_sweep(facts, unit_dir, store, notes)
        else:
            attempted += len(facts["cells"])
            failed += int(facts["mismatched_cells"])
            if not facts["perms_valid"]:
                failed += len(facts["cells"])

    try:
        if args.workload == "sweep_fleet" and store.ref is None:
            # sweep_fleet must reproduce sweep_mixed's bytes; without a
            # reference for this seed, an untimed sweep_mixed unit makes it.
            _, unit_dir = run_unit("sweep_mixed", args.seed, args.tiny)
            store.set(*sweep_digest(os.path.join(unit_dir, "out"))[:2])
            shutil.rmtree(unit_dir, ignore_errors=True)
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            done = len(untraced) if args.trace == 0 else len(traced)
            needed = MIN_UNITS if args.trace == 0 else MIN_PAIRS
            per_round = elapsed / max(1, done)
            if done >= needed and elapsed + per_round > args.seconds:
                break
            if args.trace == 0 or len(untraced) <= len(traced):
                facts, unit_dir = run_unit(args.workload, args.seed, args.tiny)
                untraced.append(facts)
                account(facts, unit_dir)
                shutil.rmtree(unit_dir, ignore_errors=True)
            if args.trace == 1:
                facts, unit_dir = run_unit(
                    args.workload, args.seed, args.tiny, traced=True,
                    calibrate=args.workload == "host_spmv")
                spans, hits, lookups = layers.load_spans(
                    os.path.join(unit_dir, "spans"))
                m, span_notes = layers.span_metrics(spans, hits, lookups, facts)
                names = {s.name for s in spans}
                notes["missing_spans"] = sorted(
                    set(layers.expected_spans(args.workload)) - names)
                notes["span_notes"] = span_notes
                m["obs.artifact_bytes"] = float(dir_bytes(
                    os.path.join(unit_dir, "telemetry")))
                if args.workload == "host_spmv":
                    m.update(layers.host_metrics(facts))
                    notes["host"] = facts
                m["wall_s"] = facts["wall_s"]
                traced.append(m)
                account(facts, unit_dir)
                shutil.rmtree(unit_dir, ignore_errors=True)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        notes["error"] = str(e)

    if not untraced or (args.trace == 1 and not traced):
        log("perfbench: no unit completed")
        sys.exit(1)
    if sweep and len(notes.get("digests", ())) > 1:
        log("perfbench: result digests differ between units")
    correct = failed == 0 and "error" not in notes

    metrics = {}
    print("workload %s, seed %d, %d untraced / %d traced units" % (
        args.workload, args.seed, len(untraced), len(traced)))
    if args.trace == 0:
        for name, unit, get in E2E:
            values = [get(f) for f in untraced]
            q1, q2, q3 = quartiles(values)
            metrics[name] = {"value": q2, "unit": unit}
            print("  %-12s %12.6g %-3s (n=%d, q1 %.6g, q3 %.6g)" % (
                name, q2, unit, len(values), q1, q3))
        if args.workload == "sweep_fleet":
            print("  peak_rss_mb is an upper bound: parent peak + shards x "
                  "largest shard-worker peak")
    else:
        names = sorted({k for m in traced for k in m} - {"wall_s"})
        for name in names:
            metrics[name] = {"value": statistics.median(m.get(name, 0.0)
                                                        for m in traced),
                             "unit": per_layer_unit(name)}
        for name in layers.per_layer_names():
            metrics.setdefault(name, {"value": 0.0, "unit": per_layer_unit(name)})
        metrics["trace_overhead_s"] = {
            "value": statistics.median(m["wall_s"] for m in traced) -
            statistics.median(f["wall_s"] for f in untraced),
            "unit": "s"}
        for name in sorted(metrics):
            print("  %-44s %14.6g %s" % (name, metrics[name]["value"],
                                         metrics[name]["unit"]))
        print_trace_notes(args.workload, notes)
    if not sweep:
        print_host_sizes(untraced[-1])
    if sweep:
        print("  result digest: %s (reference for seed %d: %s)" % (
            ",".join(sorted(notes.get("digests", ()))), args.seed,
            store.ref["digest"]))
    print("  correctness: %d attempted, %d failed%s" % (
        attempted, failed, "" if correct else " -- CHECK FAILED"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


def print_host_sizes(facts):
    print("  host: %d threads, caches %s" % (facts["threads"], ", ".join(
        "%s %g KiB" % (c["level"], c["kib"]) for c in facts["caches"])))
    for mat in facts["matrices"]:
        print("  matrix %-18s rows %9d nnz %9d CSR %.1f MiB" % (
            mat["name"], mat["rows"], mat["nnz"], mat["csr_bytes"] / 2**20))


def print_trace_notes(workload, notes):
    span_notes = notes.get("span_notes", {})
    hits, lookups = span_notes.get("plan_cache", (0, 0))
    print("  engine.plan_cache.hit_ratio base: %d hits / %d lookups" % (
        hits, lookups))
    print("  self.<layer>_s: wall share of each layer's self time; "
          "unattributed_s is the rest of the traced window")
    for name in notes.get("missing_spans", ()):
        print("  DROPPED: no %s spans (its wrapper did not link); the "
              "metrics built on it read 0" % name)
    if workload == "host_spmv":
        print("  measure_membw: %.2f GB/s at 2 threads" %
              notes["host"]["membw_gbps"])
        print("  spmv.computed_gbps is computed from array sizes, not counted")
        print("  perfmodel.host_* are informational: they move no end-to-end "
              "metric")
    else:
        print("  pipeline.task_p50_s/p75_s base: n = %d tasks" %
              span_notes.get("tasks", 0))
        print("  spmv.* and perfmodel.host_* are host_spmv metrics and read 0 "
              "here")


if __name__ == "__main__":
    main()
