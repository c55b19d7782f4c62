"""Per-layer attribution of one traced workload unit.

ordo_perfbench_traced (trace_wrap.cpp) writes one spans.<pid>.tsv file per
process: a `#plan_cache <hits> <lookups>` line, then one span per line:

    id  parent  pid  tid  start_ns  end_ns  name  matrix  wait

Span names are `<layer>.<operation>`; the layer is the ordo module the
wrapped function belongs to (reorder, partition, sparse, perfmodel,
features, engine, spmv, pipeline, core, corpus, obs).

Self time is reported as a share of wall time, so that the layers and the
residual add up to the unit's wall time: at every instant of the measured
window, each thread (of any process) that is inside a span credits the
elapsed time to the layer of its innermost open span, split evenly between
the busy threads. Coordinator spans (`wait` = 1: the pipeline entry points,
which mostly block on their workers) are credited only while no other
thread is busy. Time with no open span anywhere is `unattributed_s`.
"""

import collections
import glob
import os
import statistics

LAYERS = ("corpus", "reorder", "partition", "sparse", "perfmodel", "features",
          "engine", "spmv", "pipeline", "core", "obs")
ORDERINGS = ("rcm", "amd", "nd", "gp", "hp", "gray")
HOST_MATRICES = ("HV15R", "europe_osm", "kron_g500-logn21")

Span = collections.namedtuple(
    "Span", "id parent pid tid start end name matrix wait")


def load_spans(span_dir):
    """Returns (spans, plan-cache hits, plan-cache lookups) over all files."""
    spans, hits, lookups = [], 0, 0
    for path in sorted(glob.glob(os.path.join(span_dir, "spans.*.tsv"))):
        with open(path) as f:
            for line in f:
                fields = line.rstrip("\n").split("\t")
                if fields[0] == "#plan_cache":
                    hits += int(fields[1])
                    lookups += int(fields[2])
                    continue
                spans.append(Span(int(fields[0]), int(fields[1]),
                                  int(fields[2]), int(fields[3]),
                                  int(fields[4]), int(fields[5]), fields[6],
                                  fields[7], fields[8] == "1"))
    return spans, hits, lookups


def layer_of(span):
    return span.name.split(".", 1)[0]


def wall_attribution(spans, start_ns, end_ns):
    """Seconds of [start_ns, end_ns) credited to each layer, plus the
    unattributed residual (see the module docstring)."""
    events = []
    for s in spans:
        if s.end <= start_ns or s.start >= end_ns:
            continue
        # Ends sort before starts at one instant; nested spans of one thread
        # open in id order and close in reverse id order.
        events.append((max(s.start, start_ns), 1, s.id, s))
        events.append((min(s.end, end_ns), 0, -s.id, s))
    events.sort(key=lambda e: e[:3])
    share = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    open_by_thread = collections.defaultdict(list)

    def credit(dt):
        nonlocal unattributed
        innermost = [stack[-1] for stack in open_by_thread.values() if stack]
        busy = [s for s in innermost if not s.wait] or innermost
        if not busy:
            unattributed += dt
            return
        for s in busy:
            layer = layer_of(s)
            share[layer] = share.get(layer, 0.0) + dt / len(busy)

    now = start_ns
    for t, kind, _, s in events:
        if t > now:
            credit((t - now) * 1e-9)
            now = t
        stack = open_by_thread[(s.pid, s.tid)]
        if kind == 1:
            stack.append(s)
        else:
            stack.remove(s)
    if end_ns > now:
        credit((end_ns - now) * 1e-9)
    return share, unattributed


def total_seconds(spans, predicate, start_ns=None, end_ns=None):
    """Summed duration (thread-seconds) of the matching spans, counting a
    span nested in a matching span of the same thread only once."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if not predicate(s):
            continue
        if start_ns is not None and (s.end <= start_ns or s.start >= end_ns):
            continue
        parent = by_id.get(s.parent)
        nested = False
        while parent is not None and parent.tid == s.tid:
            if predicate(parent):
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            total += (s.end - s.start) * 1e-9
    return total


def quantile(values, q):
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer_names():
    """Every per-layer metric a --trace 1 run reports, on every workload
    (0 where the layer is not on the workload's path)."""
    names = ["reorder.%s_s" % o for o in ORDERINGS]
    names += ["partition_s", "sparse.apply_ordering_s", "perfmodel.profile_s",
              "perfmodel.estimate_s", "features_s", "engine.prepare_plan_s",
              "engine.plan_cache.hit_ratio", "pipeline.task_busy_s",
              "pipeline.max_task_s", "pipeline.idle_s", "pipeline.task_p50_s",
              "pipeline.task_p75_s", "pipeline.parallel_efficiency",
              "journal.append_s", "results.write_s", "obs.finalize_s",
              "obs.artifact_bytes", "spmv.csr_1d_gflops", "spmv.csr_2d_gflops",
              "spmv.gflops_geomean", "spmv.serial_gflops",
              "spmv.computed_gbps", "spmv.bw_fraction"]
    for matrix in HOST_MATRICES:
        names += ["perfmodel.host_rel_error_p50." + matrix,
                  "perfmodel.host_rank_agreement." + matrix]
    names += ["self.%s_s" % layer for layer in LAYERS]
    return names + ["unattributed_s", "trace_overhead_s"]


def expected_spans(workload):
    """Span names each workload must produce; a missing one means the
    wrapper for that layer did not link."""
    if workload == "host_spmv":
        return ("corpus.generate_named", "reorder.rcm", "reorder.gray",
                "sparse.apply_ordering", "engine.prepare_plan", "spmv.execute",
                "spmv.serial", "perfmodel.profile", "perfmodel.estimate",
                "obs.measure_membw", "obs.finalize")
    return ("corpus.generate_corpus", "pipeline.run_sharded_study",
            "pipeline.run_study_pipeline", "core.run_matrix_study",
            "pipeline.journal_append", "core.write_results_file",
            "sparse.apply_ordering", "partition.partition_graph",
            "partition.bisect_graph", "partition.partition_hypergraph",
            "perfmodel.profile", "perfmodel.estimate", "features.bandwidth",
            "features.profile", "features.off_diagonal", "engine.prepare_plan",
            "obs.finalize") + tuple("reorder." + o for o in ORDERINGS)


def span_metrics(spans, hits, lookups, facts):
    """Per-layer metrics of one traced unit from its spans and facts."""
    w0, w1 = facts["window_start_ns"], facts["window_end_ns"]
    wall = (w1 - w0) * 1e-9
    m = {}
    for kind in ORDERINGS:
        m["reorder.%s_s" % kind] = total_seconds(
            spans, lambda s, k=kind: s.name == "reorder." + k)
    for name, prefix in (("partition_s", "partition."),
                         ("features_s", "features.")):
        m[name] = total_seconds(spans, lambda s, p=prefix: s.name.startswith(p))
    for name, span_name in (("sparse.apply_ordering_s", "sparse.apply_ordering"),
                            ("perfmodel.profile_s", "perfmodel.profile"),
                            ("perfmodel.estimate_s", "perfmodel.estimate"),
                            ("engine.prepare_plan_s", "engine.prepare_plan"),
                            ("journal.append_s", "pipeline.journal_append"),
                            ("results.write_s", "core.write_results_file")):
        m[name] = total_seconds(spans, lambda s, n=span_name: s.name == n)
    m["obs.finalize_s"] = total_seconds(
        spans, lambda s: s.name == "obs.finalize", w0, w1)
    m["engine.plan_cache.hit_ratio"] = hits / lookups if lookups else 0.0

    tasks = [(s.end - s.start) * 1e-9 for s in spans
             if s.name == "core.run_matrix_study"]
    workers = facts.get("workers", 0)
    busy = sum(tasks)
    m["pipeline.task_busy_s"] = busy
    m["pipeline.max_task_s"] = max(tasks, default=0.0)
    m["pipeline.task_p50_s"] = quantile(tasks, 0.50)
    m["pipeline.task_p75_s"] = quantile(tasks, 0.75)
    m["pipeline.idle_s"] = wall * workers - busy if workers else 0.0
    m["pipeline.parallel_efficiency"] = (
        busy / (wall * workers) if workers else 0.0)

    share, unattributed = wall_attribution(spans, w0, w1)
    for layer in LAYERS:
        m["self.%s_s" % layer] = share.get(layer, 0.0)
    m["unattributed_s"] = unattributed
    notes = {"tasks": len(tasks), "plan_cache": (hits, lookups)}
    return m, notes


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return statistics.geometric_mean(values)


def host_metrics(facts):
    """spmv and model-vs-host metrics of one calibrated host_spmv unit."""
    sizes = {mat["name"]: mat for mat in facts["matrices"]}
    cells = facts["cells"]
    m = {}

    def gflops(cell, seconds):
        return 2.0 * sizes[cell["matrix"]]["nnz"] / seconds / 1e9

    for kernel in ("csr_1d", "csr_2d"):
        m["spmv.%s_gflops" % kernel] = geomean(
            gflops(c, c["seconds"]) for c in cells if c["kernel"] == kernel)
    m["spmv.gflops_geomean"] = geomean(gflops(c, c["seconds"]) for c in cells)
    m["spmv.serial_gflops"] = geomean(
        gflops(c, c["serial_seconds"]) for c in cells
        if c["kernel"] == "csr_1d")

    def bytes_per_call(cell):
        # CSR arrays (8-byte values, 4-byte column indices, 8-byte row
        # pointers) plus x read once and y written once: computed from the
        # array sizes, not counted by hardware.
        mat = sizes[cell["matrix"]]
        return mat["csr_bytes"] + 16.0 * mat["rows"]

    m["spmv.computed_gbps"] = geomean(
        bytes_per_call(c) / c["seconds"] / 1e9 for c in cells)
    membw = facts.get("membw_gbps", 0.0)
    m["spmv.bw_fraction"] = m["spmv.computed_gbps"] / membw if membw else 0.0

    for name in sizes:
        own = [c for c in cells if c["matrix"] == name]
        errors = [abs(c["predicted_seconds"] - c["seconds"]) / c["seconds"]
                  for c in own]
        m["perfmodel.host_rel_error_p50." + name] = statistics.median(errors)
        pairs = agree = 0
        for i in range(len(own)):
            for j in range(i + 1, len(own)):
                pairs += 1
                model_order = own[i]["predicted_seconds"] - own[j]["predicted_seconds"]
                host_order = own[i]["seconds"] - own[j]["seconds"]
                agree += (model_order > 0) == (host_order > 0)
        m["perfmodel.host_rank_agreement." + name] = agree / pairs if pairs else 0.0
    return m
