"""The traced run (--trace 1): per-layer metrics and the cost ledger.

One untraced and one traced pass of the workload are paired until the
run's seconds are spent; the traced pass runs every CLI step with
--trace-out, so the program's own phase spans nest under the step.
The layer probe then replays the last traced pass's inputs layer by
layer and times paired bare/captured child runs at 3 threads and at 1
thread.  Each step of that pass gets the probe's layer costs for its
inputs; its unattributed share is 1 - (sum of layer costs / step
wall), or of step CPU for the live monitor, which mostly waits.

Spans (Chrome trace-event JSON) and the per-step ledger are written to
.bench_build/ledger/<workload>-seed<N>.{spans,ledger}.json.
"""

import json
import os
import shutil
import statistics
import subprocess
import time


def _probe(run, args, cwd):
    out = subprocess.run([run.PROBE] + args, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
                         text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError("layer_probe %s failed: %s"
                           % (args[0], out.stderr[-500:]))
    return json.loads(out.stdout)


def _probe_inputs(run, workload, out):
    """layer_probe input specs: the last traced pass's traces."""
    name = workload.name
    if name == "offline-corpus":
        specs = []
        for app, role, s, fault in run.offline_inputs(workload.size,
                                                      workload.seed):
            path = run.trace_name(app, role, s, fault)
            model = os.path.join(out, run.app_model(app))
            if role == "train":
                specs.append("%s||%s" % (path, app))
            else:
                specs.append("%s|%s|" % (path, model))
        return specs
    if name == "capture-churn":
        return [os.path.join(out, "live.trace") + "/|churn.model|",
                "train.trace||churn"]
    return [os.path.join(out, "big.trace") + "|bigheap.model|",
            "train.trace||bigheap"]


def _shape(workload, live_peak):
    """(threads, lists per thread, len) of the workload's heap."""
    name = workload.name
    if name == "offline-corpus":
        lists = max(3, int(live_peak) // 8)
        return lists, 4
    threads, lists, length = workload.size[name.split("-")[1]][:3]
    return threads * lists, length


def _child_env(run, trace_path, rotate):
    env = dict(os.environ)
    env.update({
        "LD_PRELOAD": os.path.join(run.BUILD, "heapmd", "src", "capture",
                                   "libheapmd_capture.so"),
        "HEAPMD_CAPTURE_OUT": trace_path,
        "HEAPMD_CAPTURE_STATS_OUT": trace_path + ".stats",
    })
    if rotate:
        env["HEAPMD_CAPTURE_ROTATE_BYTES"] = str(rotate)
        env["HEAPMD_CAPTURE_COMPRESS"] = "1"
    return env


def _timed_child(argv, cwd, env=None):
    """Run the child; (wall, stdout).  The shell arms the shim's pid."""
    if env is not None:
        # HEAPMD_CAPTURE_PID must be the child's own pid: export it from
        # a shell that then execs the child in place.
        argv = ["/bin/sh", "-c",
                'export HEAPMD_CAPTURE_PID=$$ LD_PRELOAD="$PRELOAD"; '
                'exec "$@"', "sh"] + argv
        env = dict(env)
        env["PRELOAD"] = env.pop("LD_PRELOAD")
    t0 = time.monotonic()
    out = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                         text=True, timeout=170)
    return time.monotonic() - t0, out


def _pairs(run, runner, workload, wd, total_lists, length):
    """Bare vs captured child at 3 threads (followed live) and 1."""
    rounds = workload.size["probe_rounds"]
    work = workload.size[
        "churn" if workload.name != "capture-bigheap" else "bigheap"][4]
    seed = workload.seed
    result = {}
    for threads in (3, 1):
        lists = max(1, total_lists // threads)
        spec = [threads, lists, length, 0, work]
        argv = run.child_argv(spec, rounds * 3 // threads, seed)
        bare_wall, bare = _timed_child(argv, wd)
        os.makedirs(os.path.join(wd, "pairs"), exist_ok=True)
        base = os.path.join(wd, "pairs", "pair%d.trace" % threads)
        before = run.shm_segments()
        follower = None
        if threads == 3:
            rotate = workload.size["rotate"]
            follower = subprocess.Popen(
                [run.PROBE, "follow", base], cwd=wd, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                text=True)
        else:
            rotate = 0
        cap_wall, cap = _timed_child(argv, wd, _child_env(run, base, rotate))
        ops, checksum = run.child_ops(bare.stdout)
        runner.oracle(bare.returncode == 0 and cap.returncode == 0 and
                      run.child_ops(cap.stdout) == (ops, checksum),
                      "probe pair at %d threads: bare %s, captured %s"
                      % (threads, bare.stdout[-80:], cap.stdout[-80:]))
        runner.oracle(not (run.shm_segments() - before),
                      "probe pair left a stats segment behind")
        side = run.sidecar(base + ".stats")
        entry = {"ops": ops, "bare_s": bare_wall, "cap_s": cap_wall,
                 "sidecar": side}
        if follower is not None:
            try:
                out, _ = follower.communicate(timeout=60)
                doc = json.loads(out)
            except (subprocess.TimeoutExpired, ValueError):
                follower.kill()
                follower.wait()
                doc = {"ok": 0}
            runner.oracle(doc.get("ok") == 1 and
                          doc.get("events") == side.get(
                              "capture.events_emitted"),
                          "live follower decoded %s events, sidecar %s"
                          % (doc.get("events"),
                             side.get("capture.events_emitted")))
            # Drain: from the writer closing its manifest (the shim's
            # last act) to the follower returning.
            closed = os.stat(base + ".manifest").st_mtime_ns / 1e9
            entry["follow"] = doc
            entry["drain_s"] = doc.get("end_real_s", closed) - closed
            entry["chain"] = _probe(run, ["chain", base], wd)
        result[threads] = entry
    return result


def _sum(rows, key):
    return sum(r.get(key, 0.0) for r in rows)


def _per_input_layers(row):
    """Layer seconds a replay-like step spends on one input."""
    points = max(0.0, row["sampled_s"] - row["fold_s"])
    layers = {"trace.decode": row["decode_s"], "runtime.fold": row["fold_s"],
              "metrics.point": points}
    if "check_s" in row:
        layers["detector.check"] = max(0.0, row["check_s"] - row["sampled_s"])
    return layers


def _attribute(step, by_path, summarize, diag, capture):
    """Layer seconds for one measured step, from the probe's numbers;
    @p capture holds the pass's bare child wall, allocator ops, events
    and shim and lint rates."""
    argv = step.argv
    traces = [argv[i + 1] for i, a in enumerate(argv) if a == "--trace"]
    layers = {}

    def add(name, seconds):
        layers[name] = layers.get(name, 0.0) + seconds

    if step.kind == "replay":
        row = by_path.get(traces[0])
        if row:
            for k, v in _per_input_layers(row).items():
                add(k, v)
            add("analysis.trace_lint", row["trace_lint_s"])
        add("diag.manifest_write", diag["manifest_write_s"])
        add("diag.bundle_write", diag["bundle_write_s"] *
            diag.get("bundles_per_replay", 0))
    elif step.kind == "train":
        for path in traces:
            row = by_path.get(path)
            if row:
                add("analysis.trace_lint", row["trace_lint_s"])
                add("trace.decode", row["decode_s"])
                add("runtime.fold", row["fold_s"])
                add("metrics.point", max(0.0, row["sampled_s"] -
                                         row["fold_s"]))
        name = argv[argv.index("--name") + 1] if "--name" in argv else ""
        add("model.summarize", summarize.get(name, 0.0))
    elif step.kind == "audit":
        rows = [by_path[p] for p in traces if p in by_path]
        if "--segments" in argv:
            row = by_path.get(argv[argv.index("--segments") + 1] + "/")
            if row:
                add("analysis.trace_lint", row["trace_lint_s"])
        else:
            for row in rows:
                add("analysis.trace_lint", row["trace_lint_s"])
                add("analysis.flow_lint", row["flow_lint_s"])
    elif step.kind == "fleet_merge":
        add("fleet.merge", diag["merge_s"])
    elif step.kind == "capture":
        add("apps.child", capture["bare_s"])
        add("capture.shim", capture["shim_s_per_op"] * capture["ops"])
        add("analysis.trace_lint",
            capture["lint_s_per_event"] * capture["events"])
        add("diag.manifest_write", diag["manifest_write_s"])
    elif step.kind == "monitor":
        row = by_path.get(argv[argv.index("--segments") + 1] + "/")
        if row:
            add("trace.chain", row.get("chain_s", 0.0))
            add("runtime.fold", row["fold_s"])
            add("metrics.point", max(0.0, row["sampled_s"] - row["fold_s"]))
            add("monitor.online", max(0.0, row.get("online_s", 0.0) -
                                      row["sampled_s"]))
    return layers


def traced_run(run, workload, seconds):
    base = os.path.join(run.BUILD, "work", "%s-%d" % (workload.name,
                                                      os.getpid()))
    runner = run.Runner(run.fresh_dir(base))
    workload.setup(runner)
    overheads = []
    last = []
    begin = time.monotonic()
    while not overheads or time.monotonic() - begin < seconds:
        runner.trace_out = False
        t0 = time.monotonic()
        workload.measure(runner)
        plain = time.monotonic() - t0
        runner.trace_out = True
        first = len(runner.steps)
        t0 = time.monotonic()
        workload.measure(runner)
        traced = time.monotonic() - t0
        runner.trace_out = False
        last = runner.steps[first:]
        overheads.append(100.0 * (traced / plain - 1.0))
        run.log("perfbench: traced pass %.3f s, untraced %.3f s"
                % (traced, plain))

    wd = base
    specs = _probe_inputs(run, workload, runner.pass_dir)
    probe_t0 = time.monotonic()
    inputs = _probe(run, ["inputs"] + specs, wd)
    rows = inputs["inputs"]
    by_path = {r["path"]: r for r in rows}
    summarize = inputs["summarize_s"]
    live_peak = max(r["live_peak"] for r in rows)
    total_lists, length = _shape(workload, live_peak)
    objects = total_lists * length * 2
    shape = _probe(run, ["shape", str(objects), str(length)], wd)
    diag = _probe(run, ["diag"] + [os.path.join(runner.pass_dir, d) for d in
                                   ("manifests", "bundles", "live-bundles")],
                  wd)
    replays = sum(1 for s in last if s.kind == "replay")
    diag["bundles_per_replay"] = diag["bundles"] / replays if replays else 0
    if workload.name == "offline-corpus":
        apps = workload.size["apps"]
        recs = [_probe(run, ["record", app, str(100 + workload.seed),
                             str(workload.size["scale"])], wd)
                for app in apps]
    else:
        recs = [_probe(run, ["record", "gzip", str(100 + workload.seed),
                             str(workload.size["scale"])], wd)]
    pairs = _pairs(run, runner, workload, wd, total_lists, length)
    for t in (3, 1):
        p = pairs[t]
        p["shim_s_per_op"] = (p["cap_s"] - p["bare_s"]) / max(1, p["ops"])
    events_all = max(1.0, _sum(rows, "events"))
    probe_wall = time.monotonic() - probe_t0

    # What the capture step's attribution needs: the same pass's bare
    # child, and the probe's shim rate at the workload's thread count.
    capture = {"bare_s": 0.0, "ops": 0, "events": 0,
               "shim_s_per_op": pairs[3 if workload.name == "capture-churn"
                                      else 1]["shim_s_per_op"],
               "lint_s_per_event": _sum(rows, "trace_lint_s") / events_all}
    for s in last:
        if s.kind == "bare":
            capture["bare_s"] = s.wall
            capture["ops"] = run.child_ops(s.stdout)[0]
        elif s.kind == "capture":
            found = run.parse_last(r": (\d+) events, \d+ scan passes",
                                   s.stdout)
            capture["events"] = int(found) if found else 0

    rates = {"encode": _sum(rows, "encode_s") / events_all,
             "gzip": _sum(rows, "gzip_s") / events_all}
    ledger_rows = []
    for step in last:
        if step.kind == "bare":
            continue
        layers = _attribute(step, by_path, summarize, diag, capture)
        basis = step.cpu if step.kind == "monitor" else step.wall
        attributed = sum(layers.values())
        detail = {}
        if step.kind == "capture":
            # Children of capture.shim, from the step's own sidecar.
            out = step.argv[step.argv.index("--out") + 1]
            side = run.sidecar(os.path.join(wd, out + ".stats"))
            events = side.get("capture.events_emitted", 0)
            # The sidecar's scan time covers the dead-extent sweep, the
            # scan and the flush + fsync after it, not the census.
            detail = {
                "capture.scan": side.get("capture.scan_ns", 0) / 1e9,
                "capture.census": shape["census_s"] *
                side.get("capture.scan_passes", 0),
                "trace.encode": rates["encode"] * events,
                "obsv.publish": shape["publish_s"] *
                side.get("capture.segment_publishes", 0),
            }
            if "--compress" in step.argv:
                detail["trace.gzip"] = rates["gzip"] * events
            detail["scan_census_share_pct"] = 100.0 * (
                detail["capture.scan"] + detail["capture.census"]) / step.wall
        ledger_rows.append({
            "kind": step.kind,
            "argv": [os.path.basename(a) for a in step.argv[1:8]],
            "basis": "cpu" if step.kind == "monitor" else "wall",
            "basis_s": basis, "wall_s": step.wall,
            "layers_s": layers,
            "shim_detail": detail,
            "phases": [[n, ts, dur] for n, ts, dur in step.phases],
            "unattributed_pct": 100.0 * (1.0 - attributed / basis)
            if basis > 0 else 0.0,
        })
    total_basis = sum(r["basis_s"] for r in ledger_rows)
    total_attr = sum(sum(r["layers_s"].values()) for r in ledger_rows)

    p3, p1 = pairs[3], pairs[1]
    side = p3["sidecar"]
    ops3 = max(1, p3["ops"])
    chain = p3["chain"]
    with_model = [r for r in rows if "check_s" in r]
    samples = max(1.0, _sum(with_model, "samples"))
    model_events = max(1.0, _sum(with_model, "events"))
    live = by_path.get(os.path.join(runner.pass_dir, "live.trace") + "/")
    churn_chain = live.get("chain_s") if live else None
    rec_events = max(1.0, sum(r["events"] for r in recs))
    m = {
        "capture.shim_ns_per_op": (1e9 * p3["shim_s_per_op"], "ns/op"),
        "capture.shim_ns_per_op_1t": (1e9 * p1["shim_s_per_op"], "ns/op"),
        "capture.table_insert_ns": (1e9 * shape["insert_s"], "ns/op"),
        "capture.table_erase_ns": (1e9 * shape["erase_s"], "ns/op"),
        "capture.scan_ms_per_mib": (1e3 * shape["scan_s"] /
                                    max(1e-9, shape["live_mib"]), "ms/MiB"),
        "capture.census_ms": (1e3 * shape["census_s"], "ms"),
        "capture.internal_allocs_per_op": (
            side.get("capture.dropped_reentrant", 0) / ops3, "count/op"),
        "capture.scan_passes": (side.get("capture.scan_passes", 0), "count"),
        "trace.encode_ns_per_event": (1e9 * _sum(rows, "encode_s") /
                                      events_all, "ns/event"),
        "trace.gzip_ns_per_event": (1e9 * _sum(rows, "gzip_s") / events_all,
                                    "ns/event"),
        "trace.raw_bytes_per_event": (_sum(rows, "raw_bytes") / events_all,
                                      "B/event"),
        "trace.gz_bytes_per_event": (_sum(rows, "gz_bytes") / events_all,
                                     "B/event"),
        "trace.decode_ns_per_event": (1e9 * _sum(rows, "decode_s") /
                                      events_all, "ns/event"),
        "trace.chain_ns_per_event": (
            1e9 * (churn_chain if churn_chain is not None
                   else chain["chain_s"]) /
            max(1.0, live["events"] if churn_chain is not None
                else chain["events"]), "ns/event"),
        "runtime.fold_ns_per_event": (1e9 * _sum(rows, "fold_s") /
                                      events_all, "ns/event"),
        "heapgraph.live_objects_peak": (live_peak, "count"),
        "metrics.point_ns_p50": (1e9 * statistics.median(
            r["point_p50_s"] for r in rows), "ns"),
        "metrics.point_ns_p99": (1e9 * statistics.median(
            r["point_p99_s"] for r in rows), "ns"),
        "model.summarize_ms": (1e3 * sum(summarize.values()), "ms"),
        "detector.check_ns_per_sample": (1e9 * sum(
            r["check_s"] - r["sampled_s"] for r in with_model) /
            samples, "ns/sample"),
        # The issue's definition: the fold with the detector attached
        # minus the bare fold, so it includes the metric points.
        "monitor.online_ns_per_event": (1e9 * sum(
            r["online_s"] - r["fold_s"] for r in with_model) /
            model_events, "ns/event"),
        "monitor.drain_ms": (1e3 * p3["drain_s"], "ms"),
        "monitor.tail_lag_bytes_max": (p3["follow"].get("tail_lag_max", 0),
                                       "B"),
        "analysis.trace_lint_ns_per_event": (1e9 * _sum(rows, "trace_lint_s")
                                             / events_all, "ns/event"),
        "analysis.flow_lint_ns_per_event": (1e9 * _sum(rows, "flow_lint_s") /
                                            events_all, "ns/event"),
        "diag.manifest_write_us": (1e6 * diag["manifest_write_s"], "us"),
        "diag.bundle_write_us": (1e6 * diag["bundle_write_s"], "us"),
        "fleet.merge_ms": (1e3 * diag["merge_s"], "ms"),
        "obsv.publish_ns": (1e9 * shape["publish_s"], "ns"),
        "apps.record_ns_per_event": (1e9 * sum(r["record_s"] for r in recs) /
                                     rec_events, "ns/event"),
        "ledger.unattributed_pct": (
            100.0 * (1.0 - total_attr / total_basis) if total_basis else 0.0,
            "pct"),
        "ledger.unattributed_pct_max": (
            max(r["unattributed_pct"] for r in ledger_rows), "pct"),
        "ledger.tracing_overhead_pct": (statistics.median(overheads), "pct"),
    }

    context = _step_totals(run, last, wd)
    _write_outputs(run, workload, last, ledger_rows, m, context, pairs, shape,
                   probe_wall)
    shutil.rmtree(base, ignore_errors=True)
    return runner, m


def _step_totals(run, steps, wd):
    """The issue's per-workload end-to-end numbers, from one traced
    pass.  They are not gated metrics: most exist on only some
    workloads (see README.md)."""
    def kind_s(kind):
        return sum(s.wall for s in steps if s.kind == kind)

    out = {"wall_s": steps[-1].t1 - steps[0].t0 if steps else 0.0,
           "audit_s": kind_s("audit"), "train_s": kind_s("train"),
           "check_s": kind_s("replay")}
    caps = [s for s in steps if s.kind == "capture"]
    bares = [s for s in steps if s.kind == "bare"]
    if caps and bares:
        cap = caps[-1]
        trace = cap.argv[cap.argv.index("--out") + 1]
        folder, stem = os.path.split(os.path.join(wd, trace))
        on_disk = sum(os.path.getsize(os.path.join(folder, n))
                      for n in os.listdir(folder)
                      if n.startswith(stem) and not n.endswith(
                          (".stats", ".manifest")))
        events = run.sidecar(os.path.join(wd, trace + ".stats")).get(
            "capture.events_emitted", 0)
        out.update({"capture_wall_s": cap.wall,
                    "capture_slowdown": cap.wall / bares[-1].wall,
                    "trace_bytes_per_event": on_disk / max(1, events)})
    monitors = [s for s in steps if s.kind == "monitor"]
    if monitors:
        out["monitor_cpu_s"] = monitors[-1].cpu
    return out


def _write_outputs(run, workload, steps, ledger_rows, metrics, context,
                   pairs, shape, probe_wall):
    """Span tree and ledger files, plus a readable ledger on stderr."""
    outdir = os.path.join(run.BUILD, "ledger")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, "%s-seed%d" % (workload.name, workload.seed))
    t_origin = steps[0].t0 if steps else 0.0
    events = []

    def span(name, start, dur, tid, args=None):
        ev = {"name": name, "ph": "X", "pid": 1, "tid": tid,
              "ts": round(1e6 * (start - t_origin), 3),
              "dur": round(1e6 * dur, 3)}
        if args:
            ev["args"] = args
        events.append(ev)

    if steps:
        span(workload.name, steps[0].t0, steps[-1].t1 - steps[0].t0, 1,
             {"parent": None})
    ledger_by_step = iter(ledger_rows)
    for i, step in enumerate(steps):
        tid = 2 + i
        span("step." + step.kind, step.t0, step.wall, tid,
             {"parent": workload.name, "rc": step.rc})
        for name, ts, dur in step.phases:
            span(name, step.t0 + ts, dur, tid,
                 {"parent": "step." + step.kind, "source": "--trace-out"})
        if step.kind == "bare":
            continue
        row = next(ledger_by_step)
        cursor = step.t0
        for name, secs in sorted(row["layers_s"].items()):
            # Probe spans replay the step's inputs; they are laid out
            # back to back from the step's start.
            span(name, cursor, secs, 1000 + i,
                 {"parent": "step." + step.kind, "source": "layer_probe"})
            cursor += secs
    with open(stem + ".spans.json", "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    with open(stem + ".ledger.json", "w") as f:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "steps": ledger_rows,
                   "pairs": {str(k): v for k, v in pairs.items()},
                   "end_to_end_context": context,
                   "shape": shape, "probe_wall_s": probe_wall,
                   "metrics": {k: v[0] for k, v in metrics.items()}},
                  f, indent=1, default=str)

    by_kind = {}
    for row in ledger_rows:
        k = by_kind.setdefault(row["kind"], [0, 0.0, {}])
        k[0] += 1
        k[1] += row["basis_s"]
        for name, secs in row["layers_s"].items():
            k[2][name] = k[2].get(name, 0.0) + secs
    run.log("ledger %s seed %d (basis seconds; monitor by CPU):"
            % (workload.name, workload.seed))
    for kind, (n, basis, layers) in sorted(by_kind.items()):
        attributed = sum(layers.values())
        run.log("  %-12s x%-3d %8.3f s  unattributed %5.1f%%  %s" % (
            kind, n, basis, 100.0 * (1 - attributed / basis) if basis else 0,
            ", ".join("%s %.3f" % kv for kv in sorted(layers.items()))))
    for row in ledger_rows:
        if row["shim_detail"]:
            run.log("  capture shim detail: %s" % ", ".join(
                "%s %.3f" % kv for kv in sorted(row["shim_detail"].items())))
    run.log("  per-step totals: %s" % ", ".join(
        "%s %.4g" % kv for kv in sorted(context.items())))
    run.log("  spans:", stem + ".spans.json")
