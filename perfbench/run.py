#!/usr/bin/env python3
"""HeapMD pipeline benchmark: capture -> trace -> fold -> detect.

Drives the `heapmd` CLI the way a user does on three workloads and
prints one JSON result line.  Run from the root of a heapmd checkout:

    python3 perfbench/run.py --workload offline-corpus --seed 1 \\
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  --trace 1 runs one untraced and one traced pass
(every CLI step with --trace-out), then the layer probe on the same
inputs, and reports the per-layer metrics; the full span tree and
per-step ledger go to .bench_build/ledger/.

    python3 perfbench/run.py --smoke          # every workload, tiny
    python3 perfbench/run.py --make-verdicts  # rewrite verdicts.json

See perfbench/README.md for the workloads, metrics and oracles.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HEAPMD = os.path.join(BUILD, "heapmd", "tools", "heapmd")
CHILD = os.path.join(BUILD, "perfbench", "churn_child")
PROBE = os.path.join(BUILD, "perfbench", "layer_probe")
VERDICTS = os.path.join(BENCH_DIR, "verdicts.json")
STEP_TIMEOUT_S = 150

APPS = ["twolf", "crafty", "mcf", "vpr", "vortex", "gzip", "parser",
        "gcc", "Multimedia", "Interactive web-app.",
        "PC Game (simulation)", "PC Game (action)", "Productivity"]
FAULTS = ["dll-missing-prev", "typo-leak", "circular-dangling-tail",
          "tree-missing-parent", "oct-tree-dag", "bad-hash-function",
          "single-child-tree", "shared-state-free", "small-leak",
          "reachable-leak", "localization-bug", "btree-leaf-unlinked"]
TRAIN_SEEDS = [1, 2, 3]
HELD_OUT_POOL = list(range(101, 117))
BIGHEAP_SEEDS = list(range(1001, 1009))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --------------------------------------------------------------------
# Workload sizes.  The smoke sizes exercise every step and oracle in a
# few seconds; the verdict table covers both.

SIZES = {
    "full": {
        "apps": APPS, "scale": 0.5, "held_out": 2, "faulted": 2,
        # churn_child THREADS LISTS LEN ROUNDS WORK
        "churn": [3, 40, 4, 16000, 4000], "churn_train_rounds": 8000,
        "drift": 4000, "hold": 6000, "rotate": 1 << 22,
        "bigheap": [1, 8000, 4, 10000, 400],
        "bigheap_train_rounds": 8000,
        "probe_rounds": 6000,
    },
    "smoke": {
        "apps": ["gzip", "vpr", "Multimedia"], "scale": 0.5,
        "held_out": 1, "faulted": 1,
        "churn": [3, 40, 4, 3000, 200], "churn_train_rounds": 8000,
        "drift": 4000, "hold": 8000, "rotate": 1 << 18,
        "bigheap": [1, 2000, 4, 4000, 50],
        "bigheap_train_rounds": 12000,
        "probe_rounds": 1000,
    },
}


# --------------------------------------------------------------------
# Build


def build():
    """Build the CLI, the shim, the child and the layer probe."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no heapmd sources in", ROOT)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure once; `cmake --build` re-runs configure by itself when
    # a CMakeLists.txt changes.
    steps = []
    if not os.path.exists(os.path.join(BUILD, "heapmd", "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B",
                      os.path.join(BUILD, "heapmd"),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps += [
        ["cmake", "--build", os.path.join(BUILD, "heapmd"),
         "--target", "heapmd_cli", "-j", jobs],
        ["cmake", "-S", BENCH_DIR, "-B", os.path.join(BUILD, "perfbench"),
         "-DCMAKE_BUILD_TYPE=Release",
         "-DHEAPMD_SOURCE_DIR=" + ROOT,
         "-DHEAPMD_BUILD_DIR=" + os.path.join(BUILD, "heapmd")],
        ["cmake", "--build", os.path.join(BUILD, "perfbench"),
         "-j", jobs],
    ]
    with open(logpath, "w") as out:
        for argv in steps:
            rc = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL).returncode
            if rc != 0:
                log("perfbench: build step failed:", " ".join(argv))
                log("see", logpath)
                sys.exit(2)


# --------------------------------------------------------------------
# Running steps


class Step:
    """One finished process: exit code, wall, rusage, output."""

    def __init__(self, kind, argv, rc, t0, t1, rusage, stdout):
        self.kind = kind
        self.argv = argv
        self.rc = rc
        self.t0 = t0
        self.t1 = t1
        self.wall = t1 - t0
        self.rss_kb = rusage.ru_maxrss if rusage else 0
        self.cpu = (rusage.ru_utime + rusage.ru_stime) if rusage else 0.0
        self.stdout = stdout
        self.phases = []   # program spans from --trace-out


def wait_step(proc, timeout=STEP_TIMEOUT_S):
    """Reap @p proc, killing it after @p timeout; (status, rusage, t1)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return rusage, time.monotonic()


class Runner:
    """Runs steps and counts attempted and failed operations."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.trace_out = False
        self.steps = []
        self.attempted = 0
        self.failed = 0
        self.counter = 0
        self.pass_dir = None
        self.passes = 0

    def new_pass(self):
        """A fresh directory for one pass's outputs.  Passes never reuse
        paths: on a filesystem mounted with discard, unlinking freshly
        fsync'd files costs up to 0.2 s each, which would land in the
        measured steps."""
        self.passes += 1
        self.pass_dir = "p%d" % self.passes
        os.makedirs(os.path.join(self.workdir, self.pass_dir, "manifests"))
        return self.pass_dir

    def traced(self, argv):
        """@p argv with --trace-out when tracing heapmd; (argv, path)."""
        if not (self.trace_out and argv[0] == HEAPMD):
            return argv, None
        self.counter += 1
        path = os.path.join(self.workdir, "span-%04d.json" % self.counter)
        return argv[:2] + ["--trace-out", path] + argv[2:], path

    def finish(self, kind, argv, proc, t0, stdout, span_path,
               timeout=STEP_TIMEOUT_S):
        """Reap a spawned step; @p stdout returns its output."""
        rusage, t1 = wait_step(proc, timeout)
        step = Step(kind, argv, proc.returncode, t0, t1, rusage, stdout())
        if span_path:
            step.phases = load_phase_spans(span_path)
        self.steps.append(step)
        return step

    def run(self, kind, argv, expect=(0,)):
        """Run one step to completion; its exit code must be in
        @p expect."""
        argv, span_path = self.traced(argv)
        self.counter += 1
        out_path = os.path.join(self.workdir, "out-%04d.txt" % self.counter)
        with open(out_path, "w") as out:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out,
                                    stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL,
                                    cwd=self.workdir)

        def stdout():
            with open(out_path, errors="replace") as f:
                return f.read()

        step = self.finish(kind, argv, proc, t0, stdout, span_path)
        self.check(step, step.rc in expect,
                   "exit %d, expected %s" % (step.rc, list(expect)))
        return step

    def check(self, step, ok, why):
        """Count one attempted operation; a failed check fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            what = " ".join(os.path.basename(a) for a in step.argv[:4])
            log("perfbench: FAILED", what, "--", why)
            log(step.stdout[-2000:])

    def oracle(self, ok, why):
        """Count one output check that is not a step's exit code."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("perfbench: FAILED oracle --", why)


def load_phase_spans(path):
    """Complete spans ('X' events) of a --trace-out file, in seconds."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return []
    spans = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "X":
            spans.append((ev["name"], ev["ts"] / 1e6, ev["dur"] / 1e6))
    return spans


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def shm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("heapmd.")}
    except OSError:
        return set()


def load_verdicts():
    try:
        with open(VERDICTS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def parse_last(pattern, text):
    found = re.findall(pattern, text)
    return found[-1] if found else None


# --------------------------------------------------------------------
# offline-corpus


def offline_inputs(size, seed):
    """(app, role, app_seed, fault) for every trace of the corpus."""
    rng = random.Random("offline-%d" % seed)
    verdicts = load_verdicts().get("offline", {})
    inputs = []
    for app in size["apps"]:
        for s in TRAIN_SEEDS:
            inputs.append((app, "train", s, None))
        seeds = rng.sample(HELD_OUT_POOL, size["held_out"] + size["faulted"])
        for s in seeds[:size["held_out"]]:
            inputs.append((app, "clean", s, None))
        for s in seeds[size["held_out"]:]:
            # Only faults whose replay the seed commit completed.
            kinds = [k for k in FAULTS
                     if verdicts.get(verdict_key(app, s, k), {})
                     .get("replay", 3) in (0, 3)]
            inputs.append((app, "fault", s, rng.choice(kinds or FAULTS)))
    return inputs


def verdict_key(app, app_seed, fault):
    return "%s|%d|%s" % (app, app_seed, fault or "-")


def app_model(app):
    return re.sub(r"[^A-Za-z0-9]+", "_", app).strip("_") + ".model"


def trace_name(app, role, app_seed, fault):
    slug = re.sub(r"[^A-Za-z0-9]+", "_", app).strip("_")
    return "%s-%s-%d%s.trace" % (slug, role, app_seed,
                                 "-" + fault if fault else "")


def offline_setup(runner, size, seed, scale):
    for app, role, s, fault in offline_inputs(size, seed):
        argv = [HEAPMD, "record", "--app", app, "--seed", str(s),
                "--scale", str(scale),
                "--out", trace_name(app, role, s, fault)]
        if fault:
            argv += ["--fault", fault]
        runner.run("record", argv)


def offline_pass(runner, size, seed, scale, verdicts):
    """Train, replay every held-out trace, deep-audit, fleet-merge."""
    inputs = offline_inputs(size, seed)
    wd = runner.workdir
    out = runner.new_pass()
    table = verdicts.get("offline", {})
    models = verdicts.get("models", {})
    for app in size["apps"]:
        mine = [i for i in inputs if i[0] == app]
        model = os.path.join(out, app_model(app))
        argv = [HEAPMD, "train", "--name", app, "--out", model]
        for i in mine:
            if i[1] == "train":
                argv += ["--trace", trace_name(*i)]
        runner.run("train", argv)
        want = models.get("%s|%s" % (app, scale))
        if want:
            runner.oracle(sha256(os.path.join(wd, model)) == want,
                          "model of %s differs from the seed commit" % app)
        expect_audit = 0
        for i in mine:
            if i[1] == "train":
                continue
            name = trace_name(*i)
            v = table.get(verdict_key(app, i[2], i[3]), {})
            runner.run("replay",
                       [HEAPMD, "replay", "--trace", name, "--model", model,
                        "--bundle-dir", os.path.join(out, "bundles", name),
                        "--manifest",
                        os.path.join(out, "manifests", name + ".json")],
                       expect=(v["replay"],) if "replay" in v else (0, 3))
            expect_audit = max(expect_audit, v.get("audit", 0))
        argv = [HEAPMD, "audit", "--deep", "1"]
        for i in mine:
            argv += ["--trace", trace_name(*i)]
        runner.run("audit", argv, expect=(expect_audit,))
    runner.run("fleet_merge",
               [HEAPMD, "fleet-merge", os.path.join(out, "manifests"),
                "--out", os.path.join(out, "fleet.json")],
               expect=(0, 3))
    try:
        with open(os.path.join(wd, out, "fleet.json")) as f:
            members = json.load(f).get("processes")
    except (OSError, ValueError):
        members = None
    want = len([i for i in inputs if i[1] != "train"])
    runner.oracle(members == want,
                  "fleet model has %s members, expected %d" % (members, want))


# --------------------------------------------------------------------
# capture-churn and capture-bigheap


def child_argv(spec, rounds, seed, extra=()):
    threads, lists, length, _, work = spec
    return [CHILD, str(threads), str(lists), str(length), str(rounds),
            str(work), str(seed)] + [str(x) for x in extra]


def child_ops(stdout):
    line = parse_last(r"ops (\d+) checksum (\d+)", stdout)
    return (int(line[0]), line[1]) if line else (0, None)


def sidecar(path):
    counters = {}
    try:
        with open(path) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1].isdigit():
                    counters[parts[0]] = int(parts[1])
    except OSError:
        pass
    return counters


def check_capture(runner, step, bare, trace_path):
    """Checksum equals the bare run; decoded events equal the sidecar."""
    bare_line = child_ops(bare.stdout)
    runner.oracle(child_ops(step.stdout) == bare_line and
                  bare_line[1] is not None,
                  "captured child printed %s, bare printed %s"
                  % (child_ops(step.stdout), bare_line))
    emitted = sidecar(trace_path + ".stats").get("capture.events_emitted")
    audited = parse_last(r"trace audit clean: \d+ bytes, (\d+) events",
                         step.stdout)
    runner.oracle(emitted is not None and audited is not None and
                  int(audited) == emitted,
                  "decoded %s events, sidecar says %s" % (audited, emitted))


def churn_setup(runner, size, seed):
    spec = size["churn"]
    runner.run("capture",
               [HEAPMD, "capture", "--out", "train.trace",
                "--train-out", "churn.model", "--"] +
               child_argv(spec, size["churn_train_rounds"], seed + 7))


class Pipe:
    """Reads a step's stdout line by line, stamping each line."""

    def __init__(self, proc):
        self.lines = []
        self.thread = threading.Thread(target=self._read, args=(proc,))
        self.thread.start()

    def _read(self, proc):
        for line in proc.stdout:
            self.lines.append((time.monotonic(), line))

    def text(self):
        self.thread.join()
        return "".join(line for _, line in self.lines)


def spawn_piped(runner, kind, argv):
    """Start a step whose output lines are stamped as they arrive;
    returns a function that reaps it."""
    argv, span_path = runner.traced(argv)
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL, cwd=runner.workdir,
                            text=True)
    pipe = Pipe(proc)

    def reap(timeout=STEP_TIMEOUT_S):
        return runner.finish(kind, argv, proc, t0, pipe.text, span_path,
                             timeout)
    return reap, pipe


def churn_pass(runner, size, seed):
    """Bare child; live capture followed by `monitor`; segment audit."""
    spec = size["churn"]
    wd = runner.workdir
    child = child_argv(spec, spec[3], seed, (size["drift"], size["hold"]))
    bare = runner.run("bare", child)
    out = runner.new_pass()
    live = os.path.join(out, "live.trace")
    before = shm_segments()

    mon_argv = [HEAPMD, "monitor", "--segments", live, "--model",
                "churn.model", "--bundle-dir",
                os.path.join(out, "live-bundles")]
    cap_argv = [HEAPMD, "capture", "--out", live, "--rotate-bytes",
                str(size["rotate"]), "--compress", "1", "--manifest",
                os.path.join(out, "manifests", "capture.json"), "--"] + child
    reap_monitor, mon_pipe = spawn_piped(runner, "monitor", mon_argv)
    reap_capture, cap_pipe = spawn_piped(runner, "capture", cap_argv)
    cap_step = reap_capture()
    mon_step = reap_monitor(timeout=60)
    runner.check(cap_step, cap_step.rc == 0, "capture exit %d" % cap_step.rc)
    check_capture(runner, cap_step, bare, os.path.join(wd, live))

    # The monitor must fire on %roots or %leaves, fire nothing before
    # the drift, and consume every segment the writer's manifest lists.
    runner.check(mon_step, mon_step.rc == 3, "monitor exit %d" % mon_step.rc)
    drift_at = next((t for t, line in cap_pipe.lines
                     if line.startswith("drifted")), None)
    fired = [(t, line) for t, line in mon_pipe.lines
             if re.match(r"\[\w[\w-]*\] metric ", line)]
    runner.oracle(drift_at is not None and fired and
                  all(t > drift_at for t, _ in fired) and
                  any(re.search(r"metric (Root|Leaves) ", l)
                      for _, l in fired),
                  "monitor incidents %r, drift at %s"
                  % ([l.strip()[:60] for _, l in fired], drift_at))
    manifest = {}
    try:
        with open(os.path.join(wd, live + ".manifest")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2:
                    manifest[parts[0]] = parts[1]
    except OSError:
        pass
    consumed = parse_last(r"over (\d+) segment\(s\)", mon_step.stdout)
    runner.oracle(consumed is not None and
                  consumed == manifest.get("segments") and
                  manifest.get("closed") == "1",
                  "monitor consumed %s segments, manifest %r"
                  % (consumed, manifest))
    leaked = shm_segments() - before
    runner.oracle(not leaked, "stats segments left behind: %s" % leaked)

    # The flow pass needs one trace; a segment set gets the framing lint.
    runner.run("audit", [HEAPMD, "audit", "--segments", live])
    return bare, cap_step, mon_step


def bigheap_key(spec, child_seed):
    return "%s|%d" % (":".join(map(str, spec)), child_seed)


def bigheap_seed(seed):
    return BIGHEAP_SEEDS[seed % len(BIGHEAP_SEEDS)]


def bigheap_train_argv(size, seed):
    """The model's training child: the next seed of the pool and lists
    one node shorter, so the replay always has drift to report."""
    spec = list(size["bigheap"])
    spec[2] -= 1
    return child_argv(spec, size["bigheap_train_rounds"],
                      bigheap_seed(seed + 1))


def bigheap_setup(runner, size, seed):
    runner.run("capture",
               [HEAPMD, "capture", "--out", "train.trace",
                "--train-out", "bigheap.model", "--"] +
               bigheap_train_argv(size, seed))


def bigheap_pass(runner, size, seed, verdicts):
    """Bare child; monolithic capture; deep audit; replay."""
    spec = size["bigheap"]
    wd = runner.workdir
    child = child_argv(spec, spec[3], bigheap_seed(seed))
    bare = runner.run("bare", child)
    out = runner.new_pass()
    big = os.path.join(out, "big.trace")
    before = shm_segments()
    cap = runner.run("capture", [HEAPMD, "capture", "--out", big,
                                 "--manifest",
                                 os.path.join(out, "manifests",
                                              "capture.json"),
                                 "--"] + child)
    check_capture(runner, cap, bare, os.path.join(wd, big))
    leaked = shm_segments() - before
    runner.oracle(not leaked, "stats segments left behind: %s" % leaked)
    runner.run("audit", [HEAPMD, "audit", "--deep", "1", "--trace", big])
    want = verdicts.get("bigheap", {}).get(
        bigheap_key(spec, bigheap_seed(seed)))
    runner.run("replay", [HEAPMD, "replay", "--trace", big,
                          "--model", "bigheap.model", "--bundle-dir",
                          os.path.join(out, "bundles"), "--manifest",
                          os.path.join(out, "manifests", "replay.json")],
               expect=(want,) if want is not None else (0, 3))
    return bare, cap


# --------------------------------------------------------------------
# Workload driver


class Workload:
    def __init__(self, name, size, seed):
        self.name = name
        self.size = size
        self.seed = seed
        self.verdicts = load_verdicts()

    def setup(self, runner):
        if self.name == "offline-corpus":
            offline_setup(runner, self.size, self.seed, self.size["scale"])
        elif self.name == "capture-churn":
            churn_setup(runner, self.size, self.seed)
        else:
            bigheap_setup(runner, self.size, self.seed)

    def measure(self, runner):
        if self.name == "offline-corpus":
            offline_pass(runner, self.size, self.seed, self.size["scale"],
                         self.verdicts)
        elif self.name == "capture-churn":
            churn_pass(runner, self.size, self.seed)
        else:
            bigheap_pass(runner, self.size, self.seed, self.verdicts)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def kind_seconds(steps, kind):
    return sum(s.wall for s in steps if s.kind == kind)


def end_to_end(workload, seconds):
    """Setup five times, then measured passes for @p seconds."""
    base = os.path.join(BUILD, "work", "%s-%d" % (workload.name,
                                                  os.getpid()))
    setups = []
    attempted = failed = 0
    for _ in range(5):
        runner = Runner(fresh_dir(base))
        t0 = time.monotonic()
        workload.setup(runner)
        setups.append(time.monotonic() - t0)
        attempted += runner.attempted
        failed += runner.failed
    # The last setup's outputs feed the passes; every setup's steps
    # count.
    runner.attempted = attempted
    runner.failed = failed
    passes = []
    begin = time.monotonic()
    while not passes or time.monotonic() - begin < seconds:
        first = len(runner.steps)
        t0 = time.monotonic()
        workload.measure(runner)
        wall = time.monotonic() - t0
        steps = runner.steps[first:]
        log("perfbench: pass %.3f s: %s" % (wall, " ".join(
            "%s=%.3f" % (st.kind, st.wall) for st in steps)))
        passes.append({
            "wall_s": wall,
            "audit_s": kind_seconds(steps, "audit"),
            "rss_kb": max(s.rss_kb for s in steps),
        })
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "audit_s": (statistics.median(p["audit_s"] for p in passes), "s"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024.0, "MiB"),
    }
    log("perfbench: %s: %d passes: %s" % (
        workload.name, len(passes),
        ", ".join("%.3f" % p["wall_s"] for p in passes)))
    t0 = time.monotonic()
    shutil.rmtree(base, ignore_errors=True)
    log("perfbench: cleanup %.1f s" % (time.monotonic() - t0))
    return runner, metrics


def result_line(runner, metrics):
    failed = runner.failed
    return json.dumps({
        "correct": failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["offline-corpus", "capture-churn",
                                 "capture-bigheap"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at smoke size, both "
                             "modes, and check the output schema")
    parser.add_argument("--make-verdicts", action="store_true",
                        help="rewrite verdicts.json from this commit")
    args = parser.parse_args(argv)

    build()
    if args.smoke:
        return smoke()
    if args.make_verdicts:
        import verdicts
        verdicts.make(sys.modules[__name__])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = Workload(args.workload, SIZES[args.size], args.seed)
    if args.trace:
        import ledger
        runner, metrics = ledger.traced_run(sys.modules[__name__],
                                            workload, args.seconds)
        print(result_line(runner, metrics))
    else:
        runner, metrics = end_to_end(workload, args.seconds)
        print(result_line(runner, metrics))
    return 0


def smoke():
    """Every workload in both modes at smoke size; schema + oracles."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bad = 0
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 w["name"], "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--size", "smoke"],
                stdout=subprocess.PIPE, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() \
                else "{}"
            try:
                doc = json.loads(last)
            except ValueError:
                doc = {}
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v.get("unit") for k, v in doc.get("metrics", {}).items()}
            ok = (out.returncode == 0 and doc.get("correct") is True and
                  doc.get("failed") == 0 and got == want and
                  set(doc) == {"correct", "attempted", "failed", "metrics"})
            log("smoke %-16s trace=%d %s" % (w["name"], trace,
                                             "ok" if ok else "FAILED"))
            if not ok:
                log("  missing:", sorted(set(want) - set(got)),
                    "extra:", sorted(set(got) - set(want)), last[:400])
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, BENCH_DIR)
    sys.exit(main())
