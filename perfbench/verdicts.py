"""Writes perfbench/verdicts.json: the expected outcomes the benchmark's
oracles compare against, recorded from the commit that runs it.

    python3 perfbench/run.py --make-verdicts

Regenerate only when a change is meant to alter verdicts or model
bytes, and say so in the change.  The table holds:

  models   sha256 of each offline app model (fixed training seeds)
  offline  per (app, held-out seed, fault): replay and deep-audit exit
  bigheap  per (child shape, child seed): replay exit against the model
           trained from the next seed of the pool, one node shorter
"""

import concurrent.futures
import json
import os
import shutil
import subprocess


def _code(argv, cwd):
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL,
                          stdin=subprocess.DEVNULL).returncode


def _offline_app(run, app, scale, workdir):
    H = run.HEAPMD
    wd = os.path.join(workdir, run.re.sub(r"[^A-Za-z0-9]+", "_", app))
    os.makedirs(wd, exist_ok=True)
    argv = [H, "train", "--name", app, "--out", "app.model"]
    for s in run.TRAIN_SEEDS:
        name = "train-%d.trace" % s
        _code([H, "record", "--app", app, "--seed", str(s), "--scale",
               str(scale), "--out", name], wd)
        argv += ["--trace", name]
    _code(argv, wd)
    model_hash = run.sha256(os.path.join(wd, "app.model"))
    table = {}
    for s in run.HELD_OUT_POOL:
        for fault in [None] + run.FAULTS:
            rec = [H, "record", "--app", app, "--seed", str(s), "--scale",
                   str(scale), "--out", "t.trace"]
            if fault:
                rec += ["--fault", fault]
            entry = {"record": _code(rec, wd)}
            if entry["record"] == 0:
                entry["replay"] = _code([H, "replay", "--trace", "t.trace",
                                         "--model", "app.model"], wd)
                entry["audit"] = _code([H, "audit", "--deep", "1",
                                        "--trace", "t.trace"], wd)
            table[run.verdict_key(app, s, fault)] = entry
    return app, model_hash, table


def _bigheap(run, size, seed, workdir):
    spec = size["bigheap"]
    wd = os.path.join(workdir, "bigheap-%s-%d" % ("-".join(map(str, spec)),
                                                  seed))
    os.makedirs(wd, exist_ok=True)
    H = run.HEAPMD
    harness_seed = run.BIGHEAP_SEEDS.index(seed)
    _code([H, "capture", "--out", "train.trace", "--train-out", "m.model",
           "--"] + run.bigheap_train_argv(size, harness_seed), wd)
    _code([H, "capture", "--out", "big.trace", "--"] +
          run.child_argv(spec, spec[3], seed), wd)
    code = _code([H, "replay", "--trace", "big.trace", "--model",
                  "m.model"], wd)
    return run.bigheap_key(spec, seed), code


def make(run):
    workdir = os.path.join(run.BUILD, "verdicts")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = {"models": {}, "offline": {}, "bigheap": {}}
    scales = sorted({size["scale"] for size in run.SIZES.values()})
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        jobs = [pool.submit(_offline_app, run, app, scale,
                            os.path.join(workdir, "s%s" % scale))
                for scale in scales for app in run.APPS]
        for scale_job, job in zip([s for s in scales for _ in run.APPS],
                                  jobs):
            app, model_hash, table = job.result()
            out["models"]["%s|%s" % (app, scale_job)] = model_hash
            out["offline"].update(table)
        jobs = [pool.submit(_bigheap, run, size, seed, workdir)
                for size in run.SIZES.values() for seed in run.BIGHEAP_SEEDS]
        for job in jobs:
            key, code = job.result()
            out["bigheap"][key] = code
    with open(run.VERDICTS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    shutil.rmtree(workdir, ignore_errors=True)
    run.log("wrote", run.VERDICTS)
