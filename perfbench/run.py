#!/usr/bin/env python3
"""Runs one workload of the MaJIC benchmark and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the engine sources of the checkout plus the majic_perf driver)
into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only rebuild
what changed. The driver runs the workload, checks every output against the
interpreter oracle, and writes a full result document (every metric with
unit, sample count and tail percentile, the deterministic counts, the machine
and configuration stamp, the workload's reason to exist) to
.bench_build/results/. The last line on stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json when --trace is 0, and every
per-layer metric when --trace is 1. A traced run also writes a Chrome-trace
JSON beside the result and derives each layer's self time, and the
compile and native stage times of the census (Layers.cpp), from it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s (900 s when it builds)

# Span (category, name) -> layer, for self times. Categories name the layer
# directly where the span comes from this benchmark's own probes.
LAYER_OF_CATEGORY = {
    "ast": "ast", "analysis": "analysis", "infer": "infer",
    "backend": "backend", "repo": "repo", "native": "native",
    "engine": "engine", "pool": "engine", "service": "service",
    "compute": "runtime",
}
LAYER_OF_NAME = {
    "parse": "ast", "infer": "infer", "compile": "backend",
    "codegen": "backend", "codegen.fuse": "backend", "optimize": "backend",
    "regalloc": "backend", "vm.run": "backend", "native.run": "native",
    "interp.run": "interp", "interp.script": "interp",
}
# Per-layer stage times taken from the engine's own spans: metric ->
# (census span of the benchmark, engine span inside it). See Layers.cpp.
CENSUS_SPANS = {
    "ast.parse_ms": ("census.load", "parse"),
    "infer.jit_ms": ("census.jit", "infer"),
    "backend.codegen_ms": ("census.jit", "codegen"),
    "backend.regalloc_ms": ("census.jit", "regalloc"),
    "backend.optimize_ms": ("census.batch", "optimize"),
    "native.cc_ms": ("census.native", "native.compile"),
    "native.dlopen_ms": ("census.native", "native.load"),
    "native.mjn_load_ms": ("census.native", "repo.load_native"),
}
LAYERS = ["ast", "analysis", "infer", "backend", "interp", "runtime", "repo",
          "native", "engine", "service"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds majic_perf; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    with open(logpath, "a") as out:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            steps.append(cfg)
        steps.append(["cmake", "--build", bdir, "-j", "4", "--target", "majic_perf"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                out.flush()
                with open(logpath) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A failed configure must not leave a cache that skips it.
                if cmd[1] == "-S":
                    shutil.rmtree(bdir, ignore_errors=True)
                return None
    exe = os.path.join(bdir, "majic_perf")
    return exe if os.path.exists(exe) else None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
        return out.stdout.splitlines()[0].strip() if out.stdout else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """Content digest of everything the benchmark builds and reads; stands in
    for the commit in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "mlib", "bench", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def stamp(doc, args):
    """Machine and configuration stamp. compare.py refuses to compare
    results whose stamps (apart from the seed and the source) differ."""
    m = doc.get("machine", {})
    commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": m.get("hardware_concurrency"),
        "compute_threads": m.get("compute_threads"),
        "build_type": m.get("build_type"),
        "cxx": m.get("compiler"),
        "cc_version": first_line(["cc", "--version"]),
        "git_commit": commit if len(commit) == 40 else "none",
        "source_digest": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "config": doc.get("config", {}),
    }


def layer_of(ev):
    if ev.get("cat") == "bench":
        return None
    return LAYER_OF_NAME.get(ev.get("name")) or LAYER_OF_CATEGORY.get(ev.get("cat"), "other")


def self_times(events):
    """Each layer's self time (ms): a span's duration minus the part its
    direct children on the same thread cover, summed per layer."""
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    totals = {layer: 0.0 for layer in LAYERS}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, layer, child_us, dur]
        def close(frame):
            if frame[1] in totals:
                totals[frame[1]] += (frame[3] - frame[2]) / 1e3
        for e in evs:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            stack.append([e["ts"] + e["dur"], layer_of(e), 0.0, e["dur"]])
        while stack:
            close(stack.pop())
    return {"self_ms." + k: v for k, v in totals.items()}


def census_times(events):
    """Stage times (ms) of the census: the engine's own spans named in
    CENSUS_SPANS, summed inside the census span that runs the stage."""
    windows = {}
    for e in events:
        if e.get("cat") == "bench" and e["name"].startswith("census."):
            windows.setdefault(e["name"], []).append(
                (e["tid"], e["ts"], e["ts"] + e["dur"] + 0.01))
    out = {}
    for metric, (outer, inner) in CENSUS_SPANS.items():
        if outer not in windows:
            continue
        out[metric] = sum(
            e["dur"] for e in events
            if e["name"] == inner and any(
                tid == e["tid"] and start <= e["ts"] and e["ts"] + e["dur"] <= end
                for tid, start, end in windows[outer])) / 1e3
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        log("unknown workload %r" % args.workload)
        return 2

    bdir = build_dir()
    exe = build(bdir)
    if not exe:
        log("build failed")
        return 1

    tag = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, time.time_ns())
    results = os.path.join(bdir, "results")
    work = os.path.join(bdir, "work", tag)
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(results, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    out = os.path.join(work, "result.json")
    trace = os.path.join(results, tag + ".trace.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--out", out]
    if args.trace:
        cmd += ["--trace-file", trace]
    # Scratch files of cc and of the native tier (see Sandbox.cpp) go to tmp.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        code = subprocess.run(cmd, env=env, cwd=tmp, stdout=sys.stderr,
                              timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        log("workload timed out")
        shutil.rmtree(work, ignore_errors=True)
        return 1
    try:
        with open(out) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        log("majic_perf exited %d without a result" % code)
        shutil.rmtree(work, ignore_errors=True)
        return 1
    shutil.rmtree(work, ignore_errors=True)

    # majic_perf writes numbers as full-precision strings.
    for section in ("end_to_end", "per_layer", "end_to_end_raw"):
        for m in doc[section].values():
            for key in ("value", "percentile"):
                if key in m:
                    m[key] = float(m[key])
    if args.trace and os.path.exists(trace):
        with open(trace) as f:
            events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
        for name, value in {**self_times(events), **census_times(events)}.items():
            doc["per_layer"][name] = {"value": value, "unit": "ms"}
    doc["stamp"] = stamp(doc, args)
    doc["why"] = workloads[args.workload]

    section, names = (("per_layer", spec["per_layer"]) if args.trace
                      else ("end_to_end", spec["end_to_end"]))
    metrics = {}
    for m in names:
        got = doc[section].get(m["name"])
        if got is None and section == "end_to_end":
            log("missing end-to-end metric %s" % m["name"])
            return 1
        # A per-layer metric the workload does not exercise reads 0.
        value = got["value"] if got else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)

    correct = code == 0 and doc["mismatched"] == 0
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
