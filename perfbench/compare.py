#!/usr/bin/env python3
"""Compares two sets of benchmark results under BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result documents written by run.py (files, or directories
holding them, e.g. .bench_build/results copied aside after each side's runs;
*.trace.json files are skipped). Typically ten untraced runs per workload
and side, each with its own seed.

For every end-to-end metric x workload it prints the two medians, the
quartile spread of each side (distance between the first and third
quartile, as a share of the median) and a verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound
  improved    the new median is better by more than both sides' spreads
  unchanged   neither of the above
  unresolved  a side's spread exceeds the bound, so the medians cannot
              settle it - unless every new run beats (worse: loses to)
              every base run

It also checks that the deterministic counts (backend.vm_instructions,
backend.ir_instrs, backend.fused_ops, engine.jit_compiles, native.so_kb and
the rest of each document's "deterministic" block) are present where the
workload produces them and repeat exactly within each side, and reports
where they differ between the sides.

Results whose machine stamps differ, or whose configuration stamps differ
within one workload, are not compared: the script refuses and names the
fields. Exit status: 0 when nothing is worse and every count is present
and repeats, 1 otherwise, 2 on refusal or bad input.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Stamp fields that may differ between compared runs.
FREE_STAMP_FIELDS = {"seed", "git_commit", "source_digest"}
# The counts each workload's every run must report (run.py writes them
# into the "deterministic" block of traced and untraced runs alike).
REQUIRED_COUNTS = {
    "vm_hot": ["backend.vm_instructions", "backend.ir_instrs",
               "backend.fused_ops", "engine.jit_compiles"],
    "native_hot": ["backend.vm_instructions", "backend.ir_instrs",
                   "backend.fused_ops", "engine.jit_compiles", "native.so_kb"],
    "first_contact": ["backend.ir_instrs", "backend.fused_ops",
                      "engine.jit_compiles"],
}


def load(paths):
    docs = []
    for p in paths:
        files = sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
        for f in files:
            if f.endswith(".trace.json"):
                continue
            with open(f) as fh:
                d = json.load(fh)
            if "stamp" in d and "workload" in d:
                docs.append(d)
    return docs


def stamp_key(doc, with_config):
    """The stamp without the fields that may differ: the machine part, plus
    the workload's configuration when with_config is true."""
    drop = FREE_STAMP_FIELDS | (set() if with_config else {"config"})
    s = {k: v for k, v in doc["stamp"].items() if k not in drop}
    return json.dumps(s, sort_keys=True)


def stamp_conflict(docs, with_config):
    """Names of the stamp fields on which the documents disagree, or None."""
    keys = {stamp_key(d, with_config) for d in docs}
    if len(keys) < 2:
        return None
    stamps = [json.loads(k) for k in keys]
    return sorted({f for s in stamps for f in s
                   if len({json.dumps(t.get(f), sort_keys=True) for t in stamps}) > 1})


def spread(values):
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(base, new, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    bm, nm = statistics.median(base), statistics.median(new)
    worse_by = sign * (nm - bm) / bm
    sb, sn = spread(base), spread(new)
    if max(sb, sn) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "improved"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > max(sb, sn):
        return "improved"
    return "unchanged"


def check_counts(side, docs):
    """Returns ({workload: {count: value}}, problems) for one side."""
    seen, problems = {}, []
    for d in docs:
        for name, value in d.get("deterministic", {}).items():
            vals = seen.setdefault(d["workload"], {}).setdefault(name, set())
            vals.add(value)
    for d in docs:
        for name in REQUIRED_COUNTS.get(d["workload"], []):
            if name not in d.get("deterministic", {}):
                problems.append("%s: %s seed %s lacks %s"
                                % (side, d["workload"], d["stamp"].get("seed"), name))
    out = {}
    for wl, counts in sorted(seen.items()):
        for name, vals in sorted(counts.items()):
            if len(vals) > 1:
                problems.append("%s: %s %s varies across runs: %s"
                                % (side, wl, name, sorted(vals)))
            out.setdefault(wl, {})[name] = min(vals)
    return out, problems


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load([argv[1]]), load([argv[2]])
    if not base or not new:
        print("compare.py: no result documents found", file=sys.stderr)
        return 2

    # Workloads differ in configuration by design; runs of one workload,
    # and the machine under all of them, must not.
    conflicts = [("all workloads", stamp_conflict(base + new, False))]
    for wl in sorted({d["workload"] for d in base + new}):
        conflicts.append((wl, stamp_conflict(
            [d for d in base + new if d["workload"] == wl], True)))
    for where, fields in conflicts:
        if fields:
            print("compare.py: refusing to compare results with different stamps "
                  "(%s; fields: %s)" % (where, ", ".join(fields)), file=sys.stderr)
            return 2

    status = 0
    print("%-14s %-14s %12s %12s %7s %7s  %s" % ("workload", "metric", "base", "new",
                                             "spread", "bound", "verdict"))
    workloads = sorted({d["workload"] for d in base} & {d["workload"] for d in new})
    for wl in workloads:
        b_docs = [d for d in base if d["workload"] == wl and not d["trace"]]
        n_docs = [d for d in new if d["workload"] == wl and not d["trace"]]
        if not b_docs or not n_docs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [float(d["end_to_end"][name]["value"]) for d in b_docs]
            nv = [float(d["end_to_end"][name]["value"]) for d in n_docs]
            v = verdict(bv, nv, m["bound"], m["better"] == "lower")
            status |= v == "worse"
            print("%-14s %-14s %12.5g %12.5g %7.3f %7.3f  %s" % (
                wl, name, statistics.median(bv), statistics.median(nv),
                max(spread(bv), spread(nv)), m["bound"], v))

    b_counts, b_problems = check_counts("base", base)
    n_counts, n_problems = check_counts("new", new)
    for p in b_problems + n_problems:
        print("COUNT " + p)
        status = 1
    for wl in sorted(set(b_counts) & set(n_counts)):
        for name in sorted(set(b_counts[wl]) & set(n_counts[wl])):
            if b_counts[wl][name] != n_counts[wl][name]:
                print("count %s %s: %d -> %d" % (wl, name, b_counts[wl][name],
                                                 n_counts[wl][name]))
    if not b_problems and not n_problems:
        print("deterministic counts repeat exactly on both sides")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
