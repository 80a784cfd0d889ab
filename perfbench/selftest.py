#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--workload NAME ...] [--seconds S]

For each workload, runs the majic_perf driver (built as run.py builds it)
three times with tracing on: twice with one seed, once with another. It
passes when the two same-seed runs report the same operation sequence
(plan digest) and identical deterministic counts, and the other seed
reports a different sequence. Every run must also agree with the oracle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["vm_hot", "native_hot", "first_contact"]


def once(exe, bdir, workload, seed, seconds, n):
    work = os.path.join(bdir, "work", "selftest-%s-%d" % (workload, n))
    out = os.path.join(work, "result.json")
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    code = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1",
                           "--workdir", work, "--out", out],
                          env=env, cwd=env["TMPDIR"],
                          stdout=subprocess.DEVNULL).returncode
    with open(out) as f:
        doc = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    return code, doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    bdir = run.build_dir()
    exe = run.build(bdir)
    if not exe:
        print("selftest: build failed", file=sys.stderr)
        return 1
    ok = True
    for wl in args.workload or WORKLOADS:
        (c1, a), (c2, b), (c3, c) = (once(exe, bdir, wl, seed, args.seconds, n)
                                     for n, seed in enumerate((7, 7, 8)))
        checks = {
            "oracle agreement": c1 == c2 == c3 == 0,
            "same seed, same sequence": a["plan_digest"] == b["plan_digest"],
            "other seed, other sequence": a["plan_digest"] != c["plan_digest"],
            "same seed, same counts": a["deterministic"] == b["deterministic"],
        }
        for what, passed in checks.items():
            print("%-14s %-28s %s" % (wl, what, "ok" if passed else "FAIL"))
            ok &= passed
        if a["deterministic"] != b["deterministic"]:
            print("  %s\n  %s" % (a["deterministic"], b["deterministic"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
