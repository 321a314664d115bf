"""Paired A/B timing of two checkouts in one process.

    python3 scripts/pair_ab.py A B [--workload mixed] [--seed 11]
                               [--cycles 12] [--classes REGEX] [--json FILE]

A and B are roots of two source checkouts.  Each one's ``src/padiclog`` is
imported under its own package name (``pair_a.padiclog``,
``pair_b.padiclog``), and ``padiclog`` is pointed at one side's modules
just before each of its calls, so the functions that import lazily stay on
their own side.  The requests come from B's ``perfbench/workloads.py``,
imported read-only (as ``tests/test_golden.py`` does) and generated with A's
package into a temporary directory.

Every request of the manifest's cycles runs on both sides, one right after
the other, so both sides see the same machine state.  The side that goes
first alternates within each request class, by the class's own count of
timed requests, so each class runs half its pairs with either side first,
whatever the order and number of the classes timed per cycle.  Each run is
timed around ``cli.main(argv)`` with stdout and stderr captured; a pair
whose exit code, stdout or stderr differ counts as an output mismatch.  The
report gives, per request class (the manifest's job key), the median of the paired ratios
B/A and each side's median time; then, over all jobs, each side's p50 and
its 11th-slowest job (the benchmark's ``job_tail_ms`` rule) and the number
of mismatches.  Separate-process A/B runs on a shared machine swing by
tens of per cent on unchanged classes; the paired ratio does not.

``--classes REGEX`` times only the requests whose class key matches the
regular expression (``re.search``), for example
``--workload logmat --classes 'p 3 --k 1 --level 5'`` for one tail class;
the warm-up still runs every request.  By default every class is timed.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import io
import json
import os
import pkgutil
import re
import statistics
import sys
import tempfile
import time

SIDES = ("a", "b")


def load_side(tag, root):
    """Import every module of root/src/padiclog as pair_<tag>.padiclog.*, and
    return the map from each module name under ``padiclog`` to its module.

    The cli and the package load modules on first use; importing them all
    here keeps a module first used inside a call on its own side."""
    for name in [n for n in sys.modules if n == "padiclog" or n.startswith("padiclog.")]:
        del sys.modules[name]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    try:
        for info in pkgutil.iter_modules([os.path.join(src, "padiclog")]):
            importlib.import_module("padiclog." + info.name)
    finally:
        sys.path.pop(0)
    mods = {n: m for n, m in sys.modules.items()
            if n == "padiclog" or n.startswith("padiclog.")}
    for name, mod in mods.items():
        sys.modules["pair_%s.%s" % (tag, name)] = mod
    return mods


def activate(mods):
    """Point ``padiclog`` and its submodules at one side's modules."""
    sys.modules.update(mods)


def run(mods, argv):
    """(wall seconds, (exit code, stdout, stderr)) of one request."""
    activate(mods)
    cli = mods["padiclog.cli"]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return wall, (code, out.getvalue(), err.getvalue())


def tail(values):
    """The 11th-largest value, or the largest when there are fewer than 11."""
    xs = sorted(values)
    return xs[-11] if len(xs) >= 11 else xs[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="root of the first (reference) checkout")
    ap.add_argument("b", help="root of the second checkout")
    ap.add_argument("--workload", default="mixed", choices=("logmat", "mixed"))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--cycles", type=int, default=12,
                    help="cycles to run, reusing the manifest's in turn")
    ap.add_argument("--classes", default="",
                    help="time only the request classes whose key matches "
                         "this regular expression (default: all)")
    ap.add_argument("--json", help="also write the report to this file")
    args = ap.parse_args()
    classes = re.compile(args.classes)

    sides = {"a": load_side("a", args.a), "b": load_side("b", args.b)}
    if sides["a"].keys() != sides["b"].keys():
        ap.error("the checkouts have different modules: %s"
                 % sorted(sides["a"].keys() ^ sides["b"].keys()))
    perfbench = os.path.join(os.path.abspath(args.b), "perfbench")
    sys.path.insert(0, perfbench)
    activate(sides["a"])
    import workloads
    with tempfile.TemporaryDirectory() as workdir:
        manifest = workloads.generate(args.workload, args.seed, workdir)
        for job in manifest["warmup"]:
            for tag in SIDES:
                run(sides[tag], job["argv"])
        walls = {tag: [] for tag in SIDES}
        ratios = collections.defaultdict(list)
        per_class = {tag: collections.defaultdict(list) for tag in SIDES}
        mismatches = []
        cycles = manifest["cycles"]
        timed = collections.Counter()
        for c in range(args.cycles):
            for job in cycles[c % len(cycles)]:
                if not classes.search(job["key"]):
                    continue
                order = SIDES if timed[job["key"]] % 2 == 0 else SIDES[::-1]
                timed[job["key"]] += 1
                got = {}
                for tag in order:
                    got[tag] = run(sides[tag], job["argv"])
                for tag in SIDES:
                    walls[tag].append(got[tag][0])
                    per_class[tag][job["key"]].append(got[tag][0])
                ratios[job["key"]].append(got["b"][0] / got["a"][0])
                if got["a"][1] != got["b"][1]:
                    mismatches.append(job["key"])
    if not timed:
        ap.error("no request class matches %r" % args.classes)
    report = {
        "workload": args.workload, "seed": args.seed, "cycles": args.cycles,
        "classes_regex": args.classes,
        "jobs": len(walls["a"]), "mismatches": len(mismatches),
        "mismatched_keys": sorted(set(mismatches)),
        "classes": {key: {"n": len(rs), "ratio_b_over_a": statistics.median(rs),
                          "a_ms": statistics.median(per_class["a"][key]) * 1e3,
                          "b_ms": statistics.median(per_class["b"][key]) * 1e3}
                    for key, rs in sorted(ratios.items())},
        "p50_ms": {tag: statistics.median(walls[tag]) * 1e3 for tag in SIDES},
        "tail_ms": {tag: tail(walls[tag]) * 1e3 for tag in SIDES},
    }
    width = max(len(key) for key in report["classes"])
    print("%-*s  %5s  %9s  %9s  %7s" % (width, "class", "n", "a ms", "b ms", "b/a"))
    for key, row in report["classes"].items():
        print("%-*s  %5d  %9.3f  %9.3f  %7.3f" % (width, key, row["n"], row["a_ms"],
                                                 row["b_ms"], row["ratio_b_over_a"]))
    print("jobs %d  p50 %.3f -> %.3f ms  11th-slowest %.3f -> %.3f ms  "
          "output mismatches %d" % (report["jobs"], report["p50_ms"]["a"],
                                    report["p50_ms"]["b"], report["tail_ms"]["a"],
                                    report["tail_ms"]["b"], report["mismatches"]))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
