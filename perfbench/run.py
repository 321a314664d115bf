"""padiclog benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {logmat,mixed} --seed N --seconds S
                             --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  This harness process generates the seeded inputs into a work
directory under ``.perfbench_work/`` (not counted), then starts the measured
processes, verifies every output and prints one line per metric followed by
a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced phase plus the tracing overhead.  ``correct`` is
false when any output was wrong; ``failed`` also counts jobs whose exception
escaped ``cli.main`` or that ended with an unexpected exit code.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer
from verify import check_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
# Set-ups per run: at least SETUP_MIN, then more until SETUP_BUDGET_S seconds
# of set-up have been measured or SETUP_MAX set-ups were made.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 6.0
DEADLINE_S = 170.0         # the whole run, set-up included

END_TO_END = [("setup_s", "s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio")]


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


class Clock:
    """Deadline shared by every child process of the run."""

    def __init__(self):
        self.end = time.perf_counter() + DEADLINE_S

    def left(self):
        left = self.end - time.perf_counter()
        if left <= 0:
            raise BenchError("run exceeded %.0f s" % DEADLINE_S)
        return left


def spawn_wait(argv, clock):
    """Run argv to completion, killing it if the run's deadline passes
    first; return its exit code."""
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=clock.left())
    except subprocess.TimeoutExpired:
        raise BenchError("child %r killed at the deadline" % argv[:4])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def more_setups(samples, pending=0):
    """Whether to measure another set-up, `pending` more being certain."""
    n = len(samples) + pending
    return n < SETUP_MIN or (n < SETUP_MAX and sum(samples) < SETUP_BUDGET_S)


def tail(values):
    """(value, percentile): the highest nearest-rank percentile with at least
    ten samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def job_metrics(jobs, phase_wall):
    walls = [w for _k, w, _r in jobs]
    failed = sum(1 for _k, _w, r in jobs if r)
    tail_ms, pct = tail(walls)
    return {"job_p50_ms": statistics.median(walls) * 1e3,
            "job_tail_ms": tail_ms * 1e3, "tail_pct": pct,
            "jobs_per_s": len(jobs) / phase_wall, "failed": failed,
            "ok_ratio": 1.0 - failed / len(jobs)}


# -- measured processes -------------------------------------------------------

def run_worker(manifest_path, workdir, mode, seconds, clock, tag):
    result = os.path.join(workdir, "result-%s.json" % tag)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), manifest_path,
            result, "--mode", mode, "--seconds", str(seconds)]
    if mode == "trace":
        argv += ["--spans", os.path.join(workdir, "spans.json")]
    t0 = time.perf_counter()
    code = spawn_wait(argv + ["--t0", repr(t0)], clock)
    if code != 0:
        raise BenchError("worker exited with %d" % code)
    with open(result) as fh:
        return json.load(fh)


def in_process(manifest_path, workdir, seconds, trace, clock):
    if trace:
        res = run_worker(manifest_path, workdir, "trace", seconds, clock, "t")
        return res, [res["setup_s"]]
    setups = []
    while more_setups(setups, pending=1):
        setups.append(run_worker(manifest_path, workdir, "setup", seconds,
                                 clock, "s%d" % len(setups))["setup_s"])
    res = run_worker(manifest_path, workdir, "measure", seconds, clock, "m")
    return res, setups + [res["setup_s"]]


# -- reporting ----------------------------------------------------------------

def report_end_to_end(res, setups):
    m = job_metrics(res["jobs"], res["phase_wall"])
    m["setup_s"] = statistics.median(setups)
    m["peak_rss_mb"] = res["peak_rss_mb"]
    n = len(res["jobs"])
    print("setup_s      %.4f s    (median of %d set-ups)" % (m["setup_s"], len(setups)))
    print("job_p50_ms   %.3f ms   (%d jobs)" % (m["job_p50_ms"], n))
    print("job_tail_ms  %.3f ms   (p%.1f of %d jobs)"
          % (m["job_tail_ms"], m["tail_pct"], n))
    print("jobs_per_s   %.4f 1/s" % m["jobs_per_s"])
    print("peak_rss_mb  %.1f MB" % m["peak_rss_mb"])
    print("fail_ratio   %.4f ratio (%d of %d failed)"
          % (1 - m["ok_ratio"], m["failed"], n))
    print("ok_ratio     %.4f ratio" % m["ok_ratio"])
    return {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}


def report_per_layer(res, spans_file):
    with open(spans_file) as fh:
        docs = [json.load(fh)]
    import_s = res["import_s"]
    untraced = len(res["jobs"]) / res["phase_wall"]
    traced = len(res["traced_jobs"]) / res["traced_wall"]
    vals, table = tracer.per_layer_metrics(docs, res["traced_bytes"], import_s,
                                           traced / untraced)
    for name, unit in tracer.metric_units():
        print("%-44s %.6g %s" % (name, vals[name], unit))
    print("traced jobs %d, untraced jobs %d, traced job wall %.4f s/job"
          % (table["jobs"], len(res["jobs"]),
             table["job_wall"] / max(1, table["jobs"])))
    return {name: {"value": vals[name], "unit": unit}
            for name, unit in tracer.metric_units()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("logmat", "mixed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still kills its worker and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "padiclog", "cli.py")):
        sys.stderr.write("perfbench: no src/padiclog/cli.py under %s; run from "
                         "the root of a padiclog checkout\n" % ROOT)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads
    clock = Clock()
    workdir = os.path.join(ROOT, ".perfbench_work",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        manifest = workloads.generate(args.workload, args.seed, workdir)
        manifest_path = os.path.join(workdir, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        print("workload %s  seed %d  seconds %g  trace %d"
              % (args.workload, args.seed, args.seconds, args.trace))
        res, setups = in_process(manifest_path, workdir, args.seconds,
                                 args.trace, clock)
        if args.trace:
            metrics = report_per_layer(res, os.path.join(workdir, "spans.json"))
        else:
            metrics = report_end_to_end(res, setups)
        jobs = res["jobs"] + res.get("traced_jobs", [])
        failures = collections.Counter((j[0], j[2]) for j in jobs if j[2])
        # escapes and exit codes are failed jobs; anything else is a wrong answer
        wrong = [r for _k, r in failures
                 if not r.startswith(("escaped", "exit"))]
        for (key, reason), count in sorted(failures.items()):
            sys.stderr.write("failed %d x %s: %s\n" % (count, key, reason))
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not wrong, "attempted": len(jobs),
                      "failed": sum(failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
