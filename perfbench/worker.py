"""The measured process of both workloads.

    python perfbench/worker.py MANIFEST RESULT --mode {setup,measure,trace}
                               --seconds S --t0 T [--spans FILE]

Imports ``padiclog.cli``, runs one untimed warm-up pass over every distinct
request shape, and reports ``setup_s`` as the time since T (the harness's
``time.perf_counter()`` just before it started this process).  ``measure``
then runs the timed phase: one client, one job at a time, whole cycles of
the manifest until S seconds have passed, each job timed around
``cli.main(argv)`` and then verified.  ``trace`` runs an untraced phase, then
installs the tracer and runs a traced phase, and writes the spans to FILE.
Reads only the manifest and the input files it names; writes only RESULT and
FILE.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time

T_IMPORT = time.perf_counter()
import padiclog.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - T_IMPORT

from tracer import Tracer  # noqa: E402
from verify import check_output  # noqa: E402


def run_job(argv):
    """(exit code or None, stdout text, wall seconds, escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    exc_name = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # an escape is a failed job, recorded by name
        code, exc_name = None, type(exc).__name__
    finally:
        wall = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), wall, exc_name


def run_phase(cycles, seconds, tracer=None, job_base=0):
    """Whole cycles until `seconds` have passed.  Returns (jobs, wall, bytes)
    with jobs = [[key, wall_s, failure reason or None], ...]."""
    jobs, out_bytes = [], 0
    t0 = time.perf_counter()
    i = 0
    while True:
        for job in cycles[i % len(cycles)]:
            if tracer is not None:
                tracer.job = job_base + len(jobs)
            code, out, wall, exc = run_job(job["argv"])
            reason = ("escaped %s" % exc if exc else
                      check_output(job["check"], code, out))
            jobs.append([job["key"], wall, reason])
            out_bytes += len(out.encode())
        i += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return jobs, time.perf_counter() - t0, out_bytes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("result")
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    for job in manifest["warmup"]:
        run_job(job["argv"])
    res = {"setup_s": time.perf_counter() - args.t0, "import_s": IMPORT_S}
    if args.mode != "setup":
        jobs, wall, _ = run_phase(manifest["cycles"], args.seconds)
        res.update(jobs=jobs, phase_wall=wall)
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tjobs, twall, tbytes = run_phase(manifest["cycles"], args.seconds,
                                         tracer, job_base=len(jobs))
        res.update(traced_jobs=tjobs, traced_wall=twall, traced_bytes=tbytes)
        tracer.dump(args.spans, [[len(jobs) + i, j[1]]
                                 for i, j in enumerate(tjobs)])
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main()
