"""Self-tests of the benchmark itself (not of padiclog).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

1. a tiny-length run of every workload prints every end-to-end metric with
   its unit (and fail_ratio), and a traced run every per-layer metric;
2. a corrupted output is caught by the verifiers and counted as a failed
   job by the measured process;
3. per job, the per-layer self times sum to no more than the job's wall time;
4. the tracer's size counters match brute-force counts.

Exits 1 on the first failure.  Takes about two minutes.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_tiny_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layers == dict(tracer.metric_units())
    for w in spec["workloads"]:
        human, doc = bench(w["name"], 0)
        assert doc["correct"] is True and doc["attempted"] >= 1, doc
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == e2e
        assert all(v["value"] > 0 for v in doc["metrics"].values()), doc
        for name in list(e2e) + ["fail_ratio"]:
            assert any(line.startswith(name + " ") for line in human), name
        print("tiny run ok:", w["name"], doc["attempted"], "jobs")
    human, doc = bench("mixed", 1)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == layers
    assert all(any(line.startswith(name + " ") for line in human)
               for name in layers)
    print("traced tiny run ok: mixed")


def cli_output(argv):
    import padiclog.cli as cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def corrupt_digit(text):
    """Replace the last nonzero digit of text by another nonzero digit."""
    i = max(i for i, ch in enumerate(text) if ch in "123456789")
    return text[:i] + "123456789"[int(text[i]) % 9] + text[i + 1:]


def test_corrupted_outputs(workdir):
    rng = random.Random(3)
    key, argv = workloads.logmat_requests()[0]
    golden = workloads._golden()[key]
    check = {"kind": "digest", "exit": 0, "sha256": golden["sha256"]}
    code, out = cli_output(argv)
    assert verify.check_output(check, code, out) is None
    assert verify.check_output(check, code, corrupt_digit(out))
    assert verify.check_output(check, 1, out)

    shape = workloads._SplitShape(3, 2)
    for make, part in ((workloads.split_job, "plus"),
                       (workloads.split_job, "minus"),
                       (workloads.antisym_job, None)):
        job = make(rng, shape, workdir, "t.json")
        code, out = cli_output(job["argv"])
        assert verify.check_output(job["check"], code, out) is None
        doc = json.loads(out)
        series = doc[part] if part else doc
        series["coeffs"][-1] = str(int(series["coeffs"][-1]) + 1)
        assert verify.check_output(job["check"], code, json.dumps(doc))
    job = workloads.regdiv_job(rng, 6, True, workdir, "r.json")
    code, out = cli_output(job["argv"])
    assert verify.check_output(job["check"], code, out) is None
    bad = out.replace('"direct_ok": true', '"direct_ok": false')
    assert bad != out and verify.check_output(job["check"], code, bad)
    job = workloads.reject_job(rng, shape, workdir, "u.json")
    assert verify.check_output(job["check"], 2, "") is None
    assert verify.check_output(job["check"], 0, "{}")

    # the measured process counts a job whose output does not match
    good = {"key": key, "argv": argv, "check": check}
    broken = dict(good, check=dict(check, sha256="0" * 64))
    res = worker(workdir, {"warmup": [], "cycles": [[good, broken, good]]},
                 "measure")
    reasons = [r for _k, _w, r in res["jobs"]]
    assert reasons == [None, "digest mismatch", None], reasons
    m = run.job_metrics(res["jobs"], res["phase_wall"])
    assert m["failed"] == 1 and abs(m["ok_ratio"] - 2 / 3) < 1e-12, m
    print("corrupted outputs are counted as failed jobs")


def worker(workdir, manifest, mode):
    path = os.path.join(workdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    result = os.path.join(workdir, "result.json")
    spans = os.path.join(workdir, "spans.json")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), path,
                    result, "--mode", mode, "--seconds", "0",
                    "--t0", repr(time.perf_counter()), "--spans", spans],
                   env=run.child_env(), cwd=ROOT, check=True, timeout=200)
    with open(result) as fh:
        return json.load(fh)


def test_self_time_within_wall(workdir):
    for name in workloads.WORKLOADS:
        manifest = workloads.generate(name, 5, workdir)
        manifest["cycles"] = manifest["cycles"][:1]
        worker(workdir, manifest, "trace")
        with open(os.path.join(workdir, "spans.json")) as fh:
            doc = json.load(fh)
        walls = dict((j, w) for j, w in doc["jobs"])
        child = [0.0] * len(doc["spans"])
        for span in doc["spans"]:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_sum = {}
        for i, span in enumerate(doc["spans"]):
            job = span[4]
            self_sum[job] = self_sum.get(job, 0.0) + (span[2] - span[1]) - child[i]
        for j, wall in walls.items():
            assert 0 <= self_sum.get(j, 0.0) <= wall, (name, j, self_sum[j], wall)
        table = tracer.layer_table([doc])
        assert sum(table["self"].values()) <= table["job_wall"]
        print("self times within job wall:", name, len(walls), "jobs")


def test_size_counters():
    rng = random.Random(1)
    for _ in range(500):
        a, b, cap = rng.randrange(0, 30), rng.randrange(0, 30), rng.randrange(1, 60)
        xs, ys = [1] * a, [1] * b
        want = sum(min(b, cap - i) for i in range(min(a, cap))) if a and b else 0
        assert tracer._vec_mul_products((xs, ys, 7, cap), {}, None) == want
        n = rng.randrange(1, 30)
        want = sum(min(i, n - 1) + 1 for i in range(a))
        assert tracer._basis_pairs((xs, 7, n), {}, None) == want
    print("size counters match brute force")


def main():
    test_size_counters()
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=work)
    try:
        test_corrupted_outputs(workdir)
        test_self_time_within_wall(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    test_tiny_runs()
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
