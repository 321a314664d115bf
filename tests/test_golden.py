"""Byte identity of the deterministic benchmark requests.

The benchmark checks the stdout of its seed-independent requests (the
logmatrix ladder and the fixed requests of the mixed workload) against the
SHA-256 table in perfbench/golden.json.  These tests rebuild the same 40
requests with perfbench/workloads.py and compare exit codes and digests, so
an output drift fails here and not only in a benchmark run.  perfbench/ is
only read.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from padiclog.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def golden_digests():
    with open(os.path.join(PERFBENCH, "golden.json")) as fh:
        return json.load(fh)["digests"]


@pytest.fixture(scope="module")
def requests(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(PERFBENCH)
    try:
        import workloads
        reqs = workloads.logmat_requests() + workloads.fixed_requests(
            str(tmp_path_factory.mktemp("golden")))
    finally:
        mp.undo()
    return dict(reqs)


def test_golden_table_covers_the_requests(requests):
    assert sorted(requests) == sorted(golden_digests())
    assert len(requests) == 40


@pytest.mark.parametrize("key", sorted(golden_digests()))
def test_golden_digest(key, requests):
    want = golden_digests()[key]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(requests[key])
    assert code == want["exit"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want["sha256"]
