"""Byte identity of the pinned logmatrix requests.

`logmat_pin.py` lists 64 `logmatrix` requests (p in {3, 5, 7}, k <= p,
eps in {1, -1, 2}, prec in {3, 8, 12}, with and without --qinv, the
unsound request of ROADMAP item 2 and one request per exit-2 message), and
its table `logmat_pin.json` holds the SHA-256 of each request's exit code,
stdout and stderr at the commit named in the table.  These tests rerun the
requests and compare.
"""

import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def _table():
    with open(os.path.join(HERE, "logmat_pin.json")) as fh:
        return json.load(fh)["digests"]


@pytest.fixture(scope="module")
def pin():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(HERE)
    try:
        import logmat_pin
    finally:
        mp.undo()
    return logmat_pin, dict(logmat_pin.requests())


def test_table_covers_the_requests(pin):
    _, reqs = pin
    assert sorted(reqs) == sorted(_table())
    assert len(reqs) == 64


@pytest.mark.parametrize("label", sorted(_table()))
def test_pinned_digest(label, pin):
    logmat_pin, reqs = pin
    assert logmat_pin.digest(reqs[label]) == _table()[label]
