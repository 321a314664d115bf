"""Byte identity of the pinned split/antisym requests.

`split_pin.py` builds 38 seeded `split` and `antisym` requests (bounded
images, unbounded pairs, inputs outside the image, windows smaller than the
parity products; k in {0, 1}, eps = -1, p = 5) and its table `split_pin.json`
holds the SHA-256 of each request's exit code, stdout and stderr at the
commit named in the table.  These tests rerun the requests and compare.
"""

import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def _table():
    with open(os.path.join(HERE, "split_pin.json")) as fh:
        return json.load(fh)["digests"]


@pytest.fixture(scope="module")
def pin(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(HERE)
    try:
        import split_pin
        reqs = split_pin.requests(str(tmp_path_factory.mktemp("split_pin")))
    finally:
        mp.undo()
    return split_pin, dict(reqs)


def test_table_covers_the_requests(pin):
    _, reqs = pin
    assert sorted(reqs) == sorted(_table())
    assert len(reqs) == 38


@pytest.mark.parametrize("label", sorted(_table()))
def test_pinned_digest(label, pin):
    split_pin, reqs = pin
    assert split_pin.digest(reqs[label]) == _table()[label]
