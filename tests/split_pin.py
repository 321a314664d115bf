"""Pinned split/antisym requests: SHA-256 of their stdout, stderr and exit code.

    python3 tests/split_pin.py [--commit REV]

Run from the root of a checkout.  `requests(workdir)` writes 38 seeded
`split` and `antisym` request files -- bounded images, unbounded pairs,
inputs outside the image, windows smaller than the parity products -- over
keys with k in {0, 1}, eps = -1 and p = 5.  The script runs each through
`padiclog.cli.main` in this process and writes the table `split_pin.json`
next to it, which `test_split_pin.py` checks.  Only regenerate the table on
a commit whose output is known good.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "split_pin.json")
SEED = 16

# (p, prec, k, eps, level)
KEYS = [(3, 12, 0, 1, 3), (3, 8, 0, -1, 2), (5, 8, 0, 1, 2), (3, 8, 1, 1, 2),
        (3, 8, 1, -1, 3), (5, 6, 1, -1, 1)]


def _series(ctx, rng, n, cap):
    from padiclog.iwadist import IwaSeries
    return IwaSeries(ctx, [rng.randrange(ctx.modulus) for _ in range(n)],
                     None, None, cap)


def _specs(rng, key):
    """(name, command, spec) for the requests of one key."""
    from padiclog.iwadist import IwaSeries
    from padiclog.split import SignedPair, forward, split_operator
    p, prec, k, eps, level = key
    op = split_operator(*key)
    ctx, q = op.ctx, op.qinv_m
    base = {"p": p, "prec": prec, "k": k, "eps": eps, "level": level}
    deg = p ** level
    ab = forward(SignedPair(_series(ctx, rng, deg, deg),
                            _series(ctx, rng, deg, deg), level), q)
    small = forward(SignedPair(_series(ctx, rng, 2, 2),
                               _series(ctx, rng, 1, 1), level), q)
    wide = 2 * op.deg_m + 10
    det = (q.entry(0, 0).widen(wide) * q.entry(1, 1).widen(wide)
           - q.entry(0, 1).widen(wide) * q.entry(1, 0).widen(wide))
    unit = IwaSeries.const(ctx, rng.randrange(1, p), 4)
    return [
        ("image", "split", dict(base, alpha=ab.alpha_comp.to_json(),
                                beta=ab.beta_comp.to_json())),
        ("short", "split", dict(base, alpha=small.alpha_comp.to_json(),
                                beta=small.beta_comp.to_json())),
        ("window4", "split", dict(base, alpha=_series(ctx, rng, 4, 4).to_json(),
                                  beta=IwaSeries.zero(ctx, 4).to_json())),
        ("unbounded", "split", dict(base, alpha=unit.to_json(),
                                    beta=IwaSeries.zero(ctx, 4).to_json())),
        ("zero12", "split", dict(base, alpha=IwaSeries.zero(ctx, 12).to_json(),
                                 beta=IwaSeries.zero(ctx, 12).to_json())),
        ("image", "antisym", dict(base, L=(det * _series(ctx, rng, 5, wide)).to_json())),
    ] + [
        ("const", "antisym", dict(base, L=unit.to_json())),
    ] * (p == 3 and k == 0)


def requests(workdir):
    """(key, argv) for every pinned request, its input written under workdir."""
    rng = random.Random(SEED)
    out = []
    for key in KEYS:
        for name, cmd, spec in _specs(rng, key):
            label = "%s %s p=%d prec=%d k=%d eps=%d n=%d" % ((cmd, name) + key)
            path = os.path.join(workdir, "%d.json" % len(out))
            with open(path, "w") as fh:
                json.dump(spec, fh)
            out.append((label, [cmd, path]))
    return out


def digest(argv):
    """{"exit", "sha256"} of one request run in process."""
    from padiclog.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = "%d\0%s\0%s" % (code, out.getvalue(), err.getvalue())
    return {"exit": code, "sha256": hashlib.sha256(blob.encode()).hexdigest()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--commit", default="unknown",
                    help="revision the table is generated at, for the record")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in requests(tmp):
            digests[label] = digest(argv)
            print("%-52s exit %d  %s" % (label, digests[label]["exit"],
                                         digests[label]["sha256"][:16]))
    doc = {"generated_by": "python3 tests/split_pin.py --commit %s" % args.commit,
           "commit": args.commit, "digests": digests}
    with open(TABLE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
