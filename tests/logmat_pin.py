"""Pinned logmatrix requests: SHA-256 of their stdout, stderr and exit code.

    python3 tests/logmat_pin.py [--commit REV]

Run from the root of a checkout.  `requests()` lists 64 `logmatrix`
requests: three for each (p, k) with p in {3, 5, 7} and k <= p, which
between them take every eps in {1, -1, 2}, every prec in {3, 8, 12} above
k + 1 and both the plain and the --qinv output at levels up to the
budget; the request `--p 3 --k 2 --level 4 --prec 8`, whose entry (1,0) is
normalized at a precision its digits do not support (ROADMAP item 2); and
one request for each message a logmatrix request can exit 2 with.  The script runs
each through `padiclog.cli.main` in this process and writes the table
`logmat_pin.json` next to it, which `test_logmat_pin.py` checks.  Only
regenerate the table on a commit whose output is known good.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "logmat_pin.json")

LEVELS = {3: (1, 2, 3, 4), 5: (1, 2, 3), 7: (1, 2)}
EPS = (1, -1, 2)
PRECS = (3, 8, 12)

# one request per exit-2 message, as (message, argv tail)
ERRORS = [
    ("level past the budget", ["--p", "3", "--k", "0", "--level", "6"]),
    ("psi-component survives", ["--p", "3", "--k", "4", "--level", "1"]),
    ("odd valuation requires a ramified extension",
     ["--p", "3", "--k", "1", "--level", "1", "--eps", "3", "--prec", "8"]),
    ("zero at precision has no canonical square root",
     ["--p", "3", "--k", "1", "--level", "1", "--eps", "3", "--prec", "3"]),
    ("ramified parameter must be a unit",
     ["--p", "3", "--k", "0", "--level", "1", "--eps", "3"]),
    ("cannot invert alpha at --qinv",
     ["--p", "7", "--k", "6", "--level", "1", "--prec", "8", "--qinv"]),
    ("p must be an odd prime", ["--p", "4", "--k", "1", "--level", "1"]),
    ("prec must be >= 1", ["--p", "3", "--k", "1", "--level", "1", "--prec", "0"]),
    ("argument --level is negative", ["--p", "3", "--k", "1", "--level", "-1"]),
]


def requests():
    """(label, argv) for every pinned request."""
    out = []
    turn = 0
    for p, levels in sorted(LEVELS.items()):
        for k in range(p + 1):
            # alpha^2 = -eps p^(k+1) vanishes at a prec <= k+1
            precs = [prec for prec in PRECS if prec > k + 1]
            for _ in range(3):
                n = levels[turn % len(levels)]
                eps = EPS[turn % 3]
                prec = precs[turn % len(precs)]
                qinv = turn % 2 == 1
                argv = ["logmatrix", "--p", str(p), "--k", str(k), "--level",
                        str(n), "--eps", str(eps), "--prec", str(prec)]
                argv += ["--qinv"] * qinv
                out.append((" ".join(argv), argv))
                turn += 1
    argv = ["logmatrix", "--p", "3", "--k", "2", "--level", "4", "--prec", "8"]
    out.append(("item 1: " + " ".join(argv), argv))
    for message, tail in ERRORS:
        out.append(("exit 2, %s: logmatrix %s" % (message, " ".join(tail)),
                    ["logmatrix"] + tail))
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
    for label, argv in requests():
        digests[label] = digest(argv)
        print("%-72s exit %d  %s" % (label, digests[label]["exit"],
                                     digests[label]["sha256"][:16]))
    doc = {"generated_by": "python3 tests/logmat_pin.py --commit %s" % args.commit,
           "commit": args.commit, "digests": digests}
    with open(TABLE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
