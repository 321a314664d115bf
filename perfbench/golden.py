"""Regenerate golden.json: SHA-256 of the canonical stdout of every request
whose output does not depend on the benchmark seed (the logmatrix ladder and
the fixed requests of the mixed workload).

    python3 perfbench/golden.py [--commit REV]

Run from the root of a checkout.  Each request runs through
``padiclog.cli.main`` in this process; the table records its exit code and
the digest.  Only regenerate it on a commit whose output is known good.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import padiclog.cli as cli  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--commit", default="unknown",
                    help="revision the table is generated at, for the record")
    args = ap.parse_args()
    digests = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        reqs = workloads.logmat_requests() + workloads.fixed_requests(tmp)
        for key, argv in reqs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            digests[key] = {"exit": code,
                            "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
            print("%-48s exit %d  %s" % (key, code, digests[key]["sha256"][:16]))
    doc = {"generated_by": "python3 perfbench/golden.py --commit %s" % args.commit,
           "commit": args.commit, "digests": digests}
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
