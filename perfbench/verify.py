"""Output verifiers.  Each returns None when the job's outcome is right, else
a short reason; the caller counts a reason as a failed job.

Uses no padiclog code: golden digests and known answers by construction.
"""

from __future__ import annotations

import hashlib
import json


def _series_matches(obj, p, want):
    """An IwaSeries JSON equals the integer coefficients `want` at its own
    reported precision (coefficients past `want` must vanish)."""
    prec = int(obj["prec"])
    if prec < 1:
        return False
    m = p ** prec
    scale = p ** int(obj.get("denom_exp", 0))
    got = [int(c) for c in obj["coeffs"]]
    if obj.get("coeffs_w") and any(int(c) % m for c in obj["coeffs_w"]):
        return False
    for i in range(max(len(got), len(want))):
        g = got[i] if i < len(got) else 0
        w = want[i] if i < len(want) else 0
        if (g - w * scale) % m:
            return False
    return True


def check_output(check, code, out):
    """Verify one job: `check` from the manifest, exit code, stdout text."""
    kind = check["kind"]
    expect = check.get("exit", 0)
    if code != expect:
        return "exit %r, expected %r" % (code, expect)
    if kind == "digest":
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == check["sha256"] else "digest mismatch"
    if kind == "reject":
        return None
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if kind == "split":
        ok = (_series_matches(doc["plus"], check["p"], check["plus"])
              and _series_matches(doc["minus"], check["p"], check["minus"]))
        return None if ok else "split pair differs from the generated pair"
    if kind == "antisym":
        ok = _series_matches(doc, check["p"], check["g"])
        return None if ok else "antisym did not recover G"
    if kind == "regdiv":
        hyps = doc["content_ok"] and doc["x0_ok"] and doc["points_ok"]
        if check["positive"]:
            ok = hyps and doc["direct_ok"] is True
        else:
            ok = doc["direct_ok"] is not True
        return None if ok else "regdiv verdict contradicts the construction"
    raise ValueError("unknown check kind %r" % kind)
