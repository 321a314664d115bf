"""Acceptance gate: every criterion runs at its stated tolerance and budget.

Each row maps one-to-one onto a named check suite (the CLI runs the same
suites via `padiclog check --suite <name>`); a pass/fail line is printed per
criterion.
"""

import time

import pytest

from padiclog import checks

CRITERIA = [
    ("1 cyclotomic identities, p in {3,5,7}, n <= 4, prec 20",
     "cyclotomic-identities", 1.0),
    ("2 half-log product identity, m <= 2, n <= 3, p in {3,5}",
     "halflog-product", 5.0),
    ("3 Mellin round trip, 100 random elements, p = 5, level 2",
     "mellin-roundtrip", 30.0),
    ("4 logarithmic-matrix structure, p = 3, k in {0,1}, n <= 3",
     "logmatrix-structure", 120.0),
    ("5 determinant identity mod (p^8, congruence ideal)",
     "det-identity", 60.0),
    ("6 signed splitting round trip, 100 random pairs, + rejection, "
     "p = 3, k = 0, n = 3",
     "signed-split", 60.0),
    ("7 antisymmetric factorization, 100 random G, + geo-shaped input",
     "antisym", 30.0),
    ("8 regular-ring divisibility checker, 200 positive and "
     "200 coprime trials",
     "regdiv", 60.0),
    ("9 group closures, tau certificate, product check",
     "galimg", 120.0),
    ("10 theta series vs enumeration, multiplicativity, Euler product",
     "theta", 30.0),
]

# The size each report states, as (details field, count in the label).
SIZES = {
    "mellin-roundtrip": ("trials", 100),
    "signed-split": ("trials", 100),
    "antisym": ("trials", 100),
    "regdiv": ("coprime_trials", 200),
}


@pytest.mark.parametrize("label,suite,budget", CRITERIA,
                         ids=[c[1] for c in CRITERIA])
def test_acceptance_criterion(label, suite, budget):
    t0 = time.time()
    report = checks.run_suite(suite, seed=0)
    elapsed = time.time() - t0
    verdict = "PASS" if report["pass"] and elapsed <= budget else "FAIL"
    print("criterion %s: %s (%.2fs of %.0fs budget)"
          % (label, verdict, elapsed, budget))
    assert report["pass"], report["details"]
    assert elapsed <= budget, "over budget: %.1fs > %.1fs" % (elapsed, budget)
    if suite in SIZES:
        field, size = SIZES[suite]
        assert str(size) in label.split()
        assert report["details"][field] == size
