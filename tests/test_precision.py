"""Precision soundness: a result reported good mod p^prec must match the same
computation at a higher working precision, reduced mod p^prec.

Each request runs at its precision P and at P + 20, and every coefficient
is compared at the lower build's reported precision
(`test_logmat.disagreeing_coefficients`).  This covers the plain
`logmatrix` and `halflog` paths.  Requests are sorted into families by the
cause of a known defect, and each failing family is a strict xfail named by
that cause, so its fix removes its own marker.
"""

from collections import Counter

import pytest
from test_logmat import disagreeing_coefficients, normalized_entries

from padiclog.iwadist import halflog
from padiclog.logmat import CrystalParams, log_matrix_ap0
from padiclog.padic import PrimeCtx

BOOST = 20

LOGMAT_GRID = [(p, k, eps, n, prec)
               for p in (3, 5, 7) for k in range(p) for eps in (1, 2, -1)
               for n in range(1, (4 if p == 3 else 3)) for prec in (3, 5, 8)
               if prec > k + 1]

HALFLOG_GRID = [(p, m, n, sign, prec)
                for p in (3, 5, 7) for m in (1, 2, 3) for n in (1, 2, 3)
                for sign in "+-" for prec in (1, 3, 5, 8)]


def _logmat_family(p, k, eps, n, prec, mp):
    """The family of a plain logmatrix request, and whether every entry of
    its build agrees with the build at prec + BOOST."""
    low_pr = CrystalParams.ap_zero(p, prec, k, eps)
    stripped, _ = normalized_entries(mp, low_pr, n)
    low = log_matrix_ap0(low_pr, n)
    high = log_matrix_ap0(CrystalParams.ap_zero(p, prec + BOOST, k, eps), n)
    agrees = all(disagreeing_coefficients(low.entry(i, j), high.entry(i, j),
                                          p) == 0
                 for i in range(2) for j in range(2))
    if eps < 0:
        family = "negative-eps"
    elif stripped:
        family = "strip"
    else:
        family = "sound"
    return family, agrees


@pytest.fixture(scope="module")
def logmat_outcomes():
    """{family: [(request, agrees)]} over LOGMAT_GRID."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for req in LOGMAT_GRID:
            family, agrees = _logmat_family(*req, mp)
            out.setdefault(family, []).append((req, agrees))
    return out


def test_logmat_families(logmat_outcomes):
    # a request that leaves its family, or a new family, shows up here
    # before it can hide in an xfail
    assert len(LOGMAT_GRID) == 216
    assert Counter({f: len(v) for f, v in logmat_outcomes.items()}) == Counter(
        {"sound": 112, "negative-eps": 72, "strip": 32})


def test_logmat_sound_family_matches_a_higher_precision_build(logmat_outcomes):
    bad = [req for req, agrees in logmat_outcomes["sound"] if not agrees]
    assert bad == []


@pytest.mark.xfail(strict=True, reason=(
    "log_matrix_ap0 reads eps as its residue mod p^prec (params.eps.a) where "
    "it needs eps mod p^wp; for eps = -1 every request of the grid differs "
    "from its prec + 20 build.  The fix belongs to the one-precision-per-"
    "series refactor (ROADMAP item 2)."))
def test_logmat_negative_eps_matches_a_higher_precision_build(logmat_outcomes):
    bad = [req for req, agrees in logmat_outcomes["negative-eps"] if not agrees]
    assert bad == []


@pytest.mark.xfail(strict=True, reason=(
    "the fallback branch of logmat._mellin_entry normalizes an entry that "
    "vanishes mod p^prec but not mod the p^s it strips, and drops nonzero "
    "digits; every such request of the grid differs from its prec + 20 "
    "build.  The fix belongs to the one-precision-per-series refactor "
    "(ROADMAP item 2)."))
def test_logmat_strip_family_matches_a_higher_precision_build(logmat_outcomes):
    bad = [req for req, agrees in logmat_outcomes["strip"] if not agrees]
    assert bad == []


def test_halflog_matches_a_higher_precision_build():
    assert len(HALFLOG_GRID) == 216
    bad = []
    for p, m, n, sign, prec in HALFLOG_GRID:
        # the window `padiclog halflog` uses
        cap = m * p ** n + 2
        low = halflog(PrimeCtx(p, prec), sign, m, n, cap)
        high = halflog(PrimeCtx(p, prec + BOOST), sign, m, n, cap)
        if disagreeing_coefficients(low, high, p):
            bad.append((p, m, n, sign, prec))
    assert bad == []
