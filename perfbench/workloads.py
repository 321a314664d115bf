"""Seeded request generation for the two workloads.

Runs in the harness process, never in the measured one.  ``generate`` writes
the input files of one run into a work directory and returns a manifest:

    {"workload": name,
     "warmup": [job, ...],            # one job per distinct request shape
     "cycles": [[job, ...], ...]}     # the timed phase loops over these

A job is {"key", "argv", "check"}; ``verify.check_output`` interprets
``check``.  Requests whose output does not depend on the seed are checked
against the SHA-256 golden table in ``golden.json`` under their ``key``.
"""

from __future__ import annotations

import json
import os
import random

from padiclog.iwadist import IwaSeries, omega
from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times
from padiclog.padic import PrimeCtx
from padiclog.regdiv import MSeries, _monomials
from padiclog.split import SignedPair, forward
from tracer import SUITES

WORKLOADS = ("logmat", "mixed")

LOGMAT_RUNGS = ((3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2))
SPLIT_SHAPES = ((3, 2), (3, 3), (5, 2))
SPLIT_PREC = 12

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)["digests"]


# -- deterministic requests (covered by the golden table) ---------------------

def logmat_requests():
    """(key, argv) for every logmatrix request of the ladder."""
    out = []
    for p, n in LOGMAT_RUNGS:
        for k in (0, 1):
            for qinv in (False, True):
                argv = ["logmatrix", "--p", str(p), "--k", str(k),
                        "--level", str(n)] + (["--qinv"] if qinv else [])
                out.append((" ".join(argv), argv))
    return out


def fixed_requests(workdir):
    """(key, argv) for the seed-independent requests of the mixed cycle."""
    sl2 = [[[1, 1], [0, 1]], [[0, 1], [4, 0]]]
    # kron([[1,1],[0,1]], [[0,1],[1,0]]): the tau of the galimg suite
    tau = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    ctx = PrimeCtx(3, 10)
    files = {
        "deplete.json": {"ring": "int", "nmax": 60,
                         "coeffs": [(7 * i * i + 3) % 101 for i in range(60)]},
        "galimg-closure.json": {"p": 5, "gens": sl2},
        "galimg-closure7.json": {"p": 7, "gens": [[[1, 1], [0, 1]],
                                                  [[0, 1], [6, 0]]]},
        "galimg-pairs.json": {"p": 5, "pairs": [
            [[[1, 1], [0, 1]], [[1, 0], [0, 1]]],
            [[[0, 1], [4, 0]], [[2, 0], [0, 1]]]]},
        "galimg-tau.json": {"p": 7, "find_tau": True, "gens": [tau]},
        "eval-nonzero.json": {"p": 3, "prec": 10,
                              "series": omega(ctx, 3, 30).to_json(),
                              "point": {"t": 2, "j": 1}},
        "eval-level3.json": {"p": 3, "prec": 10,
                             "series": omega(ctx, 3, 30).to_json(),
                             "point": {"t": 3, "j": 0}},
    }
    paths = {name: _write(workdir, name, obj) for name, obj in files.items()}
    reqs = [
        ("halflog --p 3 --sign plus --level 3",
         ["halflog", "--p", "3", "--sign", "plus", "--level", "3"]),
        ("halflog --p 5 --m 2 --sign minus --level 2",
         ["halflog", "--p", "5", "--m", "2", "--sign", "minus", "--level", "2"]),
        ("theta --disc -4 --power 4 --nmax 200",
         ["theta", "--disc", "-4", "--power", "4", "--nmax", "200"]),
        ("theta --disc -3 --power 6 --nmax 150",
         ["theta", "--disc", "-3", "--power", "6", "--nmax", "150"]),
        ("eis --k 3 --root-order 8 --p 5 --nmax 40",
         ["eis", "--k", "3", "--root-order", "8", "--p", "5", "--nmax", "40"]),
        ("deplete deplete.json --p 3",
         ["deplete", paths["deplete.json"], "--p", "3"]),
    ]
    for name in ("galimg-closure", "galimg-closure7", "galimg-pairs",
                 "galimg-tau"):
        reqs.append(("galimg %s.json" % name, ["galimg", paths[name + ".json"]]))
    for name in ("eval-nonzero", "eval-level3"):
        reqs.append(("eval %s.json" % name, ["eval", paths[name + ".json"]]))
    for suite in SUITES:
        argv = ["check", "--suite", suite]
        reqs.append((" ".join(argv), argv))
    return reqs


def _digest_jobs(reqs, digests):
    return [{"key": key, "argv": argv,
             "check": {"kind": "digest", "exit": digests[key]["exit"],
                       "sha256": digests[key]["sha256"]}}
            for key, argv in reqs]


# -- seeded split / antisym / regdiv requests ---------------------------------

class _SplitShape:
    """Harness-side data of one (p, n) shape: the log matrix and its det."""

    def __init__(self, p, n):
        self.p, self.n = p, n
        self.pr = CrystalParams.ap_zero(p, SPLIT_PREC, 0)
        self.qm = qinv_times(self.pr, log_matrix_ap0(self.pr, n))
        self.ctx = self.pr.ctx
        # det has degree <= 2*deg and G (7 terms) adds 6: det*G fits exactly
        deg = max(e.degree() for row in self.qm.entries for e in row)
        self.wide = w = 2 * deg + 10
        q = self.qm
        self.det = (q.entry(0, 0).widen(w) * q.entry(1, 1).widen(w)
                    - q.entry(0, 1).widen(w) * q.entry(1, 0).widen(w))

    def base(self):
        return {"p": self.p, "prec": SPLIT_PREC, "k": 0, "level": self.n}


def _rand_coeffs(rng, ctx, n):
    return [rng.randrange(ctx.modulus) for _ in range(n)]


def split_job(rng, shape, workdir, name):
    """A bounded pair pushed forward; the split must give it back."""
    ctx, deg = shape.ctx, shape.p ** shape.n
    plus = _rand_coeffs(rng, ctx, deg)
    minus = _rand_coeffs(rng, ctx, deg)
    pair = SignedPair(IwaSeries(ctx, plus, None, None, deg),
                      IwaSeries(ctx, minus, None, None, deg), shape.n)
    ab = forward(pair, shape.qm)
    spec = dict(shape.base(), alpha=ab.alpha_comp.to_json(),
                beta=ab.beta_comp.to_json(), denom_exp=0)
    path = _write(workdir, name, spec)
    return {"key": "split p=%d n=%d" % (shape.p, shape.n),
            "argv": ["split", path],
            "check": {"kind": "split", "p": shape.p, "plus": plus,
                      "minus": minus}}


def reject_job(rng, shape, workdir, name):
    """An unbounded pair (a unit constant against zero): documented exit 2."""
    ctx = shape.ctx
    unit = rng.randrange(1, ctx.modulus)
    while unit % shape.p == 0:
        unit = rng.randrange(1, ctx.modulus)
    spec = dict(shape.base(),
                alpha=IwaSeries.const(ctx, unit, 4).to_json(),
                beta=IwaSeries.zero(ctx, 4).to_json(), denom_exp=0)
    path = _write(workdir, name, spec)
    return {"key": "split-unbounded p=%d n=%d" % (shape.p, shape.n),
            "argv": ["split", path], "check": {"kind": "reject", "exit": 2}}


def antisym_job(rng, shape, workdir, name):
    """L = det(Q^-1 M') * G; the factorization must recover G."""
    ctx = shape.ctx
    g = _rand_coeffs(rng, ctx, 7)
    lval = shape.det * IwaSeries(ctx, g, None, None, shape.wide)
    path = _write(workdir, name, dict(shape.base(), L=lval.to_json()))
    return {"key": "antisym p=%d n=%d" % (shape.p, shape.n),
            "argv": ["antisym", path],
            "check": {"kind": "antisym", "p": shape.p, "g": g}}


def _rand_ms(rng, ctx, cap, const=None):
    """Dense random degree-2 series in two variables.

    Every monomial of degree <= 2 gets a coefficient, so a request's cost
    depends on its cap and case, not on how many terms the draw kept.
    const="unit" makes the constant term a unit; const="zero" puts it in pO
    and makes the x1 coefficient a unit (x1-regular, not a unit); otherwise
    the x0 coefficient is a unit, which keeps the content trivial.
    """
    p, m = ctx.p, ctx.modulus

    def unit():
        return rng.randrange(1, p) + p * rng.randrange(m // p)

    coeffs = {mo: rng.randrange(m) for mo in _monomials(2, 3)}
    if const == "unit":
        coeffs[(0, 0)] = unit()
    elif const == "zero":
        coeffs[(0, 0)] = p * rng.randrange(m // p)
        coeffs[(0, 1)] = unit()
    else:
        coeffs[(1, 0)] = unit()
    return MSeries(ctx, 2, coeffs, cap)


def regdiv_job(rng, cap, positive, workdir, name, npoints=10):
    """G = F*H with a unit-constant F (positive) or a coprime pair."""
    ctx = PrimeCtx(5, 10)
    if positive:
        f = _rand_ms(rng, ctx, cap, "unit")
        g = f * _rand_ms(rng, ctx, cap)
    else:
        f = _rand_ms(rng, ctx, cap, "zero")
        g = _rand_ms(rng, ctx, cap, "unit")
    points = [5 * i for i in rng.sample(range(1, 200), npoints)]
    spec = {"p": 5, "prec": 10, "F": f.to_json(), "G": g.to_json(),
            "points": points}
    path = _write(workdir, name, spec)
    return {"key": "regdiv cap=%d %s" % (cap, "positive" if positive else "coprime"),
            "argv": ["regdiv", path],
            "check": {"kind": "regdiv", "positive": positive}}


# -- manifests ----------------------------------------------------------------

# Extra copies per logmat cycle.  Sorted by cost, the ladder's 24 requests
# form classes of two (with and without --qinv) with wide gaps between most
# of them, so a lone median would jump between neighbouring rungs as the
# machine's speed wanders.  The p=3 n=4 k=1 and p=7 n=2 k=0 requests (55-80
# ms) lie between two gaps of about 2x; with five copies of each p=3 n=4 k=1
# request and two of each p=7 n=2 k=0 one, they make a block of 14 that
# holds the median: 12 of the 36 requests are cheaper (p=3 n=3 k=0 appears
# twice, with and without --qinv) and 10 are dearer.
LOGMAT_EXTRA = ("logmatrix --p 3 --k 1 --level 4",
                "logmatrix --p 3 --k 1 --level 4 --qinv") * 4 + (
                    "logmatrix --p 7 --k 0 --level 2",
                    "logmatrix --p 7 --k 0 --level 2 --qinv",
                    "logmatrix --p 3 --k 0 --level 3",
                    "logmatrix --p 3 --k 0 --level 3 --qinv")


def _logmat(rng, workdir, ncycles):
    jobs = _digest_jobs(logmat_requests(), _golden())
    by_key = {job["key"]: job for job in jobs}
    cycle = jobs + [by_key[key] for key in LOGMAT_EXTRA]
    cycles = [rng.sample(cycle, len(cycle)) for _ in range(ncycles)]
    return jobs, cycles


# Requests per mixed cycle.  Sorted by cost, the 24 p=3 n=3 splits (20-45
# ms) sit in the middle, with about as many requests cheaper than them as
# dearer, so the median job falls at the centre of that one dense class
# rather than on one of its flanks.  The costliest requests (p=5 n=2
# antisym, det-identity, 60-100 ms) run 5 times per cycle; a run has 10 or
# more cycles, so the tail job (the 11th slowest) lies inside that class.
SPLIT_MIX = {("split", 3, 2): 2, ("split", 3, 3): 24, ("split", 5, 2): 10,
             ("antisym", 3, 2): 2, ("antisym", 3, 3): 12, ("antisym", 5, 2): 4}
SPLIT_REJECTS = 3          # unbounded pairs per cycle: 3 of 57, about 5%
# (deg_cap, positive): half positive, half coprime
REGDIV_MIX = {(6, True): 2, (7, True): 1, (8, True): 1,
              (6, False): 2, (7, False): 1, (8, False): 1}


def _mixed_block(rng, shapes, fixed, workdir, tag, index):
    """One mixed cycle: SPLIT_MIX, SPLIT_REJECTS unbounded pairs (taking
    the shapes in turn), REGDIV_MIX and the fixed requests, shuffled."""
    by_shape = {(s.p, s.n): s for s in shapes}
    make = {"split": split_job, "antisym": antisym_job}
    jobs = list(fixed)
    for (kind, p, n), count in SPLIT_MIX.items():
        for i in range(count):
            jobs.append(make[kind](rng, by_shape[p, n], workdir, "%s-%s%d%d-%d.json"
                                   % (tag, kind, p, n, i)))
    for i in range(SPLIT_REJECTS):
        shape = shapes[(SPLIT_REJECTS * index + i) % len(shapes)]
        jobs.append(reject_job(rng, shape, workdir, "%s-r%d.json" % (tag, i)))
    for (cap, positive), count in REGDIV_MIX.items():
        for i in range(count):
            jobs.append(regdiv_job(rng, cap, positive, workdir, "%s-%d%s%d.json"
                                   % (tag, cap, "p" if positive else "c", i)))
    rng.shuffle(jobs)
    return jobs


def _mixed(rng, workdir, ncycles):
    shapes = [_SplitShape(p, n) for p, n in SPLIT_SHAPES]
    fixed = _digest_jobs(fixed_requests(workdir), _golden())
    cycles = [_mixed_block(rng, shapes, fixed, workdir, "c%d" % c, c)
              for c in range(ncycles)]
    warm = list(fixed)
    for shape in shapes:
        warm.append(split_job(rng, shape, workdir, "w-s%d%d.json" % (shape.p, shape.n)))
        warm.append(antisym_job(rng, shape, workdir, "w-a%d%d.json" % (shape.p, shape.n)))
    warm.append(reject_job(rng, shapes[0], workdir, "w-r.json"))
    warm += [regdiv_job(rng, cap, positive, workdir, "w-%d%s.json"
                        % (cap, "p" if positive else "c"))
             for cap, positive in REGDIV_MIX]
    return warm, cycles


_BUILDERS = {"logmat": (_logmat, 4), "mixed": (_mixed, 12)}


def generate(workload, seed, workdir):
    """Write the inputs of one run under workdir and return its manifest."""
    build, ncycles = _BUILDERS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    warm, cycles = build(rng, workdir, ncycles)
    return {"workload": workload, "seed": seed, "warmup": warm,
            "cycles": cycles}
