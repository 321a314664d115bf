"""Command-line front end.

Every subcommand prints one canonical JSON document on standard output (or
to --out); output is byte-identical for identical arguments and seed.  Exit
codes: 0 success, 1 failed check, 2 usage or domain error (bad input, or an
input outside what the library can compute, e.g. an unbounded pair given to
`split`).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from padiclog.padic import PadicError, PrimeCtx, check_fields

# A run imports only the modules its subcommand executes: each cmd_* handler
# imports what it uses.  The names of checks.SUITES are kept here, because
# argparse formats the choices of --suite when the parser is built.
SUITE_NAMES = ("antisym", "cyclotomic-identities", "det-identity", "galimg",
               "halflog-product", "logmatrix-structure", "mellin-roundtrip",
               "regdiv", "signed-split", "theta")


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj, indent=""):
    """json.dumps(obj, indent=2, sort_keys=True, default=str), byte for byte.

    With indent set, json.dumps runs its pure-Python encoder; here lists of
    ints or of strings are joined with str.join and strings go through the
    C string encoder.  A list of strings whose join is ASCII and decimal,
    such as a series' coefficients, is written by one str.join with no
    encode: its strings hold nothing to escape.  Any other type is left to
    json.dumps, its lines shifted to this depth (a JSON string holds no raw
    newline).
    """
    kind = type(obj)
    inner = indent + "  "
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is list:
        if not obj:
            return "[]"
        if type(obj[0]) is str:
            try:
                flat = "".join(obj)
            except TypeError:
                flat = ""
            if flat.isascii() and flat.isdecimal():
                return ('[\n' + inner + '"' + ('",\n' + inner + '"').join(obj)
                        + '"\n' + indent + "]")
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {str}:
            items = map(_encode_str, obj)
        else:
            items = [_dumps(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        return ("{\n" + ",\n".join([inner + _encode_str(k) + ": " + _dumps(obj[k], inner)
                                     for k in sorted(obj)])
                + "\n" + indent + "}")
    return json.dumps(obj, indent=2, sort_keys=True, default=str).replace(
        "\n", "\n" + indent)


def _emit(obj, args):
    text = _dumps(obj)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load(path, **kinds):
    """Read a JSON object from path and check its fields (see check_fields)."""
    with open(path) as fh:
        return check_fields(json.load(fh), path, **kinds)


def _int_matrix(obj, where):
    """A square matrix given as a JSON list of lists of integers."""
    if not (isinstance(obj, list) and obj and all(
            isinstance(row, list) and len(row) == len(obj)
            and all(type(c) is int for c in row)
            for row in obj)):
        raise ValueError("%s: expected a square integer matrix" % where)
    return tuple(map(tuple, obj))


def cmd_halflog(args):
    from padiclog.iwadist import CharPoint, eval_at, halflog
    ctx = PrimeCtx(args.p, args.prec)
    cap = args.m * args.p ** args.level + 2
    sign = "+" if args.sign == "plus" else "-"
    h = halflog(ctx, sign, args.m, args.level, cap)
    out = h.to_json()
    if args.level >= 2:
        probe = eval_at(h, CharPoint(2, 0))
        out["vanishes_at_order_p2"] = probe.is_zero()
    _emit(out, args)
    return 0


def cmd_logmatrix(args):
    from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times
    pr = CrystalParams.ap_zero(args.p, args.prec, args.k, args.eps)
    mat = log_matrix_ap0(pr, args.level)
    if args.qinv:
        mat = qinv_times(pr, mat)
    _emit(mat.to_json(), args)
    return 0


def _cached_operator(spec):
    """g's splitting operator for a split/antisym request, from the cache."""
    from padiclog.split import split_operator
    return split_operator(spec["p"], spec.get("prec", 12), spec["k"],
                          spec.get("eps", 1), spec["level"])


def cmd_split(args):
    spec = _load(args.input, p="nat", prec="nat", k="nat", eps="int",
                 level="nat", denom_exp="nat", alpha="object", beta="object")
    from padiclog.iwadist import from_json
    from padiclog.split import AlphaBetaPair, signed_split
    op = _cached_operator(spec)
    n = spec["level"]
    ab = AlphaBetaPair(from_json(spec["alpha"], op.ctx),
                       from_json(spec["beta"], op.ctx), n)
    pair = signed_split(ab, op, denom_budget=spec.get("denom_exp", 0))
    _emit({"plus": pair.plus.to_json(), "minus": pair.minus.to_json(),
           "level": n}, args)
    return 0


def cmd_antisym(args):
    spec = _load(args.input, p="nat", prec="nat", k="nat", eps="int",
                 level="nat", L="object")
    from padiclog.iwadist import from_json
    from padiclog.split import antisym_factor
    op = _cached_operator(spec)
    lval = from_json(spec["L"], op.ctx)
    out = antisym_factor(lval, op)
    _emit(out.to_json(), args)
    return 0


def cmd_regdiv(args):
    spec = _load(args.input, p="nat", prec="nat", F="object", G="object",
                 points="array")
    from padiclog.regdiv import MSeries, SpecFamily, chevalley_check
    ctx = PrimeCtx(spec["p"], spec.get("prec", 12))
    f = MSeries.from_json(spec["F"], ctx)
    g = MSeries.from_json(spec["G"], ctx)
    fam = SpecFamily(ctx, spec["points"])
    rpt = chevalley_check(f, g, fam)
    _emit({"content_ok": rpt.content_ok, "x0_ok": rpt.x0_ok,
           "points": [[str(a), ok] for a, ok in rpt.point_results],
           "points_ok": rpt.points_ok, "direct_ok": rpt.direct_ok}, args)
    return 0


def cmd_galimg(args):
    spec = _load(args.input, p="nat", pairs="array", gens="array")
    from padiclog.galimg import (MatGroupGen, closure, find_tau,
                                 goursat_product_check)
    p = spec["p"]
    if "pairs" in spec:
        if not all(isinstance(ab, list) and len(ab) == 2 for ab in spec["pairs"]):
            raise ValueError("%s: pairs must be [A, B] matrix pairs" % args.input)
        pairs = [(_int_matrix(a, args.input), _int_matrix(b, args.input))
                 for a, b in spec["pairs"]]
        v = goursat_product_check(p, pairs)
        _emit({"full_product": v.full_product, "order": v.order_h,
               "pr1": v.order_pr1, "pr2": v.order_pr2,
               "pr2_solvable": v.pr2_solvable, "pr1_is_sl2": v.pr1_is_sl2}, args)
        return 0
    gens = [_int_matrix(g, args.input) for g in spec["gens"]]
    if not gens:
        raise ValueError("%s: gens must not be empty" % args.input)
    grp = MatGroupGen(p, gens)
    if spec.get("find_tau"):
        cert = find_tau(grp)
        if cert is None:
            _emit({"found": False}, args)
        else:
            _emit({"found": True, "minpoly": cert.minpoly,
                   "rank_t_minus_1": cert.rank_t_minus_1,
                   "quotient_rank": cert.quotient_rank,
                   "element": [list(r) for r in cert.element]}, args)
        return 0
    _emit({"order": len(closure(grp))}, args)
    return 0


def cmd_theta(args):
    from padiclog.qexp import ImagQuadCtx, theta_series
    ctx = ImagQuadCtx(args.disc, args.power, cond=args.cond)
    th = theta_series(ctx, args.nmax)
    _emit(th.to_json(), args)
    return 0


def cmd_eis(args):
    from padiclog.qexp import eisenstein_depleted
    e = eisenstein_depleted(args.k, args.root_order, args.zeta_index,
                            args.p, args.nmax)
    _emit(e.to_json(), args)
    return 0


_RING = re.compile(r"int|quad:(-[1-9][0-9]*)|cyclotomic:([1-9][0-9]*)")


def _totient(n):
    """Euler's phi of n >= 1, by trial division."""
    out, d = n, 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    return out - out // n if n > 1 else out


def _qexp_coeffs(spec, where):
    """The coefficients of a q-expansion read from JSON input.

    There are nmax of them, over a ring that `theta` or `eis` writes:
    integers over "int", integer pairs over "quad:<D>" with D in
    qexp.CLASS_NUMBER_ONE, and integer vectors of length deg Phi_M = phi(M)
    over "cyclotomic:<M>" with M >= 1.  As phi(M) >= sqrt(M/2), M is held
    to at most 2 L^2 for a vector length L before phi(M) is computed.
    """
    from padiclog.qexp import CLASS_NUMBER_ONE
    cs, ring = spec["coeffs"], spec["ring"]
    if len(cs) != spec["nmax"]:
        raise ValueError("%s: nmax is %d but coeffs has %d entries"
                         % (where, spec["nmax"], len(cs)))
    form = _RING.fullmatch(ring)
    if form is None or (form[1] and int(form[1]) not in CLASS_NUMBER_ONE):
        raise ValueError('%s: ring must be "int", "quad:<D>" with D in %s, or '
                         '"cyclotomic:<M>" with M >= 1, not %r'
                         % (where, CLASS_NUMBER_ONE, ring))
    if ring == "int":
        ok, want = all(type(c) is int for c in cs), "integers"
    else:
        lens = {len(c) if isinstance(c, list) and all(type(x) is int for x in c)
                else -1 for c in cs}
        m = int(form[2] or 0)
        ok = lens <= {2} if form[1] else all(
            n > 0 and m <= 2 * n * n and _totient(m) == n for n in lens)
        want = "integer vectors of length %s" % (
            "2" if form[1] else "deg Phi_%d" % m)
    if not ok:
        raise ValueError("%s: coeffs over %s must be %s" % (where, ring, want))
    return cs


def cmd_deplete(args):
    spec = _load(args.input, ring="string", nmax="nat", coeffs="array")
    from padiclog.qexp import QExpansion, deplete
    f = QExpansion(spec["ring"], spec["nmax"], _qexp_coeffs(spec, args.input))
    _emit(deplete(f, args.p).to_json(), args)
    return 0


def cmd_eval(args):
    spec = _load(args.input, p="nat", prec="nat", series="object",
                 point="object")
    from padiclog.iwadist import CharPoint, eval_at, from_json
    ctx = PrimeCtx(spec["p"], spec["prec"])
    f = from_json(spec["series"], ctx)
    point = check_fields(spec["point"], "point", t="nat", j="int")
    pt = CharPoint(point["t"], point["j"])
    v = eval_at(f, pt)
    _emit({"is_zero": v.is_zero(), "denom_exp": v.denom_exp,
           "coords": [[str(x), str(v.b[i]) if v.b else "0"]
                      for i, x in enumerate(v.a)]}, args)
    return 0


def cmd_check(args):
    from padiclog import checks
    report = checks.run_suite(args.suite, seed=args.seed)
    _emit(report, args)
    return 0 if report["pass"] else 1


def _nat(text):
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("%d is negative" % value)
    return value


@functools.lru_cache(maxsize=1)
def build_parser():
    """The CLI parser, built once per process: parsing does not change it."""
    ap = argparse.ArgumentParser(prog="padiclog")
    sub = ap.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("halflog", help="truncated Pollack half-logarithm")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--m", type=_nat, default=1)
    q.add_argument("--sign", choices=["plus", "minus"], required=True)
    q.add_argument("--level", type=_nat, required=True)
    q.add_argument("--prec", type=int, default=12)
    q.set_defaults(func=cmd_halflog)

    q = sub.add_parser("logmatrix", help="a_p = 0 logarithmic matrix")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--k", type=_nat, required=True)
    q.add_argument("--level", type=_nat, required=True)
    q.add_argument("--prec", type=int, default=12)
    q.add_argument("--eps", type=int, default=1)
    q.add_argument("--qinv", action="store_true",
                   help="left-multiply by Q_g^(-1)")
    q.set_defaults(func=cmd_logmatrix)

    q = sub.add_parser("split", help="signed splitting of an (alpha,beta)-pair")
    q.add_argument("input")
    q.set_defaults(func=cmd_split)

    q = sub.add_parser("antisym", help="antisymmetric-pairing factorization")
    q.add_argument("input")
    q.set_defaults(func=cmd_antisym)

    q = sub.add_parser("regdiv", help="regular-ring divisibility checker")
    q.add_argument("input")
    q.set_defaults(func=cmd_regdiv)

    q = sub.add_parser("galimg", help="finite group-image checks")
    q.add_argument("input")
    q.set_defaults(func=cmd_galimg)

    q = sub.add_parser("theta", help="theta series of an imaginary quadratic field")
    q.add_argument("--disc", type=int, required=True)
    q.add_argument("--power", type=int, required=True,
                   help="infinity-type exponent t = k_g + 1")
    q.add_argument("--nmax", type=_nat, default=100)
    q.add_argument("--cond", type=int, default=1)
    q.set_defaults(func=cmd_theta)

    q = sub.add_parser("eis", help="p-depleted Eisenstein coefficients")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--root-order", type=int, required=True)
    q.add_argument("--zeta-index", type=int, default=1)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--nmax", type=_nat, default=50)
    q.set_defaults(func=cmd_eis)

    q = sub.add_parser("deplete", help="zero the coefficients divisible by p")
    q.add_argument("input")
    q.add_argument("--p", type=int, required=True)
    q.set_defaults(func=cmd_deplete)

    q = sub.add_parser("eval", help="evaluate a series at a character point")
    q.add_argument("input")
    q.set_defaults(func=cmd_eval)

    q = sub.add_parser("check", help="run a named invariant suite")
    q.add_argument("--suite", required=True, choices=SUITE_NAMES)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_check)

    for name, sp in sub.choices.items():
        sp.add_argument("--out", default=None, help="write the report here")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError, PadicError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
