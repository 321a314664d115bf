"""Outside-in tracer for padiclog.

The tracer wraps named functions of the package from outside it and rebinds
every alias of each wrapped function in the ``padiclog.*`` module namespaces
(and in module-level dicts such as ``checks.SUITES``), because ``logmat``,
``checks`` and ``cli`` import functions by name.  Each wrapped call records a
span ``[name, start, end, parent, job, outer, note, exc]``; spans are kept in
memory and written out once, by ``dump``.  ``PadicElt`` construction and
arithmetic are counted only, since timing a million tiny calls would swamp
their cost.

``per_layer_metrics`` turns span files into the per-layer metrics of
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# The check suites the mixed workload runs: the ones that take under 60 ms
# in process.
SUITES = ("halflog-product", "det-identity", "galimg", "theta")


def _tri(length, n):
    """sum_{i < length} (min(i, n - 1) + 1): inner steps of a basis change."""
    a = min(length, n)
    return a * (a + 1) // 2 + n * max(0, length - n)


def _vec_mul_products(args, kw, result):
    xs, ys, _m, cap = args[:4]
    a, b = len(xs), len(ys)
    if not a or not b:
        return 0
    top = min(a, cap)
    full = max(0, min(top, cap - b + 1))
    rest = top - full
    return full * b + rest * ((cap - top + 1) + (cap - full)) // 2


def _basis_pairs(args, kw, result):
    vec = args[0]
    n = args[2] if len(args) > 2 else kw.get("n")
    if n is None:
        n = len(vec)
    return _tri(len(vec), n)


def _pascal_key(args, kw, result):
    return [args[0], args[1]]


def _solve_cells(args, kw, result):
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    return [cells, 1 if result is None else 0]


# (module, attribute path, layer name, note).  A note computes a size from
# the call's arguments (and result) only.
WRAPS = [
    ("padiclog._poly", "vec_mul", "poly.vec_mul", _vec_mul_products),
    ("padiclog._poly", "to_onepx_basis", "poly.basis_change", _basis_pairs),
    ("padiclog._poly", "from_onepx_basis", "poly.basis_change", _basis_pairs),
    ("padiclog._poly", "pascal_rows", "poly.pascal_rows", _pascal_key),
    ("padiclog._poly", "binom_row_mod", "poly.binom_row_mod", None),
    ("padiclog.linsolve", "solve_mod_ppow", "linsolve.solve_mod_ppow",
     _solve_cells),
    ("padiclog.cycser", "frobenius", "cycser.frobenius", None),
    ("padiclog.cycser", "mellin_inverse", "cycser.mellin_inverse", None),
    ("padiclog.iwadist", "IwaSeries.__mul__", "iwadist.IwaSeries.mul", None),
    ("padiclog.iwadist", "poly_reduce", "iwadist.poly_reduce", None),
    ("padiclog.iwadist", "solve_series_div", "iwadist.solve_series_div", None),
    ("padiclog.iwadist", "equal_up_to_unit_mod",
     "iwadist.equal_up_to_unit_mod", None),
    ("padiclog.iwadist", "halflog", "iwadist.halflog", None),
    ("padiclog.iwadist", "eval_at", "iwadist.eval_at", None),
    ("padiclog.logmat", "log_matrix_ap0", "logmat.log_matrix_ap0", None),
    ("padiclog.logmat", "qinv_times", "logmat.qinv_times", None),
    ("padiclog.split", "signed_split", "split.signed_split", None),
    ("padiclog.split", "antisym_factor", "split.antisym_factor", None),
    ("padiclog.regdiv", "chevalley_check", "regdiv.chevalley_check", None),
    ("padiclog.regdiv", "divides_trunc", "regdiv.divides_trunc", None),
    ("padiclog.regdiv", "specialize", "regdiv.specialize", None),
    ("padiclog.galimg", "closure", "galimg.closure", None),
    ("padiclog.galimg", "find_tau", "galimg.find_tau", None),
    ("padiclog.galimg", "goursat_product_check",
     "galimg.goursat_product_check", None),
    ("padiclog.qexp", "theta_series", "qexp.theta_series", None),
    ("padiclog.qexp", "eisenstein_depleted", "qexp.eisenstein_depleted", None),
    ("padiclog.cli", "main", "cli.main", None),
] + [("padiclog.checks", "SUITES." + s, "checks." + s, None) for s in SUITES]

PADIC_ARITH = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
               "__pow__", "inv")


class Tracer:
    """Span recorder.  Set ``job`` before each job; call ``install`` once."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._active = {}
        self._padic_new = [0]
        self._padic_arith = [0]

    def _wrap(self, name, fn, note):
        spans, stack, active = self.spans, self._stack, self._active
        active.setdefault(name, 0)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job,
                   active[name] == 0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kw)
            except BaseException as exc:
                rec[7] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                active[name] -= 1
                stack.pop()
            if note is not None:
                rec[6] = note(args, kw, result)
            return result

        return traced

    @staticmethod
    def _counted(fn, cell):
        def counted(*args, **kw):
            cell[0] += 1
            return fn(*args, **kw)
        return counted

    def install(self):
        """Wrap every WRAPS entry and rebind all of its aliases."""
        import padiclog.cli  # noqa: F401  (loads every module cli imports)
        replace = {}
        for modname, path, name, note in WRAPS:
            owner = importlib.import_module(modname)
            *parents, leaf = path.split(".")
            for part in parents:
                owner = (owner[part] if isinstance(owner, dict)
                         else getattr(owner, part))
            fn = owner[leaf] if isinstance(owner, dict) else getattr(owner, leaf)
            replace[id(fn)] = (fn, self._wrap(name, fn, note))
        padic = importlib.import_module("padiclog.padic")
        elt = padic.PadicElt
        for attr in PADIC_ARITH:
            fn = vars(elt)[attr]
            replace.setdefault(id(fn), (fn, self._counted(fn, self._padic_arith)))
        fn = vars(elt)["__init__"]
        replace[id(fn)] = (fn, self._counted(fn, self._padic_new))

        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "padiclog" or n.startswith("padiclog.")]
        for mod in namespaces:
            for key, val in list(vars(mod).items()):
                if id(val) in replace and replace[id(val)][0] is val:
                    setattr(mod, key, replace[id(val)][1])
                elif isinstance(val, dict):
                    for dk, dv in list(val.items()):
                        if id(dv) in replace and replace[id(dv)][0] is dv:
                            val[dk] = replace[id(dv)][1]
                elif isinstance(val, type) and val.__module__.startswith("padiclog"):
                    for ck, cv in list(vars(val).items()):
                        if id(cv) in replace and replace[id(cv)][0] is cv:
                            setattr(val, ck, replace[id(cv)][1])

    def dump(self, path, jobs, extra=None):
        """Write spans, counters and the traced jobs' wall times as JSON."""
        doc = {"spans": self.spans, "jobs": jobs,
               "counts": {"padic.PadicElt.new": self._padic_new[0],
                          "padic.PadicElt.arith": self._padic_arith[0]}}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- aggregation --------------------------------------------------------------

CALLS_SELF = ["poly.vec_mul", "poly.basis_change", "poly.pascal_rows",
              "poly.binom_row_mod", "linsolve.solve_mod_ppow",
              "cycser.frobenius", "cycser.mellin_inverse",
              "iwadist.IwaSeries.mul", "iwadist.poly_reduce",
              "iwadist.solve_series_div",
              "iwadist.equal_up_to_unit_mod", "iwadist.halflog",
              "iwadist.eval_at", "logmat.log_matrix_ap0", "logmat.qinv_times",
              "split.signed_split", "split.antisym_factor",
              "regdiv.chevalley_check", "regdiv.divides_trunc",
              "regdiv.specialize", "cli.main"]
WITH_TOTAL = ["logmat.log_matrix_ap0", "logmat.qinv_times",
              "split.signed_split", "split.antisym_factor"]
TOTAL_ONLY = ["galimg.closure", "galimg.find_tau",
              "galimg.goursat_product_check", "qexp.theta_series",
              "qexp.eisenstein_depleted"] + ["checks." + s for s in SUITES]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in CALLS_SELF:
        out.append((name + ".calls", "1/job"))
        if name in WITH_TOTAL:
            out.append((name + ".total_s", "s/job"))
        out.append((name + ".self_s", "s/job"))
        if name == "poly.vec_mul":
            out.append(("poly.vec_mul.coeff_products", "1/job"))
        elif name == "poly.basis_change":
            out.append(("poly.basis_change.coeff_pairs", "1/job"))
        elif name == "poly.pascal_rows":
            out.append(("poly.pascal_rows.hit_ratio", "ratio"))
            out.append(("poly.pascal_rows.new_cells", "1/job"))
        elif name == "linsolve.solve_mod_ppow":
            out.append(("linsolve.solve_mod_ppow.cells", "1/job"))
            out.append(("linsolve.solve_mod_ppow.inconsistent", "1/job"))
    out += [("padic.PadicElt.new", "1/job"), ("padic.PadicElt.arith", "1/job"),
            ("split.rejections", "1/job"), ("regdiv.solves_per_division", "ratio")]
    out += [(name + ".total_s", "s/job") for name in TOTAL_ONLY]
    out += [("cli.out_bytes", "B/job"), ("cli.import_s", "s"),
            ("trace.overhead", "ratio")]
    return out


def layer_table(docs):
    """Per-name sums over the span files: calls, total, self, notes, jobs.

    Self time is a span's duration minus the durations of its direct
    children; total time counts only spans with no same-named ancestor.
    """
    calls, total, self_t, notes, excs = {}, {}, {}, {}, {}
    div_solves = 0
    counts = {"padic.PadicElt.new": 0, "padic.PadicElt.arith": 0}
    njobs, job_wall = 0, 0.0
    for doc in docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _job, _outer, _note, _exc in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _p, _job, outer, note, exc) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + (t1 - t0) - child[i]
            if outer:
                total[name] = total.get(name, 0.0) + (t1 - t0)
            if note is not None:
                notes.setdefault(name, []).append(note)
            if exc is not None:
                excs[(name, exc)] = excs.get((name, exc), 0) + 1
            if (name == "linsolve.solve_mod_ppow" and _p >= 0
                    and spans[_p][0] == "regdiv.divides_trunc"):
                div_solves += 1
        for key in counts:
            counts[key] += doc["counts"].get(key, 0)
        njobs += len(doc["jobs"])
        job_wall += sum(w for _j, w in doc["jobs"])
    return {"calls": calls, "total": total, "self": self_t, "notes": notes,
            "excs": excs, "div_solves": div_solves, "counts": counts, "jobs": njobs, "job_wall": job_wall}


def per_layer_metrics(docs, out_bytes, import_s, overhead):
    """The per-layer metric values, normalized per traced job."""
    t = layer_table(docs)
    jobs = max(1, t["jobs"])
    calls, notes = t["calls"], t["notes"]
    vals = {}
    for name in CALLS_SELF:
        vals[name + ".calls"] = calls.get(name, 0) / jobs
        vals[name + ".self_s"] = t["self"].get(name, 0.0) / jobs
        if name in WITH_TOTAL:
            vals[name + ".total_s"] = t["total"].get(name, 0.0) / jobs
    vals["poly.vec_mul.coeff_products"] = sum(notes.get("poly.vec_mul", [])) / jobs
    vals["poly.basis_change.coeff_pairs"] = \
        sum(notes.get("poly.basis_change", [])) / jobs
    keys = {tuple(k) for k in notes.get("poly.pascal_rows", [])}
    pcalls = calls.get("poly.pascal_rows", 0)
    vals["poly.pascal_rows.hit_ratio"] = 1 - len(keys) / pcalls if pcalls else 0.0
    vals["poly.pascal_rows.new_cells"] = sum(n * (n + 1) // 2 for n, _m in keys) / jobs
    solves = notes.get("linsolve.solve_mod_ppow", [])
    vals["linsolve.solve_mod_ppow.cells"] = sum(c for c, _ in solves) / jobs
    vals["linsolve.solve_mod_ppow.inconsistent"] = sum(i for _, i in solves) / jobs
    for key, val in t["counts"].items():
        vals[key] = val / jobs
    vals["split.rejections"] = \
        t["excs"].get(("split.signed_split", "NoBoundedSolution"), 0) / jobs
    ndiv = calls.get("regdiv.divides_trunc", 0)
    vals["regdiv.solves_per_division"] = \
        t["div_solves"] / ndiv if ndiv else 0.0
    for name in TOTAL_ONLY:
        vals[name + ".total_s"] = t["total"].get(name, 0.0) / jobs
    vals["cli.out_bytes"] = out_bytes / jobs
    vals["cli.import_s"] = import_s
    vals["trace.overhead"] = overhead
    return vals, t
