"""Finite-precision p-adic power-series toolkit.

Modules:
  padic   -- fixed-point p-adic numbers with precision tracking and small
             quadratic extensions
  cycser  -- Frobenius and a Mellin inverse on O[[pi]] that no module calls
  iwadist -- IwaSeries, the one truncated-series type (also the elements of
             O[[pi]] and the values of eval_at in O[z]/Phi_{p^t}), and
             Iwasawa-algebra truncations: omega/Phi/delta families, twists,
             Pollack half-logarithms, evaluation and up-to-unit comparison
  logmat  -- logarithmic matrices from a_p = 0 Frobenius data, block forms
  split   -- signed splitting through a logarithmic matrix, antisymmetric
             factorization
  regdiv  -- divisibility checking in truncated multivariate series rings
             over Z_p (int coefficients mod p^prec)
  galimg  -- finite matrix-group enumeration, product criteria, tau search
  qexp    -- theta series, p-depletion, Eisenstein layers, Euler products
  checks  -- the named invariant suites behind `padiclog check`

Every name in __all__ is importable from the package itself
(``from padiclog import IwaSeries``) and loads its module on first access
(PEP 562), so importing the package, or one module of it, compiles no
module that the run does not use.
"""

import importlib

# (module, the names it exports): tuples, as no module of the package may hold
# a dict, list or set that could grow for the life of the process.
_EXPORTS = (
    ("padic", ("PadicElt", "PrimeCtx", "sqrt")),
    ("iwadist", ("CharPoint", "IwaSeries", "delta", "equal_up_to_unit_mod",
                 "eval_at", "halflog", "is_unit", "log_tw", "omega",
                 "omega_tw", "phi_cyc", "phi_tw", "solve_series_div",
                 "twist")),
    ("logmat", ("CrystalParams", "LogMatrix", "log_matrix_ap0", "q_fg_block",
                "q_matrix", "q_matrix_inv", "qinv_times",
                "semi_ordinary_block")),
    ("split", ("AlphaBetaPair", "SignedPair", "antisym_factor", "forward",
               "signed_split")),
    ("regdiv", ("MSeries", "SpecFamily", "chevalley_check", "divides_trunc",
                "specialize")),
    ("galimg", ("MatGroupGen", "closure", "find_tau",
                "goursat_product_check")),
    ("qexp", ("ImagQuadCtx", "QExpansion", "deplete", "dirichlet_from_euler",
              "eisenstein_depleted", "nebentype_value", "theta_series")),
)

__all__ = [name for _, names in _EXPORTS for name in names]


def __getattr__(name):
    for module, names in _EXPORTS:
        if name in names:
            return getattr(importlib.import_module("padiclog." + module), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
