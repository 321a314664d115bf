"""Finite-precision p-adic power-series toolkit.

Modules:
  padic   -- fixed-point p-adic numbers with precision tracking and small
             quadratic extensions
  cycser  -- the level-n group ring and the finite-level Mellin transform
             on O[[pi]]
  iwadist -- IwaSeries, the one truncated-series type (also the elements of
             O[[pi]] and the values of eval_at in O[z]/Phi_{p^t}), and
             Iwasawa-algebra truncations: omega/Phi/delta families, twists,
             Pollack half-logarithms, evaluation and up-to-unit comparison
  logmat  -- logarithmic matrices from a_p = 0 Frobenius data, block forms
  split   -- signed splitting through a logarithmic matrix, antisymmetric
             factorization, log-divisibility test
  regdiv  -- divisibility checking in truncated multivariate series rings
             over Z_p (int coefficients mod p^prec)
  galimg  -- finite matrix-group enumeration, product criteria, tau search
  qexp    -- theta series, p-depletion, Eisenstein layers, Euler products
  checks  -- the named invariant suites behind `padiclog check`
"""

from padiclog.padic import PadicElt, PrimeCtx, sqrt, teichmuller
from padiclog.cycser import FiniteGroupRingElt, mellin, mellin_inverse
from padiclog.iwadist import (CharPoint, IwaSeries, delta, divide_exact,
                              equal_up_to_unit_mod, eval_at, halflog, is_unit,
                              log_tw, omega, omega_tw, phi_cyc, phi_tw, twist)
from padiclog.logmat import (CrystalParams, LogMatrix, log_matrix_ap0,
                             q_fg_block, q_matrix, q_matrix_inv, qinv_times,
                             semi_ordinary_block)
from padiclog.split import (AlphaBetaPair, SignedPair, antisym_factor,
                            forward, logdiv_check, signed_split)
from padiclog.regdiv import MSeries, SpecFamily, chevalley_check, divides_trunc, specialize
from padiclog.galimg import (DihedralData, MatGroupGen, closure, dihedral_rep,
                             find_tau, goursat_product_check)
from padiclog.qexp import (ImagQuadCtx, QExpansion, deplete,
                           dirichlet_from_euler, eisenstein_depleted,
                           nebentype_value, theta_series)

__all__ = [
    "PadicElt", "PrimeCtx", "sqrt", "teichmuller",
    "FiniteGroupRingElt", "mellin", "mellin_inverse",
    "CharPoint", "IwaSeries", "delta", "divide_exact", "equal_up_to_unit_mod",
    "eval_at", "halflog", "is_unit", "log_tw", "omega", "omega_tw", "phi_cyc",
    "phi_tw", "twist",
    "CrystalParams", "LogMatrix", "log_matrix_ap0", "q_fg_block", "q_matrix",
    "q_matrix_inv", "qinv_times", "semi_ordinary_block",
    "AlphaBetaPair", "SignedPair", "antisym_factor", "forward", "logdiv_check",
    "signed_split",
    "MSeries", "SpecFamily", "chevalley_check", "divides_trunc", "specialize",
    "DihedralData", "MatGroupGen", "closure", "dihedral_rep", "find_tau",
    "goursat_product_check",
    "ImagQuadCtx", "QExpansion", "deplete", "dirichlet_from_euler",
    "eisenstein_depleted", "nebentype_value", "theta_series",
]
