r"""Exact Hodge integrals on moduli of stable and pseudostable curves.

Layers, bottom up:

* :mod:`pshodge.wk` -- psi and kappa/psi intersection numbers via the
  Witten--Kontsevich (DVV) recursion;
* :mod:`pshodge.hodge` -- lambda-class integrals through Chern-character
  reduction (Newton/Bell conversion plus the Grothendieck--Riemann--Roch
  boundary recursion);
* :mod:`pshodge.strata` -- the elliptic-tail strata algebra and the
  translation of pseudostable Hodge integrals to stable ones;
* :mod:`pshodge.hurwitz` -- brute-force Hurwitz numbers against their
  linear-Hodge evaluation (ELSV), an independent end-to-end check;
* :mod:`pshodge.expr`, :mod:`pshodge.cache`, :mod:`pshodge.cli` -- the
  expression parser, cache persistence, and command-line front end.

All arithmetic is exact (:class:`fractions.Fraction`); there is no
floating-point mode.
"""

from . import hodge, strata
from .cache import CacheFormatError, cache_load, cache_store, cache_verify
from .expr import (Lam, Lit, ParseError, Pow, Prod, Psi, Sum, Diff,
                   SymbolRangeError, parse_expression, to_text)
from .hodge import (HodgeMonomial, SparsePoly, bell_polynomial, bernoulli,
                    ch_in_lambda, ch_monomial_integral, ch_to_lambda,
                    hodge_integral, lambda_to_ch)
from .hurwitz import (EnumerationBoundError, HurwitzInstance, elsv_value,
                      hurwitz_brute, riemann_hurwitz_m)
from .strata import (EmptyModuliError, StratumTerm, TautClass, class_integrate,
                     class_multiply, expr_integral, hat_lambda,
                     is_pseudostable, ps_hodge_integral,
                     restrict_lambda_to_tails, t_pullback_ch)
from .wk import (KappaPsiMonomial, WKKey, WKTable, default_table,
                 kappa_psi_integral, wk_integral)

__version__ = "0.1.0"


def clear_caches():
    """Drop the Hodge-integral and GRR memos and the memoised
    ``hat_lambda`` products (the WK table is managed separately)."""
    hodge.clear_caches()
    strata._HAT_LAMBDA_PRODUCTS.clear()


__all__ = [
    "CacheFormatError", "cache_load", "cache_store", "cache_verify",
    "Lam", "Lit", "ParseError", "Pow", "Prod", "Psi", "Sum", "Diff",
    "SymbolRangeError", "parse_expression", "to_text",
    "HodgeMonomial", "SparsePoly", "bell_polynomial", "bernoulli",
    "ch_in_lambda", "ch_monomial_integral", "ch_to_lambda",
    "hodge_integral", "lambda_to_ch",
    "EnumerationBoundError", "HurwitzInstance", "elsv_value",
    "hurwitz_brute", "riemann_hurwitz_m",
    "EmptyModuliError", "StratumTerm", "TautClass", "class_integrate",
    "class_multiply", "expr_integral", "hat_lambda", "is_pseudostable",
    "ps_hodge_integral", "restrict_lambda_to_tails", "t_pullback_ch",
    "KappaPsiMonomial", "WKKey", "WKTable", "default_table",
    "kappa_psi_integral", "wk_integral",
    "clear_caches", "__version__",
]
