r"""Exact Hodge integrals on moduli of stable and pseudostable curves.

Layers, bottom up:

* :mod:`pshodge.wk` -- psi intersection numbers via the
  Witten--Kontsevich (DVV) recursion;
* :mod:`pshodge.hodge` -- kappa-class and lambda-class integrals through
  Chern-character reduction (Newton conversion plus the
  Grothendieck--Riemann--Roch boundary recursion on psi and ch factors,
  Mumford's kappa term entering as a new marking); kappa classes are
  eliminated against fresh points at entry;
* :mod:`pshodge.strata` -- the elliptic-tail strata algebra, with one
  product loop and one memo of ``hat_lambda`` products, and the
  translation of pseudostable Hodge integrals to stable ones;
* :mod:`pshodge.hurwitz` -- Hurwitz numbers counted from the characters
  of S_d, against their linear-Hodge evaluation (ELSV), an independent
  end-to-end check;
* :mod:`pshodge.expr`, :mod:`pshodge.cli` -- the parser, which reads an
  expression straight into its top-degree lambda/psi monomials in one
  pass, and the command-line front end.

All arithmetic is exact (:class:`fractions.Fraction`); there is no
floating-point mode.

Library names are imported from their submodules, e.g.
``from pshodge.strata import expr_integral``; the package itself exports
only :func:`clear_caches` and ``__version__``.
"""

from . import hodge, strata

__version__ = "0.1.0"

__all__ = ["clear_caches", "__version__"]


def clear_caches():
    """Drop the Hodge-integral and GRR memos and the square-free rewrites,
    the one memo of ``hat_lambda`` products (complete prefixes and
    integrable last products alike), the table of lambda restrictions over
    unmatched tails and the tail matchings by type (the WK table is
    managed separately)."""
    hodge.clear_caches()
    strata.clear_caches()
