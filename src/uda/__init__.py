"""Exact computation of the gl-module structure of universal decomposition algebras.

The package computes, in exact rational arithmetic, how the Lie algebra of
matrices over the coefficient ring acts on the universal decomposition
algebra of the generic monic polynomial: Schur determinants in deformed
complete functions, the exterior-module star action (the brute-force
oracle), the closed-form generating functions that package every operator
image at once, and the matrix units that serve the quotient.
All operations are pure.  A value a call builds belongs to the caller; a
value a cache hands out is read-only (see ``poly.memo``).
"""

from .bilaurent import BiLaurent
from .determinant import exact_det
from .errors import (AlgebraError, DegreeZeroError, EmptyWindow,
                     ExponentOverflow, NonUnitConstantTerm, TagMismatch,
                     WindowExcludesMinusOne, WindowViolation)
from .exterior import (BasisTag, DeltaForm, DualDeltaForm, ExtElement,
                       LinearForm, contract, convert_basis,
                       expand_over_factor, reduce_mod_n, residue,
                       residue_tuple, unit_wedge, w_value, wedge,
                       wedge_coords, x_in_xc, xc_expand)
from .glaction import (ActionResult, RepMatrix, StarOperator, bracket_check,
                       generating_action, generating_action_adapted,
                       generating_action_finite, mixed_schur_det,
                       quotient_action, rep_matrix, star_oracle,
                       star_oracle_coords, universal_factorization)
from .module_iso import (poly_to_wedge, quotient_project, schur_map_of_poly,
                         schur_map_to_poly, sigma_monomial_wedge,
                         wedge_to_poly)
from .partitions import Partition, partitions_in_rectangle
from .poly import (MvPolynomial, ONE, ZERO, c_, clear_caches, e_, h_,
                   series_inverse, series_mul)
from .schubert import (sigma_bar_minus_h, sigma_bar_plus, sigma_coefficient,
                       sigma_plus)
from .symfunc import (e_to_h_rewrite, generic_factor_poly,
                      generic_monic_coeffs, giambelli, h_deformed,
                      h_symbol_series, s_coefficient)

__version__ = "0.1.0"

