"""Exact-arithmetic loop-space homology over finite algebra models.

The package builds the reduced bar construction of a graded algebra
model, the two flavours of cochain complexes on it, the duality map
between them, and the string bracket, together with a group-ring oracle
for the two-torus used to cross-check everything.
"""

from .linalg import (CompositionError, Echelon, SubquotientBasis,
                     column_rank, homology, kernel_basis)
from .dga import (DGA, DegreeMismatchError, ModelError, OrientationError,
                  ParseError, UnknownNameError, ValidationReport,
                  acyclic_extension, build_dga, builtin_model, dga_homology,
                  dga_to_doc, orientation_pairing, validate_dga)
from .bar import (BarSlice, HomologyPresentation, bar_coproduct, bar_d,
                  bar_degree, bar_homology, bar_slice, word_str,
                  words_by_degree)
from .cochains import (Cochain, ComplexSlice, DualCochain, GradingError,
                       LoopHomology, assemble_complex, cup, delta_squared_zero,
                       delta_to_A, delta_to_dual, hochschild_homology,
                       loop_homology, normalization_check,
                       normalization_violations, unit_cochain)
from .duality import (BracketModelError, CycleError, E1Functional, E1Report,
                      NotInImageError, SymplecticBasis, bracket,
                      chain_pairing_invertible, connes_B,
                      dual_cochain_of_e1, e1_bracket, e1_of_dual_cochain,
                      e1_term, poincare_P, poincare_P_chain_inverse,
                      poincare_P_inverse, symplectic_basis)
from .lattice import (GroupRingElement, JadicClass, Pi1Report,
                      TruncationError, compare_pi1_dimensions,
                      goldman_bracket, goldman_torus, group_ring_to_cochain,
                      holonomy_cochain, holonomy_functional, in_jadic,
                      jadic_basis, jadic_reduce)

__version__ = "0.1.0"
