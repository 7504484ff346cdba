"""Exact-arithmetic loop-space homology over finite algebra models.

The package builds the reduced bar construction of a graded algebra
model, the two flavours of cochain complexes on it, the duality map
between them, and the string bracket, together with a group-ring oracle
for the two-torus used to cross-check everything.  The top level
exports the README's entry points and the errors the command line
reports; everything else lives in the submodules.
"""

from .dga import ModelError, build_dga, builtin_model, validate_dga
from .cochains import (DualCochain, cup, hochschild_homology,
                       loop_homology)
from .duality import (BracketModelError, CycleError, NotInImageError,
                      bracket, e1_bracket, e1_term)
from .lattice import TruncationError

__version__ = "0.1.0"
