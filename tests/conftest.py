"""Shared helpers for the test suite.

Models are cached per process so the word tables and pairing table they
carry get reused across test files.  Random data always comes from a
seeded random.Random, never the global RNG.
"""

import functools
import random

from looptop import builtin_model
from looptop.cochains import Cochain, DualCochain, assemble_complex

# One representative per builtin family plus two cheap extensions.
MODEL_IDS = [
    "sphere:2",
    "sphere:3",
    "complex_projective:1",
    "complex_projective:2",
    "surface:1",
    "surface:2",
    "torus:1",
    "torus:2",
    "acyclic_extension:sphere:2",
    "acyclic_extension:torus:1",
]


@functools.lru_cache(maxsize=None)
def model(model_id):
    return builtin_model(model_id)


def slice_bases(A, variant, degree_range, cutoff):
    """Nonempty slice bases per degree, as lists."""
    out = {}
    lo, hi = degree_range
    for n in range(lo, hi + 1):
        basis = assemble_complex(A, variant, n, cutoff).basis
        if basis:
            out[n] = list(basis)
    return out


def random_cochain(A, rng, bases, variant="to_A", degree=None, terms=3):
    """Sparse homogeneous cochain with small integer coefficients."""
    if degree is None:
        degree = rng.choice(sorted(bases))
    keys = rng.sample(bases[degree], min(terms, len(bases[degree])))
    entries = {}
    for k in keys:
        c = rng.randint(-3, 3)
        if c:
            entries[k] = c
    cls = Cochain if variant == "to_A" else DualCochain
    return cls(A, entries, degree=degree)


def restrict_weight(A, phi, cutoff):
    """phi with its entries on words longer than the cutoff dropped."""
    return type(phi)(A, {k: v for k, v in phi.entries.items()
                         if len(k[0]) <= cutoff}, degree=phi.degree)
