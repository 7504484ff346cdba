"""Group-ring oracle for the two-torus.

The fundamental group is the integer lattice; its group ring is spanned
by lattice points with convolution product.  J denotes the augmentation
ideal, and the quotients by its powers have the explicit monomial basis
(t1 - 1)^a (t2 - 1)^b with a + b < p.  The combinatorial bracket of two
lattice classes is their determinant times the sum class, extended
bilinearly; it is the independent reference the cochain pipeline is
compared against.
"""

import itertools
import math

from . import cochains
from .cochains import DualCochain
from .dga import builtin_model
from .linalg import _div, acc, add_scaled


class TruncationError(ValueError):
    """A requested comparison needs a deeper weight cutoff."""


class GroupRingElement:
    """Finitely supported function on the lattice, convolution product."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for g, c in terms.items():
                if c:
                    self.terms[g] = c

    @classmethod
    def group(cls, m, n):
        return cls({(m, n): 1})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    def add(self, other):
        return GroupRingElement(add_scaled(dict(self.terms), other.terms))

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        return GroupRingElement({g: c * v for g, v in self.terms.items()})

    def mul(self, other):
        out = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                acc(out, (m1 + m2, n1 + n2), c1 * c2)
        return GroupRingElement(out)

    def augmentation(self):
        return sum(self.terms.values())

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        parts = [f"{c}·t{g}" for g, c in sorted(self.terms.items())]
        return "GroupRingElement(" + " + ".join(parts) + ")"


def jadic_basis(p):
    """Exponent pairs (a, b) with a + b < p, ordered by total degree."""
    out = []
    for total in range(p):
        for a in range(total, -1, -1):
            out.append((a, total - a))
    return out


def _binomial(m, k):
    """Generalized binomial: works for negative upper index."""
    num = 1
    for i in range(k):
        num *= m - i
    return _div(num, math.factorial(k))


def jadic_reduce(x, p):
    """Coordinates of x modulo J^p in the monomial basis.

    Expands each lattice point through t^m = (1 + (t-1))^m with the
    generalized binomial series, truncated at total degree p.
    """
    coords = {}
    for (m, n), c in x.terms.items():
        for a, b in jadic_basis(p):
            acc(coords, (a, b), c * _binomial(m, a) * _binomial(n, b))
    return coords


def goldman_torus(u, v):
    """Combinatorial bracket of two lattice loops: det times the sum."""
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0:
        return GroupRingElement()
    return GroupRingElement({(u[0] + v[0], u[1] + v[1]): det})


def goldman_bracket(x, y):
    """Bilinear extension of the lattice bracket to the group ring."""
    out = GroupRingElement()
    for u, c1 in x.terms.items():
        for v, c2 in y.terms.items():
            out = out.add(goldman_torus(u, v).scale(c1 * c2))
    return out


def _winding(A):
    """Map each degree-1 basis index to its lattice coordinate slot."""
    deg1 = A.basis_of_degree(1)
    if len(deg1) != 2:
        raise TruncationError(
            f"model {A.label} is not the two-torus (degree-1 rank "
            f"{len(deg1)})")
    return {deg1[0]: 0, deg1[1]: 1}


def holonomy_cochain(A, u, weight_cutoff):
    """Degree-0 dual cochain of a lattice loop, truncated by weight.

    On a word of degree-1 letters the value at the unit test slot is the
    product of the loop's coordinates in those letters divided by the
    factorial of the length (iterated integrals of constant forms along
    a straight loop); all other entries vanish.
    """
    slot = _winding(A)
    coords = {i: u[k] for i, k in slot.items()}
    entries = {((), A.unit): 1}
    letters = [i for i in sorted(slot) if coords[i]]
    for r in range(1, weight_cutoff + 1):
        fact = math.factorial(r)
        for word in itertools.product(letters, repeat=r):
            num = 1
            for i in word:
                num *= coords[i]
            entries[(word, A.unit)] = _div(num, fact)
    return DualCochain(A, entries, degree=0)


def group_ring_to_cochain(A, x, weight_cutoff):
    """Linear extension of holonomy over a group-ring element."""
    out = DualCochain(A, {}, degree=0)
    for u, c in x.terms.items():
        out = out.add(holonomy_cochain(A, u, weight_cutoff).scale(c))
    return out


class Pi1Report:
    """Dimension comparison between the group-ring quotient and the
    degree-0 homology of the truncated dual complex."""

    def __init__(self, p, weight_cutoff, group_ring_dim, h0_dim):
        self.p = p
        self.weight_cutoff = weight_cutoff
        self.group_ring_dim = group_ring_dim
        self.h0_dim = h0_dim

    @property
    def match(self):
        return self.group_ring_dim == self.h0_dim

    def __repr__(self):
        return (f"Pi1Report(p={self.p}, group_ring={self.group_ring_dim}, "
                f"h0={self.h0_dim}, match={self.match})")


def compare_pi1_dimensions(p, A=None):
    """Compare dim of the group ring mod J^p with H_0 of the dual complex
    truncated at weight p - 1, the cutoff that matches it: each weight
    layer adds one power of the augmentation ideal.
    """
    if p < 1:
        raise TruncationError("p must be at least 1")
    if A is None:
        A = builtin_model("torus:2")
    pres = cochains.hochschild_homology(A, "to_dual", (0, 0), p - 1)
    return Pi1Report(p, p - 1, len(jadic_basis(p)), pres[0].betti)
