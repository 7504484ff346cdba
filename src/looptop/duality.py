"""Duality between the two cochain flavours, the rotation operator, and
the string bracket built from them.

The pairing map P sends a to-A cochain phi to the dual cochain
P(phi)(w)(b) = orientation(b ∧ phi(w)); it preserves words and raises
degree by the top degree.  Its chain-level inverse exists exactly when
the basis-level orientation pairing is invertible in every degree, which
holds for the closed builtin models.  The rotation operator B cycles a
word through the test slot (dropping weight by one, raising degree by
one), and the bracket of two degree-0 dual classes is
-P(P^{-1}B(c1) ∪ P^{-1}B(c2)).
"""

import itertools

from .linalg import Echelon, acc, homology
# words_by_degree is unused here, but bench/tracing.py wraps it under this
# module and its restore test reads it back
from .bar import bar_degree, words_by_degree  # noqa: F401
from .dga import OrientationError
from .cochains import (Cochain, DualCochain, GradingError, assemble_complex,
                       cup, delta_to_dual, _delta_entry_dual)


class NotInImageError(ValueError):
    """Target class is outside the image (truncation too small or the
    pairing is degenerate)."""


class CycleError(ValueError):
    """An operator output that must be a cycle is not one."""


class BracketModelError(ValueError):
    """The model cannot support the bracket construction."""


def _pairing(A):
    """The orientation pairing as one cached table (forward, inverse).

    forward[a] = {b: orient(b·a)} over b of the complementary degree, in
    basis order.  inverse[b] = {a: coeff} inverts it columnwise:
    x[a] = sum_b inverse[b][a] * t[b] solves sum_a x[a] forward[a] = t.
    The table is square over the basis and block-diagonal by degree, so
    one echelon serves every degree, and full column rank already means
    every {b: 1} is hit; inverse is None otherwise.
    """
    table = A._cache.get("pairing")
    if table is None:
        d = A.top_degree
        forward = {a: {b: v for b in A.basis_of_degree(d - A.degrees[a])
                       if (v := A.orient(A.mul(b, a)))}
                   for a in range(A.dim)}
        ech = Echelon()
        inverse = None
        if all(ech.insert(forward[a], a) is None for a in range(A.dim)):
            inverse = {b: ech.express({b: 1}) for b in range(A.dim)}
        table = A._cache["pairing"] = (forward, inverse)
    return table


def chain_pairing_invertible(A):
    """Whether P is invertible wordwise (the pairing table is)."""
    return A.orientation is not None and _pairing(A)[1] is not None


def poincare_P(A, phi):
    """Pair a to-A cochain against the orientation: degree rises by top."""
    if A.orientation is None:
        raise OrientationError(f"model {A.label} has no orientation")
    if phi.variant != "to_A":
        raise GradingError("poincare_P expects a to-A cochain")
    forward = _pairing(A)[0]
    out = {}
    for (w, a), c in phi.entries.items():
        for b, v in forward[a].items():
            acc(out, (w, b), c * v)
    return DualCochain(A, out, degree=phi.degree + A.top_degree)


def poincare_P_chain_inverse(A, psi):
    """Exact wordwise inverse of P on a dual cochain."""
    if psi.variant != "to_dual":
        raise GradingError("expected a dual cochain")
    if not chain_pairing_invertible(A):
        raise NotInImageError(
            f"orientation pairing of {A.label} is not chain-invertible")
    inverse = _pairing(A)[1]
    out = {}
    for (w, b), c in psi.entries.items():
        for a, v in inverse[b].items():
            acc(out, (w, a), c * v)
    return Cochain(A, out, degree=psi.degree - A.top_degree)


def poincare_P_inverse(A, psi, weight_cutoff):
    """Solve P(x) = psi modulo coboundaries in the truncated complex.

    Returns a to-A cocycle representative; raises NotInImageError when
    the class is not hit (degenerate pairing or cutoff too small).
    """
    if psi.variant != "to_dual":
        raise GradingError("expected a dual cochain")
    if chain_pairing_invertible(A):
        return poincare_P_chain_inverse(A, psi)
    d = A.top_degree
    m = psi.degree - d
    src = assemble_complex(A, "to_A", m, weight_cutoff)
    src_above = assemble_complex(A, "to_A", m + 1, weight_cutoff)
    cycles = homology(src_above.delta_columns, src.delta_columns)
    dual_above = assemble_complex(A, "to_dual", psi.degree + 1, weight_cutoff)
    ech = Echelon()
    reps = []
    for i, z in enumerate(cycles.representatives):
        phi = Cochain(A, dict(z), degree=m)
        reps.append(phi)
        ech.insert(poincare_P(A, phi).entries, ("c", i))
    # images of to-A coboundaries are dual coboundaries (P intertwines
    # the differentials up to sign), so the coboundary generators below
    # absorb them
    for j, key in enumerate(dual_above.basis):
        col = dual_above.delta_columns[key]
        if col:
            ech.insert(col, ("b", j))
    expr = ech.express(psi.entries)
    if expr is None:
        raise NotInImageError(
            "class is not in the image of the duality map at this cutoff")
    out = Cochain(A, {}, degree=m)
    for tag, c in expr.items():
        kind, i = tag
        if kind == "c":
            out = out.add(reps[i].scale(c))
    return out


def connes_B(A, phi, p):
    """Rotation operator on dual cochains.

    B(phi)(w_1..w_r)(b) cycles (b, w_*) through the unit test slot:
    only entries of phi whose test index is the unit contribute, and each
    letter of such a word takes one turn as the new test element.  Weight
    drops by one, degree rises by one.
    """
    if phi.variant != "to_dual":
        raise GradingError("connes_B expects a dual cochain")
    if phi.weight_support > p:
        raise GradingError(
            f"cochain has weight {phi.weight_support}, expected <= {p}")
    out = {}
    for (u, val), c in phi.entries.items():
        if val != A.unit or not u:
            continue
        eps_u = bar_degree(A, u)
        for j, b in enumerate(u):
            w = u[j + 1:] + u[:j]
            eps_k = bar_degree(A, u[j + 1:])
            eps_r = eps_u - (A.degrees[b] - 1)
            e = (eps_k + 1) * (eps_r - eps_k)
            sign = -1 if e % 2 else 1
            acc(out, (w, b), sign * c)
    return DualCochain(A, out, degree=phi.degree + 1)


class SymplecticBasis:
    """Index pairs (alpha_i, beta_i) in degree one realizing the
    orientation pairing as the standard symplectic form."""

    def __init__(self, alphas, betas):
        self.alphas = tuple(alphas)
        self.betas = tuple(betas)

    @property
    def genus(self):
        return len(self.alphas)


def symplectic_basis(A):
    """Extract a symplectic pairing among degree-1 basis elements.

    Requires top degree 2 and a degree-1 basis whose orientation pairing
    is exactly the standard form under some index pairing; the builtin
    surface and two-torus models qualify.
    """
    def lacks(reason):
        return BracketModelError(
            f"model lacks symplectic degree-1 structure ({reason})")

    if A.orientation is None:
        raise lacks("no orientation")
    if A.top_degree != 2:
        raise lacks(f"top degree {A.top_degree} != 2")
    deg1 = A.basis_of_degree(1)
    if not deg1:
        raise lacks("no degree-1 elements")
    forward = _pairing(A)[0]
    remaining = list(deg1)
    alphas, betas = [], []
    while remaining:
        i = remaining.pop(0)
        partner = next((j for j in remaining if forward[j].get(i) == 1),
                       None)
        if partner is None:
            raise lacks(f"{A.names[i]} has no unit-pairing partner")
        remaining.remove(partner)
        alphas.append(i)
        betas.append(partner)
    standard = {}
    for a, b in zip(alphas, betas):
        standard[(a, b)], standard[(b, a)] = 1, -1
    for x, y in itertools.product(deg1, repeat=2):
        if forward[y].get(x, 0) != standard.get((x, y), 0):
            raise lacks(f"pairing of {A.names[x]},{A.names[y]} "
                        "is not standard")
    return SymplecticBasis(alphas, betas)


def bracket(A, c1, c2, p, q, eval_cutoff=None):
    """String bracket of two degree-0 dual classes.

    c1 and c2 are degree-0 dual cocycles supported in weights <= p, <= q.
    The output is a degree-0 dual cochain supported in weight
    <= p + q - 2; passing eval_cutoff truncates the output further, which
    is cheaper when only a low window is compared.  The rotated inputs
    are checked to be cocycles in their truncated complexes.
    """
    symplectic_basis(A)  # raises BracketModelError when unsupported
    if c1.variant != "to_dual" or c2.variant != "to_dual":
        raise GradingError("bracket expects dual cochains")
    if c1.degree != 0 or c2.degree != 0:
        raise GradingError("bracket expects degree-0 classes")
    if c1.weight_support > p or c2.weight_support > q:
        raise GradingError("class support exceeds its stated filtration")
    out_cutoff = p + q - 2
    if eval_cutoff is not None:
        out_cutoff = min(out_cutoff, eval_cutoff)
    b1 = connes_B(A, c1, p)
    b2 = connes_B(A, c2, q)
    if not delta_to_dual(A, b1, weight_cutoff=p - 1).is_zero:
        raise CycleError("rotated first argument is not a cocycle")
    if not delta_to_dual(A, b2, weight_cutoff=q - 1).is_zero:
        raise CycleError("rotated second argument is not a cocycle")
    x1 = poincare_P_chain_inverse(A, b1)
    x2 = poincare_P_chain_inverse(A, b2)
    y = cup(A, x1, x2, weight_cutoff=out_cutoff)
    return poincare_P(A, y).scale(-1)


class E1Functional:
    """Top-layer page element: a functional on weight-p words of
    degree-1 letters, evaluated at the unit test slot.

    table maps p-tuples of degree-1 basis indices to coefficients.
    """

    def __init__(self, arity, table):
        self.arity = arity
        self.table = {t: c for t, c in table.items() if c}

    def __eq__(self, other):
        if not isinstance(other, E1Functional):
            return NotImplemented
        return self.arity == other.arity and self.table == other.table

    @property
    def is_zero(self):
        return not self.table

    def __repr__(self):
        return f"E1Functional(arity={self.arity}, {len(self.table)} terms)"


def _cyclic_sum(f, word):
    """Sum of f over the cyclic rotations of word."""
    return sum(f.table.get(word[m:] + word[:m], 0) for m in range(len(word)))


def e1_bracket(A, f1, f2, symp=None):
    """Leading-layer bracket of two top-layer functionals.

    Sums over the symplectic pairs and all cyclic rotations of each
    factor's argument block: rotations act by moving the front letter to
    the back.  The double sum over rotations of both blocks is the
    product of the two cyclic sums.  The result has arity p + q - 2.
    """
    if symp is None:
        symp = symplectic_basis(A)
    p, q = f1.arity, f2.arity
    if p < 1 or q < 1:
        raise GradingError("e1_bracket needs arities >= 1")
    deg1 = A.basis_of_degree(1)
    table = {}
    for letters in itertools.product(deg1, repeat=p + q - 2):
        left, right = letters[:p - 1], letters[p - 1:]
        total = sum(
            _cyclic_sum(f1, (a,) + left) * _cyclic_sum(f2, (b,) + right)
            - _cyclic_sum(f1, (b,) + left) * _cyclic_sum(f2, (a,) + right)
            for a, b in zip(symp.alphas, symp.betas))
        if total:
            table[letters] = total
    return E1Functional(p + q - 2, table)


def dual_cochain_of_e1(A, f):
    """Lift a top-layer functional to a degree-0 dual cochain supported
    exactly in its weight (any lift differs by lower weights)."""
    entries = {}
    for t, c in f.table.items():
        entries[(t, A.unit)] = c
    return DualCochain(A, entries, degree=0)


def e1_of_dual_cochain(A, psi, p):
    """Project a degree-0 dual cochain to its weight-p top layer."""
    table = {}
    for (w, b), c in psi.entries.items():
        if len(w) == p and b == A.unit:
            table[w] = c
    return E1Functional(p, table)


class E1Report:
    """Dimension comparison for one weight layer of the filtration."""

    def __init__(self, p, quotient_dims, formula_dims):
        self.p = p
        self.quotient_dims = quotient_dims
        self.formula_dims = formula_dims

    @property
    def match(self):
        keys = set(self.quotient_dims) | set(self.formula_dims)
        return all(self.quotient_dims.get(k, 0) == self.formula_dims.get(k, 0)
                   for k in keys)

    def __repr__(self):
        return f"E1Report(p={self.p}, match={self.match})"


def e1_term(A, p):
    """Compare the weight-p layer's homology with the closed formula.

    The layer complex keeps only weight-exactly-p words; its homology
    dimensions must match those of functionals from p-fold tensors of
    suspended positive homology into dual homology.
    """
    from .dga import dga_homology

    basis_by_degree = {}
    for w in itertools.product(A.letters, repeat=p):
        eps = bar_degree(A, w)
        for b in range(A.dim):
            n = eps + A.degrees[b]
            basis_by_degree.setdefault(n, []).append((w, b))
    for n in basis_by_degree:
        basis_by_degree[n].sort(key=lambda key: (key[0], key[1]))
    degrees = sorted(basis_by_degree)
    # at cutoff p the weight-raising terms drop out, leaving the value
    # differential and the letterwise differential of the quotient
    columns = {n: {key: _delta_entry_dual(A, key[0], key[1], p)
                   for key in basis_by_degree[n]}
               for n in degrees}
    quotient_dims = {}
    for n in degrees:
        sub = homology(columns.get(n + 1, {}), columns[n])
        if sub.betti:
            quotient_dims[n] = sub.betti

    hom = dga_homology(A)
    h_dim = {qd: sub.betti for qd, sub in hom.items() if sub.betti}
    s_dim = {qd - 1: dim for qd, dim in h_dim.items() if qd >= 1}
    tensor = {0: 1}
    for _ in range(p):
        nxt = {}
        for beta, c in tensor.items():
            for sb, dim in s_dim.items():
                nxt[beta + sb] = nxt.get(beta + sb, 0) + c * dim
        tensor = nxt
    formula_dims = {}
    for beta, c in tensor.items():
        for qd, dim in h_dim.items():
            n = beta + qd
            if c * dim:
                formula_dims[n] = formula_dims.get(n, 0) + c * dim
    return E1Report(p, quotient_dims, formula_dims)
