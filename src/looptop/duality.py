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

from .linalg import Echelon, acc, column_rank, homology
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


def _pairing_value(A, b, a):
    return A.orient(A.mul(b, a))


def _pairing_blocks(A):
    """Per-degree matrices o_q[b][a] = orientation(b ∧ a), a of degree q."""
    blocks = A._cache.get("pairing_blocks")
    if blocks is None:
        blocks = {}
        d = A.top_degree
        for q in sorted(set(A.degrees)):
            rows = A.basis_of_degree(d - q)
            cols = A.basis_of_degree(q)
            blocks[q] = (rows, cols,
                         {a: {b: v for b in rows
                              if (v := _pairing_value(A, b, a))}
                          for a in cols})
        A._cache["pairing_blocks"] = blocks
    return blocks


def chain_pairing_invertible(A):
    """Whether P is invertible wordwise (square nonsingular blocks)."""
    if A.orientation is None:
        return False
    flag = A._cache.get("pairing_invertible")
    if flag is None:
        flag = True
        for q, (rows, cols, mat) in _pairing_blocks(A).items():
            if len(rows) != len(cols):
                flag = False
                break
            if cols and column_rank(mat) != len(cols):
                flag = False
                break
        A._cache["pairing_invertible"] = flag
    return flag


def poincare_P(A, phi):
    """Pair a to-A cochain against the orientation: degree rises by top."""
    if A.orientation is None:
        raise OrientationError(f"model {A.label} has no orientation")
    if phi.variant != "to_A":
        raise GradingError("poincare_P expects a to-A cochain")
    d = A.top_degree
    out = {}
    for (w, a), c in phi.entries.items():
        for b in A.basis_of_degree(d - A.degrees[a]):
            v = _pairing_value(A, b, a)
            if v:
                acc(out, (w, b), c * v)
    return DualCochain(A, out, degree=phi.degree + d)


def _pairing_inverse(A):
    """Columns of o_q^{-1} per degree: q -> {b: {a: coeff}} so that
    x[a] = sum_b inv[b][a] * t[b] solves o_q x = t."""
    inv = A._cache.get("pairing_inverse")
    if inv is None:
        if not chain_pairing_invertible(A):
            raise NotInImageError(
                f"orientation pairing of {A.label} is not chain-invertible")
        inv = {}
        for q, (rows, cols, mat) in _pairing_blocks(A).items():
            ech = Echelon()
            for a in sorted(mat):
                ech.insert(mat[a], a)
            cols_inv = {}
            for b in rows:
                sol = ech.express({b: 1})
                if sol is None:
                    raise NotInImageError(
                        f"orientation pairing of {A.label} is singular")
                cols_inv[b] = sol
            inv[q] = cols_inv
        A._cache["pairing_inverse"] = inv
    return inv


def poincare_P_chain_inverse(A, psi):
    """Exact wordwise inverse of P on a dual cochain."""
    if psi.variant != "to_dual":
        raise GradingError("expected a dual cochain")
    inv = _pairing_inverse(A)
    d = A.top_degree
    out = {}
    for (w, b), c in psi.entries.items():
        q = d - A.degrees[b]
        for a, v in inv[q][b].items():
            acc(out, (w, a), c * v)
    return Cochain(A, out, degree=psi.degree - d)


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


def connes_B(A, phi, p=None):
    """Rotation operator on dual cochains.

    B(phi)(w_1..w_r)(b) cycles (b, w_*) through the unit test slot:
    only entries of phi whose test index is the unit contribute, and each
    letter of such a word takes one turn as the new test element.  Weight
    drops by one, degree rises by one.
    """
    if phi.variant != "to_dual":
        raise GradingError("connes_B expects a dual cochain")
    if p is not None and phi.weight_support > p:
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
    reason = None
    if A.orientation is None:
        reason = "no orientation"
    elif A.top_degree != 2:
        reason = f"top degree {A.top_degree} != 2"
    deg1 = A.basis_of_degree(1)
    if reason is None and not deg1:
        reason = "no degree-1 elements"
    if reason is None:
        remaining = list(deg1)
        alphas, betas = [], []
        while remaining:
            i = remaining[0]
            partner = None
            for j in remaining[1:]:
                if _pairing_value(A, i, j) == 1:
                    partner = j
                    break
            if partner is None:
                reason = f"{A.names[i]} has no unit-pairing partner"
                break
            remaining.remove(i)
            remaining.remove(partner)
            alphas.append(i)
            betas.append(partner)
        if reason is None:
            for x, y in itertools.product(deg1, repeat=2):
                want = 0
                for a, b in zip(alphas, betas):
                    if (x, y) == (a, b):
                        want = 1
                    elif (x, y) == (b, a):
                        want = -1
                if _pairing_value(A, x, y) != want:
                    reason = (f"pairing of {A.names[x]},{A.names[y]} "
                              "is not standard")
                    break
    if reason is not None:
        raise BracketModelError(
            f"model lacks symplectic degree-1 structure ({reason})")
    return SymplecticBasis(alphas, betas)


def bracket(A, c1, c2, p=None, q=None, eval_cutoff=None, check=True):
    """String bracket of two degree-0 dual classes.

    c1 and c2 are degree-0 dual cocycles supported in weights <= p, <= q
    (defaulting to their supports).  The output is a degree-0 dual
    cochain supported in weight <= p + q - 2; passing eval_cutoff
    truncates the output further, which is cheaper when only a low
    window is compared.  With check=True the rotated inputs are verified
    to be cocycles in their truncated complexes.
    """
    symplectic_basis(A)  # raises BracketModelError when unsupported
    if c1.variant != "to_dual" or c2.variant != "to_dual":
        raise GradingError("bracket expects dual cochains")
    if c1.degree != 0 or c2.degree != 0:
        raise GradingError("bracket expects degree-0 classes")
    p = c1.weight_support if p is None else p
    q = c2.weight_support if q is None else q
    if c1.weight_support > p or c2.weight_support > q:
        raise GradingError("class support exceeds its stated filtration")
    out_cutoff = p + q - 2
    if eval_cutoff is not None:
        out_cutoff = min(out_cutoff, eval_cutoff)
    b1 = connes_B(A, c1, p)
    b2 = connes_B(A, c2, q)
    if check:
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

    def __call__(self, *letters):
        return self.table.get(tuple(letters), 0)

    def __eq__(self, other):
        if not isinstance(other, E1Functional):
            return NotImplemented
        return self.arity == other.arity and self.table == other.table

    @property
    def is_zero(self):
        return not self.table

    def __repr__(self):
        return f"E1Functional(arity={self.arity}, {len(self.table)} terms)"


def e1_bracket(A, f1, f2, symp=None):
    """Leading-layer bracket of two top-layer functionals.

    Sums over the symplectic pairs and all cyclic rotations of each
    factor's argument block: rotations act by moving the front letter to
    the back.  The result has arity p + q - 2.
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
        total = 0
        for a_i, b_i in zip(symp.alphas, symp.betas):
            for m in range(p):
                for n in range(q):
                    t1a = ((a_i,) + left)
                    t1b = ((b_i,) + left)
                    t2a = ((b_i,) + right)
                    t2b = ((a_i,) + right)
                    r1a = t1a[m:] + t1a[:m]
                    r1b = t1b[m:] + t1b[:m]
                    r2a = t2a[n:] + t2a[:n]
                    r2b = t2b[n:] + t2b[:n]
                    total += f1(*r1a) * f2(*r2a) - f1(*r1b) * f2(*r2b)
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
