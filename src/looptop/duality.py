"""Duality between the two cochain flavours, the rotation operator, and
the string bracket built from them.

The pairing map P sends a to-A cochain phi to the dual cochain
P(phi)(w)(b) = orientation(b ∧ phi(w)); it preserves words and raises
degree by the top degree.  Its chain-level inverse exists exactly when
the basis-level orientation pairing is invertible in every degree, which
holds for the closed builtin models.  The rotation operator B cycles a
word through the test slot (dropping weight by one, raising degree by
one), and the bracket of two degree-0 dual classes is
-P(P^{-1}B(c1) ∪ P^{-1}B(c2)).  bracket reads each input once, for its
weight gate, its rotation and its cocycle check, through a per-word memo
A._cache["rotation_delta"].  P and P^{-1} act on the test slot only, so
what follows B is cup's concatenation product of the two rotated
cochains through a per-model table, A._cache["bracket_table"].
"""

import functools
import itertools

from .linalg import acc, add_scaled, homology, kernel_basis
# words_by_degree and assemble_complex are unused here, but
# bench/tracing.py wraps them under this module and its restore test reads
# them back
from .bar import bar_degree, prefix_degrees, words_by_degree  # noqa: F401
from .cochains import assemble_complex  # noqa: F401
from .dga import OrientationError, dga_homology
from .cochains import (Cochain, DualCochain, GradingError, cup,
                       delta_to_dual, _concatenate, _delta_columns)


_OVER_FILTRATION = "class support exceeds its stated filtration"


class NotInImageError(ValueError):
    """P has no wordwise inverse: the orientation pairing is not
    chain-invertible."""


class CycleError(ValueError):
    """An operator output that must be a cycle is not one."""


class BracketModelError(ValueError):
    """The model cannot support the bracket construction."""


def _pairing(A):
    """The orientation pairing as one cached table (forward, inverse).

    forward[a] = {b: orient(b·a)} over b of the complementary degree, in
    basis order.  inverse[b] = {a: coeff} inverts it columnwise:
    x[a] = sum_b inverse[b][a] * t[b] solves sum_a x[a] forward[a] = t.
    Both come from the kernel of [forward | -1]: when forward is
    invertible, the kernel vector led by column (1, b) carries inverse[b]
    on the columns (0, a); a kernel vector led by some (0, a) means it is
    not, and inverse is None.
    """
    table = A._cache.get("pairing")
    if table is None:
        d = A.top_degree
        forward = {a: {b: v for b in A.basis_of_degree(d - A.degrees[a])
                       if (v := A.orient(A.mul(b, a)))}
                   for a in range(A.dim)}
        columns = {(0, a): col for a, col in forward.items()}
        columns.update({(1, b): {b: -1} for b in range(A.dim)})
        kernel = kernel_basis(columns)
        inverse = None
        if all(max(z)[0] == 1 for z in kernel):
            # then column (1, b) leads kernel[b]
            inverse = {b: {a: v for (side, a), v in z.items() if side == 0}
                       for b, z in enumerate(kernel)}
        table = A._cache["pairing"] = (forward, inverse)
    return table


def chain_pairing_invertible(A):
    """Whether P is invertible wordwise (the pairing table is)."""
    return A.orientation is not None and _pairing(A)[1] is not None


def require_chain_invertible(A):
    """Raise NotInImageError unless P is invertible wordwise."""
    if not chain_pairing_invertible(A):
        raise NotInImageError(
            f"orientation pairing of {A.label} is not chain-invertible")


def _through_test_slot(entries, table):
    """Entry (w, x): c goes to c·v at (w, y) for each y: v in table[x]."""
    out = {}
    for (w, x), c in entries.items():
        for y, v in table[x].items():
            acc(out, (w, y), c * v)
    return out


def poincare_P(A, phi):
    """Pair a to-A cochain against the orientation: degree rises by top."""
    if A.orientation is None:
        raise OrientationError(f"model {A.label} has no orientation")
    if phi.variant != "to_A":
        raise GradingError("poincare_P expects a to-A cochain")
    out = _through_test_slot(phi.entries, _pairing(A)[0])
    return DualCochain._trusted(out, phi.degree + A.top_degree)


def poincare_P_chain_inverse(A, psi):
    """Exact wordwise inverse of P on a dual cochain."""
    if psi.variant != "to_dual":
        raise GradingError("expected a dual cochain")
    require_chain_invertible(A)
    out = _through_test_slot(psi.entries, _pairing(A)[1])
    return Cochain._trusted(out, psi.degree - A.top_degree)


def _rotation(A, u):
    """B of the dual basis cochain (u, unit): one ((w, b), sign) pair per
    letter b of u, with w the rest of u read cyclically from after b.
    A periodic u repeats keys; the pairs stay apart so that connes_B adds
    them in rotation order.  Not memoised here: bracket keeps each word's
    rotation in its "rotation_delta" row."""
    eps = prefix_degrees(A, u)
    eps_u = eps[-1]
    col = []
    for j, b in enumerate(u):
        eps_k = eps_u - eps[j + 1]  # bar degree of u[j + 1:]
        eps_r = eps_u - A.letter_degrees[b]
        e = (eps_k + 1) * (eps_r - eps_k)
        col.append(((u[j + 1:] + u[:j], b), -1 if e % 2 else 1))
    return tuple(col)


def connes_B(A, phi, p):
    """Rotation operator on dual cochains.

    B(phi)(w_1..w_r)(b) cycles (b, w_*) through the unit test slot:
    only entries of phi whose test index is the unit contribute, and each
    letter of such a word takes one turn as the new test element.  Weight
    drops by one, degree rises by one.  Each word's rotation is worked
    out afresh by _rotation; the weight gate reads each word's length in
    the same pass.
    """
    if phi.variant != "to_dual":
        raise GradingError("connes_B expects a dual cochain")
    out = {}
    for (u, val), c in phi.entries.items():
        if len(u) > p:
            raise GradingError(
                f"cochain has weight {phi.weight_support}, expected <= {p}")
        if val != A.unit or not u:
            continue
        for key, sign in _rotation(A, u):
            acc(out, key, sign * c)
    return DualCochain._trusted(out, phi.degree + 1)


def symplectic_basis(A):
    """The symplectic pairs among degree-1 basis elements: a tuple of
    index pairs (alpha_i, beta_i), one per genus, realizing the
    orientation pairing as the standard symplectic form.

    Requires top degree 2 and a degree-1 basis whose orientation pairing
    is exactly the standard form under some index pairing; the builtin
    surface and two-torus models qualify.  The pairs found are cached on
    the model; a model that lacks them is checked again on every call.
    """
    if "symplectic" in A._cache:
        return A._cache["symplectic"]

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
    pairs = []
    while remaining:
        i = remaining.pop(0)
        partner = next((j for j in remaining if forward[j].get(i) == 1),
                       None)
        if partner is None:
            raise lacks(f"{A.names[i]} has no unit-pairing partner")
        remaining.remove(partner)
        pairs.append((i, partner))
    standard = {}
    for a, b in pairs:
        standard[(a, b)], standard[(b, a)] = 1, -1
    for x, y in itertools.product(deg1, repeat=2):
        if forward[y].get(x, 0) != standard.get((x, y), 0):
            raise lacks(f"pairing of {A.names[x]},{A.names[y]} "
                        "is not standard")
    pairs = A._cache["symplectic"] = tuple(pairs)
    return pairs


def _check_bracket_inputs(A, c1, c2):
    """The input gate of bracket and e1_bracket: a symplectic model and
    two degree-0 dual cochains.  Returns the symplectic pairs.  The
    weight gates follow, raising GradingError(_OVER_FILTRATION)."""
    symp = symplectic_basis(A)  # raises BracketModelError when unsupported
    if c1.variant != "to_dual" or c2.variant != "to_dual":
        raise GradingError("bracket expects dual cochains")
    if c1.degree != 0 or c2.degree != 0:
        raise GradingError("bracket expects degree-0 classes")
    return symp


def _rotate_checked(A, c, p):
    """bracket's one pass over c at filtration p: the weight gate, then
    B c, with connes_B(A, c, p)'s entries in their key order, then
    whether delta_to_dual(A, B c, p - 1) vanishes, read as the sum of
    x·δ(B e_u) over the entries (u, unit): x.  Each word's rotation, by
    _rotation, and its column δ(B e_u), by connes_B and delta_to_dual,
    are built once and memoised side by side under "rotation_delta",
    keyed by (u, len(u) < p): the cutoff p - 1 only decides whether the
    weight-raising terms of B e_u's words, of length len(u) - 1, are
    present.  Returns (entries of B c, whether B c is a cocycle)."""
    memo = A._cache.setdefault("rotation_delta", {})
    rotated, delta = {}, {}
    for (u, val), x in c.entries.items():
        if len(u) > p:
            raise GradingError(_OVER_FILTRATION)
        if val != A.unit or not u:
            continue
        key = (u, len(u) < p)
        row = memo.get(key)
        if row is None:
            b = connes_B(A, DualCochain(A, {(u, val): 1}), p)
            row = memo[key] = (_rotation(A, u),
                               delta_to_dual(A, b, p - 1).entries)
        rotation, col = row
        for k, sign in rotation:
            acc(rotated, k, sign * x)
        if col:
            add_scaled(delta, col, x)
    return rotated, not delta


def _bracket_table(A):
    """T[(l, r)] = -P(P^{-1} e_l ∪ P^{-1} e_r) on the dual basis cochains
    e_b = {((), b): 1}, as {test index: coefficient} with cup's Koszul
    sign on the pair, (-1)^{(|l| - top)(|r| - top)}, taken back out: a
    table in the shape of A.product.  Built once through the public
    operators and memoised on the model under "bracket_table"."""
    table = A._cache.get("bracket_table")
    if table is None:
        deg, top = A.degrees, A.top_degree
        inv = [poincare_P_chain_inverse(A, DualCochain(A, {((), b): 1}))
               for b in range(A.dim)]
        table = {}
        for l, r in itertools.product(range(A.dim), repeat=2):
            y = poincare_P(A, cup(A, inv[l], inv[r], 0))
            s = 1 if (deg[l] - top) * (deg[r] - top) % 2 else -1
            if y.entries:
                table[(l, r)] = {b: s * t for (_, b), t in y.entries.items()}
        A._cache["bracket_table"] = table
    return table


def bracket(A, c1, c2, p, q, eval_cutoff=None):
    """String bracket of two degree-0 dual classes.

    c1 and c2 are degree-0 dual cocycles supported in weights <= p, <= q.
    The output is a degree-0 dual cochain supported in weight
    <= p + q - 2; passing eval_cutoff truncates the output further, which
    is cheaper when only a low window is compared.

    Each input is read once, by _rotate_checked; the cocycle checks
    raise after both reads, first input first.  P and P^{-1} act on the
    test slot word by word, so after B the composite is the
    concatenation product of the two rotated cochains through the
    per-model table T of _bracket_table, with degrees
    n_i = deg(B c_i) - top = 1 - top.
    """
    _check_bracket_inputs(A, c1, c2)
    b1, closed1 = _rotate_checked(A, c1, p)
    b2, closed2 = _rotate_checked(A, c2, q)
    if not closed1:
        raise CycleError("rotated first argument is not a cocycle")
    if not closed2:
        raise CycleError("rotated second argument is not a cocycle")
    table = _bracket_table(A)  # raises NotInImageError, as P^{-1} does
    out_cutoff = p + q - 2
    if eval_cutoff is not None:
        out_cutoff = min(out_cutoff, eval_cutoff)
    top = A.top_degree
    return DualCochain._trusted(
        _concatenate(A, b1, b2, 1 - top, top, out_cutoff, table), 2 - top)


def e1_bracket(A, c1, c2, p, q):
    """Top weight layer of bracket(A, c1, c2, p, q), in closed form.

    Reads only the weight-p layer of c1 and the weight-q layer of c2 and
    returns the weight-(p + q - 2) layer of the bracket.  Each output
    entry sums over the symplectic pairs and all cyclic rotations of each
    factor's argument block; the double sum over rotations of both blocks
    is the product of the two cyclic sums.  A weight-0 layer rotates to
    zero.
    """
    symp = _check_bracket_inputs(A, c1, c2)
    if c1.weight_support > p or c2.weight_support > q:
        raise GradingError(_OVER_FILTRATION)
    if p < 1 or q < 1:
        return DualCochain(A, {}, degree=0)
    top1 = {w: c for (w, _), c in c1.entries.items() if len(w) == p}
    top2 = {w: c for (w, _), c in c2.entries.items() if len(w) == q}

    def cyclic_sum(top, word):
        return sum(top.get(word[m:] + word[:m], 0) for m in range(len(word)))

    entries = {}
    for letters in itertools.product(A.basis_of_degree(1),
                                     repeat=p + q - 2):
        left, right = letters[:p - 1], letters[p - 1:]
        entries[(letters, A.unit)] = sum(
            cyclic_sum(top1, (a,) + left) * cyclic_sum(top2, (b,) + right)
            - cyclic_sum(top1, (b,) + left) * cyclic_sum(top2, (a,) + right)
            for a, b in symp)
    return DualCochain(A, entries, degree=0)


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
    suspended positive homology into dual homology.  Each degree's
    columns come from one _delta_columns call over its keys, each word's
    keys adjacent.
    """
    basis_by_degree = {}
    for w in itertools.product(A.letters, repeat=p):
        eps = bar_degree(A, w)
        for b in range(A.dim):
            n = eps + A.degrees[b]
            basis_by_degree.setdefault(n, []).append((w, b))
    degrees = sorted(basis_by_degree)
    # at cutoff p the weight-raising terms drop out, leaving the value
    # differential and the letterwise differential of the quotient
    columns = {n: _delta_columns(A, "to_dual", basis_by_degree[n], p)
               for n in degrees}
    quotient_dims = {}
    for n in degrees:
        sub = homology(columns.get(n + 1, {}), columns[n])
        if sub.betti:
            quotient_dims[n] = sub.betti

    hom = dga_homology(A)
    h_dim = {qd: sub.betti for qd, sub in hom.items() if sub.betti}
    s_dim = {qd - 1: dim for qd, dim in h_dim.items() if qd >= 1}

    def times(f, g):  # product of two dimension series
        out = {}
        for (i, a), (j, b) in itertools.product(f.items(), g.items()):
            out[i + j] = out.get(i + j, 0) + a * b
        return out

    formula_dims = functools.reduce(times, [s_dim] * p + [h_dim], {0: 1})
    return E1Report(p, quotient_dims, formula_dims)
