"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping basis keys to nonzero coefficients (int or
Fraction).  A linear map is a "columns" dict sending each domain key to its
image vector; keys absent from a vector have coefficient zero.  Everything is
deterministic: pivots follow the sorted order of keys, so ranks, kernels and
homology representatives come out identical from run to run.

Elimination is integer-only: stored rows are integer vectors with content
1 and positive pivot, and Echelon.reduce returns an integer residual with
an int multiplier.  Rationals enter only through kernel vectors and the
final division in SubquotientBasis.express, and _div is the one place
a rational is made.  Homology works in the coordinates of the cycle
basis that kernel_basis returns, so no elimination tracks how its rows
arise from the inserted vectors.
"""

from fractions import Fraction
from math import gcd, lcm


class CompositionError(Exception):
    """Two maps that should compose to zero do not."""


def _div(a, b):
    """a/b exactly: an int when the quotient is whole, else a Fraction in
    lowest terms.  divmod decides, so a whole quotient makes no Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def acc(out, key, c):
    """out[key] += c in place, dropping the entry when it becomes zero."""
    if not c:
        return
    y = out.get(key, 0) + c
    if y:
        out[key] = y
    elif key in out:
        del out[key]


def add_scaled(out, vec, c=1):
    """out += c*vec in place, dropping entries that become zero; returns out."""
    if not c:
        return out
    for k, x in vec.items():
        y = out.get(k, 0) + c * x
        if y:
            out[k] = y
        elif k in out:
            del out[k]
    return out


def vec_combine(a, ca, b, cb):
    """ca*a + cb*b with zero entries dropped."""
    return add_scaled({k: y for k, x in a.items() if (y := ca * x)}, b, cb)


def apply_columns(columns, vec):
    """Image of vec under the linear map given by columns."""
    out = {}
    for k, c in vec.items():
        col = columns.get(k)
        if col:
            add_scaled(out, col, c)
    return out


def compose_columns(outer, inner):
    """Columns of outer∘inner, indexed like inner."""
    return {k: apply_columns(outer, col) for k, col in inner.items()}


class _Row:
    __slots__ = ("vec",)
    combo = {}  # always empty; bench/tracing.py still counts row.combo

    def __init__(self, vec):
        self.vec = vec  # integer vector, content 1, pivot coeff > 0


def _content_one(vec):
    g = gcd(*vec.values())
    return {k: x // g for k, x in vec.items()} if g > 1 else vec


class Echelon:
    """Incremental reduced row echelon form of the span of inserted vectors.

    Vectors are inserted one at a time.  Rows are kept fully reduced (no row
    meets another row's pivot key); each row's pivot is its smallest key.

    holders maps each key that is not a pivot to the pivots of the rows
    holding it (an insertion-ordered set: pivot -> None), so a new pivot
    is back-substituted only into the rows that meet it.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> _Row
        self.holders = {}  # non-pivot key -> {pivot: None}

    @property
    def rank(self):
        return len(self.rows)

    def _cleared(self, vec):
        """Integer multiple of vec, a new dict without zeros; returns
        (int vector, multiplier)."""
        if all(type(c) is int for c in vec.values()):
            return {k: c for k, c in vec.items() if c}, 1
        m = 1
        for c in vec.values():
            m = lcm(m, c.denominator)
        return {k: x for k, c in vec.items() if (x := (c * m).numerator)}, m

    def reduce(self, vec):
        """Reduce vec against the rows.

        Returns (residual, m): residual is an integer vector with no entry
        on a pivot key, m is a positive int, and m*vec - residual lies in
        the span.  No row meets another row's pivot, so one pass over the
        pivot keys of vec clears them all, in any order: with c_k =
        vec[k]*l (l clearing denominators) and p_k the pivot coefficient
        of row r_k, the pass leaves P*l*vec - sum_k c_k*(P/p_k)*r_k, P =
        prod p_k, which is symmetric in the rows; m = P*l.  No common
        factor is divided out.  vec itself is not modified.
        """
        v, m = self._cleared(vec)
        rows = self.rows
        for k in [k for k in v if k in rows]:
            row = rows[k].vec
            p = row[k]
            c = v[k]
            if p != 1:
                for kk, x in v.items():
                    v[kk] = x * p
                m *= p
            add_scaled(v, row, -c)
        return v, m

    def insert(self, vec):
        """Add vec to the span; returns whether the span grew."""
        v = self.reduce(vec)[0]
        if not v:
            return False
        v = _content_one(v)
        k = min(v)
        sign = 1 if v[k] > 0 else -1
        new = _Row({kk: sign * x for kk, x in v.items()})
        p = new.vec[k]
        holders = self.holders
        for kk in new.vec:
            if kk != k:
                holders.setdefault(kk, {})[k] = None
        # each update reads only that row and the new one, so any order
        # gives the same rows; it changes the row's support only on the
        # new row's keys, each of which the new row keeps held
        for pk in holders.pop(k, ()):
            row = self.rows[pk]
            c = row.vec[k]
            merged = vec_combine(row.vec, p, new.vec, -c)
            for kk in new.vec:
                if kk == k:
                    continue
                if kk not in merged:
                    del holders[kk][pk]
                elif kk not in row.vec:
                    holders[kk][pk] = None
            row.vec = _content_one(merged)
        self.rows[k] = new
        return True


def column_rank(columns):
    ech = Echelon()
    for k in sorted(columns):
        ech.insert(columns[k])
    return ech.rank


def kernel_basis(columns):
    """Deterministic basis of the null space of a columns map.

    One vector z_f per non-pivot column f of the reduced row echelon form
    of the matrix, in ascending order of f: coefficient 1 on f, no other
    non-pivot key, and support otherwise on earlier (pivot) keys only.
    The vectors are read off the rows of the transpose's echelon that
    hold f.  The transpose's rows go in by descending row key: the RREF
    does not depend on insertion order, and this order makes less fill
    along the way than first appearance does.
    """
    keys = sorted(columns)
    transpose = {}
    for k in keys:
        for i, x in columns[k].items():
            transpose.setdefault(i, {})[k] = x
    ech = Echelon()
    for i in sorted(transpose, reverse=True):
        ech.insert(transpose[i])
    out = []
    for f in keys:
        if f in ech.rows:
            continue
        vec = {f: 1}
        for pk in sorted(ech.holders.get(f, ())):
            r = ech.rows[pk].vec
            vec[pk] = _div(-r[f], r[pk])
        out.append(vec)
    return out


class SubquotientBasis:
    """Cycles modulo boundaries of one slice, with chosen representatives.

    cycles is kernel_basis of the outgoing map: z_j has coefficient 1 on
    its largest key f_j and no other f, so a cycle v equals
    sum_j v[f_j] z_j and its entries on the keys f_j are its coordinates.
    echelon spans the boundaries in those coordinates, cycle j keyed by
    -j, so each row's pivot is its largest cycle; the representatives are
    the cycles that are no row's pivot.  express() writes a cycle as rep
    coefficients modulo the boundary space, keyed by ascending rep index,
    and answers None for a vector that is not a cycle of the slice.
    exact is False only on a weight-truncated slice, where bar_homology
    and hochschild_homology set it.
    """

    exact = True

    def __init__(self, cycles, boundaries):
        self.cycles = cycles
        self._coordinate = index = {max(z): j for j, z in enumerate(cycles)}
        self.echelon = Echelon()
        for b in boundaries:
            self.echelon.insert({-index[k]: c for k, c in b.items()
                                 if k in index})
        rep_cycles = [j for j in range(len(cycles))
                      if -j not in self.echelon.rows]
        self.representatives = [cycles[j] for j in rep_cycles]
        self._rep_index = {-j: i for i, j in enumerate(rep_cycles)}

    @property
    def cycle_rank(self):
        return len(self.cycles)

    @property
    def boundary_rank(self):
        return self.echelon.rank

    @property
    def betti(self):
        return len(self.representatives)

    def express(self, vec):
        """Rep coefficients of the class of vec, or None if vec is not a
        cycle.  A cycle {f: 1} is subtracted by deleting f.  The boundary
        echelon reduces the coordinates to (residual, m) and the answer is
        residual/m, so only a multiplier m != 1 (a fractional coordinate
        or a non-unit pivot met) builds a Fraction.  vec itself is not
        modified."""
        index, coords, rest = self._coordinate, {}, dict(vec)
        cycles = self.cycles
        for k, c in vec.items():
            j = index.get(k)
            if j is not None and c:
                coords[-j] = c
                if len(cycles[j]) == 1:
                    del rest[k]
                else:
                    add_scaled(rest, cycles[j], -c)
        if any(rest.values()):
            return None  # not a cycle: vec != sum_j vec[f_j] z_j
        if not coords:
            return {}
        residual, m = self.echelon.reduce(coords)
        rep = self._rep_index
        return {rep[j]: x if m == 1 else _div(x, m)
                for j, x in sorted(residual.items(), reverse=True)}

    def is_boundary(self, vec):
        expr = self.express(vec)
        return expr is not None and not expr


def homology(boundary_in, boundary_out):
    """Homology of one slice of a complex.

    boundary_in gives the map landing in the slice (columns indexed by the
    neighbouring slice's basis); boundary_out gives the map leaving it,
    with a column, possibly empty, for every basis key of the slice.
    Raises CompositionError unless every boundary lies in the slice and
    the composite vanishes.  Both checks run on every nonempty incoming
    column, in sorted key order, in one pass over its entries: each is
    looked up in boundary_out (a key with an empty column lies in the
    slice) and its image accumulated, the first entry outside the slice
    raising at once and a nonzero composite only after the whole column.
    An empty column has no entry outside the slice and a zero image, so
    it is skipped, and it never reaches the boundary echelon either.

    One elimination finds the cycles (kernel_basis); a second, of the
    boundaries in cycle coordinates, picks the representatives and
    answers every later express() query.
    """
    boundaries = []
    for k in sorted(k for k, col in boundary_in.items() if col):
        col = boundary_in[k]
        image = {}
        for i, c in col.items():
            out = boundary_out.get(i)
            if out is None:
                raise CompositionError(
                    f"boundary of {k!r} has an entry on {i!r}, "
                    f"outside the slice")
            if out:
                add_scaled(image, out, c)
        if image:
            raise CompositionError(f"composite differential nonzero on {k!r}")
        boundaries.append(col)

    return SubquotientBasis(kernel_basis(boundary_out), boundaries)
