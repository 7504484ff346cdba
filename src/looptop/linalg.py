"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping basis keys to nonzero coefficients (int or
Fraction).  A linear map is a "columns" dict sending each domain key to its
image vector; keys absent from a vector have coefficient zero.  Everything is
deterministic: pivots follow the sorted order of keys, so ranks, kernels and
homology representatives come out identical from run to run.

Arithmetic is fraction-free where possible: stored rows are integer vectors
with content 1 and positive pivot, and rationals only enter through kernel
vectors and the scale that Echelon.reduce divides out.  Homology works in
the coordinates of the cycle basis that kernel_basis returns, so no
elimination tracks how its rows arise from the inserted vectors.
"""

from fractions import Fraction
from math import gcd, lcm


class CompositionError(Exception):
    """Two maps that should compose to zero do not."""


def _simp(x):
    """Collapse whole Fractions back to int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return _simp(Fraction(a, b))
    return _simp(Fraction(a) / Fraction(b))


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
    g = 0
    for x in vec.values():
        g = gcd(g, x)
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
        """Integer multiple of vec; returns (int vector, multiplier)."""
        m = 1
        for c in vec.values():
            m = lcm(m, c.denominator)
        out = {}
        for k, c in vec.items():
            x = c * m
            x = x.numerator if isinstance(x, Fraction) else x
            if x:
                out[k] = x
        return out, m

    def reduce(self, vec):
        """Reduce vec against the rows.

        Returns (residual, scale): residual is an integer vector with no
        entry on a pivot key, and scale*vec - residual lies in the span.
        """
        v, scale = self._cleared(vec)
        for k in sorted(v):
            row = self.rows.get(k)
            if row is None:
                continue
            c = v.get(k, 0)
            if not c:
                continue
            p = row.vec[k]
            v = vec_combine(v, p, row.vec, -c)
            scale = scale * p
        g = 0
        for x in v.values():
            g = gcd(g, x)
        if g > 1:
            v = {k: x // g for k, x in v.items()}
            scale = _div(scale, g)
        return v, scale

    def insert(self, vec):
        """Add vec to the span; returns whether the span grew."""
        v = self.reduce(vec)[0]
        if not v:
            return False
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
    hold f.
    """
    keys = sorted(columns)
    transpose = {}
    for k in keys:
        for i, x in columns[k].items():
            transpose.setdefault(i, {})[k] = x
    ech = Echelon()
    for row in transpose.values():
        ech.insert(row)
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
        index, coords, rest = self._coordinate, {}, dict(vec)
        for k, c in vec.items():
            j = index.get(k)
            if j is not None and c:
                coords[-j] = c
                add_scaled(rest, self.cycles[j], -c)
        if any(rest.values()):
            return None  # not a cycle: vec != sum_j vec[f_j] z_j
        if not coords:
            return {}
        residual, scale = self.echelon.reduce(coords)
        rep = self._rep_index
        return {rep[j]: _div(x, scale)
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
    the composite vanishes.

    One elimination finds the cycles (kernel_basis); a second, of the
    boundaries in cycle coordinates, picks the representatives and
    answers every later express() query.
    """
    for k in sorted(boundary_in):
        col = boundary_in[k]
        outside = next((i for i in col if i not in boundary_out), None)
        if outside is not None:
            raise CompositionError(
                f"boundary of {k!r} has an entry on {outside!r}, "
                f"outside the slice")
        if apply_columns(boundary_out, col):
            raise CompositionError(f"composite differential nonzero on {k!r}")

    return SubquotientBasis(kernel_basis(boundary_out),
                            [boundary_in[k] for k in sorted(boundary_in)])
