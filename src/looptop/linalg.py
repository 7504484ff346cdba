"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping basis keys to nonzero coefficients (int or
Fraction).  A linear map is a "columns" dict sending each domain key to its
image vector; keys absent from a vector have coefficient zero.  Everything is
deterministic: pivots follow the sorted order of keys, so ranks, kernels and
homology representatives come out identical from run to run.

Arithmetic is fraction-free where possible: stored rows are integer vectors
with content 1 and positive pivot, and rationals only enter through the
bookkeeping that expresses rows in terms of the inserted generators.
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
    __slots__ = ("vec", "combo")

    def __init__(self, vec, combo):
        self.vec = vec      # integer vector, content 1, pivot coeff > 0
        self.combo = combo  # vec == sum combo[tag]*inserted[tag] mod untracked


def _normalized(vec, combo):
    g = 0
    for x in vec.values():
        g = gcd(g, x)
    if g > 1:
        vec = {k: x // g for k, x in vec.items()}
        combo = {t: _div(x, g) for t, x in combo.items() if x}
    else:
        combo = {t: x for t, x in combo.items() if x}
    return vec, combo


class Echelon:
    """Incremental reduced row echelon form with expression tracking.

    Vectors are inserted one at a time.  Rows are kept fully reduced (no row
    meets another row's pivot key), and each row remembers how it arises from
    the inserted generators, so dependencies and solutions fall out of the
    same reduction.  A generator inserted with tag None joins the span but
    is not tracked: no combo mentions it, so every combo (and every answer
    of insert, reduce and express) is exact only modulo the span of the
    untracked generators.  The rows themselves do not depend on tags.

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

        Returns (residual, combo, scale) with residual integer-valued and
        residual == scale*vec - sum(combo[tag] * inserted[tag]).
        """
        v, scale = self._cleared(vec)
        combo = {}
        for k in sorted(v):
            row = self.rows.get(k)
            if row is None:
                continue
            c = v.get(k, 0)
            if not c:
                continue
            p = row.vec[k]
            v = vec_combine(v, p, row.vec, -c)
            combo = add_scaled({t: p * x for t, x in combo.items()},
                               row.combo, c)
            scale = scale * p
        g = 0
        for x in v.values():
            g = gcd(g, x)
        if g > 1:
            v = {k: x // g for k, x in v.items()}
            scale = _div(scale, g)
            combo = {t: _div(x, g) for t, x in combo.items()}
        return v, combo, scale

    def insert(self, vec, tag):
        """Insert vec as generator `tag` (None: untracked).

        Returns None when vec enlarges the span; otherwise returns vec's
        expression over the previously inserted tracked generators, as a
        dict.
        """
        v, combo, scale = self.reduce(vec)
        if not v:
            return {t: _div(x, scale) for t, x in combo.items() if x}
        k = min(v)
        sign = 1 if v[k] > 0 else -1
        row_vec = {kk: sign * x for kk, x in v.items()}
        row_combo = {t: -sign * x for t, x in combo.items() if x}
        if tag is not None:
            row_combo[tag] = row_combo.get(tag, 0) + sign * scale
        row_vec, row_combo = _normalized(row_vec, row_combo)
        new = _Row(row_vec, row_combo)
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
            mcombo = add_scaled({t: p * x for t, x in row.combo.items()},
                                new.combo, -c)
            row.vec, row.combo = _normalized(merged, mcombo)
        self.rows[k] = new
        return None

    def express(self, vec):
        """vec over the inserted generators, or None outside their span.

        Coefficients land only on generators that were independent when
        inserted, so for a basis of the span the answer is unique.
        """
        v, combo, scale = self.reduce(vec)
        if v:
            return None
        return {t: y for t, x in combo.items() if (y := _div(x, scale))}


def column_rank(columns):
    ech = Echelon()
    for k in sorted(columns):
        ech.insert(columns[k], None)
    return ech.rank


def kernel_basis(columns):
    """Deterministic basis of the null space of a columns map.

    Each kernel vector has coefficient 1 on one domain key and support only
    on earlier keys besides it: one vector per non-pivot column f of the
    reduced row echelon form of the matrix, read off the rows of its
    transpose (inserted untracked) that hold f.
    """
    keys = sorted(columns)
    transpose = {}
    for k in keys:
        for i, x in columns[k].items():
            transpose.setdefault(i, {})[k] = x
    ech = Echelon()
    for row in transpose.values():
        ech.insert(row, None)
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

    echelon spans the boundaries (untracked, tag None) and the
    representatives (tagged by their index i); nothing else, so its
    combos are exact modulo the boundary space.  express() writes a
    vector as rep coefficients modulo the boundary space, keyed by
    ascending rep index; the answer is None when the vector is not even a
    cycle (more precisely, not in span(reps) + boundaries, which for
    cycles is the same thing).  exact is False only on a weight-truncated
    slice, where bar_homology and hochschild_homology set it.
    """

    exact = True

    def __init__(self, cycle_rank, boundary_rank, representatives, echelon):
        self.cycle_rank = cycle_rank
        self.boundary_rank = boundary_rank
        self.representatives = representatives
        self.echelon = echelon

    @property
    def betti(self):
        return len(self.representatives)

    def express(self, vec):
        v, combo, scale = self.echelon.reduce(vec)
        if v:
            return None
        return {i: _div(x, scale) for i, x in sorted(combo.items())}

    def is_boundary(self, vec):
        expr = self.express(vec)
        return expr is not None and not expr


def homology(boundary_in, boundary_out):
    """Homology of one slice of a complex.

    boundary_in gives the map landing in the slice (columns indexed by the
    neighbouring slice's basis); boundary_out gives the map leaving it,
    with a column, possibly empty, for every basis key of the slice.
    Raises CompositionError unless the composite vanishes.

    Two eliminations: one for the cycles, and one echelon holding the
    boundaries and then the cycles, whose independent cycles become the
    representatives.  That echelon answers every later express() query.
    """
    for k in sorted(boundary_in):
        img = apply_columns(boundary_out, boundary_in[k])
        if img:
            raise CompositionError(f"composite differential nonzero on {k!r}")

    cycles = kernel_basis(boundary_out)

    ech = Echelon()
    for k in sorted(boundary_in):
        if boundary_in[k]:
            ech.insert(boundary_in[k], None)
    boundary_rank = ech.rank

    reps = []
    for cyc in cycles:
        if ech.insert(cyc, len(reps)) is None:
            reps.append(cyc)

    return SubquotientBasis(len(cycles), boundary_rank, reps, ech)
