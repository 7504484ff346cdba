"""Reduced bar construction over a model.

Words are tuples of positive-degree basis indices (letters).  The word
(w_1, ..., w_r) sits in degree sum(|w_i| - 1) and weight r; the boundary
raises degree by one and never raises weight.  Components landing on the
unit (degree-0 products) are dropped: the construction is reduced.  The
boundary is written once, transposed (boundary_preimages), from a term
table per letter memoised on the model: bar slices and both cochain
coboundaries read it.
"""

from .linalg import CompositionError, acc, homology, _checked_boundaries


def bar_degree(A, word):
    table = A.letter_degrees
    n = 0
    for i in word:
        n += table[i]
    return n


def _preimage_terms(A):
    """Per basis index k, the terms that reach k from one letter: the
    differential preimages ell of degree >= 1 with the coefficient of k in
    d(ell), and the pairs of letters (l1, l2) with the coefficient of k in
    l1 l2 times (-1)^{|l1| - 1}, each in table order.  Beside the table,
    the letters with a differential preimage and the letters with any
    preimage term.  Memoised on the model under "preimages"."""
    hit = A._cache.get("preimages")
    if hit is None:
        diffs = [[] for _ in A.degrees]
        splits = [[] for _ in A.degrees]
        for ell, img in A.differential.items():
            if A.degrees[ell] >= 1:
                for k, c in img.items():
                    diffs[k].append((ell, c))
        for (l1, l2), img in A.product.items():
            if A.degrees[l1] >= 1 and A.degrees[l2] >= 1:
                s = 1 if A.degrees[l1] % 2 else -1
                for k, c in img.items():
                    splits[k].append((l1, l2, s * c))
        terms = tuple(zip(diffs, splits))
        hit = A._cache["preimages"] = (
            terms, frozenset(k for k, ds in enumerate(diffs) if ds),
            frozenset(k for k, (ds, ps) in enumerate(terms) if ds or ps))
    return hit


def boundary_preimages(A, v, max_weight):
    """The bar boundary, transposed: words w of weight <= max_weight with
    v in the support of d(w), mapped to the coefficient of v in d(w).

    Two families of terms, read per letter of v from _preimage_terms:
    replace the letter by a differential preimage, or split it into two
    letters by the transposed product.  Both carry the sign -(-1)^e with
    e the bar degree of v before the letter, kept as a running sum (a
    split's extra (-1)^{|l1| - 1} is already in its coefficient).
    Contributions are accumulated: a given w may reach v several ways.
    A word none of whose letters has a term at this weight (a differential
    preimage at the cutoff, either kind below it) is returned {} at once.
    """
    terms, at_cutoff, below_cutoff = _preimage_terms(A)
    splits = len(v) < max_weight
    if (below_cutoff if splits else at_cutoff).isdisjoint(v):
        return {}
    table = A.letter_degrees
    out = {}
    e = 0
    for idx, vi in enumerate(v):
        diffs, pairs = terms[vi]
        if diffs or splits and pairs:
            sign = 1 if e % 2 else -1
            head, tail = v[:idx], v[idx + 1:]
            for ell, c in diffs:
                acc(out, head + (ell,) + tail, sign * c)
            if splits:
                for l1, l2, c in pairs:
                    acc(out, head + (l1, l2) + tail, sign * c)
        e += table[vi]
    return out


def words_by_degree(A, max_weight, max_degree):
    """Words of weight <= max_weight and bar degree <= max_degree, bucketed
    by bar degree.

    One pass per weight extends the previous weight's words by each letter
    in index order, so every bucket is in (weight, letter indices) order,
    which every slice basis inherits.  Letter bar degrees are >= 0, so a
    prefix whose degree already exceeds max_degree is dropped with all its
    extensions.  Cached on the model per max_weight and rebuilt only when
    a caller asks for a higher max_degree, so the table returned may also
    hold buckets above max_degree.  The window routines (bar_homology,
    hochschild_homology and their d^2 checks) assemble their top degree
    first, so one table serves the whole window.
    """
    cache = A._cache.setdefault("words_by_degree", {})
    hit = cache.get(max_weight)
    if hit is None or hit[0] < max_degree:
        steps = [(i, A.letter_degrees[i]) for i in A.letters]
        layer = [((), 0)] if max_degree >= 0 else []
        buckets = {}
        for r in range(max_weight + 1):
            if r:
                layer = [(word + (i,), n + e) for word, n in layer
                         for i, e in steps if n + e <= max_degree]
            for word, n in layer:
                buckets.setdefault(n, []).append(word)
        hit = cache[max_weight] = (
            max_degree, {n: tuple(ws) for n, ws in buckets.items()})
    return hit[1]


def _min_letter_degree(A):
    degs = [A.letter_degrees[i] for i in A.letters]
    return min(degs) if degs else 1


def slice_complete(A, degree, max_weight):
    """Whether weight max_weight provably exhausts the bar degree.

    A weight-w word has bar degree >= w * m where m is the smallest letter
    bar degree, so for simply connected models (m >= 1) the slice is full
    once max_weight >= degree // m.  Models with degree-1 letters are
    always weight-truncated.
    """
    if not A.simply_connected:
        return False
    if degree < 0:
        return True
    return max_weight >= degree // _min_letter_degree(A)


class BarSlice:
    """One degree of the bar complex up to a weight cutoff.

    d_columns maps each basis word to its boundary, a vector over words of
    degree + 1 (the boundary raises degree).
    """

    def __init__(self, degree, max_weight, basis, d_columns, complete):
        self.degree = degree
        self.max_weight = max_weight
        self.basis = basis
        self.d_columns = d_columns
        self.complete = complete

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        flag = "complete" if self.complete else "weight-truncated"
        return (f"BarSlice(degree={self.degree}, weight<={self.max_weight}, "
                f"dim={self.dim}, {flag})")


def bar_slice(A, degree, max_weight):
    """The slice, with each column read off by transposing
    boundary_preimages over the words of degree + 1."""
    table = words_by_degree(A, max_weight, degree + 1)
    words = table.get(degree, ())
    d_columns = {w: {} for w in words}
    for v in table.get(degree + 1, ()):
        for w, mu in boundary_preimages(A, v, max_weight).items():
            d_columns[w][v] = mu
    return BarSlice(degree, max_weight, words, d_columns,
                    slice_complete(A, degree, max_weight))


def bar_homology(A, degree_range, max_weight):
    """Bar homology per degree: degree -> SubquotientBasis.

    The boundary raises degree, so cycles in degree n are killed from
    degree n - 1.  The result is exact when both neighbouring slices are
    provably complete at this weight.
    """
    lo, hi = degree_range
    slices = {n: bar_slice(A, n, max_weight) for n in range(hi, lo - 2, -1)}
    out = {}
    for n in range(lo, hi + 1):
        out[n] = homology(slices[n - 1].d_columns, slices[n].d_columns)
        out[n].exact = slices[n].complete and slices[n - 1].complete
    return out


def bar_d_squared_zero(A, max_weight, degree_range):
    """True when the boundary lands in the window's slices and squares
    to zero there."""
    lo, hi = degree_range
    slices = {n: bar_slice(A, n, max_weight)
              for n in range(hi + 1, lo - 1, -1)}
    try:
        for n in range(lo, hi + 1):
            _checked_boundaries(slices[n].d_columns, slices[n + 1].d_columns)
    except CompositionError:
        return False
    return True


def word_str(A, word):
    return "(" + ",".join(A.names[i] for i in word) + ")"
