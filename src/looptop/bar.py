"""Reduced bar construction over a model.

Words are tuples of positive-degree basis indices (letters).  The word
(w_1, ..., w_r) sits in degree sum(|w_i| - 1) and weight r; the boundary
raises degree by one and never raises weight.  Components landing on the
unit (degree-0 products) are dropped: the construction is reduced.
"""

import itertools

from .linalg import acc, compose_columns, homology


def bar_degree(A, word):
    return sum(A.degrees[i] - 1 for i in word)


def prefix_degrees(A, word):
    """eps[i] = bar degree of word[:i], for i = 0..len(word)."""
    eps = [0]
    for i in word:
        eps.append(eps[-1] + A.degrees[i] - 1)
    return eps


def bar_d(A, word):
    """Boundary of a single word as dict word -> coeff.

    Two families of terms: apply the model differential to one letter, or
    merge two adjacent letters with the product.  Each carries the sign
    -(-1)^e where e is the bar degree of the prefix through the affected
    letter block's start (through the first merged letter for merges).
    """
    out = {}
    eps = prefix_degrees(A, word)
    r = len(word)
    for i in range(r):
        sign = -1 if eps[i] % 2 == 0 else 1
        for k, c in A.d(word[i]).items():
            acc(out, word[:i] + (k,) + word[i + 1:], sign * c)
    for i in range(r - 1):
        sign = -1 if eps[i + 1] % 2 == 0 else 1
        for k, c in A.mul(word[i], word[i + 1]).items():
            if A.degrees[k] == 0:
                continue  # reduced: unit letters are dropped
            acc(out, word[:i] + (k,) + word[i + 2:], sign * c)
    return out


def words_by_degree(A, max_weight):
    """All words of weight <= max_weight bucketed by bar degree.

    Enumeration order inside a bucket is (weight, letter indices), which
    every slice basis inherits.  Cached on the model.
    """
    cache = A._cache.setdefault("words_by_degree", {})
    if max_weight not in cache:
        buckets = {}
        for r in range(max_weight + 1):
            for word in itertools.product(A.letters, repeat=r):
                buckets.setdefault(bar_degree(A, word), []).append(word)
        cache[max_weight] = {n: tuple(ws) for n, ws in buckets.items()}
    return cache[max_weight]


def _min_letter_degree(A):
    degs = [A.degrees[i] - 1 for i in A.letters]
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
    words = words_by_degree(A, max_weight).get(degree, ())
    d_columns = {w: bar_d(A, w) for w in words}
    return BarSlice(degree, max_weight, words, d_columns,
                    slice_complete(A, degree, max_weight))


class HomologyPresentation:
    """Betti number with representatives and an expression test."""

    def __init__(self, degree, subquotient, exact):
        self.degree = degree
        self.betti = subquotient.betti
        self.exact = exact
        self.representatives = subquotient.representatives
        self._sub = subquotient

    def express(self, vec):
        return self._sub.express(vec)

    def is_boundary(self, vec):
        return self._sub.is_boundary(vec)

    def __repr__(self):
        flag = "exact" if self.exact else "weight-truncated"
        return (f"HomologyPresentation(degree={self.degree}, "
                f"betti={self.betti}, {flag})")


def bar_homology(A, degree_range, max_weight):
    """Bar homology per degree: degree -> HomologyPresentation.

    The boundary raises degree, so cycles in degree n are killed from
    degree n - 1.  The Betti number is exact when both neighbouring slices
    are provably complete at this weight.
    """
    lo, hi = degree_range
    slices = {n: bar_slice(A, n, max_weight) for n in range(lo - 1, hi + 1)}
    out = {}
    for n in range(lo, hi + 1):
        sub = homology(slices[n - 1].d_columns, slices[n].d_columns)
        exact = slices[n].complete and slices[n - 1].complete
        out[n] = HomologyPresentation(n, sub, exact)
    return out


def bar_d_squared_zero(A, max_weight, degree_range):
    """Compose the boundary with itself over a window; True when zero."""
    lo, hi = degree_range
    slices = {n: bar_slice(A, n, max_weight) for n in range(lo, hi + 2)}
    for n in range(lo, hi + 1):
        square = compose_columns(slices[n + 1].d_columns,
                                 slices[n].d_columns)
        if any(square.values()):
            return False
    return True


def word_str(A, word):
    return "(" + ",".join(A.names[i] for i in word) + ")"
