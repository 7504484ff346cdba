"""Bar complex: boundary, slices, homology, and a brute-force oracle.

The oracle below recomputes the boundary straight from the textbook
formula with its own sign bookkeeping, and ranks come from dense Gaussian
elimination over Fraction, so agreement with the sparse pipeline is a real
cross-check rather than the same code run twice.
"""

import itertools
from fractions import Fraction

from conftest import model
from looptop.bar import (bar_d_squared_zero, bar_degree, bar_homology,
                         bar_slice, prefix_degrees,
                         slice_complete, words_by_degree)
from looptop.linalg import apply_columns


def oracle_bar_d(A, word):
    """Boundary of a bar word, recomputed independently.

    d(x1|..|xr) = -sum_i (-1)^{e_{i-1}} x1|..|dx_i|..|xr
                  -sum_i (-1)^{e_i} x1|..|x_i x_{i+1}|..|xr
    with e_i the total suspended degree of the first i letters.
    """
    r = len(word)
    e = [0]
    for i in word:
        e.append(e[-1] + A.degrees[i] - 1)
    out = {}
    for i in range(r):
        sign = -1 if e[i] % 2 == 0 else 1
        for k, c in A.d(word[i]).items():
            w = word[:i] + (k,) + word[i + 1:]
            out[w] = out.get(w, 0) + sign * c
    for i in range(r - 1):
        sign = -1 if e[i + 1] % 2 == 0 else 1
        for k, c in A.mul(word[i], word[i + 1]).items():
            w = word[:i] + (k,) + word[i + 2:]
            out[w] = out.get(w, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def dense_rank(rows):
    """Row rank by plain Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dense_words(A, degree, max_weight):
    """Brute-force word list, bypassing words_by_degree."""
    out = []
    for r in range(max_weight + 1):
        for w in itertools.product(A.letters, repeat=r):
            if sum(A.degrees[i] - 1 for i in w) == degree:
                out.append(w)
    return out


def dense_betti(A, degree, max_weight):
    """Betti number at one degree from dense matrices."""
    dom = dense_words(A, degree, max_weight)
    below = dense_words(A, degree - 1, max_weight)
    above = {w: j for j, w in enumerate(dense_words(A, degree + 1, max_weight))}
    rows_out = []
    for w in dom:
        row = [0] * len(above)
        for v, c in oracle_bar_d(A, w).items():
            if v in above:
                row[above[v]] += c
        rows_out.append(row)
    idx = {w: j for j, w in enumerate(dom)}
    rows_in = []
    for w in below:
        row = [0] * len(dom)
        for v, c in oracle_bar_d(A, w).items():
            if v in idx:
                row[idx[v]] += c
        rows_in.append(row)
    rank_out = dense_rank(rows_out) if rows_out and above else 0
    rank_in = dense_rank(rows_in) if rows_in and dom else 0
    return len(dom) - rank_out - rank_in


def test_bar_degree_and_prefix_degrees():
    cp2 = model("complex_projective:2")
    assert bar_degree(cp2, ()) == 0
    assert bar_degree(cp2, (1, 2)) == 1 + 3
    assert prefix_degrees(cp2, (1, 2, 1)) == [0, 1, 4, 5]


def boundary(A, w):
    """The column of w in the smallest bar slice that holds it."""
    return bar_slice(A, bar_degree(A, w), len(w)).d_columns[w]


def test_bar_d_matches_oracle():
    """Every column of every weight-4 slice is the oracle's boundary, and
    the slices hold every word of weight <= 4."""
    for mid in ("sphere:2", "sphere:3", "complex_projective:2",
                "torus:2", "surface:1"):
        A = model(mid)
        slices = {}
        for r in range(5):
            for w in itertools.product(A.letters, repeat=r):
                n = bar_degree(A, w)
                if n not in slices:
                    slices[n] = bar_slice(A, n, 4)
                assert slices[n].d_columns[w] == oracle_bar_d(A, w), (mid, w)


def test_bar_d_raises_degree_by_one():
    A = model("complex_projective:2")
    for r in range(1, 5):
        for w in itertools.product(A.letters, repeat=r):
            n = bar_degree(A, w)
            for v in bar_slice(A, n, 4).d_columns[w]:
                assert bar_degree(A, v) == n + 1


def test_frozen_cp2_boundaries():
    cp2 = model("complex_projective:2")
    x, x2 = cp2.index("x"), cp2.index("x2")
    assert boundary(cp2, (x,)) == {}
    assert boundary(cp2, (x, x)) == {(x2,): 1}
    assert boundary(cp2, (x, x, x)) == {(x2, x): 1, (x, x2): -1}
    s2 = model("sphere:2")
    assert boundary(s2, (1, 1)) == {}


def test_bar_d_squares_to_zero_quick():
    for mid in ("sphere:2", "complex_projective:2", "torus:2", "surface:2"):
        assert bar_d_squared_zero(model(mid), 5, (0, 6)), mid


def test_sphere_betti_frozen():
    hom2 = bar_homology(model("sphere:2"), (0, 4), 5)
    assert [hom2[n].betti for n in range(5)] == [1, 1, 1, 1, 1]
    assert all(hom2[n].exact for n in range(5))
    hom3 = bar_homology(model("sphere:3"), (0, 6), 4)
    assert [hom3[n].betti for n in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    assert all(hom3[n].exact for n in range(7))


def test_cp2_betti_frozen():
    hom = bar_homology(model("complex_projective:2"), (0, 6), 7)
    assert [hom[n].betti for n in range(7)] == [1, 1, 0, 0, 1, 1, 0]
    assert all(hom[n].exact for n in range(7))


def test_betti_against_dense_oracle():
    jobs = [("sphere:2", range(0, 5), 5),
            ("sphere:3", range(0, 7), 4),
            ("complex_projective:2", range(0, 7), 7)]
    for mid, degrees, w in jobs:
        A = model(mid)
        hom = bar_homology(A, (min(degrees), max(degrees)), w)
        for n in degrees:
            assert hom[n].betti == dense_betti(A, n, w), (mid, n)


def test_slice_complete_bound():
    s3 = model("sphere:3")
    assert slice_complete(s3, 6, 3)
    assert not slice_complete(s3, 6, 2)
    assert slice_complete(s3, 0, 0)
    # non-simply-connected models never report a complete slice
    t2 = model("torus:2")
    assert not slice_complete(t2, 0, 6)
    hom = bar_homology(t2, (0, 2), 4)
    assert not any(hom[n].exact for n in range(3))


def test_words_by_degree_ordering():
    A = model("complex_projective:2")
    table = words_by_degree(A, 4)
    for bucket in table.values():
        weights = [len(w) for w in bucket]
        assert weights == sorted(weights)
        for a, b in zip(bucket, bucket[1:]):
            assert (len(a), a) < (len(b), b)
    # the empty word is the whole degree-0 bucket
    assert table[0] == ((),)


def test_bar_slice_columns_shape():
    A = model("sphere:3")
    slc = bar_slice(A, 4, 4)
    nxt = set(bar_slice(A, 5, 4).basis)
    assert set(slc.d_columns) == set(slc.basis)
    for col in slc.d_columns.values():
        assert set(col) <= nxt


def test_bar_homology_representatives_are_cycles():
    A = model("sphere:3")
    slc = bar_slice(A, 4, 4)
    hom = bar_homology(A, (4, 4), 4)
    for rep in hom[4].representatives:
        assert apply_columns(slc.d_columns, dict(rep)) == {}


