"""Acceptance gate: one test per shipping criterion.

Run with -v to get a pass/fail line per criterion.  Every check is exact
(integer or Fraction arithmetic); random data is seeded, so the whole
gate is deterministic.
"""

import itertools
import os
import random
import subprocess
import sys
import time
import zlib

from conftest import MODEL_IDS, model, random_cochain, slice_bases
from looptop.bar import bar_d_squared_zero, bar_homology
from looptop.cochains import (DualCochain, cup, delta_squared_zero,
                              delta_to_A, hochschild_homology, loop_homology,
                              _delta_columns)
from looptop.duality import (bracket, connes_B, e1_bracket, e1_term,
                             poincare_P, poincare_P_chain_inverse)
from looptop.lattice import (compare_pi1_dimensions, goldman_torus,
                             group_ring_to_cochain, holonomy_cochain)
from test_bar import dense_betti


_H0 = {}


def dual_h0(mid, cutoff):
    """Degree-0 homology of the truncated dual complex, cached."""
    if (mid, cutoff) not in _H0:
        _H0[(mid, cutoff)] = hochschild_homology(
            model(mid), "to_dual", (0, 0), cutoff)[0]
    return _H0[(mid, cutoff)]


def dual_classes(mid, cutoff):
    A = model(mid)
    return [DualCochain(A, dict(v), degree=0)
            for v in dual_h0(mid, cutoff).representatives]


def test_criterion_01_differentials_square_to_zero():
    """d_B^2 = 0 and delta^2 = 0 (both variants), all models, degrees
    [-top, 8], weight up to 6, exactly, within the 60 s budget."""
    start = time.monotonic()
    for mid in MODEL_IDS:
        A = model(mid)
        top = A.top_degree
        assert bar_d_squared_zero(A, 6, (0, 8)), mid
        assert delta_squared_zero(A, "to_A", (-top, 8), 6), mid
        assert delta_squared_zero(A, "to_dual", (-top, 8), 6), mid
    assert time.monotonic() - start < 60


def test_criterion_02_leibniz_on_random_pairs():
    """delta(p1 cup p2) = delta(p1) cup p2 + (-1)^{|p1|} p1 cup delta(p2)
    on 100 seeded sparse pairs per model, exactly."""
    for mid in MODEL_IDS:
        A = model(mid)
        rng = random.Random(zlib.crc32(mid.encode()))
        bases = slice_bases(A, "to_A", (-A.top_degree, 5), 4)
        for _ in range(100):
            p1 = random_cochain(A, rng, bases)
            p2 = random_cochain(A, rng, bases)
            lhs = delta_to_A(A, cup(A, p1, p2, 4), 4)
            sign = -1 if p1.degree % 2 else 1
            rhs = cup(A, delta_to_A(A, p1, 4), p2, 4).add(
                cup(A, p1, delta_to_A(A, p2, 4), 4).scale(sign))
            assert lhs.sub(rhs).is_zero, mid


def test_criterion_03_sphere_bar_betti_vs_dense_oracle():
    """Sparse bar homology of the spheres equals both the frozen tables
    and a dense-enumeration oracle with its own boundary and ranks."""
    s2 = model("sphere:2")
    hom2 = bar_homology(s2, (0, 4), 5)
    assert [hom2[n].betti for n in range(5)] == [1, 1, 1, 1, 1]
    assert all(hom2[n].exact for n in range(5))
    for n in range(5):
        assert hom2[n].betti == dense_betti(s2, n, 5)
    s3 = model("sphere:3")
    hom3 = bar_homology(s3, (0, 6), 4)
    assert [hom3[n].betti for n in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    assert all(hom3[n].exact for n in range(7))
    for n in range(7):
        assert hom3[n].betti == dense_betti(s3, n, 4)


def test_criterion_04_sphere3_loop_ring():
    """Loop homology of the 3-sphere: frozen Betti table, ring relations
    a^2 = 0, a.u^k != 0, u^j.u^k = u^{j+k}, and rank agreement with the
    dual-pipeline computation shifted by the top degree."""
    s3 = model("sphere:3")
    L = loop_homology(s3, (-3, 8), 8)
    assert [L.betti[n] for n in range(-3, 6)] == [1, 0, 1, 1, 1, 1, 1, 1, 1]
    assert all(L.exact[n] for n in range(-3, 9))
    a = L.representatives[-3][0]
    u = L.representatives[2][0]
    assert cup(s3, a, a, 2 * a.weight_support).is_zero
    pows = {1: u}
    for k in range(2, 5):
        pows[k] = cup(s3, pows[k - 1], u, 8)
    for k in range(1, 5):
        assert L.express(pows[k]) == {(2 * k, 0): 1}
        mixed = cup(s3, a, pows[k], 8)
        assert L.express(mixed) == {(2 * k - 3, 0): 1}
    for j in range(1, 4):
        for k in range(1, 5 - j):
            prod = cup(s3, pows[j], pows[k], 8)
            assert L.express(prod) == L.express(pows[j + k])
    dual = hochschild_homology(s3, "to_dual", (0, 8), 8)
    for n in range(-3, 6):
        assert L.betti[n] == dual[n + 3].betti, n


def test_criterion_05_e1_dimension_agreement():
    """Weight-graded quotient homology dimensions match the functional
    count built from suspended homology, per model, p up to 4."""
    for mid in MODEL_IDS:
        A = model(mid)
        for p in range(1, 5):
            rep = e1_term(A, p)
            assert rep.match, (mid, p, rep.quotient_dims, rep.formula_dims)
    assert e1_term(model("sphere:3"), 2).quotient_dims == {4: 1, 7: 1}


def test_criterion_06_pi1_truncation_dimensions():
    """Truncated dual H0 of the two-torus matches the group-ring
    quotient dimension p(p+1)/2 for p = 1..5."""
    for p in range(1, 6):
        rep = compare_pi1_dimensions(p)
        assert rep.match, p
        assert rep.group_ring_dim == p * (p + 1) // 2


def test_criterion_07_goldman_agreement_torus():
    """Algebraic bracket of holonomy classes equals the combinatorial
    lattice bracket, exhaustively over loops with coordinates in
    [-2, 2]^2, through truncation level 4."""
    t2 = model("torus:2")
    loops = [(m, n) for m in range(-2, 3) for n in range(-2, 3)]
    for level in range(1, 5):
        h = dual_h0("torus:2", level)
        phis = {}
        for u in loops:
            psi = holonomy_cochain(t2, u, level + 1)
            phis[u] = poincare_P_chain_inverse(
                t2, connes_B(t2, psi, level + 1))
        checked = 0
        for u in loops:
            for v in loops:
                got = poincare_P(
                    t2, cup(t2, phis[u], phis[v],
                            weight_cutoff=level)).scale(-1)
                want = group_ring_to_cochain(
                    t2, goldman_torus(u, v), level)
                assert h.is_boundary(got.sub(want).entries), (level, u, v)
                checked += 1
        assert checked == len(loops) ** 2
        # the shortcut above is the bracket pipeline with cached factors
        for u, v in [((1, 0), (0, 1)), ((2, -1), (1, 2)), ((0, 2), (-2, 1))]:
            direct = bracket(t2, holonomy_cochain(t2, u, level + 1),
                             holonomy_cochain(t2, v, level + 1),
                             level + 1, level + 1, eval_cutoff=level)
            shortcut = poincare_P(
                t2, cup(t2, phis[u], phis[v], weight_cutoff=level)).scale(-1)
            assert direct.sub(shortcut).is_zero


def test_criterion_08_lie_axioms():
    """Bracket antisymmetry (torus and genus-2 surface, p + q <= 6) and
    the Jacobi identity (torus p <= 5, genus-2 surface p <= 4), checked
    modulo boundaries in the output window; larger surface layers are
    sampled with a fixed seed, and the p = 4 surface Jacobi sum is
    projected to weight 5 before the boundary test."""
    # torus antisymmetry, every class pair with p + q <= 6
    for p in range(1, 6):
        for q in range(1, 7 - p):
            out = dual_h0("torus:2", max(p + q - 2, 0))
            for x in dual_classes("torus:2", p):
                for y in dual_classes("torus:2", q):
                    s = bracket(model("torus:2"), x, y, p, q).add(
                        bracket(model("torus:2"), y, x, q, p))
                    assert out.is_boundary(s.entries), (p, q)
    # surface antisymmetry, seeded samples from every level pair
    rng = random.Random(11)
    s2 = model("surface:2")
    for p in range(1, 6):
        for q in range(p, 7 - p):
            out = dual_h0("surface:2", max(p + q - 2, 0))
            cp, cq = dual_classes("surface:2", p), dual_classes("surface:2", q)
            for _ in range(6):
                x, y = rng.choice(cp), rng.choice(cq)
                s = bracket(s2, x, y, p, q).add(bracket(s2, y, x, q, p))
                assert out.is_boundary(s.entries), (p, q)

    def jacobi_sum(A, a, b, c, p, window):
        total = None
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = bracket(A, x, y, p, p)
            term = bracket(A, inner, z, 2 * p - 2, p, eval_cutoff=window)
            total = term if total is None else total.add(term)
        return total

    t2 = model("torus:2")
    for p in (2, 3, 4):
        window = 3 * p - 4
        cls = dual_classes("torus:2", p)
        out = dual_h0("torus:2", window)
        for a, b, c in itertools.product(cls, repeat=3):
            assert out.is_boundary(jacobi_sum(t2, a, b, c, p, window).entries)
    cls5 = dual_classes("torus:2", 5)
    out5 = dual_h0("torus:2", 11)
    rng = random.Random(7)
    for _ in range(15):
        a, b, c = (rng.choice(cls5) for _ in range(3))
        assert out5.is_boundary(jacobi_sum(t2, a, b, c, 5, 11).entries)
    rng = random.Random(13)
    for p, window, count in ((2, 2, 12), (3, 5, 8), (4, 5, 4)):
        cls = dual_classes("surface:2", p)
        out = dual_h0("surface:2", window)
        for _ in range(count):
            a, b, c = (rng.choice(cls) for _ in range(3))
            assert out.is_boundary(jacobi_sum(s2, a, b, c, p, window).entries)


def test_criterion_09_bracket_filtration_law():
    """The untruncated bracket pipeline lands in weight p + q - 2: apply
    the cyclic operator, invert the duality, cup at the sum of the two
    weight supports (a cutoff that drops no term), and map back, then
    read off the weight support."""
    for mid, levels in (("torus:2", (1, 2, 3)), ("surface:1", (1, 2))):
        A = model(mid)
        for p in levels:
            for q in levels:
                for x in dual_classes(mid, p):
                    for y in dual_classes(mid, q):
                        bx = poincare_P_chain_inverse(A, connes_B(A, x, p))
                        by = poincare_P_chain_inverse(A, connes_B(A, y, q))
                        support = bx.weight_support + by.weight_support
                        raw = poincare_P(A, cup(A, bx, by, support)).scale(-1)
                        assert raw.weight_support <= max(p + q - 2, 0)


def _e1_sweep(A, max_weight):
    """Compare e1_bracket with the top weight layer of bracket on every
    pair of single-word top layers with p, q <= max_weight; returns the
    number of pairs."""
    words = {p: [DualCochain(A, {(w, A.unit): 1}, degree=0)
                 for w in itertools.product(A.basis_of_degree(1), repeat=p)]
             for p in range(1, max_weight + 1)}
    checked = 0
    for p, q in itertools.product(words, repeat=2):
        for c1 in words[p]:
            for c2 in words[q]:
                full = bracket(A, c1, c2, p, q)
                top = {k: c for k, c in full.entries.items()
                       if len(k[0]) == p + q - 2}
                assert e1_bracket(A, c1, c2, p, q).entries == top, (c1, c2)
                checked += 1
    return checked


def test_criterion_10_e1_bracket_matches_full_pipeline():
    """Leading-layer bracket formula equals the full pipeline projected
    to the top weight layer, for every single-word pair with p, q <= 3 on
    the torus and p, q <= 2 on the genus-2 surface; agreement is on the
    nose because the quotient coboundary vanishes for a model with zero
    differential."""
    t2 = model("torus:2")
    for n in range(1, 5):
        for w in itertools.product(t2.letters, repeat=n):
            for val in range(t2.dim):
                # cutoff len(w): the weight-graded quotient coboundary
                key = (w, val)
                assert _delta_columns(t2, "to_dual", [key], n)[key] == {}
    assert _e1_sweep(t2, 3) == (2 + 4 + 8) ** 2
    assert _e1_sweep(model("surface:2"), 2) == (4 + 16) ** 2


def test_criterion_11_quasi_isomorphism_invariance():
    """Truncated H0 dimensions agree between each surface and its
    acyclic extension, g <= 2, p <= 3."""
    expected = {1: [3, 6, 10], 2: [5, 15, 35]}
    for g in (1, 2):
        dims = []
        for p in (1, 2, 3):
            a = dual_h0(f"surface:{g}", p).betti
            b = dual_h0(f"acyclic_extension:surface:{g}", p).betti
            assert a == b, (g, p)
            dims.append(a)
        assert dims == expected[g]


def test_criterion_12_determinism_across_processes():
    """A battery of CLI reports is byte-identical across two fresh
    processes with different hash seeds."""
    battery = [
        ["validate", "--model", "sphere:3", "--format", "json"],
        ["loop-homology", "--model", "sphere:3",
         "--min", "-3", "--max", "5", "--cutoff", "8"],
        ["bar-betti", "--model", "complex_projective:2",
         "--min", "0", "--max", "6", "--max-weight", "7"],
        ["bracket", "--model", "torus:2", "--p", "2"],
        ["pi1-compare", "--p", "3", "--format", "json"],
        # a model built by tensor_product
        ["validate", "--model", "acyclic_extension:sphere:3",
         "--format", "json"],
        ["loop-homology", "--model", "acyclic_extension:sphere:3",
         "--min", "-3", "--max", "2", "--cutoff", "5"],
        # the genus-2 symplectic basis and the pairing table
        ["bracket", "--model", "surface:2", "--p", "2", "--format", "json"],
        # the default window and cutoff of a simply connected model
        # (degrees -6..8, cutoff 15)
        ["loop-homology", "--model", "complex_projective:3"],
    ]

    def run_all(seed):
        blobs = []
        for argv in battery:
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-m", "looptop.cli"] + argv,
                capture_output=True, env=env, check=True)
            blobs.append(proc.stdout)
        return b"\n".join(blobs)

    first = run_all("0")
    second = run_all("1")
    third = run_all("0")
    assert first == second == third
    assert first.strip()
