"""Cochain complexes on bar words: coboundaries, cup product, homology."""

import random

import pytest

from conftest import MODEL_IDS, model, random_cochain, slice_bases
from looptop.cochains import (Cochain, DualCochain, GradingError,
                              assemble_complex, cup, delta_squared_zero,
                              delta_to_A, delta_to_dual, hochschild_homology,
                              loop_homology, slice_complete, unit_cochain)
from looptop.dga import builtin_model


def test_cochain_degree_bookkeeping():
    s2 = model("sphere:2")
    x = s2.index("x")
    phi = Cochain(s2, {((x,), x): 1})
    assert phi.degree == 1 - 2  # suspended word degree minus value degree
    psi = DualCochain(s2, {((x,), x): 1})
    assert psi.degree == 1 + 2
    with pytest.raises(GradingError):
        Cochain(s2, {((x,), x): 1, ((), x): 1})


def test_cochain_arithmetic():
    t2 = model("torus:2")
    phi = Cochain(t2, {((1,), 0): 2, ((2,), 0): -1}, degree=0)
    psi = Cochain(t2, {((1,), 0): -2}, degree=0)
    assert phi.add(psi).entries == {((2,), 0): -1}
    assert phi.sub(phi).is_zero
    assert phi.scale(0).is_zero
    assert phi.weight_support == 1
    long = Cochain(t2, {((1, 2, 1), 3): 1}, degree=-2)
    assert long.restrict_weight(2).is_zero
    with pytest.raises(GradingError):
        phi.add(Cochain(t2, {((1,), 1): 1}, degree=-1))


def test_frozen_sphere_coboundary():
    """Dual coboundary of the basis cochain (x):x, worked by hand.

    Prepending and appending x both land on ((x,x), unit); for the even
    sphere the two signs agree and stack to -2, for the odd sphere they
    cancel.
    """
    s2 = model("sphere:2")
    x = s2.index("x")
    psi = DualCochain(s2, {((x,), x): 1})
    out = delta_to_dual(s2, psi, psi.weight_support + 1)
    assert out.entries == {((x, x), s2.unit): -2}
    assert out.degree == psi.degree - 1
    s3 = model("sphere:3")
    y = s3.index("x")
    assert delta_to_dual(s3, DualCochain(s3, {((y,), y): 1}), 2).is_zero
    # the to-A coboundary of the same shape vanishes outright: x.x = 0
    assert delta_to_A(s2, Cochain(s2, {((x,), x): 1}), 2).is_zero


def test_delta_squared_zero_quick():
    for mid in ("sphere:2", "torus:2", "surface:1"):
        A = model(mid)
        top = A.top_degree
        assert delta_squared_zero(A, "to_A", (-top, 5), 4), mid
        assert delta_squared_zero(A, "to_dual", (0, 5), 4), mid


def test_delta_lowers_degree_in_both_variants():
    t2 = model("torus:2")
    phi = Cochain(t2, {((1, 2), 3): 1})
    assert delta_to_A(t2, phi, phi.weight_support + 1).degree == phi.degree - 1
    psi = DualCochain(t2, {((1, 2), 3): 1})
    assert (delta_to_dual(t2, psi, psi.weight_support + 1).degree
            == psi.degree - 1)


def test_unit_cochain_is_cup_unit():
    rng = random.Random(17)
    for mid in ("sphere:2", "surface:1", "torus:2"):
        A = model(mid)
        one = unit_cochain(A)
        bases = slice_bases(A, "to_A", (-A.top_degree, 4), 4)
        for _ in range(10):
            phi = random_cochain(A, rng, bases)
            left = cup(A, one, phi, 4)
            right = cup(A, phi, one, 4)
            assert left.sub(phi.restrict_weight(4)).is_zero
            assert right.sub(phi.restrict_weight(4)).is_zero


def test_cup_leibniz_spot_check():
    rng = random.Random(23)
    for mid in ("sphere:3", "complex_projective:2", "surface:2"):
        A = model(mid)
        bases = slice_bases(A, "to_A", (-A.top_degree, 5), 4)
        for _ in range(20):
            p1 = random_cochain(A, rng, bases)
            p2 = random_cochain(A, rng, bases)
            lhs = delta_to_A(A, cup(A, p1, p2, 4), 4)
            sign = -1 if p1.degree % 2 else 1
            rhs = cup(A, delta_to_A(A, p1, 4), p2, 4).add(
                cup(A, p1, delta_to_A(A, p2, 4), 4).scale(sign))
            assert lhs.sub(rhs).is_zero, mid


def test_cup_degree_additivity():
    A = model("complex_projective:2")
    x = A.index("x")
    p1 = Cochain(A, {((x,), x): 1})
    p2 = Cochain(A, {((x, x), A.unit): 1})
    prod = cup(A, p1, p2, p1.weight_support + p2.weight_support)
    assert prod.degree == p1.degree + p2.degree


def test_assemble_complex_slice():
    t2 = model("torus:2")
    slc = assemble_complex(t2, "to_dual", 0, 2)
    # all-letter words with the unit value: 1 + 2 + 4 of them
    assert len(slc.basis) == 7
    assert list(slc.basis) == sorted(slc.basis,
                                     key=lambda k: (len(k[0]), k[0], k[1]))
    assert set(slc.delta_columns) == set(slc.basis)
    assert not slc.complete


def test_slice_complete_means_no_larger_cutoff_adds_entries():
    """Whenever a slice is flagged complete, three more weight layers add
    no basis entries; the flag count is frozen so a rule that turns
    needlessly conservative fails too.  Fresh models keep the weight-8
    word tables out of the shared cache."""
    checked = 0
    for mid in MODEL_IDS:
        A = builtin_model(mid)
        if not A.simply_connected:
            continue
        for variant in ("to_A", "to_dual"):
            for n in range(-6, 7):
                for c in range(6):
                    if not slice_complete(A, variant, n, c):
                        continue
                    small = assemble_complex(A, variant, n, c).dim
                    large = assemble_complex(A, variant, n, c + 3).dim
                    assert small == large, (mid, variant, n, c)
                    checked += 1
    assert checked == 499


def test_torus_h0_dimensions_by_cutoff():
    t2 = model("torus:2")
    for c in range(5):
        h = hochschild_homology(t2, "to_dual", (0, 0), c)[0]
        assert h.betti == (c + 1) * (c + 2) // 2


def test_loop_homology_sphere3_window():
    L = loop_homology(model("sphere:3"), (-3, 5), 8)
    assert [L.betti[n] for n in range(-3, 6)] == [1, 0, 1, 1, 1, 1, 1, 1, 1]
    assert all(L.exact[n] for n in range(-3, 6))
    assert L.class_names[-3] == ["h-3.0"]
    rep = L.class_cochain(2, 0)
    assert rep.degree == 2
    assert delta_to_A(model("sphere:3"), rep, 8).is_zero
    expr = L.express(rep)
    assert expr == {(2, 0): 1}


def test_loop_homology_ring_table():
    L = loop_homology(model("sphere:3"), (-3, 5), 8)
    prod = L.ring[((-3, 0), (2, 0))]
    assert prod == {(-1, 0): 1}
    tsv = L.tsv()
    lines = tsv.strip().split("\n")
    assert lines[0] == "degree\tbetti\tstatus\tclasses\tproducts"
    assert len(lines) == 1 + 9


def test_loop_homology_truncation_flags():
    L = loop_homology(model("sphere:2"), (0, 4), 2)
    assert not all(L.exact.values())


def test_sphere2_loop_betti():
    """One class in every degree, matching the free-loop Sullivan model
    of the even sphere over the rationals."""
    L = loop_homology(model("sphere:2"), (-2, 6), 10)
    assert [L.betti[n] for n in range(-2, 7)] == [1] * 9
    assert all(L.exact[n] for n in range(-2, 7))


