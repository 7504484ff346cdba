"""Duality map, Connes operator, symplectic data, and the bracket."""

import random

import pytest

from conftest import MODEL_IDS, model, random_cochain, slice_bases
from looptop.cochains import (Cochain, DualCochain, delta_to_A, delta_to_dual,
                              hochschild_homology)
from looptop.duality import (BracketModelError, E1Functional, NotInImageError,
                             bracket, chain_pairing_invertible, connes_B,
                             dual_cochain_of_e1, e1_bracket,
                             e1_of_dual_cochain, e1_term, poincare_P,
                             poincare_P_chain_inverse, poincare_P_inverse,
                             symplectic_basis)

ORIENTED = ["sphere:2", "sphere:3", "complex_projective:1",
            "complex_projective:2", "surface:1", "surface:2",
            "torus:1", "torus:2"]


# chain_pairing_invertible per model, recorded from the per-degree block test
# the single pairing table replaced
PAIRING_INVERTIBLE = {
    "sphere:2": True, "sphere:3": True,
    "complex_projective:1": True, "complex_projective:2": True,
    "surface:1": True, "surface:2": True, "torus:1": True, "torus:2": True,
    "acyclic_extension:sphere:2": False, "acyclic_extension:torus:1": False,
    "torus:3": True, "surface:3": True, "complex_projective:3": True,
    "acyclic_extension:surface:1": False,
}


def test_chain_pairing_invertible_flags():
    assert set(MODEL_IDS) <= set(PAIRING_INVERTIBLE)
    for mid, flag in PAIRING_INVERTIBLE.items():
        assert chain_pairing_invertible(model(mid)) == flag, mid


def test_poincare_P_shifts_degree_and_keeps_words():
    t2 = model("torus:2")
    phi = Cochain(t2, {((1,), 1): 2, ((2,), 1): 7}, degree=-1)
    psi = poincare_P(t2, phi)
    assert psi.degree == phi.degree + t2.top_degree
    assert set(w for w, _ in psi.entries) <= {(1,), (2,)}


def test_poincare_P_intertwines_coboundaries():
    """delta_dual(P phi) = (-1)^top P(delta_toA phi), exactly."""
    rng = random.Random(31)
    for mid in ORIENTED:
        A = model(mid)
        sign = -1 if A.top_degree % 2 else 1
        bases = slice_bases(A, "to_A", (-A.top_degree, 4), 3)
        for _ in range(12):
            phi = random_cochain(A, rng, bases)
            lhs = delta_to_dual(A, poincare_P(A, phi), 4)
            rhs = poincare_P(A, delta_to_A(A, phi, 4)).scale(sign)
            assert lhs.sub(rhs).is_zero, mid


def test_poincare_chain_inverse_roundtrip():
    rng = random.Random(37)
    for mid in (m for m, flag in PAIRING_INVERTIBLE.items() if flag):
        A = model(mid)
        bases = slice_bases(A, "to_A", (-A.top_degree, 3), 3)
        for _ in range(8):
            phi = random_cochain(A, rng, bases)
            psi = poincare_P(A, phi)
            back = poincare_P_chain_inverse(A, psi)
            assert back.sub(phi).is_zero
            assert poincare_P(A, back).sub(psi).is_zero


def test_poincare_inverse_homology_path():
    """Without an invertible chain pairing, invert up to a coboundary."""
    E = model("acyclic_extension:surface:1")
    h1 = hochschild_homology(E, "to_dual", (1, 1), 3)[1]
    for vec in h1.representatives:
        psi = DualCochain(E, dict(vec), degree=1)
        phi = poincare_P_inverse(E, psi, 3)
        diff = poincare_P(E, phi).sub(psi)
        assert h1.is_boundary(diff.entries)


def test_poincare_inverse_raises_off_image():
    E = model("acyclic_extension:surface:1")
    psi = DualCochain(E, {((1,), 2): 1}, degree=1)
    with pytest.raises(NotInImageError):
        poincare_P_inverse(E, psi, 2)


def test_connes_B_frozen_torus_value():
    t2 = model("torus:2")
    psi = DualCochain(t2, {((1, 2), t2.unit): 1}, degree=0)
    out = connes_B(t2, psi, 3)
    assert out.entries == {((2,), 1): 1, ((1,), 2): 1}
    assert out.degree == 1


def test_connes_B_squares_to_zero():
    rng = random.Random(41)
    for mid in ("torus:2", "surface:1", "sphere:2"):
        A = model(mid)
        bases = slice_bases(A, "to_dual", (0, 4), 4)
        for _ in range(12):
            psi = random_cochain(A, rng, bases, variant="to_dual")
            bb = connes_B(A, connes_B(A, psi, 5), 5)
            assert bb.is_zero, mid


def test_connes_B_needs_unit_value_slot():
    t2 = model("torus:2")
    psi = DualCochain(t2, {((1,), 2): 1})
    assert connes_B(t2, psi, 3).is_zero


def test_symplectic_basis_frozen():
    t2 = model("torus:2")
    sy = symplectic_basis(t2)
    assert sy.alphas == (t2.index("x1"),)
    assert sy.betas == (t2.index("x2"),)
    assert sy.genus == 1
    s2 = model("surface:2")
    sy2 = symplectic_basis(s2)
    assert sy2.genus == 2
    assert sy2.alphas == (s2.index("a1"), s2.index("a2"))
    assert sy2.betas == (s2.index("b1"), s2.index("b2"))
    s3 = model("surface:3")
    sy3 = symplectic_basis(s3)
    assert sy3.genus == 3
    assert sy3.alphas == tuple(s3.index(f"a{i}") for i in (1, 2, 3))
    assert sy3.betas == tuple(s3.index(f"b{i}") for i in (1, 2, 3))


def test_symplectic_basis_rejects_spheres():
    with pytest.raises(BracketModelError) as err:
        symplectic_basis(model("sphere:3"))
    assert "top degree 3 != 2" in str(err.value)


def test_e1_bracket_frozen_base_cases():
    t2 = model("torus:2")
    alpha = E1Functional(1, {(1,): 1})
    beta = E1Functional(1, {(2,): 1})
    assert e1_bracket(t2, alpha, beta).table == {(): 1}
    assert e1_bracket(t2, beta, alpha).table == {(): -1}
    assert e1_bracket(t2, alpha, alpha).is_zero


def test_e1_bracket_matches_full_pipeline_spot():
    t2 = model("torus:2")
    f1 = E1Functional(2, {(1, 2): 1})
    f2 = E1Functional(1, {(2,): 1})
    formula = e1_bracket(t2, f1, f2)
    full = bracket(t2, dual_cochain_of_e1(t2, f1),
                   dual_cochain_of_e1(t2, f2), 2, 1)
    assert e1_of_dual_cochain(t2, full, 1) == formula


def test_e1_term_dimension_reports():
    s3 = model("sphere:3")
    rep = e1_term(s3, 2)
    assert rep.match
    assert rep.quotient_dims == {4: 1, 7: 1}
    for mid in ("torus:2", "surface:1", "complex_projective:2"):
        for p in (1, 2, 3):
            assert e1_term(model(mid), p).match, (mid, p)


def test_bracket_output_respects_filtration():
    t2 = model("torus:2")
    h = hochschild_homology(t2, "to_dual", (0, 0), 3)[0]
    classes = [DualCochain(t2, dict(v), degree=0) for v in h.representatives]
    for x in classes[:4]:
        for y in classes[:4]:
            br = bracket(t2, x, y, 3, 3)
            assert br.weight_support <= 4


def test_bracket_antisymmetry_spot():
    s1 = model("surface:1")
    h = hochschild_homology(s1, "to_dual", (0, 0), 2)[0]
    out = hochschild_homology(s1, "to_dual", (0, 0), 2)[0]
    classes = [DualCochain(s1, dict(v), degree=0) for v in h.representatives]
    for x in classes:
        for y in classes:
            s = bracket(s1, x, y, 2, 2).add(bracket(s1, y, x, 2, 2))
            assert out.is_boundary(s.entries)


def test_bracket_windowing_consistency():
    t2 = model("torus:2")
    h = hochschild_homology(t2, "to_dual", (0, 0), 3)[0]
    classes = [DualCochain(t2, dict(v), degree=0) for v in h.representatives]
    x, y = classes[1], classes[2]
    full = bracket(t2, x, y, 3, 3)
    narrowed = bracket(t2, x, y, 3, 3, eval_cutoff=2)
    assert full.restrict_weight(2).entries == narrowed.entries


def test_bracket_needs_surface_like_model():
    with pytest.raises(BracketModelError):
        bracket(model("sphere:2"),
                DualCochain(model("sphere:2"), {((), 0): 1}, degree=0),
                DualCochain(model("sphere:2"), {((), 0): 1}, degree=0), 1, 1)
