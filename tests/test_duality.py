"""Duality map, Connes operator, symplectic data, and the bracket."""

import random

import pytest

from conftest import (MODEL_IDS, model, random_cochain, restrict_weight,
                      slice_bases)
from looptop import builtin_model
from looptop.cochains import (Cochain, DualCochain, GradingError,
                              _delta_columns, assemble_complex, cup,
                              delta_to_A, delta_to_dual, hochschild_homology)
from looptop.dga import build_dga, dga_to_doc
from looptop.duality import (BracketModelError, CycleError, NotInImageError,
                             _pairing, bracket, chain_pairing_invertible,
                             connes_B, e1_bracket, e1_term, poincare_P,
                             poincare_P_chain_inverse, symplectic_basis)
from looptop.linalg import acc

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


def test_poincare_chain_inverse_refuses_degenerate_pairing():
    for mid in (m for m, flag in PAIRING_INVERTIBLE.items() if not flag):
        A = model(mid)
        psi = DualCochain(A, {((), A.unit): 1}, degree=0)
        with pytest.raises(NotInImageError) as err:
            poincare_P_chain_inverse(A, psi)
        assert str(err.value) == (
            f"orientation pairing of {A.label} is not chain-invertible")


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


def test_connes_B_weight_gate_reports_the_maximum_weight():
    """The gate runs inside the rotation loop, before the unit-slot skip:
    a too-long entry with a non-unit test index, after a short one and
    before a longer one, still raises, and the message gives the
    cochain's weight, not the length of the first word over p."""
    t2 = model("torus:2")
    x1, x2 = t2.index("x1"), t2.index("x2")
    psi = DualCochain(t2, {((x1,), x2): 1, ((x1, x2, x1), x2): 1,
                           ((x1, x2, x1, x2), x1): 1, ((x2,), x1): 1})
    with pytest.raises(GradingError) as err:
        connes_B(t2, psi, 2)
    assert str(err.value) == "cochain has weight 4, expected <= 2"
    assert connes_B(t2, psi, 4).entries == {}


def test_symplectic_basis_frozen():
    """The (alpha, beta) pairs, one per genus."""
    t2 = model("torus:2")
    sy = symplectic_basis(t2)
    assert sy == ((t2.index("x1"), t2.index("x2")),)
    s2 = model("surface:2")
    sy2 = symplectic_basis(s2)
    assert sy2 == ((s2.index("a1"), s2.index("b1")),
                   (s2.index("a2"), s2.index("b2")))
    s3 = model("surface:3")
    sy3 = symplectic_basis(s3)
    assert sy3 == tuple((s3.index(f"a{i}"), s3.index(f"b{i}"))
                        for i in (1, 2, 3))


def test_symplectic_basis_rejects_spheres():
    with pytest.raises(BracketModelError) as err:
        symplectic_basis(model("sphere:3"))
    assert "top degree 3 != 2" in str(err.value)


def test_e1_bracket_frozen_base_cases():
    t2 = model("torus:2")
    alpha = DualCochain(t2, {((1,), t2.unit): 1}, degree=0)
    beta = DualCochain(t2, {((2,), t2.unit): 1}, degree=0)
    assert e1_bracket(t2, alpha, beta, 1, 1).entries == {((), t2.unit): 1}
    assert e1_bracket(t2, beta, alpha, 1, 1).entries == {((), t2.unit): -1}
    assert e1_bracket(t2, alpha, alpha, 1, 1).is_zero
    one = DualCochain(t2, {((), t2.unit): 1}, degree=0)
    for args in ((one, alpha, 0, 1), (alpha, one, 1, 0), (one, one, 0, 0)):
        assert bracket(t2, *args).is_zero
        assert e1_bracket(t2, *args).is_zero


def test_e1_bracket_matches_full_pipeline_spot():
    t2 = model("torus:2")
    c1 = DualCochain(t2, {((1, 2), t2.unit): 1, ((1,), t2.unit): 5},
                     degree=0)
    c2 = DualCochain(t2, {((2,), t2.unit): 1}, degree=0)
    formula = e1_bracket(t2, c1, c2, 2, 1)
    assert formula.degree == 0 and formula.weight_support == 1
    full = bracket(t2, c1, c2, 2, 1)
    top = {k: c for k, c in full.entries.items() if len(k[0]) == 1}
    assert top == formula.entries != {}


def test_e1_bracket_shares_the_bracket_gate():
    t2 = model("torus:2")
    c = DualCochain(t2, {((1, 2), t2.unit): 1}, degree=0)
    s2 = model("sphere:2")
    unit = DualCochain(s2, {((), 0): 1}, degree=0)
    for fn in (bracket, e1_bracket):
        with pytest.raises(GradingError, match="stated filtration"):
            fn(t2, c, c, 1, 2)
        with pytest.raises(GradingError, match="expects dual cochains"):
            fn(t2, Cochain(t2, {}, degree=0), c, 2, 2)
        with pytest.raises(BracketModelError):
            fn(s2, unit, unit, 1, 1)


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
    assert restrict_weight(t2, full, 2).entries == narrowed.entries


def test_bracket_needs_surface_like_model():
    with pytest.raises(BracketModelError):
        bracket(model("sphere:2"),
                DualCochain(model("sphere:2"), {((), 0): 1}, degree=0),
                DualCochain(model("sphere:2"), {((), 0): 1}, degree=0), 1, 1)


def _h0_classes(A, cutoff):
    h = hochschild_homology(A, "to_dual", (0, 0), cutoff)[0]
    return [DualCochain(A, dict(v), degree=0) for v in h.representatives]


def _torus_with_broken_unit(model_id="torus:2"):
    """torus:2 (or a model with its letters, such as its acyclic
    extension) with 1·x1 = x1 + x2 (fails validate_dga).

    On torus:2 itself every degree-0 dual cochain rotates to a cocycle:
    the degree -1 slice is empty and the prepend and append terms of the
    rotations cancel in pairs.  Here the unit no longer acts as one, so
    rotating (x2, x2) at p = 3 leaves a cochain that is not a cocycle,
    while at p = 2 the cutoff drops the terms that do not cancel.  The
    symplectic basis and the pairing inverse are those of torus:2."""
    doc = dga_to_doc(builtin_model(model_id))
    for entry in doc["products"]:
        if (entry["left"], entry["right"]) == ("1", "x1"):
            entry["result"] = {"x1": "1", "x2": "1"}
    return build_dga(doc)


def test_warm_caches_do_not_mask_bracket_checks():
    t2 = builtin_model("torus:2")
    classes = _h0_classes(t2, 3)
    x, y = classes[5], classes[6]  # (x1, x2) and (x1, x2, x2)
    assert not bracket(t2, x, y, 3, 3).is_zero
    with pytest.raises(GradingError,
                       match="class support exceeds its stated filtration"):
        bracket(t2, x, y, 3, 2)
    with pytest.raises(GradingError,
                       match="cochain has weight 3, expected <= 2"):
        connes_B(t2, y, 2)
    with pytest.raises(GradingError, match="connes_B expects a dual cochain"):
        connes_B(t2, Cochain(t2, {((1,), 1): 1}), 3)
    mixed = {((1, 2), t2.unit): 1, ((1,), 1): 1}
    for cls, n in ((DualCochain, 1), (Cochain, -1)):
        with pytest.raises(GradingError) as err:
            cls(t2, mixed)
        assert str(err.value) == (
            f"entry (x1):x1 has degree {n}, cochain has degree 0")

    broken = _torus_with_broken_unit()
    c = DualCochain(broken, {((2, 2), broken.unit): 1}, degree=0)
    top = DualCochain(broken, {((1, 2, 1), broken.unit): 1}, degree=0)
    # p = 2 memoises the coboundary of ((x2,), x2) below the cutoff...
    assert bracket(broken, c, c, 2, 2).is_zero
    assert not bracket(broken, top, top, 3, 3).is_zero
    # ...and at p = 3 the same column must carry the weight-raising terms
    with pytest.raises(CycleError, match="rotated first argument"):
        bracket(broken, c, top, 3, 3)
    with pytest.raises(CycleError, match="rotated second argument"):
        bracket(broken, top, c, 3, 3)

    s3 = builtin_model("sphere:3")
    for _ in range(2):
        with pytest.raises(BracketModelError, match="top degree 3 != 2"):
            symplectic_basis(s3)


def test_bracket_errors_keep_their_order():
    """The model gate before the grading gate, and the cocycle checks
    before the pairing: acyclic_extension(torus(2)) has a symplectic basis
    but no chain-invertible pairing, and with its unit broken the rotated
    inputs at p = 3 are not cocycles."""
    s2 = builtin_model("sphere:2")
    with pytest.raises(BracketModelError):
        bracket(s2, Cochain(s2, {}, degree=1), Cochain(s2, {}), 0, 0)
    A = _torus_with_broken_unit("acyclic_extension:torus:2")
    x1, x2 = A.index("x1"), A.index("x2")
    c = DualCochain(A, {((x2, x2), A.unit): 1}, degree=0)
    top = DualCochain(A, {((x1, x2, x1), A.unit): 1}, degree=0)
    with pytest.raises(GradingError, match="stated filtration"):
        bracket(A, top, c, 2, 3)
    with pytest.raises(CycleError, match="rotated first argument"):
        bracket(A, c, top, 3, 3)
    with pytest.raises(CycleError, match="rotated second argument"):
        bracket(A, top, c, 3, 3)
    with pytest.raises(NotInImageError, match="not chain-invertible"):
        bracket(A, c, c, 2, 2)


def _reference_connes_B(A, phi):
    """The rotation with its sign recomputed per letter, O(len^2)."""
    def eps(word):
        return sum(A.degrees[i] - 1 for i in word)

    out = {}
    for (u, val), c in phi.entries.items():
        if val != A.unit or not u:
            continue
        for j, b in enumerate(u):
            eps_k = eps(u[j + 1:])
            e = (eps_k + 1) * (eps(u) - (A.degrees[b] - 1) - eps_k)
            acc(out, (u[j + 1:] + u[:j], b), (-1 if e % 2 else 1) * c)
    return out


def _reference_cup(A, phi1, phi2, cutoff):
    """Cup product with the Koszul sign recomputed for every pair."""
    n1, n2 = phi1.degree, phi2.degree
    out = {}
    for (v1, a1), c1 in phi1.entries.items():
        for (v2, a2), c2 in phi2.entries.items():
            if len(v1) + len(v2) > cutoff:
                continue
            e = n1 * (n2 + sum(A.degrees[i] - 1 for i in v2))
            for k, cm in A.mul(a1, a2).items():
                acc(out, (v1 + v2, k), (-1 if e % 2 else 1) * c1 * c2 * cm)
    return out


def _reference_delta_to_dual(A, phi, cutoff):
    """The dual coboundary summed entry by entry over the basis columns
    of _delta_columns, one key at a time, with no flavour check."""
    out = {}
    for key, c in phi.entries.items():
        for k, y in _delta_columns(A, "to_dual", [key], cutoff)[key].items():
            acc(out, k, c * y)
    return out


def test_memoised_operators_match_references_with_signs():
    """connes_B, cup and delta_to_dual against entrywise references on
    models whose letters have nonzero bar degree, so every sign matters;
    each dual cochain and its rotation meet the cutoffs 0..5 in a seeded
    order, twice.  (On sphere:3 the dual coboundary vanishes
    identically.)"""
    rng = random.Random(4111)
    nonzero = {"B": 0, "cup": 0, "delta": 0}
    for mid in ("complex_projective:2", "sphere:3",
                "acyclic_extension:sphere:3"):
        A = builtin_model(mid)
        dual = slice_bases(A, "to_dual", (0, 7), 3)
        units = {n: [k for k in keys if k[1] == A.unit]
                 for n, keys in dual.items()}
        to_A = slice_bases(A, "to_A", (-A.top_degree, 5), 3)
        for _ in range(25):
            n = rng.choice([n for n in sorted(units) if units[n]])
            keys = set(rng.sample(units[n], min(3, len(units[n]))))
            keys.update(rng.sample(dual[n], min(3, len(dual[n]))))
            phi = DualCochain(A, {k: rng.choice((-2, -1, 1, 3))
                                  for k in sorted(keys)}, degree=n)
            rotated = connes_B(A, phi, 3)
            assert rotated.entries == _reference_connes_B(A, phi), mid
            assert rotated.degree == n + 1
            nonzero["B"] += not rotated.is_zero
            cutoffs = list(range(6))
            for _ in range(2):
                rng.shuffle(cutoffs)
                for cutoff in cutoffs:
                    for psi in (phi, rotated):
                        got = delta_to_dual(A, psi, cutoff)
                        want = _reference_delta_to_dual(A, psi, cutoff)
                        assert got.entries == want, (mid, cutoff)
                        assert got.degree == psi.degree - 1
                        nonzero["delta"] += not got.is_zero
            phi1 = random_cochain(A, rng, to_A, terms=4)
            phi2 = random_cochain(A, rng, to_A, terms=4)
            for cutoff in (rng.randint(0, 6), 6):
                got = cup(A, phi1, phi2, cutoff)
                assert got.entries == _reference_cup(A, phi1, phi2, cutoff)
                assert got.degree == phi1.degree + phi2.degree
                nonzero["cup"] += not got.is_zero
    assert all(nonzero.values()), nonzero


def test_memos_are_per_model():
    """Brackets computed alternately on two warm models equal those of
    freshly built ones.  torus:2 and surface:2 brackets only meet words
    whose columns agree in both models, and a memo shared by all models
    would serve the fresh ones too, so rotations are also alternated over
    models that give the same words different columns (torus:2, its
    broken-unit variant, complex_projective:2) and compared, with their
    coboundaries, with the memo-free references."""
    warm = {mid: builtin_model(mid) for mid in ("torus:2", "surface:2")}
    classes = {mid: _h0_classes(A, 2) for mid, A in warm.items()}
    n = min(len(cs) for cs in classes.values())
    got = {}
    for i in range(n):
        for j in range(n):
            for mid, A in warm.items():
                x, y = classes[mid][i], classes[mid][j]
                got[(mid, i, j)] = bracket(A, x, y, 2, 2)
    for mid in warm:
        fresh = builtin_model(mid)
        for i in range(n):
            for j in range(n):
                x, y = classes[mid][i], classes[mid][j]
                want = bracket(fresh, x, y, 2, 2)
                assert got[(mid, i, j)] == want, (mid, i, j)

    models = [builtin_model("torus:2"), _torus_with_broken_unit(),
              builtin_model("complex_projective:2")]
    for u in [(1,), (2,), (1, 2), (2, 1), (2, 2), (1, 2, 2), (2, 1, 2)]:
        for cutoff in (1, 2, 3):
            for A in models:
                phi = DualCochain(A, {(u, A.unit): 1})
                rotated = connes_B(A, phi, 3)
                assert rotated.entries == _reference_connes_B(A, phi)
                assert delta_to_dual(A, rotated, cutoff).entries == (
                    _reference_delta_to_dual(A, rotated, cutoff)), (u, cutoff)


def _reference_bracket(A, c1, c2, p, q, eval_cutoff=None):
    """-P(P^{-1}B c1 ∪ P^{-1}B c2) from the entrywise references and the
    pairing table, with nothing memoised."""
    forward, inverse = _pairing(A)
    top = A.top_degree
    cutoff = p + q - 2
    if eval_cutoff is not None:
        cutoff = min(cutoff, eval_cutoff)

    def rotated_preimage(c):
        out = {}
        for (w, b), x in _reference_connes_B(A, c).items():
            for a, v in inverse[b].items():
                acc(out, (w, a), x * v)
        return Cochain(A, out, degree=c.degree + 1 - top)

    x1, x2 = rotated_preimage(c1), rotated_preimage(c2)
    out = {}
    for (w, a), x in _reference_cup(A, x1, x2, cutoff).items():
        for b, v in forward[a].items():
            acc(out, (w, b), -x * v)
    return DualCochain(A, out, degree=x1.degree + x2.degree + top)


def test_bracket_matches_reference_composite():
    """The fused bracket against the composite of the references on
    seeded pairs of scaled classes and of sums of classes, of equal and
    unequal filtrations, with and without an output cutoff."""
    rng = random.Random(1613)
    seen = {"p != q": 0, "cutoff": 0, "[x, x]": 0}
    for mid, top_p in (("torus:2", 4), ("surface:1", 3), ("surface:2", 3)):
        A = builtin_model(mid)
        classes = {p: _h0_classes(A, p) for p in range(1, top_p + 1)}
        for _ in range(60):
            p, q = rng.randint(1, top_p), rng.randint(1, top_p)
            x = rng.choice(classes[p]).scale(rng.choice((-2, 1, 3)))
            y = rng.choice(classes[q]).scale(rng.choice((-1, 1, 5)))
            if rng.random() < 0.5:  # sums make terms cancel
                x = x.add(rng.choice(classes[p]))
                y = y.add(rng.choice(classes[q]))
            # [x, x] is where the most terms cancel
            for x2, q2 in ((y, q), (x, p)):
                for cutoff in (None, rng.randint(0, p + q2 - 2)):
                    got = bracket(A, x, x2, p, q2, eval_cutoff=cutoff)
                    want = _reference_bracket(A, x, x2, p, q2, cutoff)
                    assert got.entries == want.entries, (mid, p, q2, cutoff)
                    assert got.degree == want.degree == 0
                    if not got.is_zero:
                        seen["p != q"] += p != q2
                        seen["cutoff"] += cutoff is not None
                        seen["[x, x]"] += x2 is x
    assert all(n > 20 for n in seen.values()), seen


def test_unscanned_outputs_pass_the_public_check():
    """Every operator output made without the grading scan is one the
    public constructor accepts unchanged: homogeneous of its degree, with
    no zero coefficient."""
    rng = random.Random(2203)
    nonzero = {}

    def check(name, A, out):
        assert type(out)(A, out.entries, degree=out.degree) == out, name
        nonzero[name] = nonzero.get(name, 0) + (not out.is_zero)

    for mid in ("complex_projective:2", "sphere:3",
                "acyclic_extension:sphere:3"):
        A = builtin_model(mid)
        dual = slice_bases(A, "to_dual", (0, 7), 3)
        to_A = slice_bases(A, "to_A", (-A.top_degree, 5), 3)
        invertible = chain_pairing_invertible(A)
        for _ in range(20):
            psi = random_cochain(A, rng, dual, variant="to_dual", terms=5)
            phi1 = random_cochain(A, rng, to_A, terms=4)
            phi2 = random_cochain(A, rng, to_A, terms=4)
            check("connes_B", A, connes_B(A, psi, 3))
            check("delta_to_dual", A, delta_to_dual(A, psi, rng.randint(0, 4)))
            check("delta_to_A", A, delta_to_A(A, phi1, rng.randint(0, 4)))
            check("cup", A, cup(A, phi1, phi2, rng.randint(0, 6)))
            check("poincare_P", A, poincare_P(A, phi1))
            if invertible:
                check("poincare_P_chain_inverse", A,
                      poincare_P_chain_inverse(A, psi))
            check("scale", A, psi.scale(rng.choice((0, -1, 2))))
            check("add", A, phi1.add(phi1.scale(-1)))
            if phi1.degree == phi2.degree:
                check("add", A, phi1.add(phi2))
    t2 = builtin_model("torus:2")
    classes = _h0_classes(t2, 3)
    for _ in range(40):
        # sums of classes make terms of the bracket cancel
        x = rng.choice(classes).add(rng.choice(classes))
        y = rng.choice(classes).add(rng.choice(classes).scale(-2))
        check("bracket", t2, bracket(t2, x, y, 3, 3))
        check("bracket", t2, bracket(t2, x, x, 3, 3))
    assert len(nonzero) == 9 and all(nonzero.values()), nonzero


def test_rotated_degree0_basis_cochains_are_cocycles():
    """Every degree-0 dual basis cochain of the builtin surfaces rotates
    to a cocycle, so neither cocycle check in bracket can fire on them:
    the degree -1 dual slice is empty and the prepend and append terms of
    consecutive rotations cancel in pairs.  Both checks stay in bracket,
    where a model whose unit does not act as one still reaches them."""
    for mid in ("torus:2", "surface:1", "surface:2"):
        A = builtin_model(mid)
        for p in (1, 2, 3):
            rotated = 0
            for key in assemble_complex(A, "to_dual", 0, p).basis:
                b = connes_B(A, DualCochain(A, {key: 1}), p)
                assert delta_to_dual(A, b, p - 1).is_zero, (mid, p, key)
                rotated += not b.is_zero
            assert rotated, (mid, p)


def _with_degree0_test_index(A):
    """A with one more degree-0 basis element z, acted on by the unit
    only: degree-0 dual cochains may then carry the test index z, which
    connes_B skips.  z pairs with nothing, so the pairing is not
    chain-invertible and bracket ends in NotInImageError once its
    cocycle checks pass."""
    doc = dga_to_doc(A)
    doc["basis"].append({"name": "z", "degree": 0})
    doc["products"] += [{"left": "1", "right": "z", "result": {"z": "1"}},
                        {"left": "z", "right": "1", "result": {"z": "1"}}]
    return build_dga(doc)


def test_memoised_cocycle_checks_match_the_direct_ones():
    """bracket raises CycleError exactly when delta_to_dual(connes_B(c, p),
    p - 1) is nonzero, for the first argument before the second, on
    seeded degree-0 dual cochains.  Each cochain is checked at p and then
    at p + 1, where its longest words gain their weight-raising terms: a
    memo key without len(u) < p serves the stale column.  On the
    broken-unit torus the nonzero columns of two rotations of one word
    cancel, so their difference passes both checks."""
    rng = random.Random(1717)
    broken = _torus_with_broken_unit()
    models = [builtin_model("torus:2"), builtin_model("surface:1"),
              builtin_model("surface:2"), broken,
              _torus_with_broken_unit("acyclic_extension:torus:2"),
              _with_degree0_test_index(broken)]
    seen = {"cycle_error": 0, "flips": 0, "non_unit": 0}

    def rotates_to_cocycle(A, c, p):
        return delta_to_dual(A, connes_B(A, c, p), p - 1).is_zero

    def check(A, c1, c2, p):
        if not rotates_to_cocycle(A, c1, p):
            want = "rotated first argument"
        elif not rotates_to_cocycle(A, c2, p):
            want = "rotated second argument"
        else:
            want = None
        try:
            bracket(A, c1, c2, p, p)
            got = None
        except CycleError as err:
            got = str(err)
        except NotInImageError:
            got = None
        assert (got is None if want is None else got.startswith(want)), (
            A.label, p, c1.entries, c2.entries, got)
        seen["cycle_error"] += want is not None
        return want is None

    for A in models:
        for p in (2, 3, 4):
            basis = assemble_complex(A, "to_dual", 0, p).basis
            cochains = [DualCochain(A, {key: 1}) for key in basis]
            for _ in range(40):
                keys = rng.sample(basis, min(len(basis), rng.randint(1, 5)))
                cochains.append(DualCochain(
                    A, {key: rng.choice((-3, -2, -1, 1, 2, 3))
                        for key in keys}))
            rng.shuffle(cochains)
            for c1, c2 in zip(cochains, cochains[1:] + cochains[:1]):
                seen["non_unit"] += any(b != A.unit for _, b in c1.entries)
                before = check(A, c1, c2, p)
                seen["flips"] += before != check(A, c1, c2, p + 1)
    assert all(seen.values()), seen

    x1, x2 = broken.index("x1"), broken.index("x2")
    u, v = (x2, x1, x2), (x1, x2, x2)
    zero = DualCochain(broken, {}, degree=0)
    for w in (u, v):
        with pytest.raises(CycleError, match="rotated first argument"):
            bracket(broken, DualCochain(broken, {(w, broken.unit): 1}),
                    zero, 4, 4)
    cancel = DualCochain(broken, {(u, broken.unit): 1, (v, broken.unit): -1})
    assert rotates_to_cocycle(broken, cancel, 4)
    bracket(broken, cancel, zero, 4, 4)


def test_weight_gates_run_before_either_cocycle_check():
    """bracket reads each input once, gate and cocycle check together,
    and raises the cocycle errors only after both inputs are read: a
    second argument over its filtration wins over a first argument that
    does not rotate to a cocycle.  An over-weight entry whose test index
    is not the unit, which the rotation skips, still trips the gate."""
    broken = _torus_with_broken_unit()
    x1, x2 = broken.index("x1"), broken.index("x2")
    c = DualCochain(broken, {((x2, x2), broken.unit): 1}, degree=0)
    top = DualCochain(broken, {((x1, x2, x1), broken.unit): 1}, degree=0)
    with pytest.raises(CycleError, match="rotated first argument"):
        bracket(broken, c, top, 3, 3)
    with pytest.raises(GradingError, match="stated filtration"):
        bracket(broken, c, top, 3, 2)

    A = _with_degree0_test_index(broken)
    z = A.index("z")
    zero = DualCochain(A, {}, degree=0)
    heavy = DualCochain(A, {((x2,), A.unit): 1, ((x1, x2, x1), z): 1})
    assert connes_B(A, heavy, 3).entries == connes_B(
        A, DualCochain(A, {((x2,), A.unit): 1}), 3).entries
    for args in ((heavy, zero, 2, 2), (zero, heavy, 2, 2)):
        with pytest.raises(GradingError, match="stated filtration"):
            bracket(A, *args)
        with pytest.raises(GradingError, match="stated filtration"):
            e1_bracket(A, *args)
    with pytest.raises(NotInImageError):
        bracket(A, heavy, zero, 3, 2)


def test_warm_brackets_read_only_the_memo(monkeypatch):
    """Once a sweep of torus:2 brackets has filled the rotation memo
    through connes_B and delta_to_dual, a second sweep calls neither, and
    its outputs equal the memo-free reference composite."""
    import looptop.duality as duality
    A = builtin_model("torus:2")
    classes = _h0_classes(A, 3)
    inner = [bracket(A, x, y, 3, 3) for x in classes[:4] for y in classes]
    calls = {"connes_B": 0, "delta_to_dual": 0}
    for name in calls:
        def counted(*args, _fn=getattr(duality, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(duality, name, counted)

    def sweep():
        return ([(x, y, 3, 3) for x in classes for y in classes]
                + [(b, x, 4, 3) for b in inner for x in classes[:4]])

    fresh = builtin_model("torus:2")
    for args in sweep():
        bracket(fresh, *args)
    assert all(calls.values()), calls
    calls.update(dict.fromkeys(calls, 0))
    for args in sweep():
        assert bracket(fresh, *args) == _reference_bracket(fresh, *args)
    assert calls == {"connes_B": 0, "delta_to_dual": 0}
