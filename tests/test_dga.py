"""Finite graded algebra models: construction, validation, builtins."""

import copy
import random
from fractions import Fraction

import pytest

from conftest import MODEL_IDS, model
from looptop.dga import (DegreeMismatchError, ModelError, ParseError,
                         acyclic_extension, build_dga, builtin_model,
                         dga_homology, dga_to_doc, validate_dga)


def test_sphere_models():
    s2, s3 = model("sphere:2"), model("sphere:3")
    assert s2.names == ("1", "x") and s3.names == ("1", "x")
    assert s2.degrees == (0, 2) and s3.degrees == (0, 3)
    assert s2.top_degree == 2 and s3.top_degree == 3
    assert s2.mul(1, 1) == {} and s3.mul(1, 1) == {}
    assert s2.d(1) == {} and s3.d(1) == {}
    assert s2.simply_connected and s3.simply_connected


def test_complex_projective_models():
    cp2 = model("complex_projective:2")
    assert cp2.names == ("1", "x", "x2")
    assert cp2.degrees == (0, 2, 4)
    assert cp2.mul(1, 1) == {2: 1}
    assert cp2.mul(1, 2) == {}
    assert cp2.top_degree == 4


def test_surface_model_relations():
    s = model("surface:1")
    a, b, w = s.index("a1"), s.index("b1"), s.index("w")
    assert s.degrees[a] == 1 and s.degrees[w] == 2
    assert s.mul(a, b) == {w: 1}
    assert s.mul(b, a) == {w: -1}
    assert s.mul(a, a) == {}
    assert s.orient({w: 1}) == 1
    assert not s.simply_connected and s.connected


def test_torus_shuffle_signs():
    t = model("torus:2")
    x1, x2, x12 = t.index("x1"), t.index("x2"), t.index("x12")
    assert t.mul(x1, x2) == {x12: 1}
    assert t.mul(x2, x1) == {x12: -1}
    assert t.mul(x1, x12) == {}
    assert t.degrees == (0, 1, 1, 2)
    t3 = builtin_model("torus:3")
    assert t3.dim == 8
    # merging x2 into (x1,x3) makes one inversion either way round, and
    # odd times even commutes, so both orders give the same sign
    assert t3.mul(t3.index("x2"), t3.index("x13")) == {t3.index("x123"): -1}
    assert t3.mul(t3.index("x13"), t3.index("x2")) == {t3.index("x123"): -1}


def test_builtin_rejects_bad_ids():
    for bad in ("sphere:1", "sphere", "torus:0", "torus:10", "nonsense:2",
                "complex_projective:0", "surface:0"):
        with pytest.raises(ModelError):
            builtin_model(bad)


def test_validate_all_builtins():
    for mid in MODEL_IDS:
        report = validate_dga(model(mid))
        assert report.passed, (mid, report.violations)


def test_build_catches_broken_grading():
    doc = dga_to_doc(model("sphere:2"))
    doc["differential"] = [{"from": "x", "to": {"1": "1"}}]
    with pytest.raises(DegreeMismatchError):
        build_dga(doc)


def test_validate_catches_dsquare():
    names = ["1", "x", "y", "z"]
    doc = {
        "name": "dsquare-broken",
        "basis": [{"name": n, "degree": q}
                  for n, q in zip(names, (0, 1, 2, 3))],
        "unit": "1",
        "differential": [{"from": "x", "to": {"y": "1"}},
                         {"from": "y", "to": {"z": "1"}}],
        "products": [{"left": "1", "right": n, "result": {n: "1"}}
                     for n in names] +
                    [{"left": n, "right": "1", "result": {n: "1"}}
                     for n in names[1:]],
        "top_degree": 3,
    }
    report = validate_dga(build_dga(doc))
    assert not report.passed
    assert "differential/squares-to-zero" in report.rules


def test_validate_catches_broken_commutativity():
    doc = dga_to_doc(model("torus:2"))
    for entry in doc["products"]:
        if entry["left"] == "x1" and entry["right"] == "x2":
            entry["result"] = {"x12": "2"}
    A = build_dga(doc)
    report = validate_dga(A)
    assert not report.passed
    rules = report.rules
    assert "product/associativity" in rules or "graded-commutativity" in rules


def test_parse_rejects_duplicate_names():
    doc = dga_to_doc(model("sphere:2"))
    doc["basis"] = ["1", "1"]
    with pytest.raises(ParseError):
        build_dga(doc)


_JUNK = (None, True, 0, -1, 7, 1.5, "", "x", "1/0", "2/3", [], ["x"], {},
         {"x": 1}, [{"from": "x"}], {"name": "x", "degree": 1})


def _mutate(rng, doc):
    """One random edit inside a JSON-shaped value: drop a key or entry,
    or overwrite it with junk or with a copy of another container."""
    nodes, stack = [], [doc]
    while stack:
        node = stack.pop()
        nodes.append(node)
        children = node.values() if isinstance(node, dict) else node
        stack.extend(c for c in children if isinstance(c, (dict, list)))
    node = rng.choice([n for n in nodes if n])
    key = rng.choice(list(node) if isinstance(node, dict)
                     else range(len(node)))
    op = rng.randrange(3)
    if op == 0:
        del node[key]
    elif op == 1:
        node[key] = copy.deepcopy(rng.choice(_JUNK))
    else:
        node[key] = copy.deepcopy(rng.choice(nodes))


def test_build_fuzz_raises_only_model_errors():
    """Malformed documents raise ParseError; seeded mutations of valid
    documents either build or raise a ModelError subclass, never anything
    else."""
    for key, value in [
            ("differential", [{"from": "x"}]),
            ("products", [{"right": "x", "result": {"x": 1}}]),
            ("products", [{"left": "1", "right": "x", "result": ["x"]}]),
            ("orientation", ["x"]),
            ("differential", "abc"),
            ("differential", [{"from": ["x"], "to": {}}]),
            ("unit", {"name": "1"}),
            ("top_degree", True)]:
        doc = dga_to_doc(model("sphere:2"))
        doc[key] = value
        with pytest.raises(ParseError):
            build_dga(doc)

    rng = random.Random(2)
    docs = [dga_to_doc(model(mid)) for mid in
            ("sphere:2", "torus:2", "surface:1", "acyclic_extension:sphere:2")]
    for _ in range(500):
        doc = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, doc)
        try:
            build_dga(doc)
        except ModelError:
            pass


def test_doc_roundtrip():
    for mid in ("sphere:3", "torus:2", "surface:2",
                "acyclic_extension:sphere:2"):
        A = model(mid)
        B = build_dga(dga_to_doc(A))
        assert B.names == A.names
        assert B.degrees == A.degrees
        for i in range(A.dim):
            for j in range(A.dim):
                assert A.mul(i, j) == B.mul(i, j)
            assert A.d(i) == B.d(i)
        assert A.orientation == B.orientation


def test_fraction_coefficients_in_docs():
    doc = dga_to_doc(model("sphere:2"))
    doc["orientation"] = {"x": "1/2"}
    A = build_dga(doc)
    assert A.orient({A.index("x"): 2}) == 1
    assert A.orient({A.index("x"): 1}) == Fraction(1, 2)


def test_wedge_and_d_chain():
    s = model("surface:2")
    a1, b1 = s.index("a1"), s.index("b1")
    u = {a1: 2}
    v = {b1: 3}
    assert s.wedge(u, v) == {s.index("w"): 6}
    assert s.d_chain(u) == {}


def test_dga_homology_dimensions():
    hom = dga_homology(model("torus:2"))
    dims = {n: h.betti for n, h in hom.items() if h.betti}
    assert dims == {0: 1, 1: 2, 2: 1}
    hom3 = dga_homology(model("sphere:3"))
    dims3 = {n: h.betti for n, h in hom3.items() if h.betti}
    assert dims3 == {0: 1, 3: 1}


def test_orientation_pairing_nondegenerate():
    for mid in ("sphere:2", "sphere:3", "complex_projective:2",
                "surface:1", "surface:2", "torus:2"):
        assert "orientation/nondegenerate" not in validate_dga(
            model(mid)).rules, mid


def test_acyclic_extension_structure():
    base = model("surface:1")
    ext = acyclic_extension(base)
    assert ext.dim == 3 * base.dim
    assert ext.top_degree == base.top_degree
    assert validate_dga(ext).passed
    # extension kills nothing in homology
    hb = {n: h.betti for n, h in dga_homology(base).items() if h.betti}
    he = {n: h.betti for n, h in dga_homology(ext).items() if h.betti}
    assert hb == he
    e = ext.index("e")
    assert ext.degrees[e] == base.top_degree + 1
    assert ext.d(e) == {ext.index("f"): 1}


def test_letters_and_basis_of_degree():
    t = model("torus:2")
    assert t.letters == (1, 2, 3)
    assert t.basis_of_degree(1) == (1, 2)
    assert t.basis_of_degree(0) == (0,)
    assert t.basis_of_degree(5) == ()
