"""Finite graded algebra models: construction, validation, builtins."""

import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import MODEL_IDS, model
from looptop.bar import bar_homology
from looptop.dga import (DGA, DegreeMismatchError, ModelError, ParseError,
                         acyclic_extension, build_dga, builtin_model,
                         dga_homology, dga_to_doc, tensor_product,
                         validate_dga)


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
    assert not s.simply_connected
    assert "basis/connected" not in validate_dga(s).rules


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
                "complex_projective:0", "surface:0", "sphere:3:1",
                "acyclic_extension", "acyclic_extension:sphere:1"):
        with pytest.raises(ModelError):
            builtin_model(bad)
    with pytest.raises(TypeError):
        builtin_model("torus", 2)  # the colon id is the only call form


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


@pytest.mark.parametrize("key, repeat, message", [
    ("products", {"left": "1", "right": "x", "result": {"x": "5"}},
     "repeated products entry 1·x"),
    ("products", {"left": "1", "right": "x", "result": {"x": "0"}},
     "repeated products entry 1·x"),
    ("differential", {"from": "e", "to": {"f": "2"}},
     "repeated differential entry d(e)"),
    ("differential", {"from": "e", "to": {}},
     "repeated differential entry d(e)")])
def test_parse_rejects_repeated_entries(key, repeat, message):
    """A second entry for one product pair or differential source is
    refused, whatever its coefficients: neither the last nor the first
    nonzero entry silently wins."""
    doc = dga_to_doc(model("acyclic_extension:sphere:2"))
    assert any(all(entry[f] == repeat[f] for f in list(repeat)[:-1])
               for entry in doc[key])
    doc[key].append(repeat)
    with pytest.raises(ParseError) as err:
        build_dga(doc)
    assert str(err.value) == message


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
            ("top_degree", True),
            ("commutative", "false"),
            ("commutative", None),
            ("commutative", 0),
            ("name", ["a", 1]),
            ("name", None),
            ("orientation", []),
            ("orientation", 0),
            ("orientation", ""),
            ("orientation", False)]:
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


def test_dga_homology_skips_degrees_without_basis_elements():
    """sphere:10^8 has homology computed in degrees 0 and 10^8 only, so
    validating it does not walk every degree up to the top."""
    s = builtin_model("sphere:100000000")
    hom = dga_homology(s)
    assert list(hom) == [0, 10 ** 8]
    assert {n: h.betti for n, h in hom.items()} == {0: 1, 10 ** 8: 1}
    assert validate_dga(s).passed


def test_orientation_pairing_nondegenerate():
    for mid in ("sphere:2", "sphere:3", "complex_projective:2",
                "surface:1", "surface:2", "torus:2"):
        assert "orientation/nondegenerate" not in validate_dga(
            model(mid)).rules, mid


def test_orientation_pairing_degenerate_is_reported():
    """x·x = w and y pairs with nothing: the degree-(2,2) homology
    pairing is singular, and that is the only violation."""
    names = ["1", "x", "y", "w"]
    doc = {
        "name": "degenerate-pairing",
        "basis": [{"name": n, "degree": q}
                  for n, q in zip(names, (0, 2, 2, 4))],
        "unit": "1",
        "products": [{"left": "1", "right": n, "result": {n: "1"}}
                     for n in names] +
                    [{"left": n, "right": "1", "result": {n: "1"}}
                     for n in names[1:]] +
                    [{"left": "x", "right": "x", "result": {"w": "1"}}],
        "top_degree": 4,
        "orientation": {"w": "1"},
    }
    assert validate_dga(build_dga(doc)).violations == [
        ("orientation/nondegenerate", (2,),
         "homology pairing degrees (2,2) singular")]


def _small_model(degrees, product=None, differential=None, top=None,
                 orientation=None):
    """DGA(...) straight from tables, unchecked: degrees maps each name to
    its degree, the first name is the unit and its unit laws are filled
    in; tables name elements, and top defaults to the largest degree."""
    names = list(degrees)
    index = {n: i for i, n in enumerate(names)}

    def chain(img):
        return {index[k]: c for k, c in img.items()}

    table = {(0, i): {i: 1} for i in range(len(names))}
    table.update({(i, 0): {i: 1} for i in range(len(names))})
    table.update({(index[l], index[r]): chain(img)
                  for (l, r), img in (product or {}).items()})
    return DGA(names, list(degrees.values()), 0, table,
               {index[k]: chain(img)
                for k, img in (differential or {}).items()},
               max(degrees.values()) if top is None else top,
               orientation=orientation and chain(orientation), label="small")


@pytest.mark.parametrize("A, rule, witness, rules", [
    # a second degree-0 element
    (_small_model({"1": 0, "y": 0}),
     "basis/connected", ("1", "y"), ["basis/connected"]),
    # a unit of positive degree cannot be its own square, and the
    # degree-0 slice is empty
    (DGA(["1"], [1], 0, {}, {}, 1, label="small"),
     "unit/degree", ("1",),
     ["basis/connected", "unit/degree", "unit/identity"]),
    (_small_model({"1": 0, "x": 2, "y": 2}, differential={"x": {"y": 1}}),
     "differential/grading", ("x", "y"), ["differential/grading"]),
    (_small_model({"1": 0, "x": 2, "y": 3}, product={("x", "x"): {"y": 1}},
                  top=4),
     "product/grading", ("x", "x", "y"), ["product/grading"]),
    # d(x·x) = z, but dx = 0
    (_small_model({"1": 0, "x": 2, "y": 4, "z": 5},
                  product={("x", "x"): {"y": 1}},
                  differential={"y": {"z": 1}}),
     "leibniz", ("x", "x"), ["leibniz"]),
    # f = de is oriented, yet g keeps the pairing nondegenerate
    (_small_model({"1": 0, "e": 1, "f": 2, "g": 2},
                  differential={"e": {"f": 1}}, orientation={"f": 1, "g": 1}),
     "orientation/closed", ("e",), ["orientation/closed"]),
    # oriented with d² != 0: dga_homology cannot be built, so the
    # nondegeneracy check has no degrees to read
    (_small_model({"1": 0, "x": 1, "y": 2, "z": 3},
                  differential={"x": {"y": 1}, "y": {"z": 1}},
                  orientation={"z": 1}),
     "differential/squares-to-zero", ("x",),
     ["differential/squares-to-zero", "orientation/closed"])])
def test_validate_rule_fires_on_its_minimal_model(A, rule, witness, rules):
    report = validate_dga(A)
    assert report.rules == rules
    assert [w for r, w, _ in report.violations if r == rule] == [witness]


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


# sha256 of json.dumps(dga_to_doc(acyclic_extension(base)), sort_keys=True),
# recorded from the block-by-block construction tensor_product replaced;
# the two nested extensions re-recorded once their second factor was
# named e2, f2 (its names had repeated e, f)
ACYCLIC_EXTENSION_DIGESTS = {
    "sphere:2":
        "e11681796438527f6cb02e16d3e6f2d2c67840355513c19df08c4ab7dabec9e2",
    "sphere:3":
        "f7839be1440af5d20d2e9d2cf3198b57e3bcca3ad3990a719ebc270f9674f3ef",
    "complex_projective:1":
        "780cc1300e7337356b7a2e8116303858882d57745fd5a2d9cabda173029cfc36",
    "complex_projective:2":
        "d78162c07e396faba0303f0b43fe545acdcb48df60200855d1945ab3aeab74eb",
    "surface:1":
        "7f6168738cb16a967fcfacfecdf56ad61b3be740e6e218208a6eabedd856a1fa",
    "surface:2":
        "8e13fa0ba3bda182004dde7fef661e888c56888044d29d1f874509209868a85d",
    "torus:1":
        "6c449c6354eeeb9d0a6c7d5dad5ae5ea7d4a33b68a7add591e3d67cd5903f861",
    "torus:2":
        "56095378ac76515fb36e4df0f550b1bd9950343abc084dd4a6a1fb38de94f621",
    "acyclic_extension:sphere:2":
        "5a5b1d1f100bf0c057e660e148e5e692e7358b9d1b3ac48865e6ca50621b655e",
    "acyclic_extension:torus:1":
        "7f02701a8a5b01b269521c369aa76b8fd3583bed746006b88409093e71c509b8",
}


def test_acyclic_extension_tables_frozen():
    assert sorted(ACYCLIC_EXTENSION_DIGESTS) == sorted(MODEL_IDS)
    for mid in MODEL_IDS:
        doc = json.dumps(dga_to_doc(acyclic_extension(model(mid))),
                         sort_keys=True)
        digest = hashlib.sha256(doc.encode()).hexdigest()
        assert digest == ACYCLIC_EXTENSION_DIGESTS[mid], mid


def test_nested_acyclic_extension_validates():
    """The second factor of a nested extension is named e2, f2, so the
    names stay unique, and the bar homology is still that of the base."""
    nested = builtin_model("acyclic_extension:acyclic_extension:sphere:2")
    assert validate_dga(nested).passed
    assert {"e", "f", "e2", "f2"} <= set(nested.names)
    for mid in ("sphere:2", "acyclic_extension:acyclic_extension:sphere:2"):
        hom = bar_homology(builtin_model(mid), (0, 4), 4)
        assert {n: h.betti for n, h in hom.items()} == dict.fromkeys(
            range(5), 1), mid


def test_torus_is_iterated_tensor_of_circle():
    """torus:k is the k-fold tensor of torus:1.  Tensor index bit i - 1
    marks generator x_i, which carries the tables and the orientation
    onto torus:k's subset basis."""
    circle = model("torus:1")
    power = circle
    for k in range(1, 6):
        if k > 1:
            power = tensor_product(power, circle, f"circle^{k}")
        t = builtin_model(f"torus:{k}")
        subset = [t.index("x" + "".join(str(i + 1) for i in range(k)
                                        if idx >> i & 1) if idx else "1")
                  for idx in range(power.dim)]
        assert power.dim == t.dim == 2 ** k
        assert [t.degrees[m] for m in subset] == list(power.degrees)
        assert subset[power.unit] == t.unit
        assert power.top_degree == t.top_degree
        assert {(subset[i], subset[j]): {subset[m]: c for m, c in img.items()}
                for (i, j), img in power.product.items()} == t.product, k
        assert power.differential == t.differential == {}
        assert {subset[m]: c for m, c in power.orientation.items()} \
            == t.orientation


def _betti(A):
    return {q: h.betti for q, h in dga_homology(A).items() if h.betti}


def test_tensor_product_of_builtins_is_a_model():
    """With disjoint factor names the tensor passes every axiom (the
    Koszul sign is what makes it graded commutative), and its homology is
    the convolution of the factors' (Künneth over Q)."""
    for left, right in (("surface:1", "torus:1"), ("torus:2", "surface:2")):
        A, B = model(left), model(right)
        P = tensor_product(A, B, f"{left} x {right}")
        report = validate_dga(P)
        assert report.passed, (left, right, report.violations)
        assert P.top_degree == A.top_degree + B.top_degree
        want = {}
        for p, x in _betti(A).items():
            for q, y in _betti(B).items():
                want[p + q] = want.get(p + q, 0) + x * y
        assert _betti(P) == want, (left, right)
    s3 = model("sphere:3")
    assert "basis/unique-names" in validate_dga(
        tensor_product(s3, s3, "s3 x s3")).rules


def test_letters_and_basis_of_degree():
    t = model("torus:2")
    assert t.letters == (1, 2, 3)
    assert t.basis_of_degree(1) == (1, 2)
    assert t.basis_of_degree(0) == (0,)
    assert t.basis_of_degree(5) == ()
