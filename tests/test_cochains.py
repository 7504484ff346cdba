"""Cochain complexes on bar words: coboundaries, cup product, homology."""

import itertools
import random

import pytest

from conftest import (MODEL_IDS, model, random_cochain, restrict_weight,
                      slice_bases)
from looptop.bar import bar_d_squared_zero, bar_slice
from looptop.cochains import (Cochain, DualCochain, GradingError,
                              _delta_columns, assemble_complex, cup,
                              delta_squared_zero, delta_to_A, delta_to_dual,
                              hochschild_homology, loop_homology,
                              slice_complete, unit_cochain)
from looptop.dga import DGA, build_dga, builtin_model
from looptop.linalg import acc


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
    assert restrict_weight(t2, long, 2).is_zero
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


def test_square_checks_fire_on_a_broken_differential():
    """d(a) = b and d(b) = c on 1, a, b, c of degrees 0, 2, 3, 4, so
    d^2(a) = c.  Each check holds on the one-slice window just below the
    first square that meets d^2, and fails on that window: the bar word
    (a) of degree 1 goes to (c); the to-A entry ((), a) of degree -2 to
    ((), c), in the window n = -3 (degrees -2 -> -3 -> -4); the dual
    entry ((c), 1) of degree 3 to ((a), 1), in the window n = 2."""
    names = ["1", "a", "b", "c"]
    doc = {
        "name": "d-squared-broken",
        "basis": [{"name": n, "degree": q}
                  for n, q in zip(names, (0, 2, 3, 4))],
        "unit": "1",
        "differential": [{"from": "a", "to": {"b": "1"}},
                         {"from": "b", "to": {"c": "1"}}],
        "products": [{"left": "1", "right": n, "result": {n: "1"}}
                     for n in names] +
                    [{"left": n, "right": "1", "result": {n: "1"}}
                     for n in names[1:]],
        "top_degree": 4,
    }
    A = build_dga(doc)
    assert bar_d_squared_zero(A, 3, (0, 0))
    assert not bar_d_squared_zero(A, 3, (1, 1))
    assert delta_squared_zero(A, "to_A", (-4, -4), 3)
    assert not delta_squared_zero(A, "to_A", (-3, -3), 3)
    assert delta_squared_zero(A, "to_dual", (1, 1), 3)
    assert not delta_squared_zero(A, "to_dual", (2, 2), 3)


def test_delta_lowers_degree_in_both_variants():
    t2 = model("torus:2")
    phi = Cochain(t2, {((1, 2), 3): 1})
    assert delta_to_A(t2, phi, phi.weight_support + 1).degree == phi.degree - 1
    psi = DualCochain(t2, {((1, 2), 3): 1})
    assert (delta_to_dual(t2, psi, psi.weight_support + 1).degree
            == psi.degree - 1)


def test_operators_refuse_the_other_flavour():
    """Both coboundaries and LoopHomology.express raise GradingError on a
    cochain of the other flavour, as cup does; the same entries in the
    right flavour go through."""
    A = model("sphere:3")
    L = loop_homology(A, (-3, 5), 8)
    to_A = Cochain(A, {((), A.unit): 1})
    dual = DualCochain(A, {((), A.unit): 1})
    assert L.express(to_A) == {(0, 0): 1}
    assert delta_to_A(A, to_A, 2).is_zero
    assert delta_to_dual(A, dual, 2).is_zero
    for op, wrong in ((delta_to_A, dual), (delta_to_dual, to_A)):
        with pytest.raises(GradingError):
            op(A, wrong, 2)
    with pytest.raises(GradingError):
        L.express(dual)


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
            assert left.sub(restrict_weight(A, phi, 4)).is_zero
            assert right.sub(restrict_weight(A, phi, 4)).is_zero


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
    rep = L.class_cochain(2, 0)
    assert rep.degree == 2
    assert delta_to_A(model("sphere:3"), rep, 8).is_zero
    expr = L.express(rep)
    assert expr == {(2, 0): 1}


def test_loop_homology_ring_table():
    L = loop_homology(model("sphere:3"), (-3, 5), 8)
    prod = L.ring[((-3, 0), (2, 0))]
    assert prod == {(-1, 0): 1}


def test_loop_homology_truncation_flags():
    L = loop_homology(model("sphere:2"), (0, 4), 2)
    assert not all(L.exact.values())


def test_sphere2_loop_betti():
    """One class in every degree, matching the free-loop Sullivan model
    of the even sphere over the rationals."""
    L = loop_homology(model("sphere:2"), (-2, 6), 10)
    assert [L.betti[n] for n in range(-2, 7)] == [1] * 9
    assert all(L.exact[n] for n in range(-2, 7))


def _cohen_jones_yan(family, n):
    """H_*(LM) of S^n or CP^n as presented by Cohen, Jones and Yan, in
    the shape Λ[w] ⊗ Q[c, v] / (c^{t+1}, c^t v, w c^t): the degrees of
    w, c and v, and t, with c and t None where there is no c."""
    if family == "sphere" and n % 2:
        # Λ[b] ⊗ Q[u], |b| = -n, |u| = n - 1
        return -n, None, n - 1, None
    if family == "sphere":
        # Λ[b] ⊗ Q[a, v] / (a², ab, av), |a| = -n, |b| = -1, |v| = 2n - 2
        return -1, -n, 2 * n - 2, 1
    # Λ[w] ⊗ Q[c, v] / (c^{n+1}, c^n v, w c^n), |c| = -2, |w| = -1,
    # |v| = 2n
    return -1, -2, 2 * n, n


def _monomials(presentation, lo, hi):
    """{degree: (e, i, k)} for the monomials w^e c^i v^k of degree in
    lo..hi that are not zero in the presentation, and the test of
    whether the monomial of given exponents is not zero."""
    w, c, v, t = presentation

    def nonzero(e, i, k):
        return e <= 1 and (t is None or i < t
                           or (i == t and e == 0 and k == 0))

    out = {}
    for e, i, k in itertools.product((0, 1), range(1 if t is None else t + 1),
                                     range(hi - lo + 1)):
        d = e * w + (i * c if i else 0) + k * v
        if lo <= d <= hi and nonzero(e, i, k):
            assert d not in out  # every Betti number is at most 1
            out[d] = (e, i, k)
    return out, nonzero


def test_loop_betti_match_cohen_jones_yan():
    """Every slice up to degree 8 is exact, its Betti number counts the
    monomials of that degree in the Cohen-Jones-Yan presentation, and
    the cup product of the classes of two monomials is nonzero exactly
    when their product is.  Every Betti number is at most 1, so this
    does not depend on the representatives."""
    hi = 8
    cases = ([("sphere", n, -n) for n in range(2, 7)] +
             [("complex_projective", n, -2 * n) for n in range(1, 4)])
    for family, n, lo in cases:
        A = model(f"{family}:{n}")
        L = loop_homology(A, (lo, hi), hi + 1 + A.top_degree)
        mono, nonzero = _monomials(_cohen_jones_yan(family, n), lo, hi)
        assert L.betti == {d: int(d in mono) for d in range(lo, hi + 1)}, (
            family, n)
        assert all(L.exact.values()), (family, n)
        products = [0, 0]  # zero, nonzero
        for n1, n2 in itertools.product(mono, repeat=2):
            if not lo <= n1 + n2 <= hi:
                continue
            got = L.ring[((n1, 0), (n2, 0))]
            assert got is not None, (family, n, n1, n2)
            want = nonzero(*map(sum, zip(mono[n1], mono[n2])))
            assert bool(got) == want, (family, n, n1, n2)
            products[want] += 1
        assert all(products), (family, n, products)


def _sign(e):
    return -1 if e % 2 else 1


def _letters(A):
    return [i for i, q in enumerate(A.degrees) if q >= 1]


def _eps(A, word):
    return sum(A.degrees[i] - 1 for i in word)


def _reference_preimages(A, v, max_weight):
    """Coefficient of v in d(w), scanning the model's tables for every
    letter and recomputing each prefix degree."""
    out = {}
    for i, vi in enumerate(v):
        head, tail, e = v[:i], v[i + 1:], _eps(A, v[:i])
        for ell, img in A.differential.items():
            if A.degrees[ell] >= 1 and vi in img:
                acc(out, head + (ell,) + tail, -_sign(e) * img[vi])
        if len(v) + 1 > max_weight:
            continue
        for (l1, l2), img in A.product.items():
            if A.degrees[l1] >= 1 and A.degrees[l2] >= 1 and vi in img:
                e2 = e + A.degrees[l1] - 1
                acc(out, head + (l1, l2) + tail, -_sign(e2) * img[vi])
    return out


def _reference_entry_to_A(A, v, a, cutoff):
    out = {}
    sa = A.degrees[a]
    for k, c in A.differential.get(a, {}).items():
        acc(out, (v, k), _sign(sa) * c)
    for w, mu in _reference_preimages(A, v, cutoff).items():
        acc(out, (w, a), _sign(sa) * mu)
    if len(v) + 1 <= cutoff:
        n = _eps(A, v) - sa
        for ell in _letters(A):
            dl = A.degrees[ell]
            for k, c in A.product.get((ell, a), {}).items():
                acc(out, ((ell,) + v, k), _sign(sa + dl + 1) * c)
            for k, c in A.product.get((a, ell), {}).items():
                acc(out, (v + (ell,), k), -_sign((dl + 1) * (n + 1)) * c)
    return out


def _reference_entry_dual(A, v, t, cutoff):
    out = {}
    for b, img in A.differential.items():
        if t in img:
            acc(out, (v, b), img[t])
    for w, mu in _reference_preimages(A, v, cutoff).items():
        acc(out, (w, t), _sign(A.degrees[t]) * mu)
    if len(v) + 1 <= cutoff:
        e = _eps(A, v)
        for ell in _letters(A):
            for (b, right), img in A.product.items():
                if right != ell or t not in img:
                    continue
                sb = A.degrees[b]
                acc(out, ((ell,) + v, b), -_sign(sb) * img[t])
                acc(out, (v + (ell,), b),
                    _sign(sb + e * (A.degrees[ell] + 1)) * img[t])
    return out


def _disconnected_model():
    """1, u in degree 0, x in degree 1, y in degree 2, with du = x and
    x.x = y: a degree-0 differential preimage, which the reduced bar
    boundary must drop."""
    unit = {(0, i): {i: 1} for i in range(4)}
    unit.update({(i, 0): {i: 1} for i in range(1, 4)})
    unit[(2, 2)] = {3: 1}
    return DGA(["1", "u", "x", "y"], [0, 0, 1, 2], 0, unit, {1: {2: 1}},
               2, commutative=False, label="disconnected")


def _split_one_word(basis):
    """basis with the first key of its first word that has two or more
    keys moved to the end, so that word's keys form two runs; None when
    no word has two keys."""
    for i, key in enumerate(basis[:-1]):
        if basis[i + 1][0] == key[0]:
            return basis[:i] + basis[i + 1:] + (key,)
    return None


def _check_reordered(A, flavour, delta, basis, refs, cutoff, rng):
    """_delta_columns on the slice keys shuffled, and with one word's keys
    split apart, and delta on a cochain of the slice whose entries come
    in shuffled order, against the reference columns refs, dict key
    order included.  Returns whether one word's keys were split and
    whether the cochain interleaves two words."""
    shuffled = list(basis)
    rng.shuffle(shuffled)
    split = _split_one_word(basis)
    for keys in (shuffled, split or ()):
        columns = _delta_columns(A, flavour.variant, keys, cutoff)
        assert list(columns) == list(keys)
        for key in keys:
            assert list(columns[key].items()) == refs[key], (
                A.label, flavour.variant, cutoff, key)
    phi = flavour(A, {key: rng.choice((-2, -1, 1, 3)) for key in shuffled})
    want = {}
    for key, c in phi.entries.items():
        for k, y in refs[key]:
            acc(want, k, c * y)
    got = delta(A, phi, cutoff).entries
    assert list(got.items()) == list(want.items()), (A.label, cutoff)
    runs = [w for i, (w, _) in enumerate(shuffled)
            if not i or shuffled[i - 1][0] != w]
    return split is not None, len(runs) > len(set(runs))


def test_coboundary_columns_match_reference():
    """Bar slices, both cochain slices, _delta_columns and delta_to_dual
    equal test-local reference loops column by column, dict key order
    included.  The models alternate innermost, so a term table cached for
    one model and served to another would show.  Words at the cutoff are
    counted by whether they have preimages: boundary_preimages returns {}
    without a letter walk only for those with none, and the acyclic
    extensions' words holding a letter with a differential preimage must
    keep theirs.  _delta_columns reads a word's preimages and parity once
    per run of its keys, so it also gets each cochain slice's keys in a
    seeded shuffle and with one word's keys split into two runs, and
    delta_to_A and delta_to_dual get cochains whose entries interleave
    words."""
    rng = random.Random(2417)
    models = [builtin_model(mid) for mid in (
        "sphere:3", "complex_projective:2", "torus:2", "surface:2",
        "acyclic_extension:sphere:3", "acyclic_extension:torus:1")]
    models.append(_disconnected_model())
    columns, at_cutoff, reordered = 0, [0, 0], []
    for cutoff in range(5):
        for n in range(-3, 6):
            for A in models:
                bar = bar_slice(A, n, cutoff)
                want = {w: {} for w in bar.basis}
                for v in bar_slice(A, n + 1, cutoff).basis:
                    ref = _reference_preimages(A, v, cutoff)
                    for w, mu in ref.items():
                        want[w][v] = mu
                    if len(v) == cutoff:
                        at_cutoff[bool(ref)] += 1
                for w in bar.basis:
                    assert (list(bar.d_columns[w].items())
                            == list(want[w].items())), (A.label, n, w)
                to_A = assemble_complex(A, "to_A", n, cutoff)
                refs = {}
                for key, col in to_A.delta_columns.items():
                    ref = refs[key] = list(
                        _reference_entry_to_A(A, *key, cutoff).items())
                    assert list(col.items()) == ref, (
                        A.label, n, cutoff, key)
                reordered.append(_check_reordered(
                    A, Cochain, delta_to_A, to_A.basis, refs, cutoff, rng))
                dual = assemble_complex(A, "to_dual", n, cutoff)
                refs = {}
                for key, col in dual.delta_columns.items():
                    ref = refs[key] = list(
                        _reference_entry_dual(A, *key, cutoff).items())
                    assert list(col.items()) == ref, (A.label, n, cutoff, key)
                    entry = _delta_columns(A, "to_dual", [key], cutoff)[key]
                    assert list(entry.items()) == ref
                    image = delta_to_dual(A, DualCochain(A, {key: 1}), cutoff)
                    assert list(image.entries.items()) == ref
                reordered.append(_check_reordered(
                    A, DualCochain, delta_to_dual, dual.basis, refs, cutoff,
                    rng))
                columns += bar.dim + to_A.dim + dual.dim
    assert columns == 22178
    assert at_cutoff == [1078, 339]
    assert [sum(seen) for seen in zip(*reordered)] == [133, 113]

