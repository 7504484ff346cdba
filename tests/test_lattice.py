"""Group-ring truncations and the combinatorial torus bracket."""

from fractions import Fraction

from conftest import model
from looptop.lattice import (GroupRingElement, Pi1Report,
                             compare_pi1_dimensions, goldman_bracket,
                             goldman_torus, group_ring_to_cochain,
                             holonomy_cochain, jadic_basis, jadic_reduce)


def test_group_ring_arithmetic():
    x = GroupRingElement.group(1, 0)
    y = GroupRingElement.group(0, 1)
    one = GroupRingElement.one()
    assert x.mul(y) == GroupRingElement.group(1, 1)
    assert x.mul(y) == y.mul(x)
    assert x.mul(one) == x
    z = x.add(y.scale(-2))
    assert z.augmentation() == -1
    assert x.sub(x).is_zero


def test_jadic_basis_and_dim():
    for p in range(1, 7):
        basis = jadic_basis(p)
        assert len(basis) == p * (p + 1) // 2
        assert len(set(basis)) == len(basis)
        assert all(a + b < p for a, b in basis)
    assert [len(jadic_basis(p)) for p in range(1, 6)] == [1, 3, 6, 10, 15]


def test_jadic_reduce_small_expansions():
    # t - 1 is exactly the degree-(1,0) monomial
    x = GroupRingElement.group(1, 0).sub(GroupRingElement.one())
    assert jadic_reduce(x, 3) == {(1, 0): 1}
    # t^2 = 1 + 2(t-1) + (t-1)^2
    sq = GroupRingElement.group(2, 0)
    assert jadic_reduce(sq, 3) == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    # inverses expand with generalized binomials
    inv = GroupRingElement.group(-1, 0)
    assert jadic_reduce(inv, 3) == {(0, 0): 1, (1, 0): -1, (2, 0): 1}


def test_in_jadic_powers():
    d = GroupRingElement.group(1, 0).sub(GroupRingElement.one())
    power = GroupRingElement.one()
    for k in range(1, 4):
        power = power.mul(d)
        assert not jadic_reduce(power, k)
        assert jadic_reduce(power, k + 1)


def test_jadic_class_equality():
    a = GroupRingElement.group(2, 1)
    # subtracting something in J^2 does not move the class mod J^2
    d = GroupRingElement.group(1, 0).sub(GroupRingElement.one())
    b = a.sub(d.mul(d))
    assert jadic_reduce(a, 2) == jadic_reduce(b, 2)
    assert jadic_reduce(a, 3) != jadic_reduce(b, 3)


def test_goldman_torus_frozen_values():
    out = goldman_torus((1, 0), (0, 1))
    assert out == GroupRingElement({(1, 1): 1})
    assert goldman_torus((1, 0), (1, 0)).is_zero
    assert goldman_torus((2, 1), (1, 1)) == GroupRingElement({(3, 2): 1})
    assert goldman_torus((0, 1), (1, 0)) == GroupRingElement({(1, 1): -1})


def test_goldman_bracket_axioms():
    pts = [(1, 0), (0, 1), (1, 1), (-1, 2), (2, -1)]
    elems = [GroupRingElement.group(*u) for u in pts]
    for x in elems:
        for y in elems:
            assert goldman_bracket(x, y).add(goldman_bracket(y, x)).is_zero
    for x in elems[:3]:
        for y in elems[:3]:
            for z in elems[:3]:
                j = goldman_bracket(goldman_bracket(x, y), z)
                j = j.add(goldman_bracket(goldman_bracket(y, z), x))
                j = j.add(goldman_bracket(goldman_bracket(z, x), y))
                assert j.is_zero


def test_holonomy_cochain_structure():
    t2 = model("torus:2")
    psi = holonomy_cochain(t2, (1, 0), 3)
    x1 = t2.index("x1")
    assert psi.entries[((), t2.unit)] == 1
    assert psi.entries[((x1,), t2.unit)] == 1
    assert psi.entries[((x1, x1), t2.unit)] == Fraction(1, 2)
    assert psi.entries[((x1, x1, x1), t2.unit)] == Fraction(1, 6)
    assert ((t2.index("x2"),), t2.unit) not in psi.entries
    mixed = holonomy_cochain(t2, (2, -1), 2)
    x2 = t2.index("x2")
    assert mixed.entries[((x1, x2), t2.unit)] == -1
    assert mixed.entries[((x2,), t2.unit)] == -1


def test_group_ring_to_cochain_is_linear():
    t2 = model("torus:2")
    x = GroupRingElement.group(1, 2)
    y = GroupRingElement.group(-1, 1)
    combo = x.scale(3).add(y.scale(-1))
    direct = group_ring_to_cochain(t2, combo, 3)
    pieces = holonomy_cochain(t2, (1, 2), 3).scale(3).sub(
        holonomy_cochain(t2, (-1, 1), 3))
    assert direct.sub(pieces).is_zero


def test_compare_pi1_dimensions():
    for p in range(1, 5):
        rep = compare_pi1_dimensions(p)
        assert isinstance(rep, Pi1Report)
        assert rep.match
        assert rep.group_ring_dim == p * (p + 1) // 2


def test_goldman_agreement_level_two():
    """Algebraic bracket of holonomy classes matches the combinatorial
    bracket after truncation, spot-checked at low level."""
    from looptop.cochains import hochschild_homology
    from looptop.duality import bracket

    t2 = model("torus:2")
    level = 2
    h = hochschild_homology(t2, "to_dual", (0, 0), level)[0]
    pairs = [((1, 0), (0, 1)), ((1, 1), (1, -1)), ((2, 1), (0, 1))]
    for u, v in pairs:
        cu = holonomy_cochain(t2, u, level + 1)
        cv = holonomy_cochain(t2, v, level + 1)
        got = bracket(t2, cu, cv, level + 1, level + 1, eval_cutoff=level)
        want = group_ring_to_cochain(t2, goldman_torus(u, v), level)
        diff = got.sub(want)
        assert h.is_boundary(diff.entries), (u, v)
