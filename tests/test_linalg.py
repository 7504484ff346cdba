"""Exact sparse linear algebra: echelon forms, kernels, homology."""

import random
from fractions import Fraction

import pytest

from looptop.linalg import (CompositionError, Echelon, acc, add_scaled,
                            apply_columns, column_rank, compose_columns,
                            homology, kernel_basis, vec_combine,
                            _div, _normalized, _Row)


def test_vec_helpers_drop_zeros():
    a = {"x": 2, "y": -1}
    b = {"y": -1, "z": 4}
    assert vec_combine(a, 1, b, -1) == {"x": 2, "z": -4}
    assert vec_combine(a, 1, a, -1) == {}
    assert vec_combine(a, 0, {}, 0) == {}
    assert vec_combine(a, Fraction(1, 2), {}, 0) == {"x": 1,
                                                     "y": Fraction(-1, 2)}
    out = {"x": 1}
    assert add_scaled(out, a, 0) is out and out == {"x": 1}
    add_scaled(out, a, -1)
    assert out == {"x": -1, "y": 1}
    add_scaled(out, {"x": 1, "y": -1})
    assert out == {}
    acc(out, "x", 3)
    acc(out, "x", 0)
    assert out == {"x": 3}
    acc(out, "x", -3)
    assert out == {}


def test_apply_and_compose_columns():
    cols = {"u": {"a": 1, "b": 2}, "v": {"b": -2}}
    assert apply_columns(cols, {"u": 1, "v": 1}) == {"a": 1}
    outer = {"a": {"p": 3}, "b": {"p": 1}}
    comp = compose_columns(outer, cols)
    assert comp == {"u": {"p": 5}, "v": {"p": -2}}


def test_echelon_reduce_identity():
    """residual == scale*vec - sum(combo[tag]*inserted[tag]), always."""
    rng = random.Random(0)
    keys = list(range(6))
    inserted = {}
    ech = Echelon()
    for tag in range(8):
        vec = {}
        for k in rng.sample(keys, 3):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c:
                vec[k] = c
        inserted[tag] = vec
        ech.insert(vec, tag)
        probe = {k: rng.randint(-3, 3) for k in rng.sample(keys, 4)}
        probe = {k: c for k, c in probe.items() if c}
        residual, combo, scale = ech.reduce(probe)
        recon = vec_combine(probe, scale, {}, 0)
        for t, c in combo.items():
            recon = vec_combine(recon, 1, inserted[t], -c)
        assert recon == residual


def test_echelon_insert_reports_dependencies():
    ech = Echelon()
    assert ech.insert({"a": 1, "b": 1}, "g0") is None
    assert ech.insert({"b": 2}, "g1") is None
    expr = ech.insert({"a": 3, "b": 5}, "g2")
    assert expr == {"g0": 3, "g1": 1}
    assert ech.rank == 2


def test_echelon_rows_stay_integer_content_one():
    ech = Echelon()
    ech.insert({"a": Fraction(2, 3), "b": Fraction(4, 3)}, 0)
    ech.insert({"b": Fraction(1, 2), "c": 1}, 1)
    for row in ech.rows.values():
        assert all(isinstance(x, int) for x in row.vec.values())


def _echelon_of(columns):
    """Insert columns in sorted key order: (independent keys, rows)."""
    ech = Echelon()
    pivots = tuple(k for k in sorted(columns)
                   if ech.insert(columns[k], k) is None)
    rows = {pk: (dict(row.vec), dict(row.combo))
            for pk, row in ech.rows.items()}
    return pivots, rows


def _insert_sorted_order(ech, vec, tag):
    """Reference insert: back-substitutes into the rows in sorted pivot
    order, with its own loop over Echelon's row arithmetic."""
    v, combo, scale = ech.reduce(vec)
    if not v:
        return {t: _div(x, scale) for t, x in combo.items() if x}
    k = min(v)
    sign = 1 if v[k] > 0 else -1
    new_combo = {t: -sign * x for t, x in combo.items() if x}
    new_combo[tag] = new_combo.get(tag, 0) + sign * scale
    new = _Row(*_normalized({kk: sign * x for kk, x in v.items()},
                            new_combo))
    p = new.vec[k]
    for pk in sorted(ech.rows):
        row = ech.rows[pk]
        c = row.vec.get(k, 0)
        if c:
            row.vec, row.combo = _normalized(
                vec_combine(row.vec, p, new.vec, -c),
                add_scaled({t: p * x for t, x in row.combo.items()},
                           new.combo, -c))
    ech.rows[k] = new
    return None


def test_echelon_rows_do_not_depend_on_update_order():
    """Echelon.insert updates its rows in insertion order; a reference
    that updates them in sorted pivot order gives the same rows, insert
    answers and express answers on seeded random columns, dependent ones
    included."""
    rng = random.Random(31)
    order_differed = False
    for trial in range(60):
        nkeys = rng.randint(3, 9)
        fast, ref, inserted = Echelon(), Echelon(), []
        for j in range(rng.randint(2, 12)):
            if inserted and rng.random() < 0.3:
                vec = {}
                for other in rng.sample(inserted, min(2, len(inserted))):
                    add_scaled(vec, other, rng.randint(-3, 3))
            else:
                vec = {k: c for k in rng.sample(range(nkeys),
                                                rng.randint(1, nkeys))
                       if (c := rng.randint(-4, 4))}
            inserted.append(vec)
            got = fast.insert(dict(vec), j)
            assert got == _insert_sorted_order(ref, dict(vec), j), trial
        order_differed |= list(fast.rows) != sorted(fast.rows)
        assert ({pk: (r.vec, r.combo) for pk, r in fast.rows.items()}
                == {pk: (r.vec, r.combo) for pk, r in ref.rows.items()})
        for _ in range(5):
            probe = {}
            for other in rng.sample(inserted, min(3, len(inserted))):
                add_scaled(probe, other, rng.randint(-2, 2))
            if rng.random() < 0.3:
                acc(probe, rng.randrange(nkeys), 1)
            assert fast.express(probe) == ref.express(probe)
    # the rows were not always built in sorted pivot order
    assert order_differed


def test_echelon_express():
    ech = Echelon()
    ech.insert({"x": 1, "y": 1}, "e0")
    ech.insert({"y": 1, "z": 1}, "e1")
    assert ech.rank == 2
    got = ech.express({"x": 2, "y": 3, "z": 1})
    assert got == {"e0": 2, "e1": 1}
    assert ech.express({"x": 1}) is None
    assert ech.express({"x": 1, "y": 2, "z": 1}) is not None


def test_column_rank_and_echelon_rows():
    cols = {0: {"a": 1, "b": 1}, 1: {"a": 2, "b": 2}, 2: {"b": 1}}
    assert column_rank(cols) == 2
    pivots, rows = _echelon_of(cols)
    assert len(rows) == 2
    assert pivots == (0, 2)
    for vec, combo in rows.values():
        recon = {}
        for t, c in combo.items():
            recon = vec_combine(recon, 1, cols[t], c)
        assert recon == vec


def test_kernel_basis_members_map_to_zero():
    rng = random.Random(1)
    cols = {}
    for j in range(7):
        col = {}
        for k in rng.sample(range(4), 2):
            c = rng.randint(-3, 3)
            if c:
                col[k] = c
        cols[j] = col
    kern = kernel_basis(cols)
    assert len(kern) == 7 - column_rank(cols)
    for vec in kern:
        assert apply_columns(cols, vec) == {}
    # leading coefficient convention: 1 on the key that closed the circuit
    for vec in kern:
        assert vec[max(vec)] == 1


def test_echelon_express_solves_columns():
    cols = {"u": {"a": 2}, "v": {"a": 1, "b": 1}}
    ech = Echelon()
    for k in sorted(cols):
        ech.insert(cols[k], k)
    sol = ech.express({"a": 3, "b": 1})
    recon = apply_columns(cols, sol)
    assert recon == {"a": 3, "b": 1}
    assert ech.express({"c": 1}) is None


def test_homology_circle():
    """Two vertices, two parallel edges: one loop, connected."""
    # boundary of edges: e0, e1 both go v0 -> v1
    d1 = {"e0": {"v0": -1, "v1": 1}, "e1": {"v0": -1, "v1": 1}}
    d2 = {}
    h1 = homology(d2, d1)
    assert h1.betti == 1
    h0 = homology(d1, {"v0": {}, "v1": {}})
    assert h0.betti == 1
    loop = {"e0": 1, "e1": -1}
    assert h1.express(loop) is not None
    assert not h1.is_boundary(loop)


def test_homology_rejects_nonzero_composite():
    d_in = {"x": {"m": 1}}
    d_out = {"m": {"q": 1}}
    with pytest.raises(CompositionError):
        homology(d_in, d_out)


def test_subquotient_express_mod_boundaries():
    # complex 0 -> span(a,b) -> span(q), d(a)=q, d(b)=q
    d_out = {"a": {"q": 1}, "b": {"q": 1}}
    d_in = {"z": {"a": 1, "b": -1}}
    h = homology(d_in, d_out)
    assert h.betti == 0
    assert h.is_boundary({"a": 1, "b": -1})
    assert h.express({"a": 1}) is None  # not a cycle


def test_determinism_same_input_same_output():
    rng = random.Random(9)
    cols = {}
    for j in range(10):
        cols[j] = {k: rng.randint(-5, 5) for k in rng.sample(range(6), 3)}
        cols[j] = {k: c for k, c in cols[j].items() if c}
    first = _echelon_of(dict(sorted(cols.items(), reverse=True)))
    second = _echelon_of(cols)
    assert first == second
    assert kernel_basis(cols) == kernel_basis(dict(cols))


def test_homology_express_recovers_rep_coefficients():
    """express(sum c_i rep_i + boundary) is exactly {i: c_i}, keys
    ascending, on seeded random three-term complexes C2 -> C1 -> C0."""
    rng = random.Random(12)
    for _ in range(40):
        n1, n0 = rng.randint(4, 7), rng.randint(1, 3)
        d_out = {}
        for j in range(n1):
            d_out[j] = {k: c for k in range(n0)
                        if (c := rng.randint(-2, 2))}
        kern = kernel_basis(d_out)
        d_in = {}
        for j in range(rng.randint(0, 3)):
            col = {}
            for z in kern:
                add_scaled(col, z, rng.randint(-2, 2))
            d_in[("e", j)] = col
        h = homology(d_in, d_out)
        assert h.betti == len(kern) - h.boundary_rank
        coeffs = [rng.choice([0, 1, -2, Fraction(1, 3)])
                  for _ in h.representatives]
        vec = apply_columns(d_in, {k: rng.randint(-3, 3) for k in d_in})
        for c, rep in zip(coeffs, h.representatives):
            add_scaled(vec, rep, c)
        got = h.express(vec)
        assert got == {i: c for i, c in enumerate(coeffs) if c}
        assert list(got) == sorted(got)


def _random_insert_sequence(rng, nkeys, count):
    """Seeded vectors over keys 0..nkeys-1: Fraction entries, zero
    vectors, and combinations of earlier vectors (dependent ones)."""
    seq = []
    for _ in range(count):
        r = rng.random()
        if r < 0.1:
            vec = {}
        elif r < 0.35 and seq:
            vec = {}
            for other in rng.sample(seq, min(2, len(seq))):
                add_scaled(vec, other, rng.choice([1, -2, Fraction(1, 3)]))
        else:
            vec = {k: c for k in rng.sample(range(nkeys),
                                            rng.randint(1, nkeys))
                   if (c := rng.choice([0, 1, -1, 3, Fraction(-2, 5)]))}
        seq.append(vec)
    return seq


def test_echelon_holders_match_rows():
    """After every insert, tracked or not, holders[key] is exactly the set
    of pivots whose row holds key, for every key that is not a pivot, with
    no empty or stale entries."""
    rng = random.Random(47)
    for trial in range(80):
        nkeys = rng.randint(2, 10)
        ech = Echelon()
        for j, vec in enumerate(_random_insert_sequence(rng, nkeys, 14)):
            ech.insert(dict(vec), j if rng.random() < 0.5 else None)
            want = {}
            for pk, row in ech.rows.items():
                for key in row.vec:
                    if key != pk:
                        want.setdefault(key, set()).add(pk)
            got = {key: set(pks) for key, pks in ech.holders.items()}
            assert got == want, (trial, j)
            assert not set(ech.holders) & set(ech.rows)


def _kernel_by_combos(columns):
    """Reference kernel: insert the columns in sorted key order, each
    tracked by its key, and turn every dependency into a kernel vector."""
    ech = Echelon()
    out = []
    for k in sorted(columns):
        expr = ech.insert(columns[k], k)
        if expr is not None:
            vec = {k: 1}
            for t, c in expr.items():
                vec[t] = -c
            out.append(vec)
    return out


def _random_columns(rng):
    ncols, nrows = rng.randint(1, 9), rng.randint(1, 7)
    cols = {}
    for j, vec in enumerate(_random_insert_sequence(rng, nrows, ncols)):
        cols[("col", j)] = {("row", k): c for k, c in vec.items()}
    return cols


def test_kernel_basis_matches_combo_reference():
    """kernel_basis, read off the transpose's echelon, equals the
    combo-tracking reference on seeded random maps with zero and dependent
    columns."""
    rng = random.Random(53)
    for trial in range(400):
        cols = _random_columns(rng)
        assert kernel_basis(cols) == _kernel_by_combos(cols), trial


def test_homology_matches_tagged_reference():
    """homology() inserts its boundaries untracked; a reference echelon
    that tags every boundary and every representative gives the same
    representatives and the same express and is_boundary answers."""
    rng = random.Random(59)
    for trial in range(60):
        d_out = _random_columns(rng)
        kern = _kernel_by_combos(d_out)
        d_in = {}
        for j in range(rng.randint(0, 4)):
            col = {}
            for z in rng.sample(kern, min(2, len(kern))):
                add_scaled(col, z, rng.choice([1, -2, Fraction(1, 2)]))
            d_in[j] = col
        h = homology(d_in, d_out)

        ref = Echelon()
        for j in sorted(d_in):
            if d_in[j]:
                ref.insert(d_in[j], ("b", ref.rank))
        reps = []
        for cyc in kern:
            if ref.insert(cyc, ("c", len(reps))) is None:
                reps.append(cyc)
        assert h.representatives == reps, trial

        def ref_express(vec):
            v, combo, scale = ref.reduce(vec)
            if v:
                return None
            return {t[1]: _div(x, scale) for t, x in sorted(combo.items())
                    if t[0] == "c"}

        for _ in range(6):
            probe = apply_columns(d_in, {j: rng.randint(-2, 2)
                                         for j in d_in})
            if rng.random() < 0.6:
                for z in rng.sample(kern, min(2, len(kern))):
                    add_scaled(probe, z, rng.randint(-2, 2))
            if rng.random() < 0.3:
                acc(probe, rng.choice(list(d_out)), 1)
            want = ref_express(probe)
            assert h.express(probe) == want, trial
            assert h.is_boundary(probe) == (want == {}), trial
