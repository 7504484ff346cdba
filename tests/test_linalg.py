"""Exact sparse linear algebra: echelon forms, kernels, homology."""

import pathlib
import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import MODEL_IDS, model
from looptop import linalg
from looptop.bar import bar_slice
from looptop.cochains import assemble_complex, hochschild_homology
from looptop.linalg import (CompositionError, Echelon, SubquotientBasis, acc,
                            add_scaled, apply_columns, column_rank,
                            compose_columns, homology, kernel_basis,
                            vec_combine, _content_one, _div, _Row)


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
    """scale*vec - residual lies in the span, and residual is an integer
    vector with no entry on a pivot key, always."""
    rng = random.Random(0)
    keys = list(range(6))
    ech = Echelon()
    for _ in range(8):
        vec = {}
        for k in rng.sample(keys, 3):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c:
                vec[k] = c
        ech.insert(vec)
        probe = {k: rng.randint(-3, 3) for k in rng.sample(keys, 4)}
        probe = {k: c for k, c in probe.items() if c}
        residual, scale = ech.reduce(probe)
        assert type(scale) is int and scale > 0
        assert all(isinstance(x, int) for x in residual.values())
        assert not set(residual) & set(ech.rows)
        in_span = vec_combine(probe, scale, residual, -1)
        assert ech.reduce(in_span)[0] == {}


def _reduce_sorted_rebuild(ech, vec):
    """Reference reduce: clears denominators, walks sorted(v) and builds
    a new vector for every row it subtracts; divides out no common
    factor."""
    m = 1
    for c in vec.values():
        m = lcm(m, Fraction(c).denominator)
    v = {k: int(c * m) for k, c in vec.items() if c}
    scale = m
    for k in sorted(v):
        row = ech.rows.get(k)
        c = v.get(k, 0)
        if row is None or not c:
            continue
        p = row.vec[k]
        v = vec_combine(v, p, row.vec, -c)
        scale = scale * p
    return v, scale


def test_reduce_matches_sorted_rebuild_reference():
    """The one-pass, in-place reduce gives the sorted rebuilding loop's
    (residual, scale) by value, on seeded echelons with non-unit pivots
    built from Fraction and integer inserts; probes carry whole-valued
    Fractions, explicit zeros, and pivot and non-pivot keys."""
    rng = random.Random(53)
    coeffs = [0, 1, -1, 2, -3, 5, Fraction(4, 2), Fraction(-2, 3),
              Fraction(5, 4)]
    unit_scale = non_unit_pivot = 0
    for trial in range(120):
        nkeys = rng.randint(3, 10)
        ech = Echelon()
        for vec in _random_insert_sequence(rng, nkeys, rng.randint(2, 8)):
            if rng.random() < 0.5:
                vec = {k: 2 * c for k, c in vec.items()}
            ech.insert(vec)
        for _ in range(6):
            probe = {k: rng.choice(coeffs)
                     for k in rng.sample(range(nkeys), rng.randint(1, nkeys))}
            residual, scale = ech.reduce(probe)
            assert (dict(residual), scale) == _reduce_sorted_rebuild(
                ech, probe), trial
            assert type(scale) is int and scale > 0
            assert all(type(x) is int for x in residual.values())
            unit_scale += scale == 1
            non_unit_pivot += any(k in ech.rows and ech.rows[k].vec[k] != 1
                                  for k in probe)
    assert 100 < unit_scale < 620 and non_unit_pivot > 100


def test_reduce_insert_express_leave_input_unchanged():
    """reduce, insert, express and is_boundary leave the caller's dict as
    it was: the same items, value types included, in the same order."""
    # C1 = span(a, b, c, d), d(a) = 0, d(b) = d(c) = x, d(d) = y: the
    # cycles are {a: 1} and {b: -1, c: 1}, one boundary a + 2(c - b)
    h = homology({"u": {"a": 1, "b": -2, "c": 2}},
                 {"a": {}, "b": {"x": 1}, "c": {"x": 1}, "d": {"y": 1}})
    assert h.cycles == [{"a": 1}, {"b": -1, "c": 1}]
    assert h.representatives == [{"a": 1}]

    def snapshot(vec):
        return [(k, type(x), x) for k, x in vec.items()]

    def echelon():
        ech = Echelon()  # pivots a (coefficient 2) and c
        ech.insert({"a": 2, "b": 1})
        ech.insert({"c": 1, "b": 3, "d": -1})
        return ech

    vecs = [{"c": Fraction(4, 2), "a": 0, "b": -2},
            {"b": Fraction(-1, 3), "c": Fraction(1, 3), "d": 0},
            {"a": 3, "d": 1}, {"a": 0, "c": 0}, {"c": 2, "a": 5, "b": 0}]
    for vec in vecs:
        before = snapshot(vec)
        h.express(vec)
        h.is_boundary(vec)
        echelon().reduce(vec)
        echelon().insert(vec)
        assert snapshot(vec) == before, vec
    # explicit zeros, on cycle keys and off them, change no answer
    assert h.express({"c": Fraction(4, 2), "a": 0, "b": -2}) == {0: -1}
    assert h.express({"b": Fraction(-1, 3), "c": Fraction(1, 3),
                      "d": 0}) == {0: Fraction(-1, 6)}
    assert h.express({"a": 3, "b": 0, "c": 0}) == {0: 3}
    assert h.express({"a": 0, "c": 0}) == {}
    assert h.is_boundary({"a": 1, "b": -2, "c": 2, "d": 0})
    # the {a: 1} cycle is subtracted, but what remains is not a cycle
    assert h.express({"a": 3, "d": 1}) is None
    assert h.express({"a": 1, "c": 1}) is None
    assert not h.is_boundary({"a": 3, "d": 1})


def test_echelon_insert_reports_dependencies():
    """insert answers whether the span grew; a dependent vector leaves
    the rows as they were."""
    ech = Echelon()
    assert ech.insert({"a": 1, "b": 1}) is True
    assert ech.insert({"b": 2}) is True
    rows = {pk: dict(row.vec) for pk, row in ech.rows.items()}
    assert ech.insert({"a": 3, "b": 5}) is False
    assert ech.insert({}) is False
    assert {pk: row.vec for pk, row in ech.rows.items()} == rows
    assert ech.rank == 2


def test_echelon_rows_stay_integer_content_one():
    ech = Echelon()
    ech.insert({"a": Fraction(2, 3), "b": Fraction(4, 3)})
    ech.insert({"b": Fraction(1, 2), "c": 1})
    for row in ech.rows.values():
        assert all(isinstance(x, int) for x in row.vec.values())


def _echelon_of(columns):
    """Insert columns in sorted key order: (independent keys, rows)."""
    ech = Echelon()
    pivots = tuple(k for k in sorted(columns) if ech.insert(columns[k]))
    rows = {pk: dict(row.vec) for pk, row in ech.rows.items()}
    return pivots, rows


def _insert_sorted_order(ech, vec):
    """Reference insert: back-substitutes into the rows in sorted pivot
    order, with its own loop over Echelon's row arithmetic."""
    v = _content_one(ech.reduce(vec)[0])
    if not v:
        return False
    k = min(v)
    sign = 1 if v[k] > 0 else -1
    new = _Row({kk: sign * x for kk, x in v.items()})
    p = new.vec[k]
    for pk in sorted(ech.rows):
        row = ech.rows[pk]
        c = row.vec.get(k, 0)
        if c:
            row.vec = _content_one(vec_combine(row.vec, p, new.vec, -c))
    ech.rows[k] = new
    return True


def test_echelon_rows_do_not_depend_on_update_order():
    """Echelon.insert updates its rows in insertion order; a reference
    that updates them in sorted pivot order gives the same rows, insert
    answers and reduce answers on seeded random columns, dependent ones
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
            got = fast.insert(dict(vec))
            assert got == _insert_sorted_order(ref, dict(vec)), trial
        order_differed |= list(fast.rows) != sorted(fast.rows)
        assert ({pk: r.vec for pk, r in fast.rows.items()}
                == {pk: r.vec for pk, r in ref.rows.items()})
        for _ in range(5):
            probe = {}
            for other in rng.sample(inserted, min(3, len(inserted))):
                add_scaled(probe, other, rng.randint(-2, 2))
            if rng.random() < 0.3:
                acc(probe, rng.randrange(nkeys), 1)
            assert fast.reduce(probe) == ref.reduce(probe)
    # the rows were not always built in sorted pivot order
    assert order_differed


def test_column_rank_and_echelon_rows():
    cols = {0: {"a": 1, "b": 1}, 1: {"a": 2, "b": 2}, 2: {"b": 1}}
    assert column_rank(cols) == 2
    pivots, rows = _echelon_of(cols)
    assert len(rows) == 2
    assert pivots == (0, 2)
    assert rows == {"a": {"a": 1}, "b": {"b": 1}}


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


def test_homology_rejects_boundary_outside_slice():
    """A boundary entry on a key with no column in boundary_out is not in
    the slice; the composite alone would not see it."""
    d_in = {"x": {"a": 1, "stray": 2}}
    d_out = {"a": {}}
    with pytest.raises(CompositionError, match="stray"):
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
    """After every insert, holders[key] is exactly the set
    of pivots whose row holds key, for every key that is not a pivot, with
    no empty or stale entries."""
    rng = random.Random(47)
    for trial in range(80):
        nkeys = rng.randint(2, 10)
        ech = Echelon()
        for j, vec in enumerate(_random_insert_sequence(rng, nkeys, 14)):
            ech.insert(dict(vec))
            want = {}
            for pk, row in ech.rows.items():
                for key in row.vec:
                    if key != pk:
                        want.setdefault(key, set()).add(pk)
            got = {key: set(pks) for key, pks in ech.holders.items()}
            assert got == want, (trial, j)
            assert not set(ech.holders) & set(ech.rows)


class _TaggedEchelon:
    """Reference elimination over Fractions that tracks how each row
    arises from the tagged generators: row == sum combo[tag]*gen[tag]."""

    def __init__(self):
        self.rows = {}  # pivot -> (vec with pivot coeff 1, combo)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """(residual, combo): residual == vec - sum combo[tag]*gen[tag]."""
        v = {k: Fraction(c) for k, c in vec.items() if c}
        combo = {}
        for pk in sorted(self.rows):
            c = v.get(pk)
            if c:
                row, row_combo = self.rows[pk]
                add_scaled(v, row, -c)
                add_scaled(combo, row_combo, c)
        return v, combo

    def insert(self, vec, tag):
        """None when vec enlarges the span, else its expression over the
        tags inserted before."""
        v, combo = self.reduce(vec)
        if not v:
            return combo
        lead = v[min(v)]
        combo = vec_combine({tag: 1}, 1, combo, -1)
        self.rows[min(v)] = ({k: c / lead for k, c in v.items()},
                             {t: c / lead for t, c in combo.items()})
        return None


def _kernel_by_combos(columns):
    """Reference kernel: insert the columns in sorted key order, each
    tracked by its key, and turn every dependency into a kernel vector."""
    ech = _TaggedEchelon()
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


def _kernel_first_appearance(columns):
    """Reference kernel_basis: the transpose's rows inserted in the order
    their keys first appear, and every quotient built as a Fraction and
    turned into an int when whole."""
    keys = sorted(columns)
    transpose = {}
    for k in keys:
        for i, x in columns[k].items():
            transpose.setdefault(i, {})[k] = x
    ech = Echelon()
    for row in transpose.values():
        ech.insert(row)
    out = []
    for f in keys:
        if f in ech.rows:
            continue
        vec = {f: 1}
        for pk in sorted(ech.holders.get(f, ())):
            r = ech.rows[pk].vec
            q = Fraction(-r[f], r[pk])
            vec[pk] = q.numerator if q.denominator == 1 else q
        out.append(vec)
    return out


def _typed(kernel):
    return [[(k, type(c), c) for k, c in v.items()] for v in kernel]


@pytest.mark.parametrize("model_id, variant, degrees, cutoff", [
    ("acyclic_extension:sphere:3", "to_A", (-3, 8), 9),
    ("torus:2", "to_dual", (0, 1), 6),
    ("surface:2", "to_A", (-2, 2), 3),
])
def test_kernel_basis_order_matches_first_appearance(model_id, variant,
                                                     degrees, cutoff):
    """Descending row-key insertion gives the same kernel vectors, key
    order and coefficient types included, as first-appearance insertion,
    on every slice of a window."""
    A = model(model_id)
    for n in range(degrees[0], degrees[1] + 1):
        cols = assemble_complex(A, variant, n, cutoff).delta_columns
        assert _typed(kernel_basis(cols)) == _typed(
            _kernel_first_appearance(cols)), n


def test_kernel_basis_order_matches_first_appearance_random():
    """The same on seeded integer maps with non-unit pivots and dependent
    columns, where non-whole quotients occur."""
    rng = random.Random(67)
    fractions_seen = 0
    for trial in range(300):
        nrows = rng.randint(1, 7)
        cols = {}
        for j in range(rng.randint(1, 10)):
            if cols and rng.random() < 0.3:
                col = {}
                for other in rng.sample(list(cols.values()),
                                        min(2, len(cols))):
                    add_scaled(col, other, rng.randint(-3, 3))
            else:
                col = {i: c for i in rng.sample(range(nrows),
                                                rng.randint(1, nrows))
                       if (c := rng.choice([0, 1, -1, 2, -3, 4, 5]))}
            cols[j] = col
        got = kernel_basis(cols)
        assert _typed(got) == _typed(_kernel_first_appearance(cols)), trial
        fractions_seen += sum(type(c) is Fraction
                              for v in got for c in v.values())
    assert fractions_seen


def test_div_whole_quotients_are_ints():
    for a, b in [(6, 3), (-6, 3), (6, -3), (-6, -3), (0, 5), (0, -5),
                 (7, 1), (-7, -1), (3 * 2**80, -2**80),
                 (Fraction(6, 3), 1), (Fraction(-9, 2), Fraction(3, 2))]:
        q = _div(a, b)
        assert type(q) is int and q == Fraction(a, b), (a, b)


def test_div_other_quotients_are_fractions_in_lowest_terms():
    for a, b in [(1, 2), (-1, 2), (1, -2), (-1, -2), (7, -21), (-10, 4),
                 (2**80 + 1, -2**40), (Fraction(1, 2), 1),
                 (Fraction(3, 4), Fraction(-1, 2))]:
        q = _div(a, b)
        assert type(q) is Fraction and q == Fraction(a, b), (a, b)
        assert q.denominator > 1, (a, b)


def test_div_is_the_one_place_arithmetic_makes_a_fraction():
    """The only Fraction(...) calls in the package are _div's and the
    model document's parsing and printing of coefficients."""
    calls = {}
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        lines = [line.strip() for line in path.read_text().splitlines()
                 if "Fraction(" in line]
        if lines:
            calls[path.name] = lines
    assert calls.pop("linalg.py") == ["return Fraction(a, b) if r else q"]
    dga_calls = calls.pop("dga.py")
    assert dga_calls[0] == "c = Fraction(x)"
    assert all("str(Fraction(c))" in line for line in dga_calls[1:])
    assert calls == {}


def test_homology_matches_tagged_reference():
    """homology() works in cycle coordinates and tracks no combination; a
    reference echelon that tags every boundary and every cycle gives the
    same representatives and the same express and is_boundary answers."""
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

        ref = _TaggedEchelon()
        for j in sorted(d_in):
            if d_in[j]:
                ref.insert(d_in[j], ("b", ref.rank))
        reps = []
        for cyc in kern:
            if ref.insert(cyc, ("c", len(reps))) is None:
                reps.append(cyc)
        assert h.representatives == reps, trial

        def ref_express(vec):
            v, combo = ref.reduce(vec)
            if v:
                return None
            return {t[1]: x for t, x in sorted(combo.items()) if t[0] == "c"}

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


def test_empty_columns_never_reach_the_echelon(monkeypatch):
    """The dual H0 slice of torus:2 at cutoff 10 has 13,311 incoming
    columns, 7,188 of them empty, and a zero outgoing map, so kernel_basis
    inserts nothing: only the 6,123 nonempty columns reach the echelon."""
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda ech, vec: calls.append(1) or insert(ech, vec))
    h = hochschild_homology(model("torus:2"), "to_dual", (0, 0), 10)[0]
    assert (len(calls), h.betti, h.boundary_rank) == (6123, 66, 1981)


def _snapshot(h):
    """Cycles, representatives, boundary rank and echelon rows, items
    and key order included."""
    return ([list(z.items()) for z in h.cycles],
            [list(r.items()) for r in h.representatives],
            h.boundary_rank,
            [(pk, list(row.vec.items())) for pk, row in h.echelon.rows.items()])


def test_homology_ignores_empty_columns():
    """On bar and cochain slices of every builtin family over seeded
    windows, homology with the empty incoming columns interleaved, with
    them removed, and a subquotient that inserts every column in sorted
    order all agree."""
    rng = random.Random(23)
    empty = 0
    for model_id in MODEL_IDS:
        A = model(model_id)
        for _ in range(3):
            n, cutoff = rng.randint(-3, 4), rng.randint(1, 4)
            pairs = [(bar_slice(A, n - 1, cutoff).d_columns,
                      bar_slice(A, n, cutoff).d_columns)]
            for variant in ("to_A", "to_dual"):
                pairs.append(
                    (assemble_complex(A, variant, n + 1, cutoff).delta_columns,
                     assemble_complex(A, variant, n, cutoff).delta_columns))
            for d_in, d_out in pairs:
                want = _snapshot(SubquotientBasis(
                    kernel_basis(d_out), [d_in[k] for k in sorted(d_in)]))
                assert _snapshot(homology(d_in, d_out)) == want
                nonempty = {k: col for k, col in d_in.items() if col}
                assert _snapshot(homology(nonempty, d_out)) == want
                empty += len(d_in) - len(nonempty)
    assert empty > 1000


@pytest.mark.parametrize("bad, message", [
    ({"a": 1, "stray": 2}, "^boundary of 3 has an entry on 'stray'"),
    ({"a": 1}, "^composite differential nonzero on 3$"),
    ({"a": 1, "b": 1, "stray": 2},
     "^boundary of 3 has an entry on 'stray'"),
    ({"e": 1, "a": 1}, "^composite differential nonzero on 3$"),
])
def test_composition_checks_survive_leading_empty_columns(bad, message):
    """A faulty nonempty column still raises when empty columns sort
    before it, and the first faulty one in key order is named.  A column
    whose image is already nonzero when its outside entry is met raises
    the outside error; an entry on a key whose outgoing column is empty
    ("e") lies in the slice."""
    d_out = {"a": {"q": 1}, "b": {"q": 1}, "e": {}}
    d_in = {5: bad, 4: {}, 3: bad, 2: {}, 1: {"a": 1, "b": -1}, 0: {}}
    with pytest.raises(CompositionError, match=message):
        homology(d_in, d_out)
