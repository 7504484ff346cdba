"""Cochains on the reduced bar construction, in two flavours.

A Cochain assigns algebra elements to words (entries keyed by
(word, value index)); a DualCochain assigns functionals, keyed by
(word, test index) meaning the value of phi(word) on that basis element.
A to-A entry (w, a) sits in degree bar_degree(w) - |a|; a dual entry
(w, b) in degree bar_degree(w) + |b|.  Every cochain is homogeneous.

The coboundary lowers degree by one in both flavours and never lowers
word length, so truncating by a weight cutoff gives an honest subquotient
complex.  One function builds coboundary columns, _delta_columns: each
basis cochain's column is read off term tables built once per model with
their signs worked out, A._cache["coboundary_terms"] (per flavour and
value index) and the bar boundary's A._cache["preimages"] (per letter),
and a word's bar-boundary preimages are walked once per run of its keys.
Slices, e1_term's layers and delta_to_A/delta_to_dual all call it.  The
concatenation product and its Koszul sign are written once, in
_concatenate: cup runs it through the algebra's product table,
duality.bracket through its own.  Operators whose outputs are
homogeneous by construction make them with _Cochain._trusted, which
skips the grading scan of the public constructors.
"""

from .linalg import acc, add_scaled, compose_columns, homology
from .bar import (bar_degree, boundary_preimages,
                  slice_complete as bar_complete, words_by_degree, word_str)


class GradingError(ValueError):
    """Entries of mixed total degree in one cochain."""


class _Cochain:
    variant = None
    value_sign = None  # -1 to-A, +1 dual: the sign of |val| in entry degrees

    def __init__(self, A, entries, degree=None):
        clean = {}
        for (word, val), c in entries.items():
            if not c:
                continue
            n = bar_degree(A, word) + self.value_sign * A.degrees[val]
            if degree is None:
                degree = n
            elif n != degree:
                raise GradingError(
                    f"entry {word_str(A, word)}:{A.names[val]} has degree "
                    f"{n}, cochain has degree {degree}")
            clean[(word, val)] = c
        self.entries = clean
        self.degree = 0 if degree is None else degree

    @property
    def is_zero(self):
        return not self.entries

    @property
    def weight_support(self):
        return max((len(w) for w, _ in self.entries), default=0)

    @classmethod
    def _trusted(cls, entries, degree):
        """A cochain over entries its caller built homogeneous of this
        degree, with no zero coefficient: the grading scan is skipped."""
        out = cls.__new__(cls)
        out.entries = entries
        out.degree = degree
        return out

    def scale(self, c):
        return self._trusted(
            {k: c * v for k, v in self.entries.items()} if c else {},
            self.degree)

    def add(self, other):
        if self.__class__ is not other.__class__:
            raise GradingError("cannot add cochains of different flavours")
        if self.entries and other.entries and self.degree != other.degree:
            raise GradingError(
                f"cannot add degrees {self.degree} and {other.degree}")
        return self._trusted(add_scaled(dict(self.entries), other.entries),
                             self.degree if self.entries else other.degree)

    def sub(self, other):
        return self.add(other.scale(-1))

    def __eq__(self, other):
        if self.__class__ is not other.__class__:
            return NotImplemented
        if self.entries != other.entries:
            return False
        return (not self.entries) or self.degree == other.degree

    def __repr__(self):
        return (f"{self.__class__.__name__}(degree={self.degree}, "
                f"{len(self.entries)} entries)")


class Cochain(_Cochain):
    """Word -> algebra element assignments (the to-A flavour)."""

    variant = "to_A"
    value_sign = -1


class DualCochain(_Cochain):
    """Word -> functional assignments (the dual flavour)."""

    variant = "to_dual"
    value_sign = 1


def unit_cochain(A):
    """The cup-product identity: the empty word maps to the unit."""
    return Cochain(A, {((), A.unit): 1})


def _coboundary_terms(A, variant):
    """Per value index, the terms of the coboundary of a basis cochain
    (v, value) that do not come from the bar boundary, signs worked out:
    (value terms, sign, ends).  Value terms are (k, c) for entries (v, k).
    The bar boundary's coefficients are multiplied by sign.  ends[p], for
    bar_degree(v) % 2 == p, lists (letter, k, c, front) for entries
    ((letter,) + v, k) if front, else (v + (letter,), k): letters in basis
    order, products in table order.  Memoised on the model under
    "coboundary_terms", keyed by variant; _delta_columns reads it once
    per call.
    """
    tables = A._cache.setdefault("coboundary_terms", {})
    if variant in tables:
        return tables[variant]
    deg = A.degrees
    vals = [[] for _ in deg]
    ends = [([], []) for _ in deg]
    if variant == "to_A":
        for a, img in A.differential.items():
            vals[a] = [(k, -c if deg[a] % 2 else c) for k, c in img.items()]
        for a, (even, odd) in enumerate(ends):
            for p, out in ((0, even), (1, odd)):
                for ell in A.letters:
                    # prepend: the first letter multiplies from the left
                    s3 = -1 if (deg[a] + deg[ell] + 1) % 2 else 1
                    out.extend((ell, k, s3 * c, True)
                               for k, c in A.mul(ell, a).items())
                    # append: the last letter multiplies from the right,
                    # sign -(-1)^{(|ell| + 1)(n + 1)}, n = bar_degree(v) - |a|
                    s4 = 1 if (deg[ell] + 1) * (p - deg[a] + 1) % 2 else -1
                    out.extend((ell, k, s4 * c, False)
                               for k, c in A.mul(a, ell).items())
    else:
        # value-differential: phi(w)(db) picks up entries (v, b) with db -> c
        for b, img in A.differential.items():
            for k, c in img.items():
                vals[k].append((b, c))
        left = {}
        for (b, ell), img in A.product.items():
            for k, c in img.items():
                left.setdefault((ell, k), []).append((b, c))
        for k, (even, odd) in enumerate(ends):
            for p, out in ((0, even), (1, odd)):
                for ell in A.letters:
                    for b, c in left.get((ell, k), ()):
                        # prepend: -(-1)^{|b|} phi(w[1:])(b w_1)
                        out.append((ell, b, c if deg[b] % 2 else -c, True))
                        # append: +(-1)^{|b| + eps(v)(|w_r| + 1)}
                        # phi(w[:-1])(b w_r)
                        e4 = deg[b] + p * (deg[ell] + 1)
                        out.append((ell, b, -c if e4 % 2 else c, False))
    tables[variant] = table = [
        (vals[i], -1 if deg[i] % 2 else 1, ends[i]) for i in range(len(deg))]
    return table


def _delta_columns(A, variant, keys, cutoff):
    """Coboundaries of the basis cochains supported at keys, as
    {(v, val): column} in the order of keys.  A column holds the value
    terms, then the transposed bar boundary with sign (-1)^{|val|} in
    both flavours, then, below the cutoff, a letter prepended or appended
    and absorbed into the value.  The term table is read once per call;
    a word's bar-boundary preimages and bar-degree parity once per run of
    consecutive keys on that word, so keys in basis order cost one of
    each per word.  Any order gives the same columns."""
    table = _coboundary_terms(A, variant)
    out, word = {}, None
    for key in keys:
        v, val = key
        if v != word:
            word = v
            preimages = boundary_preimages(A, v, cutoff).items()
            parity = bar_degree(A, v) % 2 if len(v) < cutoff else None
        vals, sign, ends = table[val]
        col = {}
        for k, c in vals:
            acc(col, (v, k), c)
        if preimages:
            # the preimage words differ from v, so no key is in col yet
            col.update(((w, val), sign * mu) for w, mu in preimages)
        if parity is not None:
            for ell, k, c, front in ends[parity]:
                acc(col, ((ell,) + v if front else v + (ell,), k), c)
        out[key] = col
    return out


def _coboundary(A, phi, weight_cutoff, flavour):
    """Coboundary of a cochain of the given flavour class; degree drops
    by one."""
    if phi.variant != flavour.variant:
        raise GradingError(f"expected a {flavour.__name__}")
    columns = _delta_columns(A, flavour.variant, phi.entries, weight_cutoff)
    out = {}
    for key, c in phi.entries.items():
        for k, y in columns[key].items():
            acc(out, k, c * y)
    return flavour._trusted(out, phi.degree - 1)


def delta_to_A(A, phi, weight_cutoff):
    """Coboundary of a to-A cochain; degree drops by one."""
    return _coboundary(A, phi, weight_cutoff, Cochain)


def delta_to_dual(A, phi, weight_cutoff):
    """Coboundary of a dual cochain; degree drops by one."""
    return _coboundary(A, phi, weight_cutoff, DualCochain)


def _concatenate(A, left, right, n1, shift, cutoff, product):
    """The concatenation product of two homogeneous cochains' entries
    through product, a dict (a1, a2) -> {k: t} in the shape of A.product
    with zero products left out.  Entries (v1, a1): c1 of left and
    (v2, a2): c2 of right with len(v1 v2) <= cutoff add c1·c2·t at
    (v1 v2, k), with the Koszul sign (-1)^{n1 (n2 + bar degree of v2)}:
    left entries outer, right entries inner, terms in table order.  The
    right cochain is homogeneous, so n2 + bar degree of v2 has the parity
    of |a2| + shift: shift is 0 when n2 is a to-A degree, and the top
    degree when n2 is a dual degree less the top degree."""
    odd, deg = n1 % 2, A.degrees
    right = [(len(v2), v2, a2,
              -c2 if odd and (deg[a2] + shift) % 2 else c2)
             for (v2, a2), c2 in right.items()]
    out = {}
    for (v1, a1), c1 in left.items():
        room = cutoff - len(v1)
        for len2, v2, a2, c2 in right:
            if len2 > room:
                continue
            terms = product.get((a1, a2))
            if not terms:
                continue
            w, c = v1 + v2, c1 * c2
            for k, t in terms.items():
                acc(out, (w, k), c * t)
    return out


def cup(A, phi1, phi2, weight_cutoff):
    """Cup product of two to-A cochains: their concatenation product
    through the algebra's product table."""
    if phi1.variant != "to_A" or phi2.variant != "to_A":
        raise GradingError("cup is defined on to-A cochains")
    return Cochain._trusted(
        _concatenate(A, phi1.entries, phi2.entries, phi1.degree, 0,
                     weight_cutoff, A.product),
        phi1.degree + phi2.degree)


def slice_complete(A, variant, degree, weight_cutoff):
    """Whether the cutoff provably captures every entry of this degree:
    each bar degree the slice draws words from must be complete (never
    the case for a model with degree-1 letters)."""
    sign = 1 if variant == "to_A" else -1
    return all(
        bar_complete(A, degree + sign * q, weight_cutoff)
        for q in set(A.degrees))


class ComplexSlice:
    """One degree of a weight-truncated cochain complex.

    delta_columns maps each basis key to its coboundary, a vector over
    degree - 1 keys within the same cutoff.
    """

    def __init__(self, variant, degree, weight_cutoff, basis,
                 delta_columns, complete):
        self.variant = variant
        self.degree = degree
        self.weight_cutoff = weight_cutoff
        self.basis = basis
        self.delta_columns = delta_columns
        self.complete = complete

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        flag = "complete" if self.complete else "weight-truncated"
        return (f"ComplexSlice({self.variant}, degree={self.degree}, "
                f"weight<={self.weight_cutoff}, dim={self.dim}, {flag})")


def assemble_complex(A, variant, degree, weight_cutoff):
    """Build the degree slice: basis keys, sorted by (weight, word, value
    index) so each word's keys are adjacent, and their coboundary columns
    from one _delta_columns call."""
    if variant not in ("to_A", "to_dual"):
        raise ValueError(f"unknown variant {variant!r}")
    # to-A keys (w, a) need bar degree |w| = degree + |a| <= degree + top;
    # dual keys (w, b) need |w| = degree - |b| <= degree
    reach = degree + max(A.degrees) if variant == "to_A" else degree
    buckets = words_by_degree(A, weight_cutoff, reach)
    basis = []
    for eps, words in buckets.items():
        q = eps - degree if variant == "to_A" else degree - eps
        values = A.basis_of_degree(q)
        if not values:
            continue
        for w in words:
            for val in values:
                basis.append((w, val))
    basis.sort(key=lambda key: (len(key[0]), key[0], key[1]))
    return ComplexSlice(variant, degree, weight_cutoff, tuple(basis),
                        _delta_columns(A, variant, basis, weight_cutoff),
                        slice_complete(A, variant, degree, weight_cutoff))


def hochschild_homology(A, variant, degree_range, weight_cutoff):
    """Homology per degree of the truncated complex (coboundary lowers
    degree, so boundaries in degree n arrive from degree n + 1)."""
    lo, hi = degree_range
    slices = {n: assemble_complex(A, variant, n, weight_cutoff)
              for n in range(hi + 1, lo - 1, -1)}
    out = {}
    for n in range(lo, hi + 1):
        out[n] = homology(slices[n + 1].delta_columns, slices[n].delta_columns)
        out[n].exact = slices[n].complete and slices[n + 1].complete
    return out


def delta_squared_zero(A, variant, degree_range, weight_cutoff):
    """Compose the coboundary with itself over a degree window.

    True when the composite vanishes on every truncated slice in the
    window (columns of degree n + 1 fed through columns of degree n).
    """
    lo, hi = degree_range
    slices = {n: assemble_complex(A, variant, n, weight_cutoff)
              for n in range(hi + 1, lo - 1, -1)}
    for n in range(lo, hi + 1):
        square = compose_columns(slices[n].delta_columns,
                                 slices[n + 1].delta_columns)
        if any(square.values()):
            return False
    return True


class LoopHomology:
    """Graded ring presentation of to-A cochain homology over a window."""

    def __init__(self, A, degree_range, weight_cutoff, presentations):
        self.A = A
        self.degree_range = degree_range
        self.weight_cutoff = weight_cutoff
        self.presentations = presentations
        self.betti = {n: p.betti for n, p in presentations.items()}
        self.exact = {n: p.exact for n, p in presentations.items()}
        self.representatives = {}
        self.class_names = {}
        for n, p in sorted(presentations.items()):
            reps = [Cochain(A, dict(v), degree=n) for v in p.representatives]
            self.representatives[n] = reps
            self.class_names[n] = [f"h{n}.{k}" for k in range(len(reps))]
        self.ring = {}
        self._fill_ring()

    def _fill_ring(self):
        lo, hi = self.degree_range
        for n1, reps1 in sorted(self.representatives.items()):
            for n2, reps2 in sorted(self.representatives.items()):
                if not lo <= n1 + n2 <= hi:
                    continue
                target = self.presentations[n1 + n2]
                for i1, r1 in enumerate(reps1):
                    for i2, r2 in enumerate(reps2):
                        prod = cup(self.A, r1, r2, self.weight_cutoff)
                        expr = target.express(prod.entries)
                        key = ((n1, i1), (n2, i2))
                        self.ring[key] = None if expr is None else {
                            (n1 + n2, k): c for k, c in expr.items()}

    def express(self, phi):
        """Locate a cocycle's class in the window, or None."""
        if phi.variant != "to_A":
            raise GradingError("loop homology classes are to-A cochains")
        pres = self.presentations.get(phi.degree)
        if pres is None:
            return None
        expr = pres.express(phi.entries)
        if expr is None:
            return None
        return {(phi.degree, k): c for k, c in expr.items()}

    def class_cochain(self, degree, k):
        return self.representatives[degree][k]

    def tsv(self):
        prods = {}
        for k1, k2 in sorted(self.ring):
            prods.setdefault(k1[0], []).append(
                f"h{k1[0]}.{k1[1]}*h{k2[0]}.{k2[1]}="
                f"{_expr_str(self.ring[(k1, k2)])}")
        lines = ["degree\tbetti\tstatus\tclasses\tproducts"]
        lo, hi = self.degree_range
        for n in range(lo, hi + 1):
            names = self.class_names.get(n)
            lines.append("\t".join([
                str(n), str(self.betti.get(n, 0)),
                "exact" if self.exact.get(n) else "weight-truncated",
                ",".join(names) if names else "-",
                ";".join(prods.get(n, ["-"]))]))
        return "\n".join(lines) + "\n"


def _expr_str(expr):
    if expr is None:
        return "?"
    if not expr:
        return "0"
    parts = []
    for (n, k), c in sorted(expr.items()):
        parts.append(f"{c}*h{n}.{k}" if c != 1 else f"h{n}.{k}")
    return "+".join(parts)


def loop_homology(A, degree_range, weight_cutoff):
    """Loop-space style homology ring of a model over a degree window."""
    pres = hochschild_homology(A, "to_A", degree_range, weight_cutoff)
    return LoopHomology(A, degree_range, weight_cutoff, pres)
