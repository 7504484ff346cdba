"""Cochains on the reduced bar construction, in two flavours.

A Cochain assigns algebra elements to words (entries keyed by
(word, value index)); a DualCochain assigns functionals, keyed by
(word, test index) meaning the value of phi(word) on that basis element.
A to-A entry (w, a) sits in degree bar_degree(w) - |a|; a dual entry
(w, b) in degree bar_degree(w) + |b|.  Every cochain is homogeneous.

The coboundary lowers degree by one in both flavours and never lowers
word length, so truncating by a weight cutoff gives an honest subquotient
complex.  Coboundaries are computed entrywise: for a basis cochain all
output entries are enumerated directly from the model's transposed
structure maps (co_d, co_split, co_left_mul), which keeps the large
acceptance sweeps fast.
"""

from .linalg import acc, add_scaled, compose_columns, homology
from .bar import (bar_degree, boundary_preimages,
                  slice_complete as bar_complete, words_by_degree, word_str)


class GradingError(ValueError):
    """Entries of mixed total degree in one cochain."""


def _entry_degree_to_A(A, word, a):
    return bar_degree(A, word) - A.degrees[a]


def _entry_degree_dual(A, word, b):
    return bar_degree(A, word) + A.degrees[b]


class _Cochain:
    variant = None

    def __init__(self, A, entries, degree=None):
        clean = {}
        for (word, val), c in entries.items():
            if not c:
                continue
            n = self._entry_degree(A, word, val)
            if degree is None:
                degree = n
            elif n != degree:
                raise GradingError(
                    f"entry {word_str(A, word)}:{A.names[val]} has degree "
                    f"{n}, cochain has degree {degree}")
            clean[(word, val)] = c
        self.entries = clean
        self.degree = 0 if degree is None else degree

    def _entry_degree(self, A, word, val):
        raise NotImplementedError

    @property
    def is_zero(self):
        return not self.entries

    @property
    def weight_support(self):
        return max((len(w) for w, _ in self.entries), default=0)

    def scale(self, c):
        out = self.__class__.__new__(self.__class__)
        out.entries = {k: c * v for k, v in self.entries.items()} if c else {}
        out.degree = self.degree
        return out

    def add(self, other):
        if self.__class__ is not other.__class__:
            raise GradingError("cannot add cochains of different flavours")
        if self.entries and other.entries and self.degree != other.degree:
            raise GradingError(
                f"cannot add degrees {self.degree} and {other.degree}")
        out = self.__class__.__new__(self.__class__)
        out.entries = add_scaled(dict(self.entries), other.entries)
        out.degree = self.degree if self.entries else other.degree
        return out

    def sub(self, other):
        return self.add(other.scale(-1))

    def restrict_weight(self, cutoff):
        out = self.__class__.__new__(self.__class__)
        out.entries = {k: v for k, v in self.entries.items()
                       if len(k[0]) <= cutoff}
        out.degree = self.degree
        return out

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

    def _entry_degree(self, A, word, val):
        return _entry_degree_to_A(A, word, val)


class DualCochain(_Cochain):
    """Word -> functional assignments (the dual flavour)."""

    variant = "to_dual"

    def _entry_degree(self, A, word, val):
        return _entry_degree_dual(A, word, val)


def unit_cochain(A):
    """The cup-product identity: the empty word maps to the unit."""
    return Cochain(A, {((), A.unit): 1})


def _delta_entry_dual(A, v, c_val, cutoff):
    """Coboundary of the dual basis cochain supported at (v, c_val)."""
    out = {}
    eps_v = bar_degree(A, v)
    # value-differential: phi(w)(db) picks up entries (v, b) with db -> c
    for b, cd in A.co_d.get(c_val, ()):
        acc(out, (v, b), cd)
    # transposed bar boundary, sign (-1)^{|b|} with b = c_val
    s2 = -1 if A.degrees[c_val] % 2 else 1
    for w, mu in boundary_preimages(A, v, cutoff).items():
        acc(out, (w, c_val), s2 * mu)
    # prepend / append a letter, absorbing it into the test slot
    if len(v) + 1 <= cutoff:
        for ell in A.letters:
            for b, cm in A.co_left_mul.get((ell, c_val), ()):
                sb = A.degrees[b]
                # prepend: -(-1)^{|b|} phi(w[1:])(b w_1)
                s3 = 1 if sb % 2 else -1
                acc(out, ((ell,) + v, b), s3 * cm)
                # append: +(-1)^{|b| + eps_{r-1}(|w_r|+1)} phi(w[:-1])(b w_r)
                e4 = sb + eps_v * (A.degrees[ell] + 1)
                s4 = -1 if e4 % 2 else 1
                acc(out, (v + (ell,), b), s4 * cm)
    return out


def _delta_entry_to_A(A, v, a, cutoff):
    """Coboundary of the to-A basis cochain supported at (v, a)."""
    out = {}
    sa = A.degrees[a]
    s1 = -1 if sa % 2 else 1
    # differential of the value
    for k, cd in A.d(a).items():
        acc(out, (v, k), s1 * cd)
    # transposed bar boundary (total sign works out to (-1)^{|a|} mu)
    for w, mu in boundary_preimages(A, v, cutoff).items():
        acc(out, (w, a), s1 * mu)
    if len(v) + 1 <= cutoff:
        e_v = bar_degree(A, v)
        n = e_v - sa
        for ell in A.letters:
            dl = A.degrees[ell]
            # prepend: the first letter multiplies the value from the left
            s3 = -1 if (sa + dl + 1) % 2 else 1
            for k, cm in A.mul(ell, a).items():
                acc(out, ((ell,) + v, k), s3 * cm)
            # append: the last letter multiplies from the right
            e4 = (dl + 1) * (n + 1)
            s4 = 1 if e4 % 2 else -1
            for k, cm in A.mul(a, ell).items():
                acc(out, (v + (ell,), k), s4 * cm)
    return out


def delta_to_A(A, phi, weight_cutoff):
    """Coboundary of a to-A cochain; degree drops by one."""
    out = {}
    for (v, a), c in phi.entries.items():
        for key, y in _delta_entry_to_A(A, v, a, weight_cutoff).items():
            acc(out, key, c * y)
    return Cochain(A, out, degree=phi.degree - 1)


def delta_to_dual(A, phi, weight_cutoff):
    """Coboundary of a dual cochain; degree drops by one."""
    out = {}
    for (v, b), c in phi.entries.items():
        for key, y in _delta_entry_dual(A, v, b, weight_cutoff).items():
            acc(out, key, c * y)
    return DualCochain(A, out, degree=phi.degree - 1)


def cup(A, phi1, phi2, weight_cutoff):
    """Cup product of two to-A cochains by word concatenation.

    (phi1 ∪ phi2)(uv) = ±phi1(u) ∧ phi2(v) with the Koszul sign
    (-1)^{|phi1| (|phi2| + bar degree of v)}.
    """
    if phi1.variant != "to_A" or phi2.variant != "to_A":
        raise GradingError("cup is defined on to-A cochains")
    n1, n2 = phi1.degree, phi2.degree
    out = {}
    for (v1, a1), c1 in phi1.entries.items():
        for (v2, a2), c2 in phi2.entries.items():
            if len(v1) + len(v2) > weight_cutoff:
                continue
            prod = A.mul(a1, a2)
            if not prod:
                continue
            e = n1 * (n2 + bar_degree(A, v2))
            sign = -1 if e % 2 else 1
            w = v1 + v2
            for k, cm in prod.items():
                acc(out, (w, k), sign * c1 * c2 * cm)
    return Cochain(A, out, degree=n1 + n2)


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
    """Build the degree slice: basis keys and coboundary columns."""
    if variant not in ("to_A", "to_dual"):
        raise ValueError(f"unknown variant {variant!r}")
    buckets = words_by_degree(A, weight_cutoff)
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
    entry = _delta_entry_to_A if variant == "to_A" else _delta_entry_dual
    delta_columns = {key: entry(A, key[0], key[1], weight_cutoff)
                     for key in basis}
    return ComplexSlice(variant, degree, weight_cutoff, tuple(basis),
                        delta_columns,
                        slice_complete(A, variant, degree, weight_cutoff))


def hochschild_homology(A, variant, degree_range, weight_cutoff):
    """Homology per degree of the truncated complex (coboundary lowers
    degree, so boundaries in degree n arrive from degree n + 1)."""
    lo, hi = degree_range
    slices = {n: assemble_complex(A, variant, n, weight_cutoff)
              for n in range(lo, hi + 2)}
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
              for n in range(lo, hi + 2)}
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
