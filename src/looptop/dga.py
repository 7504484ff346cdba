"""Finite-dimensional graded algebra models.

A model is a graded vector space over ℚ with a fixed ordered basis, a
degree-+1 differential, structure constants for an associative product, a
unit, a top degree, and optionally an orientation functional on the top
slice.  Construction is verbatim (no axiom checking); validate_dga reports
every violated axiom with a witness.

Chains over a model are dicts mapping basis index -> nonzero coefficient,
the same sparse convention the linear algebra layer uses.
"""

from fractions import Fraction
import itertools
import math

from .linalg import (CompositionError, _div, acc, add_scaled, column_rank,
                     homology, vec_combine)


class ModelError(ValueError):
    """Base class for everything wrong with a model document."""


class ParseError(ModelError):
    pass


class UnknownNameError(ModelError):
    pass


class DegreeMismatchError(ModelError):
    pass


class OrientationError(ModelError):
    """Operation needs an orientation the model does not carry."""


def _coeff(x):
    """Parse a rational coefficient from a document value."""
    if isinstance(x, bool):
        raise ParseError(f"coefficient {x!r} is not a rational")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            c = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {x!r}") from exc
        return _div(c, 1)
    raise ParseError(f"coefficient {x!r} is not a rational")


class DGA:
    """A finite graded algebra with differential; immutable by contract.

    product maps (i, j) -> {k: coeff}; differential maps i -> {k: coeff}.
    Absent entries are zero.  The basis order is the serialization order
    and every downstream enumeration inherits it.
    """

    def __init__(self, names, degrees, unit, product, differential,
                 top_degree, orientation=None, commutative=True, label=""):
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        # positive-degree indices in basis order (the bar alphabet), and
        # the bar degree |i| - 1 of each index i used as a letter
        self.letters = tuple(i for i, q in enumerate(self.degrees) if q >= 1)
        self.letter_degrees = tuple(q - 1 for q in self.degrees)
        by_degree = {}
        for i, q in enumerate(self.degrees):
            by_degree.setdefault(q, []).append(i)
        self._by_degree = {q: tuple(v) for q, v in by_degree.items()}
        self.unit = unit
        self.product = {k: dict(v) for k, v in product.items() if v}
        self.differential = {k: dict(v) for k, v in differential.items() if v}
        self.top_degree = top_degree
        self.orientation = dict(orientation) if orientation else None
        self.commutative = commutative
        self.label = label or "dga"
        self._index = {n: i for i, n in enumerate(self.names)}
        self._cache = {}

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNameError(f"no basis element named {name!r}") from None

    def mul(self, i, j):
        return self.product.get((i, j), {})

    def d(self, i):
        return self.differential.get(i, {})

    def wedge(self, u, v):
        """Product of two chains."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.mul(i, j).items():
                    acc(out, k, a * b * c)
        return out

    def d_chain(self, u):
        out = {}
        for i, a in u.items():
            add_scaled(out, self.d(i), a)
        return out

    def orient(self, u):
        """Orientation functional applied to a chain."""
        if self.orientation is None:
            raise OrientationError(f"model {self.label} has no orientation")
        return sum((self.orientation.get(i, 0) * c for i, c in u.items()), 0)

    @property
    def simply_connected(self):
        return all(q != 1 for q in self.degrees)

    def basis_of_degree(self, q):
        return self._by_degree.get(q, ())

    def __repr__(self):
        return f"DGA({self.label}, dim={self.dim}, top={self.top_degree})"


def build_dga(doc):
    """Build a model from a parsed document, verbatim (no axiom checks).

    The document is a dict with keys name, basis, unit, differential,
    products, top_degree, orientation (optional), commutative.  Grading of
    product and differential entries is enforced here, and so is one
    entry per differential source and per product pair; everything else
    is validate_dga's business.
    """
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    try:
        basis = doc["basis"]
        unit_name = doc["unit"]
        top_degree = doc["top_degree"]
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r}") from None
    if not isinstance(basis, list) or not basis:
        raise ParseError("basis must be a non-empty array")
    names, degrees = [], []
    for entry in basis:
        try:
            name, deg = entry["name"], entry["degree"]
        except (TypeError, KeyError):
            raise ParseError(f"bad basis entry {entry!r}") from None
        if (not isinstance(name, str) or not isinstance(deg, int)
                or isinstance(deg, bool) or deg < 0):
            raise ParseError(f"bad basis entry {entry!r}")
        if name in names:
            raise ParseError(f"duplicate basis name {name!r}")
        names.append(name)
        degrees.append(deg)
    index = {n: i for i, n in enumerate(names)}

    def resolve(name):
        if not isinstance(name, str):
            raise ParseError(f"basis name {name!r} is not a string")
        if name not in index:
            raise UnknownNameError(f"no basis element named {name!r}")
        return index[name]

    unit = resolve(unit_name)
    if (not isinstance(top_degree, int) or isinstance(top_degree, bool)
            or top_degree < 0):
        raise ParseError(f"bad top_degree {top_degree!r}")

    # an empty image stays in the table until DGA drops it, so that a
    # repeated entry is seen whatever its coefficients
    differential = {}
    for entry in _entries(doc, "differential", ("from", "to")):
        src = resolve(entry["from"])
        if src in differential:
            raise ParseError(f"repeated differential entry d({names[src]})")
        img = differential[src] = {}
        for name, c in entry["to"].items():
            k = resolve(name)
            if degrees[k] != degrees[src] + 1:
                raise DegreeMismatchError(
                    f"d({names[src]}) hits {name} of degree {degrees[k]}, "
                    f"expected {degrees[src] + 1}")
            c = _coeff(c)
            if c:
                img[k] = c

    product = {}
    for entry in _entries(doc, "products", ("left", "right", "result")):
        i, j = resolve(entry["left"]), resolve(entry["right"])
        if (i, j) in product:
            raise ParseError(f"repeated products entry {names[i]}·{names[j]}")
        img = product[(i, j)] = {}
        for name, c in entry["result"].items():
            k = resolve(name)
            if degrees[k] != degrees[i] + degrees[j]:
                raise DegreeMismatchError(
                    f"{names[i]}·{names[j]} hits {name} of degree "
                    f"{degrees[k]}, expected {degrees[i] + degrees[j]}")
            c = _coeff(c)
            if c:
                img[k] = c

    orientation = doc.get("orientation")
    if orientation is not None:
        if not isinstance(orientation, dict):
            raise ParseError("orientation must be an object or null")
        orientation = {resolve(name): c for name, raw in orientation.items()
                       if (c := _coeff(raw))}
    commutative = doc.get("commutative", True)
    if not isinstance(commutative, bool):
        raise ParseError(f"commutative must be true or false, "
                         f"not {commutative!r}")
    label = doc.get("name", "dga")
    if not isinstance(label, str):
        raise ParseError(f"name must be a string, not {label!r}")

    return DGA(names, degrees, unit, product, differential, top_degree,
               orientation=orientation, commutative=commutative, label=label)


def _entries(doc, key, fields):
    """The array doc[key] (default empty), checked entry by entry: each is
    an object holding fields, the last of which maps names to
    coefficients."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{key} must be an array")
    for entry in entries:
        if (not isinstance(entry, dict) or any(f not in entry for f in fields)
                or not isinstance(entry[fields[-1]], dict)):
            raise ParseError(f"bad {key} entry {entry!r}")
    return entries


def dga_to_doc(A):
    """Serialize a model back to the document shape build_dga reads."""
    doc = {
        "name": A.label,
        "basis": [{"name": n, "degree": q}
                  for n, q in zip(A.names, A.degrees)],
        "unit": A.names[A.unit],
        "differential": [
            {"from": A.names[i],
             "to": {A.names[k]: str(Fraction(c)) for k, c in img.items()}}
            for i, img in sorted(A.differential.items())],
        "products": [
            {"left": A.names[i], "right": A.names[j],
             "result": {A.names[k]: str(Fraction(c)) for k, c in img.items()}}
            for (i, j), img in sorted(A.product.items())],
        "top_degree": A.top_degree,
        "commutative": A.commutative,
    }
    if A.orientation is not None:
        doc["orientation"] = {A.names[i]: str(Fraction(c))
                              for i, c in sorted(A.orientation.items())}
    return doc


class ValidationReport:
    """Outcome of validate_dga: passed iff violations is empty."""

    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def passed(self):
        return not self.violations

    @property
    def rules(self):
        return sorted({rule for rule, _, _ in self.violations})

    def __repr__(self):
        state = "passed" if self.passed else f"{len(self.violations)} violations"
        return f"ValidationReport({state})"


def validate_dga(A):
    """Check every model axiom; collect (rule, witness, detail) triples."""
    bad = []
    names = A.names

    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        bad.append(("basis/unique-names", tuple(dupes), "duplicate names"))

    zeros = [i for i, q in enumerate(A.degrees) if q == 0]
    if zeros != [A.unit]:
        bad.append(("basis/connected", tuple(names[i] for i in zeros),
                    "degree-0 slice must be spanned by the unit alone"))

    for i, img in sorted(A.differential.items()):
        for k in img:
            if A.degrees[k] != A.degrees[i] + 1:
                bad.append(("differential/grading", (names[i], names[k]),
                            f"{A.degrees[i]} -> {A.degrees[k]}"))
    for i in range(A.dim):
        dd = A.d_chain(A.d(i))
        if dd:
            bad.append(("differential/squares-to-zero", (names[i],),
                        _chain_str(A, dd)))

    for (i, j), img in sorted(A.product.items()):
        want = A.degrees[i] + A.degrees[j]
        for k in img:
            if A.degrees[k] != want:
                bad.append(("product/grading", (names[i], names[j], names[k]),
                            f"degree {A.degrees[k]}, expected {want}"))

    for i in range(A.dim):
        for j in range(A.dim):
            lhs = A.d_chain(A.mul(i, j))
            sign = -1 if A.degrees[i] % 2 else 1
            rhs = {}
            for k, c in A.d(i).items():
                add_scaled(rhs, A.mul(k, j), c)
            for k, c in A.d(j).items():
                add_scaled(rhs, A.mul(i, k), sign * c)
            diff = vec_combine(lhs, 1, rhs, -1)
            if diff:
                bad.append(("leibniz", (names[i], names[j]),
                            _chain_str(A, diff)))

    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                left = A.wedge(A.mul(i, j), {k: 1})
                right = A.wedge({i: 1}, A.mul(j, k))
                diff = vec_combine(left, 1, right, -1)
                if diff:
                    bad.append(("product/associativity",
                                (names[i], names[j], names[k]),
                                _chain_str(A, diff)))

    for i in range(A.dim):
        if A.mul(A.unit, i) != {i: 1} or A.mul(i, A.unit) != {i: 1}:
            bad.append(("unit/identity", (names[i],),
                        "unit does not act as identity"))

    if A.commutative:
        for i in range(A.dim):
            for j in range(i, A.dim):
                sign = -1 if (A.degrees[i] * A.degrees[j]) % 2 else 1
                diff = vec_combine(A.mul(i, j), 1, A.mul(j, i), -sign)
                if diff:
                    bad.append(("graded-commutativity", (names[i], names[j]),
                                _chain_str(A, diff)))

    if A.orientation is not None:
        for i, c in sorted(A.orientation.items()):
            if c and A.degrees[i] != A.top_degree:
                bad.append(("orientation/support", (names[i],),
                            f"degree {A.degrees[i]} != top {A.top_degree}"))
        for i in range(A.dim):
            if A.degrees[i] == A.top_degree - 1:
                val = A.orient(A.d(i))
                if val:
                    bad.append(("orientation/closed", (names[i],),
                                f"orientation(d{names[i]}) = {val}"))
        try:
            hom = dga_homology(A)
        except CompositionError:
            hom = {}  # d² != 0 was already reported above
        d = A.top_degree
        for q in sorted(set(hom) | {d - q for q in hom}):
            if not _pairing_nondegenerate(A, hom, q):
                bad.append(("orientation/nondegenerate", (q,),
                            f"homology pairing degrees ({q},{d - q}) singular"))

    return ValidationReport(bad)


def _chain_str(A, u):
    parts = [f"{c}·{A.names[i]}" for i, c in sorted(u.items())]
    return " + ".join(parts) if parts else "0"


def dga_homology(A):
    """Homology of (A, d) per degree that has basis elements:
    degree -> SubquotientBasis.  Any other degree has zero homology."""
    out = {}
    for q in sorted(set(A.degrees)):
        d_in = {i: A.d(i) for i in A.basis_of_degree(q - 1)}
        d_out = {i: A.d(i) for i in A.basis_of_degree(q)}
        out[q] = homology(d_in, d_out)
    return out


def _pairing_nondegenerate(A, hom, q):
    """Whether orientation(x ∧ y) pairs H^q with H^{top - q} perfectly.

    hom is dga_homology(A); degrees outside it have zero homology, and two
    zero groups pair perfectly.
    """
    left = hom.get(q)
    right = hom.get(A.top_degree - q)
    lreps = left.representatives if left else []
    rreps = right.representatives if right else []
    cols = {jj: {ii: val for ii, lv in enumerate(lreps)
                 if (val := A.orient(A.wedge(lv, rv)))}
            for jj, rv in enumerate(rreps)}
    return len(lreps) == len(rreps) and column_rank(cols) == len(lreps)


def _truncated_polynomial(d, h, label):
    """Q[x]/(x^{h+1}) with |x| = d: basis 1, x, x2, ..., xh.

    Graded commutative when d is even or h = 1."""
    names = ["1"] + [("x" if k == 1 else f"x{k}") for k in range(1, h + 1)]
    product = {(i, j): {i + j: 1}
               for i in range(h + 1) for j in range(h + 1) if i + j <= h}
    return DGA(names, [d * k for k in range(h + 1)], 0, product, {}, d * h,
               orientation={h: 1}, commutative=True, label=label)


def _surface(g):
    names = ["1"] + [f"a{i}" for i in range(1, g + 1)] \
        + [f"b{i}" for i in range(1, g + 1)] + ["w"]
    degrees = [0] + [1] * (2 * g) + [2]
    w = 2 * g + 1
    product = {(0, 0): {0: 1}}
    for i in range(1, w + 1):
        product[(0, i)] = {i: 1}
        product[(i, 0)] = {i: 1}
    for i in range(1, g + 1):
        product[(i, g + i)] = {w: 1}
        product[(g + i, i)] = {w: -1}
    return DGA(names, degrees, 0, product, {}, 2,
               orientation={w: 1}, commutative=True, label=f"surface({g})")


def _torus(k):
    subsets = []
    for r in range(k + 1):
        subsets.extend(itertools.combinations(range(1, k + 1), r))
    names = ["1" if not s else "x" + "".join(str(i) for i in s)
             for s in subsets]
    degrees = [len(s) for s in subsets]
    pos = {s: i for i, s in enumerate(subsets)}
    product = {}
    for si, s in enumerate(subsets):
        for ti, t in enumerate(subsets):
            if set(s) & set(t):
                continue
            inversions = sum(1 for a in s for b in t if a > b)
            sign = -1 if inversions % 2 else 1
            product[(si, ti)] = {pos[tuple(sorted(s + t))]: sign}
    return DGA(names, degrees, 0, product, {}, k,
               orientation={len(subsets) - 1: 1}, commutative=True,
               label=f"torus({k})")


# family -> (builder, smallest parameter, largest parameter, range message)
_FAMILIES = {
    "sphere": (lambda n: _truncated_polynomial(n, 1, f"sphere({n})"),
               2, math.inf, "sphere(n) needs n >= 2"),
    "complex_projective": (
        lambda n: _truncated_polynomial(2, n, f"complex_projective({n})"),
        1, math.inf, "complex_projective(n) needs n >= 1"),
    "surface": (_surface, 1, math.inf, "surface(g) needs g >= 1"),
    "torus": (_torus, 1, 9, "torus(k) supported for 1 <= k <= 9"),
}


def builtin_model(model_id):
    """The builtin model named by a colon id: sphere:n, complex_projective:n,
    surface:g, torus:k, or acyclic_extension:<base id>, e.g.
    "acyclic_extension:surface:1"."""
    family, colon, rest = model_id.partition(":")
    if family == "acyclic_extension":
        if not colon:
            raise ModelError("acyclic_extension takes a base id, "
                             "e.g. acyclic_extension:sphere:3")
        return acyclic_extension(builtin_model(rest))
    if family not in _FAMILIES:
        raise ModelError(f"unknown builtin model {family!r}")
    try:
        params = [int(p) for p in rest.split(":")] if colon else []
    except ValueError:
        raise ModelError(f"invalid parameters in {model_id!r}") from None
    if len(params) != 1:
        raise ModelError(f"{family} takes exactly one integer parameter")
    build, lo, hi, message = _FAMILIES[family]
    n = params[0]
    if not lo <= n <= hi:
        raise ModelError(message)
    return build(n)


def tensor_product(A, B, label):
    """The graded tensor product A ⊗ B.

    Basis is B-major: a⊗b sits at index a + b·A.dim.  a⊗1 keeps a's name,
    1⊗b keeps b's, and a⊗b is named "a.b".  Products carry the Koszul
    sign (a1⊗b1)(a2⊗b2) = (-1)^{|b1||a2|} a1a2⊗b1b2, the differential is
    d(a⊗b) = da⊗b + (-1)^{|a|} a⊗db, the top degrees add, and the
    orientation is the product of the factors' (none if either has none).
    """
    n = A.dim
    names, degrees = [], []
    for b in range(B.dim):
        for a in range(n):
            names.append(A.names[a] if b == B.unit else
                         B.names[b] if a == A.unit else
                         f"{A.names[a]}.{B.names[b]}")
            degrees.append(A.degrees[a] + B.degrees[b])

    product = {}
    for (a1, a2), img_a in A.product.items():
        for (b1, b2), img_b in B.product.items():
            sign = -1 if (B.degrees[b1] * A.degrees[a2]) % 2 else 1
            product[(a1 + b1 * n, a2 + b2 * n)] = {
                k + l * n: sign * c * e
                for l, e in img_b.items() for k, c in img_a.items()}

    differential = {}
    for b in range(B.dim):
        for a in range(n):
            img = {k + b * n: c for k, c in A.d(a).items()}
            sign = -1 if A.degrees[a] % 2 else 1
            for l, e in B.d(b).items():
                acc(img, a + l * n, sign * e)
            differential[a + b * n] = img

    orientation = None
    if A.orientation is not None and B.orientation is not None:
        orientation = {a + b * n: c * e for b, e in B.orientation.items()
                       for a, c in A.orientation.items()}
    return DGA(names, degrees, A.unit + B.unit * n, product, differential,
               A.top_degree + B.top_degree, orientation=orientation,
               commutative=A.commutative and B.commutative, label=label)


def acyclic_extension(base):
    """base ⊗ span(1, e, de) with |e| = top_degree + 1.

    The factor is contractible and oriented on its unit, so the extension
    keeps the homology (dimension-wise per degree) and the top degree
    while enlarging the algebra.  e and f are renamed e2, f2 (then e3,
    f3, ...) when the base already uses either name, as a nested
    extension does.
    """
    t = base.top_degree
    taken = set(base.names)
    suffixes = itertools.chain([""], map(str, itertools.count(2)))
    suffix = next(s for s in suffixes if not {"e" + s, "f" + s} & taken)
    factor = DGA(["1", "e" + suffix, "f" + suffix], [0, t + 1, t + 2], 0,
                 {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                  (1, 0): {1: 1}, (2, 0): {2: 1}},
                 {1: {2: 1}}, 0, orientation={0: 1}, label="contractible")
    return tensor_product(base, factor, f"acyclic_extension({base.label})")
