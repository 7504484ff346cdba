"""The three benchmark workloads, each run once inside a fresh process.

A workload has three phases, each under the clock:

  setup  -- `build_dga` on the model's JSON document, then `validate_dga`,
            which must pass (the caller times `import looptop` before it);
  build  -- the certified presentation: complexes assembled and
            eliminated, the ring table filled, bracket inputs and outputs
            built;
  query  -- read-path queries drawn from the workload seed, each timed on
            its own and checked against its known answer.

Every phase and query is timed at the reference speed of speed.py.

Every build is checked against an oracle that shares no code with the
layer under test, its problem sizes are compared with the sizes recorded
in expected.json, and its public output is hashed and compared with the
recorded digest.  Each failed check counts against the run, so a wrong or
resized answer is never read as a speed-up.  The seed draws only query
inputs; builds do not depend on it.
"""

import hashlib
import itertools
import json
import random
import resource
import statistics
from fractions import Fraction
from time import perf_counter

import speed
from looptop import bar, cochains, dga, duality, lattice

COEFFS = (-3, -2, -1, 1, 2, 3)

# Problem sizes per workload: full size for measurement, smoke for the
# harness tests.
PARAMS = {
    "full": {
        "ring": {"model": "acyclic_extension:sphere:3", "window": (-3, 8),
                 "cutoff": 9, "bar_window": (0, 12), "rounds": 120},
        "slice": {"model": "torus:2", "p": 11, "queries": 10000,
                  "reps": 3, "columns": 2},
        "bracket": {"model": "torus:2", "p": 4, "e1_weight": 6},
    },
    "smoke": {
        "ring": {"model": "acyclic_extension:sphere:3", "window": (-3, 4),
                 "cutoff": 5, "bar_window": (0, 6), "rounds": 3},
        "slice": {"model": "torus:2", "p": 6, "queries": 300,
                  "reps": 3, "columns": 2},
        "bracket": {"model": "torus:2", "p": 2, "e1_weight": 3},
    },
}

WORKLOADS = tuple(PARAMS["full"])


class Checker:
    """Counts attempted and failed checks; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def canonical(x):
    """A JSON value that depends only on x's value, not on dict order,
    hash seed, or whether a whole number is stored as int or Fraction."""
    if isinstance(x, dict):
        items = [[canonical(k), canonical(v)] for k, v in x.items()]
        items.sort(key=lambda kv: json.dumps(kv[0]))
        return {"map": items}
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        return f"{x.numerator}/{x.denominator}"
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(outputs):
    text = json.dumps(canonical(outputs), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fingerprint(columns):
    return len(columns), next(iter(columns))


class Patcher:
    """Swaps functions on modules or classes and puts them back."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, attr, wrap):
        """Replace owner.attr by wrap(original)."""
        fn = getattr(owner, attr)
        setattr(owner, attr, wrap(fn))
        self._undo.append((owner, attr, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def _after(hook):
    """Wrapper maker: call the function, then hook(args, result)."""
    def wrap(fn):
        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result
        return probed
    return wrap


class SizeProbe(Patcher):
    """Reads problem sizes off the complexes a build assembles.

    For the duration of a `with` block it wraps the functions the build
    looks up -- `assemble_complex`, `hochschild_homology` and `homology`
    in cochains, `bar_slice` and `homology` in bar -- and records each
    slice's dim, nnz, cycle rank and boundary rank.  It adds one Python
    call per slice and keeps no complex alive, except the nonempty
    columns of the one slice named by `keep`.
    """

    def __init__(self, keep=None):
        super().__init__()
        self.slices = {}
        self.kept = None
        self.presentations = []
        self._keep = keep
        self._labels = {}

    def __enter__(self):
        self.patch(cochains, "assemble_complex", _after(self._on_complex))
        self.patch(cochains, "hochschild_homology",
                   _after(self._on_presentation))
        self.patch(cochains, "homology", _after(self._on_homology))
        self.patch(bar, "bar_slice", _after(self._on_bar_slice))
        self.patch(bar, "homology", _after(self._on_homology))
        return self

    def __exit__(self, *exc):
        self.restore()
        self._labels.clear()

    def _add(self, label, columns):
        self.slices[label] = {
            "dim": len(columns),
            "nnz": sum(len(col) for col in columns.values())}
        if columns:
            self._labels[_fingerprint(columns)] = label

    def _on_presentation(self, args, presentations):
        self.presentations.append(presentations)

    def _on_complex(self, args, slc):
        label = f"{slc.variant}:w{slc.weight_cutoff}:d{slc.degree}"
        self._add(label, slc.delta_columns)
        if label == self._keep:
            self.kept = [col for col in slc.delta_columns.values() if col]

    def _on_bar_slice(self, args, slc):
        self._add(f"bar:w{slc.max_weight}:d{slc.degree}", slc.d_columns)

    def _on_homology(self, args, sub):
        # homology(boundary_in, boundary_out) presents the slice that
        # boundary_out leaves from
        boundary_out = args[1]
        label = boundary_out and self._labels.get(_fingerprint(boundary_out))
        if label:
            self.slices[label]["cycle_rank"] = sub.cycle_rank
            self.slices[label]["boundary_rank"] = sub.boundary_rank


def _combine(terms):
    """sum c * vec over (c, vec) pairs, zero entries dropped."""
    out = {}
    for c, vec in terms:
        for k, x in vec.items():
            y = out.get(k, 0) + c * x
            if y:
                out[k] = y
            else:
                out.pop(k, None)
    return out


class Run:
    """One workload run: checks, timings, sizes and digest."""

    def __init__(self, name, seed, smoke, expected, sampler):
        self.name = name
        self.seed = seed
        self.params = PARAMS["smoke" if smoke else "full"][name]
        self.expected = expected.get(name)
        self.check = Checker()
        self.sampler = sampler
        self.latencies = []
        self.raw_latencies = []
        self.sizes = None
        self.digest = None

    def record(self, sizes, outputs):
        """Compare problem sizes and the output digest with expected.json."""
        self.sizes = json.loads(json.dumps(sizes))
        self.digest = digest(outputs)
        rec = self.expected or {}
        want = rec.get("sizes") or {}
        keys = sorted(k for k in set(self.sizes) | set(want)
                      if want.get(k) != self.sizes.get(k))
        self.check(not keys, f"sizes differ from expected.json: {keys}")
        self.check(rec.get("digest") == self.digest,
                   f"output digest {self.digest} differs from expected.json")

    def queries(self, items, answer):
        """Time answer(inputs) alone for each (inputs, want) item, then
        compare with want.  An exception counts as a wrong answer.

        Each latency is kept raw and at the reference speed of the
        samples around it (see speed.py)."""
        spans = []
        for i, (inputs, want) in enumerate(items):
            mark = self.sampler.mark()
            try:
                got = answer(inputs)
            except Exception as exc:  # a crash is a failed query
                got = exc
            spans.append((mark[0], *self.sampler.net(mark)))
            self.check(got == want, f"query {i}: got {got!r}, want {want!r}")
        for t0, seconds, t1 in spans:
            self.raw_latencies.append(seconds)
            self.latencies.append(
                self.sampler.scale(t0, t1, seconds, speed.QUERY_PAD_S))


def setup_model(model_id, sampler):
    """build_dga on the generated document, then validate_dga.

    Returns (model, seconds at the reference speed, passed); the document
    is generated from the builtin model before the clock starts.
    """
    doc = json.loads(json.dumps(dga.dga_to_doc(dga.builtin_model(model_id))))
    mark = sampler.mark()
    A = dga.build_dga(doc)
    report = dga.validate_dga(A)
    return A, sampler.since(mark), report.passed


# --- ring: loop homology ring and bar homology of a nonzero-d model -------

def _sphere3_loop_betti(n):
    """H_{*+3}(L S^3) = Λ(x_3) ⊗ Q[u_2]: rank 1 in degrees 0, 2, 3, ..."""
    return 1 if n == -3 or n >= -1 else 0


def _sphere3_bar_betti(n):
    """H_*(Ω S^3) = Q[u_2]: rank 1 in every even degree."""
    return 1 if n >= 0 and n % 2 == 0 else 0


def build_ring(run, A):
    P = run.params
    lo, hi = P["window"]
    blo, bhi = P["bar_window"]
    with SizeProbe() as probe:
        L = cochains.loop_homology(A, P["window"], P["cutoff"])
        B = bar.bar_homology(A, P["bar_window"], P["cutoff"])
    for n in range(lo, hi + 1):
        run.check(L.betti[n] == _sphere3_loop_betti(n),
                  f"loop betti {n}: {L.betti[n]}")
    for n in range(blo, bhi + 1):
        run.check(B[n].betti == _sphere3_bar_betti(n),
                  f"bar betti {n}: {B[n].betti}")
    pairs = [key for key, entry in sorted(L.ring.items()) if entry is not None]
    sizes = {"slices": probe.slices,
             "betti": {f"loop:d{n}": L.betti[n] for n in range(lo, hi + 1)}
             | {f"bar:d{n}": B[n].betti for n in range(blo, bhi + 1)},
             "ring_entries": len(L.ring),
             "queries": P["rounds"] * len(pairs)}
    outputs = {"loop": {n: [L.betti[n], L.exact[n],
                            [r.entries for r in L.representatives[n]]]
                        for n in range(lo, hi + 1)},
               "ring": L.ring,
               "bar": {n: [p.betti, p.exact, p.representatives]
                       for n, p in B.items()}}
    return sizes, outputs, (L, pairs)


def query_ring(run, A, state):
    """(c1·h_a) ∪ (c2·h_b) must express as c1·c2 times the table entry."""
    L, pairs = state
    cutoff = run.params["cutoff"]
    rng = random.Random(run.seed)

    def items():
        for _ in range(run.params["rounds"]):
            order = list(pairs)
            rng.shuffle(order)
            for ka, kb in order:
                c1, c2 = rng.choice(COEFFS), rng.choice(COEFFS)
                x = L.class_cochain(*ka).scale(c1)
                y = L.class_cochain(*kb).scale(c2)
                want = {k: c1 * c2 * c for k, c in L.ring[(ka, kb)].items()}
                yield (x, y), want

    run.queries(items(), lambda xy: L.express(cochains.cup(A, *xy, cutoff)))


# --- slice: one large dual H0 slice of the two-torus -----------------------

def build_slice(run, A):
    p = run.params["p"]
    want = p * (p + 1) // 2  # dim Q[Z^2] / J^p, counted by monomials
    with SizeProbe(keep=f"to_dual:w{p - 1}:d1") as probe:
        report = lattice.compare_pi1_dimensions(p, A=A)
    pres = probe.presentations[-1][0]
    run.check(report.match, f"pi1 report does not match: {report!r}")
    run.check(report.group_ring_dim == want, f"group ring dim {report!r}")
    run.check(pres.betti == want, f"H0 betti {pres.betti}, want {want}")
    sizes = {"slices": probe.slices, "betti": pres.betti,
             "boundary_columns": len(probe.kept),
             "queries": run.params["queries"]}
    outputs = {"report": [report.p, report.weight_cutoff,
                          report.group_ring_dim, report.h0_dim],
               "representatives": pres.representatives}
    return sizes, outputs, (pres, probe.kept)


def query_slice(run, A, state):
    """Σ cᵢ·repᵢ + Σ dⱼ·(boundary column) must express as {i: cᵢ}"""
    pres, columns = state
    reps = pres.representatives
    rng = random.Random(run.seed)

    def items():
        for _ in range(run.params["queries"]):
            picked = rng.sample(range(len(reps)), run.params["reps"])
            coeffs = {i: rng.choice(COEFFS) for i in picked}
            terms = [(c, reps[i]) for i, c in coeffs.items()]
            terms += [(rng.choice(COEFFS), columns[j]) for j in
                      rng.sample(range(len(columns)), run.params["columns"])]
            yield _combine(terms), coeffs

    run.queries(items(), pres.express)


# --- bracket: Jacobi and antisymmetry sweeps on the two-torus ---------------

def _torus_h0_dim(cutoff):
    return (cutoff + 1) * (cutoff + 2) // 2


def build_bracket(run, A):
    p = run.params["p"]
    window = 3 * p - 4
    with SizeProbe() as probe:
        h_cls = cochains.hochschild_homology(A, "to_dual", (0, 0), p)[0]
        h_win = cochains.hochschild_homology(A, "to_dual", (0, 0), window)[0]
        e1 = duality.e1_term(A, run.params["e1_weight"])
        base = [cochains.DualCochain(A, dict(v), degree=0)
                for v in h_cls.representatives]
        table = [[h_win.express(duality.bracket(A, x, y, p, p).entries)
                  for y in base] for x in base]
    run.check(e1.match, f"e1_term does not match: {e1!r}")
    run.check(h_cls.betti == _torus_h0_dim(p), f"H0 at {p}: {h_cls.betti}")
    run.check(h_win.betti == _torus_h0_dim(window),
              f"H0 at {window}: {h_win.betti}")
    run.check(all(e is not None for row in table for e in row),
              "a bracket of two classes is not a cocycle")
    n = len(base)
    sizes = {"slices": probe.slices,
             "betti": {f"h0:w{p}": h_cls.betti, f"h0:w{window}": h_win.betti},
             "e1_dims": {str(k): v for k, v in e1.quotient_dims.items()},
             "queries": {"jacobi": n ** 3, "antisymmetry": n ** 2}}
    outputs = {"classes": h_cls.representatives,
               "window": h_win.representatives,
               "e1": [e1.quotient_dims, e1.formula_dims],
               "table": table}
    return sizes, outputs, (h_win, base, table)


def query_bracket(run, A, state):
    """Classes x_i = c_i·b_π(i), with the permutation π and the nonzero
    integers c_i drawn from the seed, so every seed does the same work.
    Each Jacobi sum must be a boundary; [x_i, x_j] + [x_j, x_i] must be a
    boundary and [x_i, x_j] must express as c_i·c_j times the table
    entry of b_π(i), b_π(j)."""
    h_win, base, table = state
    p = run.params["p"]
    window = 3 * p - 4
    n = len(base)
    rng = random.Random(run.seed)
    perm = rng.sample(range(n), n)
    c = [rng.choice(COEFFS) for _ in range(n)]
    x = [base[perm[i]].scale(c[i]) for i in range(n)]

    def jacobi(a, b, z):
        total = None
        for u, v, w in ((a, b, z), (b, z, a), (z, a, b)):
            inner = duality.bracket(A, x[u], x[v], p, p)
            term = duality.bracket(A, inner, x[w], 2 * p - 2, p,
                                   eval_cutoff=window)
            total = term if total is None else total.add(term)
        return h_win.is_boundary(total.entries)

    def antisymmetry(i, j):
        s = duality.bracket(A, x[i], x[j], p, p)
        t = duality.bracket(A, x[j], x[i], p, p)
        return h_win.is_boundary(s.add(t).entries), h_win.express(s.entries)

    order = [(jacobi, t) for t in itertools.product(range(n), repeat=3)]
    order += [(antisymmetry, t) for t in itertools.product(range(n), repeat=2)]
    rng.shuffle(order)

    def items():
        for check, idx in order:
            if check is jacobi:
                yield (check, idx), True
            else:
                i, j = idx
                entry = table[perm[i]][perm[j]]
                yield (check, idx), (True, {k: c[i] * c[j] * v
                                            for k, v in entry.items()})

    run.queries(items(), lambda query: query[0](*query[1]))


BUILDS = {"ring": (build_ring, query_ring),
          "slice": (build_slice, query_slice),
          "bracket": (build_bracket, query_bracket)}


def run_workload(name, seed, smoke, expected, sampler, start, import_s):
    """Run one workload in this process and return its result record.

    sampler is a running speed.Sampler, start its mark taken before
    `import looptop` and import_s the import's duration, so setup and
    wall time include the import.  Every time in the record is at the
    reference speed, except those named raw_.
    """
    run = Run(name, seed, smoke, expected, sampler)
    build, query = BUILDS[name]
    A, model_s, passed = setup_model(run.params["model"], sampler)
    run.check(passed, f"validate_dga failed on {run.params['model']}")

    mark = sampler.mark()
    sizes, outputs, state = build(run, A)
    build_s = sampler.since(mark)
    run.record(sizes, outputs)

    mark = sampler.mark()
    query(run, A, state)
    query_s = sampler.since(mark)
    wall_s = sampler.since(start)
    raw_wall_s = perf_counter() - start[0]

    return {
        "workload": name, "seed": seed, "smoke": smoke,
        "wall_s": wall_s, "setup_s": import_s + model_s, "build_s": build_s,
        "query_s": query_s, "latencies_s": run.latencies,
        "raw_wall_s": raw_wall_s,
        "raw_query_p50_ms": statistics.median(run.raw_latencies) * 1000,
        "reference_ms": statistics.median(sampler.reference_ms),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.check.attempted, "failed": run.check.failed,
        "failures": run.check.messages,
        "sizes": run.sizes, "digest": run.digest,
    }
