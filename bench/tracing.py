"""Per-layer tracing of looptop, installed from the benchmark's side.

A wrapper goes wherever a function is looked up: each module that
imported a function by name gets its own wrapper, and methods are wrapped
on their class.  Each call records a span (name, start, end, parent) in
memory; spans are written out when the run ends.  A layer's self time is
the sum over its spans of the duration minus the direct child spans.

Counts are taken at the same boundaries and kept apart from timings:
they must repeat exactly from run to run and across hash seeds.
"""

from time import perf_counter

from looptop import bar, cochains, dga, duality, lattice, linalg

from metrics import CALLS, SELF_TIMES, TALLIES
from workloads import Patcher

# (owner, attribute, span name): one row per place a function is looked up.
SITES = (
    (dga, "build_dga", "dga.build_dga"),
    (dga, "validate_dga", "dga.validate_dga"),
    (dga, "homology", "linalg.homology"),
    (bar, "words_by_degree", "bar.words_by_degree"),
    (bar, "bar_slice", "bar.bar_slice"),
    (bar, "bar_homology", "bar.bar_homology"),
    (bar, "homology", "linalg.homology"),
    (cochains, "words_by_degree", "bar.words_by_degree"),
    (cochains, "assemble_complex", "cochains.assemble_complex"),
    (cochains, "hochschild_homology", "cochains.hochschild_homology"),
    (cochains, "loop_homology", "cochains.loop_homology"),
    (cochains, "cup", "cochains.cup"),
    (cochains, "delta_to_dual", "cochains.delta_to_dual"),
    (cochains, "homology", "linalg.homology"),
    (duality, "words_by_degree", "bar.words_by_degree"),
    (duality, "assemble_complex", "cochains.assemble_complex"),
    (duality, "cup", "cochains.cup"),
    (duality, "delta_to_dual", "cochains.delta_to_dual"),
    (duality, "homology", "linalg.homology"),
    (duality, "bracket", "duality.bracket"),
    (duality, "connes_B", "duality.connes_B"),
    (duality, "poincare_P", "duality.poincare_P"),
    (duality, "poincare_P_chain_inverse", "duality.poincare_P_chain_inverse"),
    (duality, "symplectic_basis", "duality.symplectic_basis"),
    (duality, "e1_term", "duality.e1_term"),
    (lattice, "compare_pi1_dimensions", "lattice.compare_pi1_dimensions"),
    (linalg.Echelon, "insert", "linalg.insert"),
    (linalg.SubquotientBasis, "express", "linalg.express"),
)

# Spans each workload must record at least once; zero calls means a
# wrapper sits where the program no longer looks the function up.
EXERCISED = {
    "ring": ("dga.build_dga", "dga.validate_dga", "bar.words_by_degree",
             "bar.bar_homology", "cochains.assemble_complex",
             "cochains.hochschild_homology", "cochains.loop_homology",
             "cochains.cup", "linalg.homology", "linalg.insert",
             "linalg.express"),
    "slice": ("dga.build_dga", "dga.validate_dga", "bar.words_by_degree",
              "lattice.compare_pi1_dimensions", "cochains.assemble_complex",
              "cochains.hochschild_homology", "linalg.homology",
              "linalg.insert", "linalg.express"),
    "bracket": ("dga.build_dga", "dga.validate_dga", "bar.words_by_degree",
                "cochains.assemble_complex", "cochains.hochschild_homology",
                "cochains.cup", "cochains.delta_to_dual", "linalg.homology",
                "linalg.insert", "linalg.express", "duality.bracket",
                "duality.connes_B", "duality.poincare_P",
                "duality.poincare_P_chain_inverse",
                "duality.symplectic_basis", "duality.e1_term"),
}


def _echelons(obj, depth=3):
    """Echelon objects reachable from obj through instance attributes."""
    if isinstance(obj, linalg.Echelon):
        yield obj
    elif depth and hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _echelons(value, depth - 1)


def _bits(x):
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer(Patcher):
    """Spans and counts for one traced run; `install` patches looptop,
    `restore` puts it back."""

    def __init__(self, run_id):
        super().__init__()
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._tables = {}
        self.words_used = set()
        self.counts = dict.fromkeys(TALLIES, 0)
        self.cup_entries = 0
        self._hooks = {
            "bar.words_by_degree": self._on_words,
            "bar.bar_slice": self._on_bar_slice,
            "cochains.assemble_complex": self._on_complex,
            "cochains.cup": self._on_cup,
            "linalg.homology": self._on_homology,
        }

    def install(self):
        """Wrap every site that exists; a site a later refactor removed is
        skipped, and `unexercised` reports a layer left with no spans."""
        for owner, attr, name in SITES:
            if hasattr(owner, attr):
                self.patch(owner, attr,
                           self._spanned(name, self._hooks.get(name)))
        return self

    def _spanned(self, name, hook):
        spans, stack = self.spans, self._stack

        def wrap(fn):
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else -1
                rec = [name, 0.0, 0.0, parent]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                if hook is not None:
                    # the hook's own span keeps its cost out of the
                    # caller's self time
                    start = perf_counter()
                    hook(args, result)
                    spans.append(["trace.hook", start, perf_counter(), parent])
                return result
            return traced
        return wrap

    # --- counts, taken where the work happens ---

    def _on_words(self, args, table):
        if id(table) not in self._tables:
            self._tables[id(table)] = table  # keeps the id from being reused
            enumerated = sum(map(len, table.values()))
            self.counts["bar.words_enumerated"] += enumerated

    def _on_bar_slice(self, args, slc):
        self.words_used.update(slc.basis)

    def _on_complex(self, args, slc):
        self.words_used.update(key[0] for key in slc.basis)
        c = self.counts
        c["cochains.slice_dim_max"] = max(c["cochains.slice_dim_max"], slc.dim)
        c["cochains.slice_nnz"] += sum(map(len, slc.delta_columns.values()))

    def _on_cup(self, args, result):
        phi1, phi2 = args[1], args[2]
        self.counts["cochains.cup.pairs_tried"] += (
            len(phi1.entries) * len(phi2.entries))
        self.cup_entries += len(result.entries)

    def _on_homology(self, args, sub):
        c = self.counts
        c["linalg.rank_total"] += sub.boundary_rank
        for ech in _echelons(sub):
            for row in ech.rows.values():
                c["linalg.echelon_nnz"] += len(row.vec) + len(row.combo)
                for x in (*row.vec.values(), *row.combo.values()):
                    c["linalg.max_coeff_bits"] = max(
                        c["linalg.max_coeff_bits"], _bits(x))

    # --- results ---

    def metrics(self):
        """Per-layer metrics of this run (all but trace.overhead_frac)."""
        self_s, calls = {}, {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        ring_fill = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "cochains.hochschild_homology" and parent >= 0:
                outer = self.spans[parent]
                if outer[0] == "cochains.loop_homology":
                    ring_fill -= end - start
            elif name == "cochains.loop_homology":
                ring_fill += end - start
        out = {f"{name}.s": self_s.get(name, 0.0) for name in SELF_TIMES}
        out["cochains.ring_fill.s"] = ring_fill
        out.update(self.counts)
        out["bar.words_used"] = len(self.words_used)
        out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
        enumerated = out["bar.words_enumerated"]
        out["bar.words_used_ratio"] = (
            out["bar.words_used"] / enumerated if enumerated else 0.0)
        tried = out["cochains.cup.pairs_tried"]
        out["cochains.cup.useful_ratio"] = (
            self.cup_entries / tried if tried else 0.0)
        return out, calls

    def write(self, path):
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as fh:
            fh.write("run_id\tindex\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id}\t{i}\t{name}\t{start:.9f}\t"
                         f"{end:.9f}\t{parent}\n")


def unexercised(workload, calls):
    """Span names the workload must exercise but recorded zero times."""
    return [name for name in EXERCISED[workload] if not calls.get(name)]
