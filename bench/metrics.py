"""Names, units and directions of the benchmark's metrics.

Kept apart from the code that measures them, so the parent process can
print them without importing looptop.  Each entry is (name, unit, better).
"""

# End to end, measured with tracing off.  fail_frac is 0 on a correct run,
# so it is printed but not reported as a metric: attempted and failed
# carry it.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("build_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

# Per layer, from the traced children.  "<layer>.s" is the layer's self
# time summed over the run; "<layer>.calls" counts its spans.
SELF_TIMES = (
    "dga.build_dga", "dga.validate_dga", "bar.words_by_degree",
    "bar.bar_homology", "cochains.assemble_complex",
    "cochains.hochschild_homology", "cochains.cup", "cochains.delta_to_dual",
    "linalg.homology", "linalg.insert", "linalg.express", "duality.bracket",
    "duality.connes_B", "duality.poincare_P",
    "duality.poincare_P_chain_inverse", "duality.symplectic_basis",
    "duality.e1_term", "lattice.compare_pi1_dimensions",
)
CALLS = (
    "bar.words_by_degree", "cochains.assemble_complex", "cochains.cup",
    "cochains.delta_to_dual", "linalg.homology", "linalg.insert",
    "linalg.express", "duality.bracket", "duality.symplectic_basis",
)
# Exact counts taken by the tracing hooks, apart from bar.words_used.
TALLIES = (
    "bar.words_enumerated", "cochains.slice_dim_max", "cochains.slice_nnz",
    "cochains.cup.pairs_tried", "linalg.echelon_nnz", "linalg.max_coeff_bits",
    "linalg.rank_total",
)
COUNTS = (
    tuple((name, "bits" if name.endswith("bits") else "count", "lower")
          for name in TALLIES)
    + (("bar.words_used", "count", "lower"),)
    + tuple((f"{name}.calls", "count", "lower") for name in CALLS)
)
RATIOS = (
    ("bar.words_used_ratio", "ratio", "higher"),
    ("cochains.cup.useful_ratio", "ratio", "higher"),
)
LAYER_METRICS = (
    tuple((f"{name}.s", "s", "lower") for name in SELF_TIMES)
    + (("cochains.ring_fill.s", "s", "lower"),)
    + COUNTS + RATIOS
    + (("trace.overhead_frac", "ratio", "lower"),)
)

# Counts must repeat exactly across runs and hash seeds.
EXACT = tuple(name for name, _, _ in COUNTS)
