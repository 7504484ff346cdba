"""Benchmark of looptop: three workloads, timed end to end and per layer.

    python3 bench/run.py --workload {ring,slice,bracket} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Each workload runs in fresh child processes (bench/child.py), one at a
time, each with its own PYTHONHASHSEED, until at least three children have
run and another would not end within --seconds.  With --trace 0 the
children run untraced and the end-to-end metrics are medians over them
(query latency percentiles pool every child's queries); their times are
given at the reference speed of bench/speed.py.  With --trace 1 untraced
and traced children alternate; the per-layer metrics are medians over
the traced ones, and trace.overhead_frac compares the two kinds.

Every line but the last is a human-readable report: the run environment,
one line per child, the problem sizes, exact counts, and each metric with
its unit.  The last line is one JSON object with keys correct, attempted,
failed and metrics.  A crashed or timed-out child, a wrong answer, a
digest or size mismatch, and exact counts that differ between traced
children all count as failed checks.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, EXACT, LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"

WORKLOADS = ("ring", "slice", "bracket")
MIN_CHILDREN = 3
MIN_TRACED_CHILDREN = 4  # untraced, traced, traced, untraced
SETUPS_PER_CHILD = 2  # extra setup-only children before each untraced one
DEADLINE_S = 170  # the whole run, children included


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "loadavg": os.getloadavg(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    }


class Children:
    """Starts child processes one at a time and tallies their checks."""

    def __init__(self, args):
        self.args = args
        self.start = perf_counter()
        self.hash_seeds = random.Random(args.seed)
        self.records = []
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.count = 0

    def elapsed(self):
        return perf_counter() - self.start

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def run(self, *flags):
        """Run one child; returns its record, or None after counting the
        crash or timeout as a failed check."""
        args, index = self.args, self.count
        self.count += 1
        hash_seed = self.hash_seeds.randrange(1, 2 ** 32 - 1)
        cmd = [sys.executable, "-s", str(BENCH / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--index", str(index), *flags]
        if args.smoke:
            cmd.append("--smoke")
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        timeout = DEADLINE_S - self.elapsed()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.check(False, f"child {index} timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.check(False,
                       f"child {index} exited {proc.returncode}: {tail}")
            return None
        record = json.loads(lines[-1])
        record["hash_seed"] = hash_seed
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        self.problems += record["failures"]
        return record


def quantile(values, q):
    """Nearest-rank quantile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def end_to_end(records, setups):
    """Medians over children (setup_s over every setup sample); query
    percentiles and throughput pool every child's queries."""
    lat = [x for r in records for x in r["latencies_s"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "build_s": statistics.median(r["build_s"] for r in records),
        "query_p50_ms": quantile(lat, 0.5) * 1000,
        "query_p90_ms": quantile(lat, 0.9) * 1000,
        "queries_per_s": len(lat) / sum(r["query_s"] for r in records),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in records),
    }


def per_layer(traced, untraced):
    """Medians over the traced children; exact counts, which agree across
    them, are taken as they are."""
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers.update(exact_counts(traced[0]))
    layers["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1)
    return layers


def exact_counts(record):
    return {name: record["layers"][name] for name in EXACT}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, for testing the harness")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "looptop" / "__init__.py").is_file():
        sys.exit(f"no looptop sources under {ROOT / 'src'}")
    env = environment(args)
    print("# env " + json.dumps(env), flush=True)

    children = Children(args)
    minimum = MIN_TRACED_CHILDREN if args.trace else MIN_CHILDREN
    block_s = []
    while (len(children.records) < minimum
           or children.elapsed() + statistics.median(block_s)
           <= args.seconds):
        if children.elapsed() >= DEADLINE_S:
            break
        started = children.elapsed()
        # ABBA order in traced runs: untraced, traced, traced, untraced
        traced = bool(args.trace) and len(children.records) % 4 in (1, 2)
        block = []
        if not args.trace:
            for _ in range(SETUPS_PER_CHILD):
                block.append(children.run("--setup-only"))
        record = children.run("--trace") if traced else children.run()
        block.append(record)
        if None in block:
            break
        block_s.append(children.elapsed() - started)
        children.setups += block
        record["traced"] = traced
        children.records.append(record)
        print(f"# child {record_line(record)}", flush=True)

    records = children.records
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if records:
        children.check(len({json.dumps([r["sizes"], r["digest"]])
                            for r in records}) == 1,
                       "sizes or digest differ across children")
    if traced:
        children.check(len({json.dumps(exact_counts(r)) for r in traced}) == 1,
                       "exact counts differ across hash seeds")
    attempted, failed, problems = (children.attempted, children.failed,
                                   children.problems)
    for problem in problems[:20]:
        print(f"# failure: {problem}")

    metrics = {}
    if untraced:
        e2e = end_to_end(untraced, children.setups)
        print("# sizes " + json.dumps(untraced[0]["sizes"], sort_keys=True))
        print(f"# digest {untraced[0]['digest']}")
        pooled = sum(len(r["latencies_s"]) for r in untraced)
        print(f"# samples: {len(untraced)} untraced children, "
              f"{pooled} queries, {len(children.setups)} setups")
        for name, unit, _ in END_TO_END:
            print(f"# metric {name} {e2e[name]:.6g} {unit}")
        print(f"# metric fail_frac {failed / max(attempted, 1):.6g} ratio")
        if not args.trace:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
        elif traced:
            layers = per_layer(traced, untraced)
            print("# counts " + json.dumps(exact_counts(traced[0])))
            for name, unit, _ in LAYER_METRICS:
                value = layers[name]
                shown = value if name in EXACT else f"{value:.6g}"
                print(f"# layer {name} {shown} {unit}")
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit, _ in LAYER_METRICS}

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "children": records, "problems": problems,
                   "metrics": metrics}, fh)
    if not metrics:
        sys.exit("no child completed; no metrics to report")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def record_line(r):
    return (f"hash_seed={r['hash_seed']} "
            f"traced={int(r['traced'])} wall_s={r['wall_s']:.4f} "
            f"setup_s={r['setup_s']:.4f} build_s={r['build_s']:.4f} "
            f"query_s={r['query_s']:.4f} queries={len(r['latencies_s'])} "
            f"raw_wall_s={r['raw_wall_s']:.4f} "
            f"raw_p50_ms={r['raw_query_p50_ms']:.4f} "
            f"reference_ms={r['reference_ms']:.4f} "
            f"rss_mib={r['peak_rss_mib']:.1f} "
            f"failed={r['failed']}/{r['attempted']}")


if __name__ == "__main__":
    main()
