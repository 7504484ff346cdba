"""Run one workload once in this fresh process and print its record.

    python3 bench/child.py --workload ring --seed 1 [--trace] [--smoke]
        [--setup-only] [--index 0]

Started by run.py, one child at a time.  A speed.Sampler runs
throughout, so every time is given at the reference speed.  The clock
starts before `import looptop`, which is loaded from the checkout's src/
directory and nowhere else.  The record is one JSON line on stdout.
With --trace the layers are wrapped, the spans are written to
bench/.out/ (the last traced child's overwrite earlier ones), and the
record carries the per-layer metrics.  With --setup-only it times the
setup phase alone, so a run can take more setup samples than it has
children.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="time only the setup phase")
    ap.add_argument("--index", type=int, default=0)
    args = ap.parse_args()
    with open(BENCH / "expected.json") as fh:
        expected = json.load(fh)["smoke" if args.smoke else "full"]

    sys.path.insert(0, str(SRC))
    with speed.Sampler() as sampler:
        record = measure(args, expected, sampler)
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    # skip interpreter teardown: freeing millions of cached words takes
    # longer than the run's own checks
    os._exit(0)


def measure(args, expected, sampler):
    """Time the setup alone, or run the workload; returns the record."""
    start = sampler.mark()
    import looptop
    import_s = sampler.since(start)
    if not Path(looptop.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"looptop was imported from {looptop.__file__}, not {SRC}")

    import workloads

    if args.setup_only:
        model = workloads.PARAMS["smoke" if args.smoke else "full"][
            args.workload]["model"]
        _, model_s, passed = workloads.setup_model(model, sampler)
        return {"setup_s": import_s + model_s, "attempted": 1,
                "failed": int(not passed),
                "failures": [] if passed else [f"{model} fails validation"]}

    tracer = None
    if args.trace:
        import tracing
        run_id = f"{args.workload}.{args.seed}.{args.index}"
        tracer = tracing.Tracer(run_id).install()
    record = workloads.run_workload(args.workload, args.seed, args.smoke,
                                    expected, sampler, start, import_s)
    if tracer is not None:
        tracer.restore()
        layers, calls = tracer.metrics()
        missing = tracing.unexercised(args.workload, calls)
        record["attempted"] += 1
        if missing:
            record["failed"] += 1
            record["failures"].append(f"spans never recorded: {missing}")
        record["layers"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.tsv")
    return record


if __name__ == "__main__":
    main()
