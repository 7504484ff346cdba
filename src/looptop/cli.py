"""Command line interface.

Subcommands: validate, loop-homology, bar-betti, bracket, pi1-compare.
A model comes either from a JSON file argument or from --model with a
builtin id like sphere:3 or acyclic_extension:surface:1, never both.
The report commands (loop-homology, bar-betti, bracket) run
validate_dga first and refuse a model that fails it.
Exit codes: 0 success, 1 computation or validation failure, 2 usage,
3 result inconclusive because of weight truncation.  All reports are
assembled as complete strings before printing, so equal inputs produce
byte-identical output.
"""

import argparse
import json
import sys

from .dga import ModelError, build_dga, builtin_model, validate_dga
from .bar import bar_homology
from .cochains import DualCochain, hochschild_homology, loop_homology
from .duality import (BracketModelError, CycleError, NotInImageError,
                      bracket, require_chain_invertible, symplectic_basis)
from .linalg import add_scaled
from .lattice import TruncationError, compare_pi1_dimensions


class UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="looptop",
        description="Loop-space homology rings, brackets, and oracles "
                    "over finite algebra models, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("file", nargs="?", default=None,
                       help="path to a model JSON document")
        p.add_argument("--model", default=None,
                       help="builtin id, e.g. sphere:3 or torus:2")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = sub.add_parser("validate", help="check every model invariant")
    add_model_args(p)

    p = sub.add_parser("loop-homology",
                       help="Betti numbers and ring table of the to-A "
                            "cochain homology over a degree window")
    add_model_args(p)
    p.add_argument("--min", type=int, default=None, dest="min_degree")
    p.add_argument("--max", type=int, default=None, dest="max_degree")
    p.add_argument("--cutoff", type=int, default=None,
                   help="weight cutoff (default: max degree + 1 + top; "
                        "required for models with degree-1 generators)")

    p = sub.add_parser("bar-betti",
                       help="bar homology Betti numbers per degree")
    add_model_args(p)
    p.add_argument("--min", type=int, default=0, dest="min_degree")
    p.add_argument("--max", type=int, default=None, dest="max_degree")
    p.add_argument("--max-weight", type=int, default=None,
                   help="weight cutoff (default: max degree; required "
                        "for models with degree-1 generators)")

    p = sub.add_parser("bracket",
                       help="bracket table of degree-0 dual classes "
                            "(columns: class1, class2, filtration, "
                            "expansion in the output basis)")
    add_model_args(p)
    p.add_argument("--p", type=int, default=2,
                   help="weight filtration of the input classes")

    p = sub.add_parser("pi1-compare",
                       help="group-ring quotient dims vs truncated H0")
    p.add_argument("--p", type=int, default=3,
                   help="largest ideal power to compare")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    return parser


def _load_model(args):
    if args.model and args.file:
        raise UsageError("give either a model file or --model, not both")
    if args.model:
        try:
            return builtin_model(args.model)
        except ModelError as exc:
            raise UsageError(str(exc)) from exc
    if args.file:
        try:
            with open(args.file) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ModelError(f"cannot read {args.file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ModelError(f"{args.file} is not valid JSON: {exc}") from exc
        return build_dga(doc)
    raise UsageError("a model file or --model is required")


def _load_valid_model(args):
    """The model, refused with a ModelError naming the violated rules when
    it fails validate_dga: reports on an invalid model mean nothing."""
    A = _load_model(args)
    report = validate_dga(A)
    if not report.passed:
        raise ModelError(f"model {A.label} fails validation: "
                         + ", ".join(report.rules))
    return A


def _weight_cutoff(A, value, name, default):
    """The weight cutoff given as --name, or default when it is absent.

    A negative cutoff is refused.  So is the default on a model with
    degree-1 generators: no weight is exact there, and words of every
    length share a degree, so the default enumeration grows without
    bound."""
    if value is None:
        if not A.simply_connected:
            raise UsageError(
                f"model {A.label} has degree-1 generators, so no weight "
                f"cutoff is exact; give --{name}")
        return default
    if value < 0:
        raise UsageError(f"{name} must be non-negative")
    return value


def _emit(text):
    sys.stdout.write(text)


def _json_dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n"


def _cmd_validate(args):
    A = _load_model(args)
    report = validate_dga(A)
    if args.format == "json":
        _emit(_json_dump({
            "model": A.label,
            "passed": report.passed,
            "violations": [
                {"rule": rule, "witness": list(witness), "detail": detail}
                for rule, witness, detail in report.violations]}))
    else:
        lines = [f"model\t{A.label}"]
        if report.passed:
            lines.append("OK\tall invariants hold")
        else:
            lines.append("rule\twitness\tdetail")
            for rule, witness, detail in report.violations:
                lines.append(
                    f"{rule}\t{','.join(str(w) for w in witness)}\t{detail}")
        _emit("\n".join(lines) + "\n")
    return 0 if report.passed else 1


def _cmd_loop_homology(args):
    A = _load_valid_model(args)
    lo = -A.top_degree if args.min_degree is None else args.min_degree
    hi = A.top_degree + 2 if args.max_degree is None else args.max_degree
    if lo > hi:
        raise UsageError(f"degenerate degree range {lo}..{hi}")
    cutoff = _weight_cutoff(A, args.cutoff, "cutoff",
                            max(hi + 1 + A.top_degree, 0))
    ring = loop_homology(A, (lo, hi), cutoff)
    if args.format == "json":
        obj = {
            "model": A.label,
            "cutoff": cutoff,
            "degrees": {str(n): {"betti": ring.betti[n],
                                 "exact": ring.exact[n]}
                        for n in ring.betti},
            "ring": {f"h{k1[0]}.{k1[1]}*h{k2[0]}.{k2[1]}":
                     ({f"h{n}.{k}": str(c) for (n, k), c in expr.items()}
                      if expr is not None else None)
                     for (k1, k2), expr in sorted(ring.ring.items())},
        }
        _emit(_json_dump(obj))
    else:
        _emit(f"model\t{A.label}\tcutoff\t{cutoff}\n" + ring.tsv())
    return 0 if all(ring.exact.values()) else 3


def _cmd_bar_betti(args):
    A = _load_valid_model(args)
    lo = args.min_degree
    hi = 2 * A.top_degree if args.max_degree is None else args.max_degree
    if lo > hi:
        raise UsageError(f"degenerate degree range {lo}..{hi}")
    max_weight = _weight_cutoff(A, args.max_weight, "max-weight",
                                max(hi, 0))
    hom = bar_homology(A, (lo, hi), max_weight)
    if args.format == "json":
        obj = {"model": A.label, "max_weight": max_weight,
               "degrees": {str(n): {"betti": h.betti, "exact": h.exact}
                           for n, h in hom.items()}}
        _emit(_json_dump(obj))
    else:
        lines = [f"model\t{A.label}\tmax_weight\t{max_weight}",
                 "degree\tbetti\tstatus"]
        for n in sorted(hom):
            h = hom[n]
            lines.append(
                f"{n}\t{h.betti}\t"
                f"{'exact' if h.exact else 'weight-truncated'}")
        _emit("\n".join(lines) + "\n")
    return 0 if all(h.exact for h in hom.values()) else 3


def _cmd_bracket(args):
    A = _load_valid_model(args)
    p = args.p
    if p < 1:
        raise UsageError("--p must be at least 1")
    # refuse an unsupported model before building any slice
    symplectic_basis(A)
    require_chain_invertible(A)
    inputs = hochschild_homology(A, "to_dual", (0, 0), p)[0]
    in_classes = [DualCochain(A, dict(v), degree=0)
                  for v in inputs.representatives]
    out_cut = max(2 * p - 2, 0)
    outputs = hochschild_homology(A, "to_dual", (0, 0), out_cut)[0]
    table = {}
    for i, ci in enumerate(in_classes):
        for j, cj in enumerate(in_classes):
            br = bracket(A, ci, cj, p, p)
            expr = outputs.express(br.entries)
            if expr is None:
                raise CycleError(
                    "bracket output is not a cycle in the output window")
            table[(i, j)] = expr
    antisym = all(
        not add_scaled(dict(table[(i, j)]), table[(j, i)])
        for i in range(len(in_classes)) for j in range(len(in_classes)))
    if args.format == "json":
        obj = {"model": A.label, "p": p, "output_cutoff": out_cut,
               "classes": [f"c{i}" for i in range(len(in_classes))],
               "antisymmetric": antisym,
               "table": {f"c{i},c{j}":
                         {f"e{k}": str(c) for k, c in sorted(expr.items())}
                         for (i, j), expr in sorted(table.items())}}
        _emit(_json_dump(obj))
    else:
        lines = [f"model\t{A.label}\tp\t{p}\toutput_cutoff\t{out_cut}",
                 "class1\tclass2\tfiltration\texpansion"]
        for (i, j), expr in sorted(table.items()):
            parts = [f"{c}*e{k}" for k, c in sorted(expr.items())]
            lines.append(f"c{i}\tc{j}\t{p}\t"
                         f"{'+'.join(parts) if parts else '0'}")
        lines.append(f"antisymmetry\t{'ok' if antisym else 'FAIL'}")
        _emit("\n".join(lines) + "\n")
    return 0 if antisym else 1


def _cmd_pi1_compare(args):
    if args.p < 1:
        raise UsageError("--p must be at least 1")
    reports = [compare_pi1_dimensions(p) for p in range(1, args.p + 1)]
    if args.format == "json":
        obj = {"rows": [{"p": r.p, "group_ring_dim": r.group_ring_dim,
                         "h0_dim": r.h0_dim, "match": r.match}
                        for r in reports]}
        _emit(_json_dump(obj))
    else:
        lines = ["p\tgroup_ring_dim\th0_dim\tmatch"]
        for r in reports:
            lines.append(f"{r.p}\t{r.group_ring_dim}\t{r.h0_dim}\t"
                         f"{'ok' if r.match else 'FAIL'}")
        _emit("\n".join(lines) + "\n")
    return 0 if all(r.match for r in reports) else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "loop-homology": _cmd_loop_homology,
    "bar-betti": _cmd_bar_betti,
    "bracket": _cmd_bracket,
    "pi1-compare": _cmd_pi1_compare,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except TruncationError as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 3
    except (ModelError, BracketModelError, CycleError,
            NotInImageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
