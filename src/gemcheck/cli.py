"""Command-line entry point for batch verification runs.

Subcommands:

* ``check``        evaluate a theory on one structure literal file
* ``equiv``        verify the definitional equivalence exhaustively
* ``lemmas``       check every lemma obligation on all models of its theory
* ``models``       list the models of a theory at one size
* ``countermodel`` search for a structure separating a theory from a target
* ``export``       write TPTP problem files for the lemma obligations

Each subcommand renders a report built by :mod:`gemcheck.search`.

Exit codes: 0 success, 1 obligation failure, 2 a usage error (bad flags,
an unknown theory, obligation or lemma name), a malformed structure file,
or a file that cannot be opened or decoded, 3 capacity exceeded.  Any
other exception is a bug and propagates.  ``--format json`` output is
byte-stable across runs and worker counts; every JSON report gains
``elapsed_ms`` with ``--timings``, and only then.
"""

from __future__ import annotations

import argparse
import sys

from . import export as export_mod
from . import search, structures, theory
from .structures import CapacityError, StructureFormatError
from .structures import induced_fusion  # noqa: F401 -- a boundary perfbench/tracing.py wraps
from .syntax import ParseError

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_CAPACITY = 0, 1, 2, 3
DEFAULT_BOUNDS = search.SearchBounds()


def _bounds(args, **fields) -> search.SearchBounds:
    return search.SearchBounds(max_n_part=args.max_part, max_n_fusion=args.max_fusion,
                               **fields)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(search.report_json(payload))
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    with open(args.structure) as fh:
        s = structures.load_structure(fh.read())
    t = theory.theory_by_name(args.theory)
    report = search.check_theory(s, t)
    lines = [f"structure: {report.structure}", f"theory: {t.name}"]
    for r in report.results:
        mark = "pass" if r.passed else "FAIL"
        extra = ""
        if r.witness is not None:
            extra = f"  witness {search._witness_dict(r.witness)}"
        lines.append(f"  {r.name:<10} {mark}{extra}")
    _emit(args, report.to_dict(timings=args.timings), "\n".join(lines) + "\n")
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_equiv(args) -> int:
    rep = search.verify_equivalence(_bounds(args, seed=args.seed), workers=args.workers)
    lines = ["definitional equivalence check"]
    for row in rep.part_rows:
        lines.append(
            f"  part   n={row['n']}: {row['models']}/{row['candidates']} models, "
            f"fusion axioms {row['fusion_axioms_pass']}, def_pf {row['def_pf_pass']}, "
            f"round trip {row['round_trip_pass']}")
    for row in rep.fusion_rows:
        lines.append(
            f"  fusion n={row['n']}: {row['models']}/{row['candidates']} models, "
            f"part axioms {row['part_axioms_pass']}, def_uf {row['def_uf_pass']}, "
            f"round trip {row['round_trip_pass']}, "
            f"empty-plurality models {row['with_empty_plurality']}")
    lines.append(f"violations: {len(rep.violations)}")
    _emit(args, rep.to_dict(timings=args.timings), "\n".join(lines) + "\n")
    return EXIT_OK if rep.all_ok else EXIT_FAIL


def cmd_lemmas(args) -> int:
    rep = search.verify_lemmas(_bounds(args), args.canonical_k, name=args.name,
                               workers=args.workers)
    lines = [f"{r['name']:<10} [{r['side']}] "
             f"{'pass' if r['passed'] else 'FAIL'} "
             f"({r['models_checked']} models)" for r in rep.rows]
    _emit(args, rep.to_dict(timings=args.timings), "\n".join(lines) + "\n")
    return EXIT_OK if rep.all_passed else EXIT_FAIL


def cmd_models(args) -> int:
    rep = search.list_models(args.kind, args.n, theory.theory_by_name(args.theory),
                             seed=args.seed, workers=args.workers)
    text = "\n".join(rep.structures + (f"{len(rep.structures)} models",)) + "\n"
    _emit(args, rep.to_dict(timings=args.timings), text)
    return EXIT_OK


def cmd_countermodel(args) -> int:
    base = theory.theory_by_name(args.theory)
    for name in args.drop or []:
        base = base.drop(name)
    try:
        target = base.get(args.target)
    except theory.UnknownNameError:
        target = theory.find_named(args.target, "gem_p" if args.kind == "part" else "gem_f")
    bounds = search.SearchBounds(max_n_part=args.max_n, max_n_fusion=args.max_n,
                                 random_samples=args.samples, seed=args.seed)
    res = search.find_countermodel(args.kind, base, target, bounds,
                                   strategy=args.strategy, workers=args.workers)
    text = f"{res.verdict}\n"
    if res.structure is not None:
        text += structures.dump_structure(res.structure)
    _emit(args, res.to_dict(timings=args.timings), text)
    return EXIT_OK


def cmd_export(args) -> int:
    if args.all:
        paths = export_mod.emit_all(args.out)
        sys.stdout.write("".join(f"{p}\n" for p in paths))
        return EXIT_OK
    if args.name is None:
        sys.stderr.write("export needs --all or --name\n")
        return EXIT_USAGE
    nf = theory.lemma_suite().get(args.name)
    text = export_mod.emit_obligation(nf.name, theory.theory_by_name(nf.side), nf)
    if args.out:
        from pathlib import Path
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{nf.name}.p").write_text(text)
        sys.stdout.write(f"{out / (nf.name + '.p')}\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_common(p, seed=True, workers=True):
    p.add_argument("--format", choices=("text", "json"), default="text")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_BOUNDS.seed)
    p.add_argument("--timings", action="store_true",
                   help="include elapsed_ms in JSON output (nondeterministic)")
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help="processes for the model scan (default 1)")


def _add_size_bounds(p):
    p.add_argument("--max-part", type=int, default=DEFAULT_BOUNDS.max_n_part)
    p.add_argument("--max-fusion", type=int, default=DEFAULT_BOUNDS.max_n_fusion)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gemcheck", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a structure file against a theory")
    p.add_argument("structure")
    p.add_argument("theory", choices=theory.theory_names())
    _add_common(p, seed=False, workers=False)
    p.set_defaults(fn=cmd_check, workers=1)

    p = sub.add_parser("equiv", help="verify the definitional equivalence")
    _add_size_bounds(p)
    _add_common(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("lemmas", help="check the lemma obligations")
    _add_size_bounds(p)
    p.add_argument("--canonical-k", type=int, default=3,
                   help="also check on the canonical model of this many atoms (0 disables)")
    p.add_argument("--name", help="check a single lemma")
    _add_common(p, seed=False)
    p.set_defaults(fn=cmd_lemmas)

    p = sub.add_parser("models", help="list models of a theory at one size")
    p.add_argument("--kind", choices=("part", "fusion"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theory", required=True, choices=theory.theory_names())
    _add_common(p)
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("countermodel",
                       help="search for a model of a theory falsifying a target")
    p.add_argument("--kind", choices=("part", "fusion"), required=True)
    p.add_argument("--theory", required=True, choices=theory.theory_names())
    p.add_argument("--drop", action="append", metavar="AXIOM",
                   help="remove an obligation from the base theory (repeatable)")
    p.add_argument("--target", required=True)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--strategy", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=DEFAULT_BOUNDS.random_samples)
    _add_common(p)
    p.set_defaults(fn=cmd_countermodel)

    p = sub.add_parser("export", help="write TPTP problem files")
    p.add_argument("--all", action="store_true")
    p.add_argument("--name")
    p.add_argument("--out", default="obligations")
    p.set_defaults(fn=cmd_export, workers=1)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    if getattr(args, "workers", 1) < 1:
        sys.stderr.write("error: --workers must be >= 1\n")
        return EXIT_USAGE
    sizes = [getattr(args, key, 0) for key in
             ("max_part", "max_fusion", "max_n", "n", "canonical_k", "samples")]
    if any(v < 0 for v in sizes):
        sys.stderr.write("error: sizes and sample counts must be >= 0\n")
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ParseError, StructureFormatError, theory.UnknownNameError, OSError,
            UnicodeDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except CapacityError as e:
        sys.stderr.write(f"capacity: {e}\n")
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
