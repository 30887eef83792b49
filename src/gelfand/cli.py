"""Command-line front end.

Commands: pair-check, scan, branch, hecke, partitions, group.  Exit status is
0 iff every invariant in every produced report held; machine output (--format
machine) is one JSON record per line, schema-versioned and byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .chartab import cached_character_table, check_limits
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NumericalQualityError,
    ResourceLimitError,
    SpecParseError,
)
from .groups import is_abelian
from .hecke import dense_constants, double_cosets, is_commutative, structure_constants
from .partitions import (
    format_partition,
    induced_trivial_prediction,
    parse_partition,
    extensions,
)
from .reports import (
    build_pair,
    check_pair,
    format_branch_terms,
    format_report,
    record,
    report_record,
    scan_pairs,
)
from .specs import build_group, parse_group_spec
from .wreath import DEFAULT_SIZE_BUDGET, wreath_order
from . import __version__

CACHE_ENV_VAR = "GELFAND_CACHE_DIR"

# show the full structure-constant table only up to this rank
_CONSTANTS_DISPLAY_LIMIT = 12


def _resolve_cache_dir(args) -> str | None:
    if args.cache_dir is not None:
        return args.cache_dir
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "gelfand")


def _emit_record(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _cmd_pair_check(args) -> int:
    report = check_pair(
        args.pairspec,
        method=args.method,
        seed=args.seed,
        size_budget=args.size_budget,
        cache_dir=_resolve_cache_dir(args),
    )
    if args.format == "machine":
        _emit_record(report_record(report))
    else:
        print(format_report(report))
    if not report.consistent:
        print(
            "INTERNAL CONSISTENCY FAILURE: "
            + "; ".join(report.failures or (report.error or "unknown",)),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_scan(args) -> int:
    reports = scan_pairs(
        args.bases,
        args.n,
        method=args.method,
        seed=args.seed,
        size_budget=args.size_budget,
        cache_dir=_resolve_cache_dir(args),
    )
    equivalence_held = all(
        r.consistent and r.gelfand is not None and r.gelfand == r.base_abelian
        for r in reports
    )
    if args.format == "machine":
        for r in reports:
            _emit_record(report_record(r, kind="scan_row"))
        _emit_record(
            record("scan_summary", rows=len(reports), gelfand_iff_abelian=equivalence_held)
        )
    else:
        header = f"{'base':<10} {'|G|':>6} {'|K|':>6} {'rank':>4} {'hecke':>6} {'character':>9} {'abelian':>7} ok"
        print(header)
        for r in reports:
            if r.error is not None:
                print(f"{r.base:<10} error: {r.error}")
                continue

            def _show(v):
                if isinstance(v, bool):
                    return "yes" if v else "no"
                return str(v) if v is not None else "-"

            print(
                f"{r.base:<10} {r.group_order:>6} {r.subgroup_order:>6} "
                f"{_show(r.rank):>4} {_show(r.gelfand_hecke):>6} "
                f"{_show(r.gelfand_character):>9} {_show(r.base_abelian):>7} "
                f"{'ok' if r.consistent else 'FAIL'}"
            )
        print(
            f"summary: gelfand == abelian held on {len(reports)} row(s)"
            if equivalence_held
            else "summary: gelfand == abelian VIOLATED"
        )
    return 0 if equivalence_held and all(r.consistent for r in reports) else 1


def _cmd_branch(args) -> int:
    if args.n < 2:
        raise InvalidParameterError(f"induction to level n needs n >= 2, got {args.n}")
    base = build_group(parse_group_spec(args.base))
    wreath_order(base, args.n, args.size_budget)
    table = cached_character_table(base, _resolve_cache_dir(args), seed=args.seed)
    prediction = induced_trivial_prediction(table.degrees, args.n)
    print(f"base {base.name}: irreducible dimensions {list(table.degrees)}")
    print(
        f"induced trivial of wr({base.name},{args.n - 1}) up to wr({base.name},{args.n}):"
    )
    print("  " + format_branch_terms(prediction))
    print(
        f"  {prediction.term_count} terms, predicted rank {prediction.predicted_rank}"
    )
    return 0


def _cmd_hecke(args) -> int:
    embedding = build_pair(args.pairspec, args.size_budget, on_points=True)
    wreath = embedding.parent
    cosets = double_cosets(embedding)
    witness = structure_constants(embedding, cosets)
    commutative = is_commutative(witness)
    shown = args.show_constants and cosets.rank <= _CONSTANTS_DISPLAY_LIMIT
    c = dense_constants(embedding, cosets) if shown else None
    if args.format == "machine":
        hecke = record(
            "hecke_report",
            pair=wreath.name,
            group_order=wreath.order,
            subgroup_order=embedding.subgroup.order,
            rank=cosets.rank,
            block_sizes=cosets.sizes,
            commutative=commutative,
            witness=witness[:3] if witness else None,
        )
        if shown:
            hecke["constants"] = c.tolist()
        _emit_record(hecke)
        return 0
    print(f"pair {wreath.name} over wr({wreath.base_group.name},{wreath.n - 1})")
    print(f"  |G| = {wreath.order}, |K| = {embedding.subgroup.order}")
    print(f"  rank {cosets.rank}, block sizes {list(cosets.sizes)}")
    print(f"  double-coset algebra {'commutative' if commutative else 'NOT commutative'}")
    if not commutative:
        i, j, k, ijk, jik = witness
        print(f"  witness: c[{i}][{j}][{k}] = {ijk} != c[{j}][{i}][{k}] = {jik}")
    if args.show_constants:
        if shown:
            for i in range(cosets.rank):
                for j in range(cosets.rank):
                    row = " ".join(str(int(x)) for x in c[i, j])
                    print(f"  c[{i}][{j}] = [{row}]")
        else:
            print(
                f"  (constants table suppressed: rank {cosets.rank} > "
                f"{_CONSTANTS_DISPLAY_LIMIT})"
            )
    return 0


def _cmd_partitions(args) -> int:
    p = parse_partition(args.partition)
    for q in sorted(extensions(p), reverse=True):
        print(format_partition(q))
    return 0


def _cmd_group(args) -> int:
    group = build_group(parse_group_spec(args.spec))
    check_limits(group)
    abelian = is_abelian(group)
    table = cached_character_table(group, _resolve_cache_dir(args), seed=args.seed)
    classes = table.classes
    if args.format == "machine":
        _emit_record(
            record(
                "group_report",
                spec=group.name,
                order=group.order,
                classes=classes.count,
                class_sizes=classes.sizes,
                abelian=abelian,
                dimensions=table.degrees,
            )
        )
        return 0
    print(f"group {group.name}")
    print(f"  order {group.order}")
    print(f"  {classes.count} conjugacy classes, sizes {list(classes.sizes)}")
    print(f"  abelian: {'yes' if abelian else 'no'}")
    print(f"  irreducible dimensions: {list(table.degrees)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, so every main call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="gelfand",
        description=(
            "Build wreath products of finite groups and decide whether "
            "(G wr S_n, G wr S_(n-1)) is a Gelfand pair, by exact double-coset "
            "commutativity and by character-theoretic multiplicity freeness."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for randomized internals")
    common.add_argument(
        "--cache-dir",
        default=None,
        help=f"character-table cache directory (default: ${CACHE_ENV_VAR} or ~/.cache/gelfand)",
    )
    common.add_argument(
        "--size-budget",
        type=int,
        default=DEFAULT_SIZE_BUDGET,
        help=(
            "largest wreath-product order that will be constructed; the Hecke-only "
            "commands (hecke, pair-check --method hecke) bound n^2 |B|^2 <= 2 * budget "
            "instead, on the n |B| points of G/K"
        ),
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair-check", parents=[common], help="verify one pair wr(<group>,<n>)")
    p.add_argument("pairspec")
    p.add_argument("--method", choices=["hecke", "character", "both"], default="both")
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.set_defaults(func=_cmd_pair_check)

    p = sub.add_parser("scan", parents=[common], help="verify gelfand == abelian over a family of bases")
    p.add_argument("bases", nargs="+", help="base group specs, e.g. Z2 S3 Z2xZ2")
    p.add_argument("--n", type=int, default=2, help="wreath level (pairs at S_n over S_(n-1))")
    p.add_argument("--method", choices=["hecke", "character", "both"], default="both")
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("branch", parents=[common], help="predicted induced-trivial decomposition")
    p.add_argument("base", help="base group spec")
    p.add_argument("--n", type=int, required=True, help="induce up to wreath level n")
    p.set_defaults(func=_cmd_branch)

    p = sub.add_parser("hecke", parents=[common], help="double cosets and structure constants")
    p.add_argument("pairspec")
    p.add_argument("--show-constants", action="store_true")
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("partitions", parents=[common], help="partition utilities")
    p.add_argument("action", choices=["extend"])
    p.add_argument("partition", help="e.g. \"3,3,2,2,2,1\" or \"1^2 3^1\" (empty for ∅)")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("group", parents=[common], help="order/classes/abelian/dimensions of a group")
    p.add_argument("spec")
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.set_defaults(func=_cmd_group)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # Random(-s) draws Random(s)'s stream; refuse it before any work
            raise InvalidParameterError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except SpecParseError as exc:
        print(f"gelfand: parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidParameterError as exc:
        print(f"gelfand: invalid parameter: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"gelfand: resource limit: {exc}", file=sys.stderr)
        return 3
    except (NumericalQualityError, InternalConsistencyError) as exc:
        print(f"gelfand: internal failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
