"""Command-line surface.

Subcommands: stats, involute, fill, theta, verify, distribution,
enumerate.  JSON is the machine interface, plain text is for reading,
CSV exists only for distribution tables.  Exit codes: 0 success,
1 a verification ran and failed (the report is still written),
2 bad usage or bad input, 3 an internal transformation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .core import degree_sequence, neg, parse_permutation, upper_diagram, wex
from .enumeration import (
    STAT_NAMES,
    distribution,
    enumerate_bn,
    report_to_json,
    verify_avoider_symmetry,
    verify_chain_symmetry,
    verify_involution_properties,
    verify_max_crossing_counts,
    verify_pair_symmetry,
)
from .errors import (
    CrossNestError,
    Desynchronized,
    InconsistentGrowth,
    UnmergeablePair,
)
from .fillings import (
    filling_to_text,
    growth_involution,
    max_chain_involution,
    parse_filling_text,
    xi,
)
from .involution import crossing_nesting_involution
from .statistics import cro, max_chain_sizes, nes

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

INTERNAL_ERRORS = (Desynchronized, UnmergeablePair, InconsistentGrowth)


def _output(out: str | None):
    return open(out, "w") if out else nullcontext(sys.stdout)


def _write(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _stats_payload(p) -> dict:
    cro_s, nes_s = max_chain_sizes(p)
    return {
        "n": p.n,
        "wex": wex(p),
        "neg": neg(p),
        "cro": cro(p),
        "nes": nes(p),
        "cro_star": cro_s,
        "nes_star": nes_s,
        "degree_sequence": str(degree_sequence(p)),
    }


def cmd_stats(args) -> int:
    p = parse_permutation(args.perm)
    payload = _stats_payload(p)
    if args.json:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(f"{key}: {value}\n" for key, value in payload.items())
    _write(text, args.out)
    return EXIT_OK


def cmd_involute(args) -> int:
    p = parse_permutation(args.perm)
    if args.map == "theorem24":
        image = crossing_nesting_involution(p)
    else:
        image = max_chain_involution(p)
    payload = {
        "map": args.map,
        "input": str(p),
        "image": str(image),
        "before": _stats_payload(p),
        "after": _stats_payload(image),
    }
    if args.json:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"{image}"]
        for tag in ("before", "after"):
            stats = payload[tag]
            lines.append(
                f"{tag}: " + " ".join(f"{k}={stats[k]}" for k in
                                      ("cro", "nes", "cro_star", "nes_star", "wex", "neg"))
            )
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_fill(args) -> int:
    p = parse_permutation(args.perm)
    _write(filling_to_text(xi(upper_diagram(p))), args.out)
    return EXIT_OK


def cmd_theta(args) -> int:
    if args.from_filling:
        with open(args.from_filling) as fh:
            f = parse_filling_text(fh.read())
        _write(filling_to_text(growth_involution(f)), args.out)
        return EXIT_OK
    if not args.perm:
        print("error: give a permutation or --from-filling PATH", file=sys.stderr)
        return EXIT_USAGE
    p = parse_permutation(args.perm)
    image = max_chain_involution(p)
    payload = {
        "input": str(p),
        "image": str(image),
        "before": _stats_payload(p),
        "after": _stats_payload(image),
    }
    if args.json:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = f"{image}\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    n = args.n
    if args.claim == "thm24":
        report = verify_pair_symmetry(5 if n is None else n)
    elif args.claim == "thm27":
        report = verify_chain_symmetry(4 if n is None else n)
    elif args.claim == "corollary":
        report = verify_max_crossing_counts(6 if n is None else n)
    elif args.claim == "lemma41":
        report = verify_avoider_symmetry(max_rows=4 if n is None else n)
    else:   # involutions
        bound = 3 if n is None else n
        pair = verify_involution_properties(bound, "pair")
        chain = verify_involution_properties(bound, "chain")
        bad = []
        for tag, rep in (("theorem24", pair), ("theta", chain)):
            bad.extend(dict(entry, map=tag) for entry in rep.counterexamples)
        merged = {
            "claim": "involutions",
            "parameters": {"n_max": bound},
            "passed": pair.passed and chain.passed,
            "counterexamples": bad,
            "info": {
                "pair_checked": pair.info,
                "chain_checked": chain.info,
            },
        }
        _write(json.dumps(merged, indent=2) + "\n", args.out)
        return EXIT_OK if merged["passed"] else EXIT_VERIFY_FAIL

    _write(report_to_json(report) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_distribution(args) -> int:
    schema = tuple(name.strip() for name in args.schema.split(","))
    table = distribution(args.n, schema)
    if args.format == "json":
        text = json.dumps(table.to_json_obj(), indent=2) + "\n"
    else:
        text = table.to_csv()
    _write(text, args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    perms = enumerate_bn(args.n)
    first = next(perms)   # a rank outside the guard raises before --out opens
    with _output(args.out) as fh:
        fh.write(f"{first}\n")
        fh.writelines(f"{p}\n" for p in perms)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossnest",
        description="Crossing/nesting statistics of signed permutations, "
                    "interchanging involutions, and exhaustive verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="all statistics of one permutation")
    p_stats.add_argument("perm", help='one-line notation, e.g. "4,-6,3,5,1,-2"')
    p_stats.add_argument("--json", action="store_true")
    p_stats.add_argument("--out", default=None)
    p_stats.set_defaults(func=cmd_stats)

    p_inv = sub.add_parser("involute", help="apply an interchanging involution")
    p_inv.add_argument("perm")
    p_inv.add_argument("--map", choices=("theorem24", "theta"), default="theorem24")
    p_inv.add_argument("--json", action="store_true")
    p_inv.add_argument("--out", default=None)
    p_inv.set_defaults(func=cmd_involute)

    p_fill = sub.add_parser("fill", help="Young-diagram filling of a permutation")
    p_fill.add_argument("perm")
    p_fill.add_argument("--out", default=None)
    p_fill.set_defaults(func=cmd_fill)

    p_theta = sub.add_parser("theta", help="chain-statistic swapping involution")
    p_theta.add_argument("perm", nargs="?", default=None)
    p_theta.add_argument("--from-filling", default=None, metavar="PATH",
                         help="transform a filling file instead of a permutation")
    p_theta.add_argument("--json", action="store_true")
    p_theta.add_argument("--out", default=None)
    p_theta.set_defaults(func=cmd_theta)

    p_verify = sub.add_parser("verify", help="run an exhaustive verifier")
    p_verify.add_argument(
        "claim",
        choices=("thm24", "thm27", "corollary", "lemma41", "involutions"),
    )
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_dist = sub.add_parser("distribution", help="joint distribution table")
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument("--schema", default="nes,cro,wex,neg",
                        help=f"comma list from {','.join(STAT_NAMES)}")
    p_dist.add_argument("--format", choices=("csv", "json"), default="csv")
    p_dist.add_argument("--out", default=None)
    p_dist.set_defaults(func=cmd_distribution)

    p_enum = sub.add_parser("enumerate", help="stream all rank-n permutations")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CrossNestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
