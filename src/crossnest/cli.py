"""Command-line surface.

Subcommands: stats, involute, fill, theta, verify, distribution,
enumerate.  JSON is the machine interface, plain text is for reading,
CSV exists only for distribution tables.  Every subcommand writes to
stdout or to the file named by `--out`; `stats`, `involute`, `theta`
and `distribution` write their payload as JSON under `--json` and as
text (CSV for `distribution`) otherwise, but a filling has only its
text form, so `theta --from-filling` refuses `--json`.  Each claim of
`verify` is one entry of `VERIFIERS`.  Exit codes: 0 success, 1 a
verification ran and failed (the report is still written), 2 bad usage
or bad input, 3 an internal transformation error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager

from .core import _int_token, degree_sequence, neg, parse_permutation, upper_diagram, wex
from .enumeration import (
    STAT_NAMES,
    VerificationReport,
    _one_line,
    _signed_value_blocks,
    distribution,
    report_to_json,
    verify_avoider_symmetry,
    verify_chain_symmetry,
    verify_involution_properties,
    verify_max_crossing_counts,
    verify_pair_symmetry,
)
from .errors import CrossNestError, Desynchronized, InconsistentGrowth, MalformedToken
from .fillings import (
    filling_to_text,
    growth_involution,
    max_chain_involution,
    parse_filling_text,
    xi,
)
from .involution import crossing_nesting_involution
from .statistics import _cro_nes, max_chain_sizes

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

INTERNAL_ERRORS = (Desynchronized, InconsistentGrowth)

# argparse takes "-1,2" for an option: only "-1"-like tokens pass as numbers
NEGATIVE_FIRST_PERM = re.compile(r"-\d+(\s*,\s*-?\d+)+")


@contextmanager
def _output(out: str | None):
    """The file named by --out, or stdout.  A reader that closes stdout
    early, as `| head` does, ends the output quietly, and the command keeps
    its own exit code."""
    if out:
        with open(out, "w") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes what stdout still buffers at exit; send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _emit(args, payload: dict, text: str) -> None:
    """Write `payload` as JSON under --json and `text` otherwise."""
    _write(json.dumps(payload, indent=2) + "\n" if args.json else text, args.out)


def _stats_payload(p) -> dict:
    d = upper_diagram(p)
    cro_n, nes_n = _cro_nes(d)
    cro_s, nes_s = max_chain_sizes(d)
    return {
        "n": p.n,
        "wex": wex(p),
        "neg": neg(p),
        "cro": cro_n,
        "nes": nes_n,
        "cro_star": cro_s,
        "nes_star": nes_s,
        "degree_sequence": str(degree_sequence(d)),
    }


def _involution_payload(p, image) -> dict:
    return {
        "input": str(p),
        "image": str(image),
        "before": _stats_payload(p),
        "after": _stats_payload(image),
    }


def cmd_stats(args) -> int:
    p = parse_permutation(args.perm)
    payload = _stats_payload(p)
    _emit(args, payload, "".join(f"{key}: {value}\n" for key, value in payload.items()))
    return EXIT_OK


def cmd_involute(args) -> int:
    p = parse_permutation(args.perm)
    if args.map == "theorem24":
        image = crossing_nesting_involution(p)
    else:
        image = max_chain_involution(p)
    payload = {"map": args.map, **_involution_payload(p, image)}
    lines = [f"{image}"]
    for tag in ("before", "after"):
        stats = payload[tag]
        lines.append(
            f"{tag}: " + " ".join(f"{k}={stats[k]}" for k in
                                  ("cro", "nes", "cro_star", "nes_star", "wex", "neg"))
        )
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fill(args) -> int:
    p = parse_permutation(args.perm)
    _write(filling_to_text(xi(upper_diagram(p))), args.out)
    return EXIT_OK


def cmd_theta(args) -> int:
    if bool(args.perm) == bool(args.from_filling):
        print("error: give either a permutation or --from-filling PATH", file=sys.stderr)
        return EXIT_USAGE
    if args.from_filling and args.json:
        print("error: --from-filling writes a filling as text, not --json", file=sys.stderr)
        return EXIT_USAGE
    if args.from_filling:
        with open(args.from_filling) as fh:
            f = parse_filling_text(fh.read())
        _write(filling_to_text(growth_involution(f)), args.out)
        return EXIT_OK
    p = parse_permutation(args.perm)
    image = max_chain_involution(p)
    _emit(args, _involution_payload(p, image), f"{image}\n")
    return EXIT_OK


def _verify_involutions(n_max: int = 3) -> VerificationReport:
    """Both maps' involution suites, merged into one report."""
    pair = verify_involution_properties(n_max, "pair")
    chain = verify_involution_properties(n_max, "chain")
    return VerificationReport(
        claim="involutions",
        parameters={"n_max": n_max},
        counterexamples=[dict(entry, map=tag)
                         for tag, rep in (("theorem24", pair), ("theta", chain))
                         for entry in rep.counterexamples],
        info={"pair_checked": pair.info, "chain_checked": chain.info},
    )


# every claim's verifier takes its bound as the first argument and
# declares its default, which `verify` uses when --n is absent
VERIFIERS = {
    "thm24": verify_pair_symmetry,
    "thm27": verify_chain_symmetry,
    "corollary": verify_max_crossing_counts,
    "lemma41": verify_avoider_symmetry,
    "involutions": _verify_involutions,
}


def cmd_verify(args) -> int:
    verify = VERIFIERS[args.claim]
    report = verify() if args.n is None else verify(args.n)
    _write(report_to_json(report) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_distribution(args) -> int:
    schema = tuple(name.strip() for name in args.schema.split(","))
    table = distribution(args.n, schema)
    _emit(args, table.to_json_obj(), table.to_csv())
    return EXIT_OK


def cmd_enumerate(args) -> int:
    # the generated rows are signed permutations by construction, so they
    # are written without building a SignedPermutation for each; a rank
    # outside the guard raises as the stream opens, before --out does
    blocks = _signed_value_blocks(args.n)
    with _output(args.out) as fh:
        for values in blocks:
            fh.writelines(f"{_one_line(row)}\n" for row in values)
    return EXIT_OK


def _int_option(token: str) -> int:
    """An integer option, --n, by the one token rule; argparse reports a bad token."""
    try:
        return _int_token(token)
    except MalformedToken as exc:
        raise argparse.ArgumentTypeError(exc) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossnest",
        description="Crossing/nesting statistics of signed permutations, "
                    "interchanging involutions, and exhaustive verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the output options, declared once and shared through `parents`
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    json_out = argparse.ArgumentParser(add_help=False, parents=[out])
    json_out.add_argument("--json", action="store_true")

    p_stats = sub.add_parser("stats", parents=[json_out],
                             help="all statistics of one permutation")
    p_stats.add_argument("perm", help='one-line notation, e.g. "4,-6,3,5,1,-2"')
    p_stats.set_defaults(func=cmd_stats)

    p_inv = sub.add_parser("involute", parents=[json_out],
                           help="apply an interchanging involution")
    p_inv.add_argument("perm")
    p_inv.add_argument("--map", choices=("theorem24", "theta"), default="theorem24")
    p_inv.set_defaults(func=cmd_involute)

    p_fill = sub.add_parser("fill", parents=[out],
                            help="Young-diagram filling of a permutation")
    p_fill.add_argument("perm")
    p_fill.set_defaults(func=cmd_fill)

    p_theta = sub.add_parser("theta", parents=[json_out],
                             help="chain-statistic swapping involution")
    p_theta.add_argument("perm", nargs="?", default=None)
    p_theta.add_argument("--from-filling", default=None, metavar="PATH",
                         help="transform a filling file instead of a permutation")
    p_theta.set_defaults(func=cmd_theta)

    p_verify = sub.add_parser("verify", parents=[out], help="run an exhaustive verifier")
    p_verify.add_argument("claim", choices=VERIFIERS)
    p_verify.add_argument("--n", type=_int_option, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_dist = sub.add_parser("distribution", parents=[json_out],
                            help="joint distribution table, CSV unless --json")
    p_dist.add_argument("--n", type=_int_option, required=True)
    p_dist.add_argument("--schema", default="nes,cro,wex,neg",
                        help=f"comma list from {','.join(STAT_NAMES)}")
    p_dist.set_defaults(func=cmd_distribution)

    p_enum = sub.add_parser("enumerate", parents=[out], help="stream all rank-n permutations")
    p_enum.add_argument("--n", type=_int_option, required=True)
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def _positional_perms(argv: list[str]) -> list[str]:
    """Move each one-line permutation with a negative first entry and a
    comma behind `--`, so that it parses as the positional `perm`."""
    cut = argv.index("--") if "--" in argv else len(argv)
    head, tail = argv[:cut], argv[cut + 1:]
    perms = [tok for tok in head if NEGATIVE_FIRST_PERM.fullmatch(tok)]
    if not perms:
        return argv
    return [tok for tok in head if tok not in perms] + ["--"] + perms + tail


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_positional_perms(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CrossNestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
