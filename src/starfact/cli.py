"""Command-line interface.

Conventions shared by every subcommand:
  * groups are written as comma-separated cyclic orders ("5,5,2"),
  * subgroup generators as semicolon-separated tuples ("0,0,1;1,0,0"),
  * file arguments accept "-" for stdin/stdout,
  * all JSON output is canonical (sorted keys, fixed indentation), so
    identical inputs produce byte-identical artifacts.

Exit codes: 0 success / witness found, 1 verification or construction
failure, 2 search exhausted with no witness (or nonexistence certified),
3 budget exceeded, 64 malformed input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from .cayley import build_model, export_edge_list
from .constructions import (
    ConstructionError,
    classify_existence,
    construct_prime_power,
    double_starter,
)
from .groups import all_subgroups, enumerate_abelian_groups, make_group
from .search import (
    BUDGET_EXCEEDED,
    CERTIFIED,
    FOUND,
    NONE_EXISTS,
    WITNESS,
    certify_nonexistence,
    search_starter,
)
from .serialize import (
    canonical_parts,
    factorization_from_payload,
    factorization_payload,
    generators_payload,
    group_payload,
    starter_from_payload,
    starter_payload,
)
from .starters import (
    InvalidStarterError,
    check_invariance,
    develop_factorization,
    verify_factorization,
    verify_starter,
)

EX_OK = 0
EX_FAIL = 1
EX_NONE = 2
EX_BUDGET = 3
EX_USAGE = 64

# search statuses, then certify-nonexist statuses
_STATUS_EXIT = {
    FOUND: EX_OK,
    NONE_EXISTS: EX_NONE,
    BUDGET_EXCEEDED: EX_BUDGET,
    WITNESS: EX_OK,
    CERTIFIED: EX_NONE,
}

_BUDGET_HELP = (
    "(default unlimited; the search's table of hit-free states stops growing"
    " at a fixed size)"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_parts(path: str, parts) -> None:
    """Write the strs of parts one by one, never joined."""
    if path == "-":
        sys.stdout.writelines(parts)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)


def _read_json(path: str, load):
    """load applied to the JSON document at path.  A KeyError or TypeError
    while the document loads, or nesting too deep for the parser, is
    malformed input, as a syntax error is; anywhere else it is a bug."""
    try:
        return load(json.loads(_read_text(path)))
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(exc) from None


def _cmd_construct(args):
    if args.family == "prime-power":
        if args.p is None or args.v is None:
            raise ValueError("--family prime-power needs --p and --v")
        starter = construct_prime_power(args.p, args.v)
    else:
        if args.input is None:
            raise ValueError("--family doubling needs --input")
        starter = double_starter(_read_json(args.input, starter_from_payload))
    return starter_payload(starter), EX_OK, starter.model


def _cmd_verify_starter(args):
    starter = _read_json(args.starter, starter_from_payload)
    report = verify_starter(starter)
    return report.payload(), EX_OK if report.passed else EX_FAIL, starter.model


def _cmd_develop(args):
    starter = _read_json(args.starter, starter_from_payload)
    return factorization_payload(develop_factorization(starter)), EX_OK, starter.model


def _cmd_verify_factorization(args):
    fact = _read_json(args.factorization, factorization_from_payload)
    payload = verify_factorization(fact).payload()
    if args.invariance:
        payload["invariant"] = check_invariance(fact)
        payload["passed"] = payload["passed"] and payload["invariant"]
    return payload, EX_OK if payload["passed"] else EX_FAIL, None


def _check_workers(args) -> None:
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")


def _cmd_search(args):
    _check_workers(args)
    group = make_group(int(t) for t in args.group.split(",") if t.strip())
    gens = [tuple(map(int, p.split(","))) for p in args.H.split(";") if p.strip()]
    model = build_model(group.subgroup(gens))
    outcome = search_starter(model, mode=args.mode, budget=args.budget)
    return outcome.payload(), _STATUS_EXIT[outcome.status], model


def _cmd_certify_nonexist(args):
    _check_workers(args)
    result = certify_nonexistence(args.m, args.n, budget=args.budget)
    return result.payload(), _STATUS_EXIT[result.status], None


def _cmd_classify(args):
    return classify_existence(args.m, args.n).payload(), EX_OK, None


def _cmd_groups(args):
    out = []
    for group in enumerate_abelian_groups(args.order):
        entry = group_payload(group)
        if args.subgroups:
            entry["subgroups"] = [
                {"order": sub.order, "generators": generators_payload(sub)}
                for sub in all_subgroups(group)
            ]
        out.append(entry)
    return {"order": args.order, "groups": out}, EX_OK, None


def _add_out(parser) -> None:
    parser.add_argument(
        "-o", "--out", default="-", help="output path (default stdout)"
    )


def _add_workers(parser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and must be at least 1;"
        " the search runs in one process",
    )


@functools.cache  # built once per process; parsing leaves the parser as it is
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="starfact",
        description=(
            "Construct, verify, develop, and search for starters of"
            " group-invariant one-factorizations of complete multipartite"
            " graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a starter from a known family")
    p.add_argument(
        "--family", required=True, choices=("prime-power", "doubling")
    )
    p.add_argument("--p", type=int, help="prime congruent to 1 mod 4")
    p.add_argument("--v", type=int, help="prime-power exponent, at least 2")
    p.add_argument("--input", help="starter JSON to double (- for stdin)")
    p.add_argument("--emit-edges", help="also write the model edge list here")
    _add_out(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify-starter", help="check the three starter conditions")
    p.add_argument("starter", help="starter JSON path (- for stdin)")
    p.add_argument("--emit-edges", help="also write the model edge list here")
    _add_out(p)
    p.set_defaults(func=_cmd_verify_starter)

    p = sub.add_parser("develop", help="develop a starter into a one-factorization")
    p.add_argument("starter", help="starter JSON path (- for stdin)")
    p.add_argument("--emit-edges", help="also write the model edge list here")
    _add_out(p)
    p.set_defaults(func=_cmd_develop)

    p = sub.add_parser(
        "verify-factorization", help="check a one-factorization edge by edge"
    )
    p.add_argument("factorization", help="factorization JSON path (- for stdin)")
    p.add_argument(
        "--invariance",
        action="store_true",
        help="also require closure under vertex translation",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_verify_factorization)

    p = sub.add_parser("search", help="exhaustive starter search for one model")
    p.add_argument("--group", required=True, help='cyclic orders, e.g. "5,5,2"')
    p.add_argument(
        "--H", required=True, help='subgroup generators, e.g. "0,0,1;1,0,0"'
    )
    p.add_argument(
        "--mode",
        default="first",
        choices=("first", "exhaust", "all"),
        help="stop at the first witness, certify emptiness, or enumerate all"
        " (all keeps every witness in memory: bound it with --budget)",
    )
    p.add_argument("--budget", type=int, help="node budget " + _BUDGET_HELP)
    _add_workers(p)
    p.add_argument("--emit-edges", help="also write the model edge list here")
    _add_out(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "certify-nonexist",
        help="search every abelian group of order m*n and subgroup of order n",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, help="node budget per (group, H) pair " + _BUDGET_HELP)
    _add_workers(p)
    _add_out(p)
    p.set_defaults(func=_cmd_certify_nonexist)

    p = sub.add_parser(
        "classify", help="existence verdict for the (m, n) parameter pair"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("groups", help="list abelian groups of a given order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--subgroups", action="store_true", help="include the subgroup lattice"
    )
    _add_out(p)
    p.set_defaults(func=_cmd_groups)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command's only cyclic garbage, the subgroup lattices, does not grow
    # with its work, so the collector's passes over every live edge list are
    # saved by pausing it for the command; the caller's setting comes back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        payload, code, model = args.func(args)
        _write_parts(args.out, canonical_parts(payload))
        if getattr(args, "emit_edges", None):
            _write_parts(args.emit_edges, [export_edge_list(model)])
        return code
    except InvalidStarterError as exc:
        sys.stderr.write(exc.report.summary() + "\n")
        return EX_FAIL
    except ConstructionError as exc:
        sys.stderr.write(f"construction failed: {exc}\n")
        return EX_FAIL
    except ValueError as exc:  # JSONDecodeError included
        sys.stderr.write(f"bad input: {exc}\n")
        return EX_USAGE
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EX_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
