"""Command line interface.

Subcommands: ``invariants`` (K-theory report for a graph file),
``classify`` (stable/strict comparison of two graphs), ``zeta``
(edge/vertex zeta polynomials and vanishing order), ``generate`` (named
graph families), ``verify`` (invariant sweep over small graphs).

Exit codes: 0 success, 2 input or domain error, 3 internal theorem
cross-check failure, 4 indeterminate classification, 5 sweep
counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .errors import DomainError, GraphParseError, TheoremViolation
from .ihara_zeta import zeta_report
from .ktheory import INDETERMINATE, classify_stable, classify_strict, ktheory_report
from .multigraph import (
    format_graph,
    generate_chain,
    generate_cycle,
    generate_flower,
    generate_theta,
    graph_to_json,
    parse_graph,
)
from .sweep import SweepConfig, run_sweep

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_THEOREM = 3
EXIT_INDETERMINATE = 4
EXIT_COUNTEREXAMPLE = 5

_FAMILIES = {
    "flower": generate_flower,
    "theta": generate_theta,
    "chain": generate_chain,
    "cycle": generate_cycle,
}


def _read_graph(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror}")
    return parse_graph(text)


def _flatten(payload, prefix=""):
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, prefix=f"{name}.")
        else:
            yield name, value


def _json(v, indent="\n"):
    """``json.dumps(v, indent=2, sort_keys=True)`` for string keys, without its
    pure-Python encoder: ints by ``str``, other leaves by ``json.dumps``."""
    if type(v) is int:
        return str(v)
    if not v or not isinstance(v, (dict, list, tuple)):
        return json.dumps(v)
    inner = indent + "  "
    if isinstance(v, dict):
        items = [f"{json.dumps(k)}: {_json(v[k], inner)}" for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join([_json(x, inner) for x in v]) + indent + "]"


def _emit(payload, fmt):
    if fmt == "json":
        print(_json(payload))
    else:
        for name, value in _flatten(payload):
            print(f"{name}: {value}")


def _cmd_invariants(args):
    _emit(ktheory_report(_read_graph(args.path)), args.format)
    return EXIT_OK


def _cmd_classify(args):
    G1 = _read_graph(args.path1)
    G2 = _read_graph(args.path2)
    verdict = classify_strict(G1, G2) if args.strict else classify_stable(G1, G2)
    _emit(verdict, args.format)
    return EXIT_INDETERMINATE if verdict["verdict"] == INDETERMINATE else EXIT_OK


def _cmd_zeta(args):
    _emit(zeta_report(_read_graph(args.path)), args.format)
    return EXIT_OK


def _cmd_generate(args):
    G = _FAMILIES[args.family](args.parameter)
    text = graph_to_json(G) + "\n" if args.format == "json" else format_graph(G)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args):
    config = SweepConfig(
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
        mode="random" if args.random else "exhaustive",
        sample_count=args.samples,
        seed=args.seed,
    )
    report = run_sweep(config)
    _emit(report, args.format)
    if not report["ok"]:
        first = report["failures"][0]
        print(
            f"counterexample for {first['check']}: {first['message']}\n{first['graph']}",
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


@cache  # built on first use, not at import; callers in one process share it
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="graphkt",
        description="Exact K-theory invariants of graph C*-algebras from graph files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("invariants", help="K-theory report for one graph file")
    p.add_argument("path")
    add_format(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="compare two graphs")
    p.add_argument("path1")
    p.add_argument("path2")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stable", action="store_true")
    mode.add_argument("--strict", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("zeta", help="zeta polynomials and vanishing order")
    p.add_argument("path")
    add_format(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("generate", help="write a named graph family member")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("parameter", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="run the invariant sweep")
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-edges", type=int, default=6)
    p.add_argument("--random", action="store_true")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_THEOREM


if __name__ == "__main__":
    sys.exit(main())
