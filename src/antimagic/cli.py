"""Command-line surface: label, verify, oracle, gen, stress.

Exit codes: 0 success, 1 invalid input (parse errors, out-of-scope graphs,
exhausted search or generation budgets, bad flags), 2 failed verification,
3 violated internal invariant.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .documents import labels_for_graph, parse_document, render_document
from .errors import (GenerationBudgetError, InternalInvariantError, OracleBudgetError,
                     StressFailure)
from .generate import generate_regular
from .graph import format_edge_list, parse_edge_list
from .labeling import label_graph
from .oracle import DEFAULT_NODE_BUDGET, brute_force_antimagic
from .verify import check_construction, stress, verify_antimagic


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; that status is reserved for
    failed verification here, so usage problems are rerouted to exit 1."""

    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_label(args) -> int:
    graph = parse_edge_list(_read(args.graph))
    result = label_graph(graph, root=args.root)
    _emit(render_document(result), args.out)
    if args.check:
        issues, stats = check_construction(result)
        print(f"check: bijection={'ok' if stats['bijection_ok'] else 'FAIL'} "
              f"distinct-sums={'ok' if stats['distinct_sums_ok'] else 'FAIL'} "
              f"layer-monotone={'ok' if stats['layer_monotone_ok'] else 'FAIL'}", file=sys.stderr)
        print(f"check: tightest slacks upper={stats['min_upper_slack']} "
              f"lower={stats['min_lower_slack']}, links={stats['links_total']} "
              f"(free {stats['free_links_total']}), layers with bad components="
              f"{stats['bad_layers']}", file=sys.stderr)
        for issue in issues:
            print(f"check: FAIL {issue}", file=sys.stderr)
        if issues:
            return 2
        print("check: all construction invariants hold", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    graph = parse_edge_list(_read(args.graph))
    doc = parse_document(_read(args.labeling))
    labels = labels_for_graph(graph, doc)
    report = verify_antimagic(graph, labels)
    if not report.bijection_ok:
        print("error: labels are not a bijection onto the label range", file=sys.stderr)
        return 1
    for v, declared in sorted(doc.sums.items()):
        if v >= graph.n or report.vertex_sums[v] != declared:
            print(f"error: document declares vertex sum {declared} for vertex {v}, "
                  f"recomputation disagrees", file=sys.stderr)
            return 1
    if not report.passed:
        print(f"verification failed: {report.first_failure}", file=sys.stderr)
        return 2
    print(f"antimagic: {graph.m} labels, {graph.n} distinct vertex sums")
    return 0


def _cmd_oracle(args) -> int:
    graph = parse_edge_list(_read(args.graph))
    found, labels = brute_force_antimagic(graph, args.max_perms)
    if found:
        for (u, v), eid in sorted((graph.edges[eid], eid) for eid in range(graph.m)):
            print(f"edge {u} {v} {labels[eid]}")
        print("antimagic")
    else:
        print("not antimagic")
    return 0


def _cmd_gen(args) -> int:
    graph = generate_regular(args.n, args.degree, args.seed)
    _emit(format_edge_list(graph), args.out)
    return 0


def _cmd_stress(args) -> int:
    degrees = args.degree if args.degree else [4, 6, 8]
    summary = stress(args.count, args.n_min, args.n, degrees, args.seed)
    sys.stdout.write(summary.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="antimagic",
                     description="Antimagic labelings of even-regular connected graphs.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("label", help="label a graph and print the labeling document")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--root", type=int, default=0, help="root vertex for the layering")
    p.add_argument("--check", action="store_true",
                   help="run the full construction check and report on stderr")
    p.add_argument("--out", help="write the document here instead of standard output")
    p.set_defaults(handler=_cmd_label)

    p = sub.add_parser("verify", help="check a labeling document against a graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("labeling", help="labeling document file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustively decide antimagicness of a small graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--max-perms", type=int, default=DEFAULT_NODE_BUDGET,
                   help="search-node budget")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a random connected regular graph")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--degree", type=int, required=True, help="vertex degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the edge list here instead of standard output")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("stress", help="generate, label, and deeply verify random graphs")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--n", type=int, default=40, help="largest vertex count")
    p.add_argument("--n-min", type=int, default=8, help="smallest vertex count")
    p.add_argument("--degree", type=int, action="append",
                   help="degree to cycle through (repeatable; default 4 6 8)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_stress)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OracleBudgetError, GenerationBudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StressFailure as exc:
        print(f"stress failure: {exc}", file=sys.stderr)
        sys.stderr.write(exc.instance)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
