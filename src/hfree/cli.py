"""Command-line front end.

Subcommands: classify (dichotomy verdict for a pattern), churn (pattern
stripping trace), reduce (apply one reduction step to an instance), solve
(decide one instance), verify (equivalence and property campaigns).  All
output is JSON, UTF-8, newline-terminated.  Exit codes: 0 for success (a
"yes" answer, a clean report), 1 for a "no" answer or a report with
problems, 2 for errors of any sort.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .classify import classify, deletion_churn, editing_churn
from .formats import graph_to_obj, parse_graph
from .graphs import Graph
from .problems import Instance, instance_from_obj, kind_from_str
from .reductions import STEPS, reduce_instance
from .solve import solve_instance
from .verify import SUITE_NAMES, run_suites


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _load_instance(path: str) -> Instance:
    return instance_from_obj(json.loads(_read_text(path)))


def _emit(obj: Any, out: str | None) -> None:
    text = json.dumps(obj) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_classify(args: argparse.Namespace) -> int:
    h = _load_graph(args.input)
    verdict = classify(h, kind_from_str(args.kind))
    _emit(verdict.to_obj(), args.out)
    return 0


def cmd_churn(args: argparse.Namespace) -> int:
    h = _load_graph(args.input)
    if args.mode == "editing":
        terminal, steps = editing_churn(h)
    else:
        terminal, steps = deletion_churn(h)
    _emit(
        {
            "mode": args.mode,
            "input": graph_to_obj(h),
            "steps": [s.to_obj() for s in steps],
            "terminal": graph_to_obj(terminal),
        },
        args.out,
    )
    return 0


# step param -> the reduce flag that carries it; reduce offers the steps
# whose every param has one
_PARAM_FLAGS = {"d": "--degree", "t": "--t"}


def cmd_reduce(args: argparse.Namespace) -> int:
    inst = _load_instance(args.input)
    spec = STEPS[args.step]
    params = {"d": args.degree, "variant": args.variant, "t": args.t}
    for name in spec.params:
        if params[name] is None:
            raise ValueError(f"{args.step} needs {_PARAM_FLAGS[name]}")
    h = None if args.pattern is None else _load_graph(args.pattern)
    out, step = reduce_instance(inst, args.step, params, h)
    _emit({"instance": out.to_obj(), "step": step.to_obj()}, args.out)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.input)
    result = solve_instance(inst, engine=args.engine)
    _emit(result.to_obj(), args.out)
    return 0 if result.answer else 1


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suites(
        [args.suite],
        host_cap=args.host_cap,
        k_cap=args.k_cap,
        n_cap=args.n_cap,
        seed=args.seed,
        workers=args.workers,
    )
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfree",
        description="Classify, reduce, and solve h-free edge modification problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="dichotomy verdict for a pattern graph")
    p.add_argument("--input", required=True, help="pattern graph file (graph6 or JSON)")
    p.add_argument(
        "--kind",
        required=True,
        choices=["deletion", "completion", "editing"],
        help="modification kind",
    )
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("churn", help="pattern stripping trace")
    p.add_argument("--input", required=True, help="pattern graph file")
    p.add_argument("--mode", required=True, choices=["editing", "deletion"])
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_churn)

    p = sub.add_parser("reduce", help="apply one reduction step to an instance")
    p.add_argument("--input", required=True, help="instance JSON file")
    p.add_argument(
        "--step",
        required=True,
        choices=[name for name, spec in STEPS.items() if _PARAM_FLAGS.keys() >= set(spec.params)],
    )
    p.add_argument("--pattern", help="target pattern graph file")
    p.add_argument("--degree", type=int, help="degree threshold for degree-reduce")
    p.add_argument(
        "--variant",
        choices=["min", "max"],
        default="min",
        help="strip the low side (min) or the high side (max) of the pattern",
    )
    p.add_argument("--t", type=int, help="target size for tdiamond-induction")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="decide one instance exactly")
    p.add_argument("--input", required=True, help="instance JSON file")
    p.add_argument("--engine", choices=["branch", "brute"], default="branch")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run verification campaigns")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=list(SUITE_NAMES) + ["all"],
        help="suite to run (default: all)",
    )
    p.add_argument("--host-cap", type=int, help="max host vertices for campaigns")
    p.add_argument("--k-cap", type=int, help="max budget for campaigns")
    p.add_argument("--n-cap", type=int, help="max vertices for pattern sweeps")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized audits")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes, at most the CPU count (default: 1)",
    )
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # exit code 1 means "no", so every error is 2
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
