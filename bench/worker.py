"""One workload in a process of its own; started by run.py.

Prints ``ready`` once hfree is imported and the inputs exist, then (unless
``--setup-only``) runs whole rounds of the workload for about ``--seconds``
and prints one JSON line with every round's timings and outputs.  Only
calls into hfree's public functions are timed.  Every round first clears
the enumeration caches, so each round pays for enumeration as a fresh CLI
run does.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import A000088  # noqa: E402
from workloads import (  # noqa: E402
    CAMPAIGN_SUITES,
    SWEEP_N_CAP,
    SWEEP_SUITES,
    solve_instances,
)


# Workloads look hfree's functions up at each call, so that the traced run
# sees the wrappers installed after set-up.


class Campaign:
    """Each operation is one campaign instance (host, k), checked on both
    sides of its reduction.  A round runs every equivalence suite once."""

    def __init__(self, hfree, seed):
        self.hfree = hfree

    def round(self, tracer):
        ops, outputs = [], []
        for i, (suite, host_cap, k_cap) in enumerate(CAMPAIGN_SUITES):
            if tracer:
                tracer.op = i
            t = perf_counter()
            report = self.hfree.run_suite(
                suite, host_cap=host_cap, k_cap=k_cap, workers=1
            )
            dt = perf_counter() - t
            ops.append((sum(c["instances"] for c in report["campaigns"]), dt))
            outputs.append(report)
        return ops, outputs


class Sweep:
    """Each operation is one pattern swept by one suite.  A round runs the
    classify and churn suites at n cap 7 from a cold enumeration cache; its
    outputs are the two reports and the number of graphs enumerated per
    vertex count."""

    def __init__(self, hfree, seed):
        self.hfree = hfree
        self.enumerate = hfree.smallgraphs.graphs_with_vertex_count

    def round(self, tracer):
        ops, outputs = [], []
        for i, suite in enumerate(SWEEP_SUITES):
            if tracer:
                tracer.op = i
            t = perf_counter()
            report = self.hfree.run_suite(suite, n_cap=SWEEP_N_CAP)
            dt = perf_counter() - t
            ops.append((sum(A000088[1:SWEEP_N_CAP + 1]), dt))
            outputs.append(report)
        # read from the cache the suites filled; not timed, not traced
        outputs.append({n: len(self.enumerate(n)) for n in range(1, SWEEP_N_CAP + 1)})
        return ops, outputs


class Solve:
    """Each operation is one instance object parsed and decided by the
    branching engine, as ``hfree solve`` does.  A round decides every
    instance once."""

    def __init__(self, hfree, seed):
        self.hfree = hfree
        self.objs, _, _ = solve_instances(seed)

    def round(self, tracer):
        ops, outputs = [], []
        for i, obj in enumerate(self.objs):
            if tracer:
                tracer.op = i
            t = perf_counter()
            inst = self.hfree.instance_from_obj(obj)
            result = self.hfree.solve_instance(inst, engine="branch")
            dt = perf_counter() - t
            ops.append((1, dt))
            w = result.witness
            outputs.append(
                {
                    "answer": result.answer,
                    "deletions": sorted(w.deletions) if w else [],
                    "completions": sorted(w.completions) if w else [],
                    "nodes": result.stats.nodes,
                }
            )
        return ops, outputs


WORKLOADS = {"campaign": Campaign, "sweep": Sweep, "solve": Solve}


def run_rounds(workload, clear, seconds, tracer=None):
    """Whole rounds, at least one, while the next one is expected to end
    within ``seconds`` of the start."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start + rounds[-1]["wall"] <= seconds:
        clear()
        if tracer:
            tracer.round = len(rounds)
        t = perf_counter()
        ops, outputs = workload.round(tracer)
        rounds.append({"wall": perf_counter() - t, "ops": ops, "outputs": outputs})
    return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import hfree
    import hfree.smallgraphs as smallgraphs

    workload = WORKLOADS[args.workload](hfree, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    caches = (smallgraphs.graphs_with_vertex_count, smallgraphs.find_sparse_witness)

    def clear():
        for cached in caches:
            cached.cache_clear()

    result = {"workload": args.workload}
    if not args.trace:
        result["rounds"] = run_rounds(workload, clear, args.seconds)
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracer import Tracer, round_metrics, summarize

        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(workload, clear, args.seconds, tracer)
        finally:
            tracer.uninstall()
        # One untraced round after the traced ones, when the interpreter is
        # warm: every traced round must give its outputs, and its wall time
        # is the base of the tracing overhead.
        reference = run_rounds(workload, clear, 0)[0]
        layers, errors = summarize(round_metrics(tracer.spans))
        layers["trace.slowdown"] = (
            statistics.median(r["wall"] for r in rounds) / reference["wall"]
        )
        result.update(reference=reference, rounds=rounds, layers=layers, errors=errors)
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            tracer.write(args.trace_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
