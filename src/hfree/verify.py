"""Verification campaigns: mechanized equivalence and property checks.

Each reduction in this package carries an if-and-only-if claim; the
campaigns here grind those claims against exhaustive small-instance
enumeration.  A campaign enumerates every host graph up to isomorphism
within a size cap, builds the source instance, applies the step, solves
both sides exactly, and reports every disagreement verbatim.  Sweeps for
the churn procedures, the classifier dichotomy, and randomized structural
audits of the constructions round out the suite set.

Campaign evaluation is embarrassingly parallel; reports are merged in
enumeration order so worker count never changes the output.
"""
from __future__ import annotations

import os
import random
from dataclasses import replace
from typing import Any, Callable

from .classify import (
    REASON_AT_MOST_ONE_EDGE,
    REASON_AT_MOST_ONE_NON_EDGE,
    REASON_AT_MOST_TWO_VERTICES,
    CHURN_COMPLEMENT,
    CHURN_DELETE_MAX,
    CHURN_DELETE_MIN,
    build_chain,
    classify,
    deletion_churn,
    editing_churn,
)
from .formats import serialize_graph6
from .graphs import (
    Graph,
    are_isomorphic,
    complement,
    edge,
    graph_from_edges,
    induced_subgraph,
    is_forest,
    is_regular,
    join,
    null_graph,
    path,
    t_diamond,
)
from .problems import (
    STEP_DEGREE,
    STEP_SPARSE_CASE1,
    ContractViolationError,
    Instance,
    ModificationKind,
    recognize_sparse_lh,
)
from .reductions import (
    ReductionStep,
    apply_step,
    audit_branch_construction,
    audit_clique_construction,
    chain_step,
    construct_adj,
    construct_nonadj,
    construct_tdiamond,
    replay_chain,
)
from .smallgraphs import find_sparse_witness, graphs_up_to, graphs_with_vertex_count
from .solve import (
    BruteForceCapExceeded,
    check_witness,
    solve_branching,
    solve_bruteforce,
)

def _evaluate_case(args: tuple[ReductionStep, Graph, int]) -> dict[str, Any]:
    step, g, k = args
    inst = Instance(g=g, k=k, h=step.source_h, kind=step.source_kind)
    out = apply_step(step, inst)
    source = solve_branching(inst.g, inst.k, inst.h, inst.kind)
    target = solve_branching(out.g, out.k, out.h, out.kind)
    result: dict[str, Any] = {
        "host": serialize_graph6(g),
        "k": k,
        "source_answer": source.answer,
        "target_answer": target.answer,
        "k_preserved": out.k == inst.k,
        "oracle_checked": False,
        "oracle_agrees": True,
        "witness_ok": True,
    }
    try:
        oracle = solve_bruteforce(inst.g, inst.k, inst.h, inst.kind)
        result["oracle_checked"] = True
        result["oracle_agrees"] = oracle.answer == source.answer
    except BruteForceCapExceeded:
        pass
    if source.answer and not check_witness(
        inst.g, inst.k, inst.h, inst.kind, source.witness
    ):
        result["witness_ok"] = False
    if target.answer and not check_witness(
        out.g, out.k, out.h, out.kind, target.witness
    ):
        result["witness_ok"] = False
    if source.answer != target.answer:
        result["counterexample"] = {
            "source": inst.to_obj(),
            "target": out.to_obj(),
        }
    return result


def verify_equivalence(
    step: ReductionStep, host_cap: int, k_cap: int, workers: int = 1
) -> dict[str, Any]:
    """Check a step's yes/no equivalence over every source host up to
    isomorphism with at most host_cap vertices and budgets 1..k_cap.  The
    campaign runs a copy of the step, so the branch scaffolds it builds go
    when it ends."""
    step = replace(step, scaffolds={})
    cases = [
        (step, g, k)
        for n in range(1, host_cap + 1)
        for g in graphs_with_vertex_count(n)
        for k in range(1, k_cap + 1)
    ]
    if workers > 1 and len(cases) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its processes at once; no more than there are cases
        with ProcessPoolExecutor(max_workers=min(workers, len(cases))) as pool:
            results = list(pool.map(_evaluate_case, cases, chunksize=4))
    else:
        results = [_evaluate_case(c) for c in cases]
    disagreements = [r for r in results if r["source_answer"] != r["target_answer"]]
    oracle_mismatches = [r for r in results if not r["oracle_agrees"]]
    witness_failures = [r for r in results if not r["witness_ok"]]
    return {
        "step": step.to_obj(),
        "host_cap": host_cap,
        "k_cap": k_cap,
        "instances": len(results),
        "agree_yes": sum(
            1 for r in results if r["source_answer"] and r["target_answer"]
        ),
        "agree_no": sum(
            1 for r in results if not r["source_answer"] and not r["target_answer"]
        ),
        "oracle_checked": sum(1 for r in results if r["oracle_checked"]),
        "oracle_mismatches": oracle_mismatches,
        "witness_failures": witness_failures,
        "k_preserved": all(r["k_preserved"] for r in results),
        "disagreements": disagreements,
    }


def _campaign_problems(report: dict[str, Any]) -> int:
    return (
        len(report["disagreements"])
        + len(report["oracle_mismatches"])
        + len(report["witness_failures"])
        + (0 if report["k_preserved"] else 1)
    )


# ---------------------------------------------------------------------------
# suite definitions

def _degree_steps() -> list[ReductionStep]:
    return [
        chain_step(STEP_DEGREE, {"d": d, "variant": "min"}, h, kind)
        for h, d in ((t_diamond(2), 2), (path(5), 1))
        for kind in ModificationKind
    ]


def _first_step(
    h: Graph, kind: ModificationKind = ModificationKind.DELETION
) -> ReductionStep:
    """The classifier's first chain step for (h, kind), so the campaign
    checks exactly the step that classify emits."""
    return build_chain(h, kind)[0][0]


def _case1_steps() -> list[ReductionStep]:
    # the classifier never emits this step: case 1 is an anchor
    h = join(null_graph(2), null_graph(3))
    return [chain_step(STEP_SPARSE_CASE1, {}, h, ModificationKind.DELETION)]


def _complement_steps() -> list[ReductionStep]:
    # deletion of P3 and of the triangle, reduced to completion of the complement
    return [
        _first_step(complement(h), ModificationKind.COMPLETION)
        for h in (path(3), graph_from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    ]


def _check_churn_steps(g: Graph, steps, terminal: Graph) -> list[str]:
    """Re-derive each churn step's output from its input; any mismatch is a
    violation."""
    violations = []
    prev = g
    for i, cs in enumerate(steps):
        before, after, kind, degree = cs.before, cs.after, cs.kind, cs.degree
        if before != prev:
            violations.append(f"{serialize_graph6(g)}: step {i} input mismatch")
        if kind == CHURN_COMPLEMENT:
            if degree is not None or after != complement(before):
                violations.append(f"{serialize_graph6(g)}: step {i} bad toggle")
        elif kind in (CHURN_DELETE_MIN, CHURN_DELETE_MAX):
            degrees = before.degrees
            if kind == CHURN_DELETE_MIN:
                if degree != min(degrees):
                    violations.append(f"{serialize_graph6(g)}: step {i} wrong degree")
                keep = [v for v, d in enumerate(degrees) if d > degree]
            else:
                if degree != max(degrees):
                    violations.append(f"{serialize_graph6(g)}: step {i} wrong degree")
                keep = [v for v, d in enumerate(degrees) if d < degree]
            expect, _ = induced_subgraph(before, keep)
            if after != expect:
                violations.append(f"{serialize_graph6(g)}: step {i} bad strip")
        else:
            violations.append(f"{serialize_graph6(g)}: step {i} unknown kind {kind}")
        prev = after
    if prev != terminal:
        violations.append(f"{serialize_graph6(g)}: terminal mismatch")
    return violations


def run_churn_suite(n_cap: int) -> dict[str, Any]:
    """Exhaustive termination and soundness sweep for both churn
    procedures over all graphs up to n_cap vertices (up to isomorphism)."""
    violations: list[str] = []
    editing_checked = 0
    deletion_checked = 0
    p3, p4, diamond = path(3), path(4), t_diamond(2)
    for g in graphs_up_to(n_cap):
        if g.n >= 3:
            editing_checked += 1
            terminal, steps = editing_churn(g)
            violations.extend(_check_churn_steps(g, steps, terminal))
            ok = (
                is_regular(terminal)
                or are_isomorphic(terminal, p3)
                or are_isomorphic(terminal, p4)
                or are_isomorphic(terminal, diamond)
            )
            if not ok or terminal.n < 3:
                violations.append(
                    f"{serialize_graph6(g)}: editing terminal "
                    f"{serialize_graph6(terminal)} not in the allowed set"
                )
        if g.m >= 2:
            deletion_checked += 1
            terminal, steps = deletion_churn(g)
            violations.extend(_check_churn_steps(g, steps, terminal))
            ok = (
                is_regular(terminal)
                or is_forest(terminal)
                or recognize_sparse_lh(terminal) is not None
            )
            if not ok or terminal.m < 2:
                violations.append(
                    f"{serialize_graph6(g)}: deletion terminal "
                    f"{serialize_graph6(terminal)} not in the allowed set"
                )
    return {
        "suite": "churn",
        "n_cap": n_cap,
        "editing_checked": editing_checked,
        "deletion_checked": deletion_checked,
        "violations": violations,
        "problems": len(violations),
    }


def _expected_verdict(h: Graph, kind: ModificationKind) -> tuple[str, str | None]:
    if kind is ModificationKind.EDITING:
        if h.n <= 2:
            return "Polynomial", REASON_AT_MOST_TWO_VERTICES
    elif kind is ModificationKind.DELETION:
        if h.m <= 1:
            return "Polynomial", REASON_AT_MOST_ONE_EDGE
    else:
        if complement(h).m <= 1:
            return "Polynomial", REASON_AT_MOST_ONE_NON_EDGE
    return "NPComplete", None


def run_classify_suite(n_cap: int) -> dict[str, Any]:
    """Dichotomy sweep: the verdict must match the degenerate-regime test
    for every pattern up to n_cap vertices and every kind, and every hard
    chain must replay cleanly (on a singleton host) with its budget kept."""
    violations: list[str] = []
    polynomial = 0
    npcomplete = 0

    def flag(h: Graph, kind: ModificationKind, problem: str) -> None:
        violations.append(f"{serialize_graph6(h)}/{kind.value}: {problem}")

    singleton = null_graph(1)
    for h in graphs_up_to(n_cap):
        for kind in ModificationKind:
            expected, reason = _expected_verdict(h, kind)
            got = classify(h, kind)
            if got.verdict != expected:
                flag(h, kind, f"verdict {got.verdict}, expected {expected}")
                continue
            if expected == "Polynomial":
                polynomial += 1
                if got.reason != reason:
                    flag(h, kind, f"reason {got.reason}, expected {reason}")
                continue
            npcomplete += 1
            if got.chain is None or got.base is None:
                flag(h, kind, "hard verdict without a chain")
                continue
            if got.chain and got.chain[0].target_h != h:
                flag(h, kind, "chain does not start at the pattern")
            if got.chain and got.base.graph != got.chain[-1].source_h:
                flag(h, kind, "chain does not end at the anchor")
            for i in range(len(got.chain) - 1):
                if got.chain[i].source_h != got.chain[i + 1].target_h:
                    flag(h, kind, f"chain breaks at index {i}")
            seed = Instance(g=singleton, k=1, h=got.base.graph, kind=got.base.kind)
            try:
                replayed = replay_chain(got.chain, seed)
            except ContractViolationError as exc:
                flag(h, kind, f"replay failed: {exc}")
                continue
            if replayed.k != 1:
                flag(h, kind, "replay changed the budget")
            if not are_isomorphic(replayed.h, h) or replayed.kind is not kind:
                flag(h, kind, "replay ended at the wrong problem")
    return {
        "suite": "classify",
        "n_cap": n_cap,
        "polynomial": polynomial,
        "npcomplete": npcomplete,
        "violations": violations,
        "problems": len(violations),
    }


def run_audit_suite(seed: int, count: int = 100, host_cap: int = 5, k_cap: int = 2) -> dict[str, Any]:
    """Randomized structural audits of the three constructions."""
    rng = random.Random(seed)
    pool = [h for h in graphs_up_to(5, n_min=3)]
    violations: list[str] = []
    for trial in range(count):
        h = rng.choice(pool)
        k = rng.randint(1, k_cap)
        n = rng.randint(1, host_cap)
        edges = [
            edge(u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = graph_from_edges(n, edges)
        size = rng.randint(1, h.n)
        v_prime = sorted(rng.sample(range(h.n), size))
        out, records = construct_nonadj(g, k, h, v_prime)
        for msg in audit_branch_construction(g, k, h, v_prime, out, records, False):
            violations.append(f"trial {trial} plain: {msg}")
        out, records = construct_adj(g, k, h, v_prime)
        for msg in audit_branch_construction(g, k, h, v_prime, out, records, True):
            violations.append(f"trial {trial} joined: {msg}")
        out, cliques = construct_tdiamond(g, k)
        for msg in audit_clique_construction(g, k, out, cliques):
            violations.append(f"trial {trial} clique: {msg}")
    return {
        "suite": "audits",
        "seed": seed,
        "inputs": count,
        "violations": violations,
        "problems": len(violations),
    }


def _campaigns(steps: Callable[[], list[ReductionStep]]):
    """Runner of an equivalence suite: one campaign per step."""

    def run(name, host_cap, k_cap, n_cap, seed, workers) -> dict[str, Any]:
        campaigns = [
            verify_equivalence(step, host_cap, k_cap, workers=workers)
            for step in steps()
        ]
        return {
            "suite": name,
            "campaigns": campaigns,
            "problems": sum(_campaign_problems(c) for c in campaigns),
        }

    return run


# suite name -> (acceptance-scale caps (host_cap, k_cap, n_cap), runner); a
# runner takes the suite name, the caps in force, the seed and the workers
_SUITES: dict[str, tuple[tuple[int, int, int], Callable[..., dict[str, Any]]]] = {
    "classify": ((0, 0, 6), lambda name, host, k, n, seed, w: run_classify_suite(n)),
    "churn": ((0, 0, 6), lambda name, host, k, n, seed, w: run_churn_suite(n)),
    "degree": ((4, 2, 0), _campaigns(_degree_steps)),
    "tdiamond": ((4, 2, 0), _campaigns(lambda: [_first_step(t_diamond(3))])),
    "case1": ((4, 1, 0), _campaigns(_case1_steps)),
    "sparse-vl": ((4, 1, 0), _campaigns(lambda: [_first_step(find_sparse_witness(0, 1))])),
    "sparse-vh": (
        (4, 1, 0),
        _campaigns(
            lambda: [_first_step(find_sparse_witness(1, 0, exclude_t_diamond=True))]
        ),
    ),
    "complement": ((5, 2, 0), _campaigns(_complement_steps)),
    "audits": (
        (5, 2, 0),
        lambda name, host, k, n, seed, w: run_audit_suite(seed, host_cap=host, k_cap=k),
    ),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    host_cap: int | None = None,
    k_cap: int | None = None,
    n_cap: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, Any]:
    """Run one named suite with its acceptance-scale default caps, unless
    overridden.  A cap given must be one the suite reads (its default is
    not 0) and at least 1, and `workers` must lie between 1 and the
    machine's CPU count (`os.cpu_count()`)."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    defaults, runner = _SUITES[name]
    caps = {"host-cap": host_cap, "k-cap": k_cap, "n-cap": n_cap}
    for (cap, value), default in zip(caps.items(), defaults):
        if value is not None and not default:
            raise ValueError(f"the {name} suite reads no {cap}, got {value}")
    for cap, value in dict(caps, workers=workers).items():
        if value is not None and value < 1:
            raise ValueError(f"{cap} must be at least 1, got {value}")
    most = os.cpu_count() or 1
    if workers > most:
        raise ValueError(f"workers must be at most the CPU count {most}, got {workers}")
    in_force = [d if c is None else c for c, d in zip(caps.values(), defaults)]
    return runner(name, *in_force, seed, workers)


def run_suites(
    names,
    host_cap: int | None = None,
    k_cap: int | None = None,
    n_cap: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, Any]:
    """Run the named suites (or all of them) into one consolidated report.
    With "all", each suite is given only the caps it reads; a suite named
    on its own is given every cap, and `run_suite` refuses one it does not
    read."""
    from . import __version__

    every = "all" in names
    chosen = list(SUITE_NAMES) if every else list(names)
    given = (host_cap, k_cap, n_cap)
    suites = {
        name: run_suite(
            name,
            *(cap if default or not every else None
              for cap, default in zip(given, _SUITES[name][0])),
            seed=seed,
            workers=workers,
        )
        for name in chosen
    }
    problems = sum(s["problems"] for s in suites.values())
    return {
        "tool": "hfree",
        "version": __version__,
        "config": {
            "suites": chosen,
            "host_cap": host_cap,
            "k_cap": k_cap,
            "n_cap": n_cap,
            "seed": seed,
            "workers": workers,
        },
        "suites": suites,
        "problems": problems,
        "ok": problems == 0,
    }
