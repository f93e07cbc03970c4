"""Parameter-preserving reductions between h-free modification problems.

Each operation takes a concrete instance of a smaller pattern's problem and
produces an instance of a bigger pattern's problem with the same budget k,
plus a ReductionStep describing what happened (including per-copy branch or
clique records, so the output can be audited structurally).  STEPS maps
every step name to the operation that runs it; chain replay and
`hfree reduce` both dispatch through it.

The two workhorse constructions attach, for every placement of a fixed
sub-pattern inside the host's vertex set, k+1 fresh "branches" completing
that placement to a full copy of h.  `construct_nonadj` leaves distinct
branches non-adjacent; `construct_adj` additionally joins every pair of
branch vertices from distinct branches, across all placements.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .formats import graph_to_obj
from .graphs import (
    Edge,
    Graph,
    are_isomorphic,
    complement,
    edge,
    enumerate_pattern_copies,
    induced_subgraph,
    isomorphism_extending,
    t_diamond,
)
from .problems import (
    STEP_COMPLEMENT,
    STEP_CONSTRUCT_ADJ,
    STEP_CONSTRUCT_NONADJ,
    STEP_DEGREE,
    STEP_SPARSE_CASE1,
    STEP_SPARSE_VH,
    STEP_SPARSE_VL,
    STEP_TDIAMOND,
    ContractViolationError,
    Instance,
    ModificationKind,
    class_edge,
    recognize_sparse_lh,
)


@dataclass(frozen=True)
class StepExecution:
    """Record of one concrete application of a step."""

    input_summary: dict[str, Any]
    output_summary: dict[str, Any]
    metadata: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ReductionStep:
    """One hop in a hardness chain.

    The step turns any instance of the source problem (pattern `source_h`,
    kind `source_kind`) into an equivalent instance of the target problem,
    keeping the budget k unchanged.  `params` holds whatever the transform
    needs to be replayed mechanically (see STEPS); `execution` is filled in
    when the step is actually applied to an instance.
    """

    step: str
    params: dict[str, Any]
    source_h: Graph
    source_kind: ModificationKind
    target_h: Graph
    target_kind: ModificationKind
    execution: StepExecution | None = None

    def __post_init__(self) -> None:
        spec = STEPS.get(self.step)
        if spec is None:
            raise ValueError(f"unknown reduction step kind {self.step!r}")
        missing = [p for p in spec.params if p not in self.params]
        if missing:
            raise ValueError(f"step {self.step} needs params {missing}")

    def to_obj(self, *, include_endpoints: bool = True) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "step": self.step,
            "params": dict(self.params),
            "graph_after": graph_to_obj(self.source_h),
        }
        if include_endpoints:
            obj["source"] = {"h": graph_to_obj(self.source_h), "kind": self.source_kind.value}
            obj["target"] = {"h": graph_to_obj(self.target_h), "kind": self.target_kind.value}
        if self.execution is not None:
            obj["execution"] = {
                "input": dict(self.execution.input_summary),
                "output": dict(self.execution.output_summary),
                "metadata": dict(self.execution.metadata),
            }
        return obj


@dataclass(frozen=True)
class BranchRecord:
    """One branch of one placement: the placed sub-pattern (base) plus the
    fresh vertices and edges that complete it to a copy of h."""

    base_vertices: tuple[int, ...]
    base_edges: tuple[Edge, ...]
    branch_vertices: tuple[int, ...]
    branch_edges: tuple[Edge, ...]
    # pattern vertex in v_prime -> host vertex, the placement being completed
    base_embedding: tuple[tuple[int, int], ...]

    def to_obj(self) -> dict[str, Any]:
        return {
            "base_vertices": list(self.base_vertices),
            "base_edges": [list(e) for e in self.base_edges],
            "branch_vertices": list(self.branch_vertices),
            "branch_edges": [list(e) for e in self.branch_edges],
            "base_embedding": [list(p) for p in self.base_embedding],
        }


@dataclass(frozen=True)
class CliqueRecord:
    """The k+1 clique vertices attached to one host edge."""

    for_edge: Edge
    clique_vertices: tuple[int, ...]

    def to_obj(self) -> dict[str, Any]:
        return {
            "for_edge": list(self.for_edge),
            "clique_vertices": list(self.clique_vertices),
        }


def _check_construct_args(g_prime: Graph, k: int, h: Graph, v_prime) -> list[int]:
    vp = sorted(set(v_prime))
    if not vp:
        raise ValueError("v_prime must name at least one pattern vertex")
    if any(v not in h.vertices for v in vp):
        raise ValueError(f"v_prime {vp} is not a subset of the pattern's vertices")
    if k < 1:
        raise ValueError(f"budget must be at least 1, got {k}")
    return vp


def construct_nonadj(
    g_prime: Graph, k: int, h: Graph, v_prime
) -> tuple[Graph, list[BranchRecord]]:
    """Attach k+1 non-adjacent completing branches for every placement of
    h[v_prime] inside the host's vertex set (adjacency of the host itself is
    ignored when placing, and the placement's own edges are never added).

    A host smaller than v_prime admits no placements and passes through
    unchanged.
    """
    vp = _check_construct_args(g_prime, k, h, v_prime)
    sub, old_to_new = induced_subgraph(h, vp)
    outside = [v for v in h.vertices if v not in old_to_new]
    records: list[BranchRecord] = []
    new_edges: set[Edge] = set(g_prime.edges)
    next_vertex = g_prime.n
    for copy in enumerate_pattern_copies(g_prime.n, sub):
        # placement of the original pattern vertices, not the relabeled ones
        f = {v: copy.embedding[old_to_new[v]] for v in vp}
        for _ in range(k + 1):
            branch = {v: next_vertex + i for i, v in enumerate(outside)}
            next_vertex += len(outside)
            branch_edges = []
            for a, b in h.edges:
                if a in branch or b in branch:
                    ea = branch.get(a, f.get(a))
                    eb = branch.get(b, f.get(b))
                    branch_edges.append(edge(ea, eb))
            branch_edges.sort()
            new_edges.update(branch_edges)
            records.append(
                BranchRecord(
                    base_vertices=copy.vertices,
                    base_edges=copy.edges,
                    branch_vertices=tuple(branch[v] for v in outside),
                    branch_edges=tuple(branch_edges),
                    base_embedding=tuple(sorted(f.items())),
                )
            )
    return Graph(next_vertex, frozenset(new_edges)), records


def construct_adj(
    g_prime: Graph, k: int, h: Graph, v_prime
) -> tuple[Graph, list[BranchRecord]]:
    """As construct_nonadj, then join every pair of branch vertices lying in
    distinct branches, across all placements."""
    g, records = construct_nonadj(g_prime, k, h, v_prime)
    extra: set[Edge] = set()
    for i, ri in enumerate(records):
        for rj in records[i + 1 :]:
            for u in ri.branch_vertices:
                for v in rj.branch_vertices:
                    extra.add(edge(u, v))
    return Graph(g.n, g.edges | extra), records


def construct_tdiamond(g_prime: Graph, k: int) -> tuple[Graph, list[CliqueRecord]]:
    """Attach to every host edge a fresh (k+1)-clique fully joined to the
    edge's two endpoints; distinct cliques stay non-adjacent."""
    if k < 1:
        raise ValueError(f"budget must be at least 1, got {k}")
    new_edges: set[Edge] = set(g_prime.edges)
    records: list[CliqueRecord] = []
    next_vertex = g_prime.n
    for u, v in sorted(g_prime.edges):
        clique = tuple(range(next_vertex, next_vertex + k + 1))
        next_vertex += k + 1
        for i, a in enumerate(clique):
            new_edges.add(edge(a, u))
            new_edges.add(edge(a, v))
            for b in clique[i + 1 :]:
                new_edges.add(edge(a, b))
        records.append(CliqueRecord(for_edge=edge(u, v), clique_vertices=clique))
    return Graph(next_vertex, frozenset(new_edges)), records


# ---------------------------------------------------------------------------
# instance-level reductions

def _require_iso(got: Graph, want: Graph, what: str) -> None:
    if not are_isomorphic(got, want):
        raise ValueError(
            f"{what}: instance pattern {got!r} is not isomorphic to the "
            f"expected {want!r}"
        )


def _execution(inst: Instance, out: Instance, metadata: dict[str, Any]) -> StepExecution:
    return StepExecution(
        input_summary=inst.summary(),
        output_summary=out.summary(),
        metadata=metadata,
    )


def _branch_metadata(records: list[BranchRecord]) -> dict[str, Any]:
    return {"branch_records": [r.to_obj() for r in records]}


def complement_reduce(inst: Instance) -> tuple[Instance, ReductionStep]:
    """Complement host and pattern, flipping deletion and completion."""
    out = Instance(
        g=complement(inst.g),
        k=inst.k,
        h=complement(inst.h),
        kind=inst.kind.flipped(),
    )
    step = ReductionStep(
        step=STEP_COMPLEMENT,
        params={},
        source_h=inst.h,
        source_kind=inst.kind,
        target_h=out.h,
        target_kind=out.kind,
        execution=_execution(inst, out, {}),
    )
    return out, step


def _through_complement(
    inst: Instance,
    name: str,
    params: dict[str, Any],
    inner: Callable[[Instance], tuple[Instance, ReductionStep]],
) -> tuple[Instance, ReductionStep]:
    """Complement the instance, run `inner` on that, and complement back.
    The emitted step records the three hops as its composite."""
    flipped, step_in = complement_reduce(inst)
    mid, step_mid = inner(flipped)
    out, step_out = complement_reduce(mid)
    step = ReductionStep(
        step=name,
        params=params,
        source_h=inst.h,
        source_kind=inst.kind,
        target_h=out.h,
        target_kind=out.kind,
        execution=_execution(
            inst,
            out,
            {"composite": [step_in.to_obj(), step_mid.to_obj(), step_out.to_obj()]},
        ),
    )
    return out, step


def _construct_step(
    inst: Instance, h: Graph, v_prime, joined: bool
) -> tuple[Instance, ReductionStep]:
    """Lift an instance for h[v_prime] to one for h with construct_adj
    (joined) or construct_nonadj, keeping the modification kind."""
    name = STEP_CONSTRUCT_ADJ if joined else STEP_CONSTRUCT_NONADJ
    sub, _ = induced_subgraph(h, v_prime)
    _require_iso(inst.h, sub, f"step {name}")
    build = construct_adj if joined else construct_nonadj
    g, records = build(inst.g, inst.k, h, v_prime)
    out = Instance(g=g, k=inst.k, h=h, kind=inst.kind)
    step = ReductionStep(
        step=name,
        params={"v_prime": v_prime},
        source_h=inst.h,
        source_kind=inst.kind,
        target_h=h,
        target_kind=inst.kind,
        execution=_execution(inst, out, _branch_metadata(records)),
    )
    return out, step


def reduce_degree(
    inst: Instance, h: Graph, d: int
) -> tuple[Instance, ReductionStep]:
    """Lift an instance of the problem for h minus its degree-at-most-d
    vertices to an instance of the problem for h itself.

    The instance pattern must match h restricted to degrees above d, and
    that restriction must be proper (a threshold below the whole pattern's
    minimum degree is rejected as degenerate).
    """
    v_prime = [v for v in h.vertices if h.degree(v) > d]
    if len(v_prime) == h.n:
        raise ValueError(
            f"degree threshold {d} is below the minimum degree of {h!r}; "
            "the reduction would be a no-op"
        )
    sub, _ = induced_subgraph(h, v_prime)
    _require_iso(inst.h, sub, "degree reduction")
    g, records = construct_nonadj(inst.g, inst.k, h, v_prime)
    out = Instance(g=g, k=inst.k, h=h, kind=inst.kind)
    step = ReductionStep(
        step=STEP_DEGREE,
        params={"d": d, "variant": "min"},
        source_h=inst.h,
        source_kind=inst.kind,
        target_h=h,
        target_kind=inst.kind,
        execution=_execution(inst, out, _branch_metadata(records)),
    )
    return out, step


def reduce_degree_max(
    inst: Instance, h: Graph, d: int
) -> tuple[Instance, ReductionStep]:
    """Max-side companion of reduce_degree: lift from h minus its
    degree-at-least-d vertices, by running the min-side reduction on the
    complement pattern and complementing back."""
    v_prime = [v for v in h.vertices if h.degree(v) < d]
    if len(v_prime) == h.n:
        raise ValueError(
            f"degree threshold {d} is above the maximum degree of {h!r}; "
            "the reduction would be a no-op"
        )
    sub, _ = induced_subgraph(h, v_prime)
    _require_iso(inst.h, sub, "degree reduction (max side)")
    return _through_complement(
        inst,
        STEP_DEGREE,
        {"d": d, "variant": "max"},
        lambda flipped: reduce_degree(flipped, complement(h), h.n - 1 - d),
    )


def reduce_tdiamond(inst: Instance, t: int) -> tuple[Instance, ReductionStep]:
    """Lift a (t-1)-diamond deletion instance to a t-diamond one by hanging
    a (k+1)-clique on every host edge."""
    if t < 3:
        raise ValueError(f"induction needs t >= 3, got {t}")
    if inst.kind is not ModificationKind.DELETION:
        raise ValueError("the clique construction only applies to deletion")
    _require_iso(inst.h, t_diamond(t - 1), "clique induction")
    g, records = construct_tdiamond(inst.g, inst.k)
    out = Instance(g=g, k=inst.k, h=t_diamond(t), kind=ModificationKind.DELETION)
    step = ReductionStep(
        step=STEP_TDIAMOND,
        params={"t": t},
        source_h=inst.h,
        source_kind=inst.kind,
        target_h=out.h,
        target_kind=out.kind,
        execution=_execution(
            inst, out, {"clique_records": [r.to_obj() for r in records]}
        ),
    )
    return out, step


def _sparse_shape(h: Graph, what: str):
    shape = recognize_sparse_lh(h)
    if shape is None:
        raise ValueError(f"{what}: {h!r} is not a sparse two-degree pattern")
    return shape


def reduce_sparse_vl(inst: Instance, h: Graph) -> tuple[Instance, ReductionStep]:
    """Lift from the pattern obtained by dropping h's adjacent low-degree
    pair (sparse shapes whose low class carries an edge)."""
    shape = _sparse_shape(h, "low-pair reduction")
    if shape.edges_in_low != 1:
        raise ValueError("low-pair reduction needs exactly one edge in the low class")
    if inst.kind is not ModificationKind.DELETION:
        raise ValueError("low-pair reduction only applies to deletion")
    u, v = class_edge(h, shape.v_low)
    v_prime = [w for w in h.vertices if w not in (u, v)]
    sub, _ = induced_subgraph(h, v_prime)
    _require_iso(inst.h, sub, "low-pair reduction")
    g, records = construct_nonadj(inst.g, inst.k, h, v_prime)
    out = Instance(g=g, k=inst.k, h=h, kind=ModificationKind.DELETION)
    step = ReductionStep(
        step=STEP_SPARSE_VL,
        params={"low_pair": [u, v]},
        source_h=inst.h,
        source_kind=inst.kind,
        target_h=h,
        target_kind=ModificationKind.DELETION,
        execution=_execution(inst, out, _branch_metadata(records)),
    )
    return out, step


def reduce_sparse_vh(inst: Instance, h: Graph) -> tuple[Instance, ReductionStep]:
    """Lift from the pattern induced by the low class plus h's adjacent
    high-degree pair (sparse shapes whose one edge sits in the high class,
    excluding the clique-joined-to-independent-set family, which the clique
    induction handles instead).

    Runs through the complement: flip to completion, attach branches for the
    complement pattern, flip back.  The emitted step records the composite.
    """
    shape = _sparse_shape(h, "high-pair reduction")
    if shape.edges_in_high != 1 or shape.edges_in_low != 0:
        raise ValueError(
            "high-pair reduction needs the single within-class edge in the high class"
        )
    if h.n >= 4 and are_isomorphic(h, t_diamond(h.n - 2)):
        raise ValueError("clique-joined patterns take the induction route instead")
    if inst.kind is not ModificationKind.DELETION:
        raise ValueError("high-pair reduction only applies to deletion")
    u, v = class_edge(h, shape.v_high)
    v_prime = sorted(shape.v_low | {u, v})
    sub, _ = induced_subgraph(h, v_prime)
    _require_iso(inst.h, sub, "high-pair reduction")
    return _through_complement(
        inst,
        STEP_SPARSE_VH,
        {"high_pair": [u, v], "v_prime": v_prime},
        lambda flipped: _construct_step(flipped, complement(h), v_prime, joined=False),
    )


def reduce_sparse_case1(
    g_prime: Graph, k: int, h: Graph
) -> tuple[Instance, ReductionStep]:
    """Turn a 3-path deletion instance into one for a sparse pattern whose
    two degree classes are both independent.

    Picks the first center-in-high, ends-in-low induced 3-path of h and
    applies the joined-branches construction on that triple.
    """
    shape = _sparse_shape(h, "independent-classes reduction")
    if shape.edges_in_high != 0 or shape.edges_in_low != 0:
        raise ValueError("independent-classes reduction needs both classes edge-free")
    if shape.low < 2:
        raise ValueError(
            f"independent-classes reduction needs low degree >= 2, got {shape.low}"
        )
    triple = None
    for v in sorted(shape.v_high):
        lows = [w for w in h.adj_sorted[v] if w in shape.v_low]
        if len(lows) >= 2:
            triple = (lows[0], v, lows[1])
            break
    if triple is None:
        raise ContractViolationError(
            f"no high-centered 3-path with low endpoints exists in {h!r}"
        )
    u, v, w = triple
    sub, _ = induced_subgraph(h, sorted(triple))
    g, records = construct_adj(g_prime, k, h, sorted(triple))
    out = Instance(g=g, k=k, h=h, kind=ModificationKind.DELETION)
    seed = Instance(g=g_prime, k=k, h=sub, kind=ModificationKind.DELETION)
    step = ReductionStep(
        step=STEP_SPARSE_CASE1,
        params={"triple": [u, v, w]},
        source_h=sub,
        source_kind=ModificationKind.DELETION,
        target_h=h,
        target_kind=ModificationKind.DELETION,
        execution=_execution(seed, out, _branch_metadata(records)),
    )
    return out, step


# ---------------------------------------------------------------------------
# the step table and chain replay

def _lift_degree(inst: Instance, h: Graph, params: dict[str, Any]):
    lift = reduce_degree_max if params.get("variant", "min") == "max" else reduce_degree
    return lift(inst, h, params["d"])


def _lift_case1(inst: Instance, h: Graph, params: dict[str, Any]):
    out, step = reduce_sparse_case1(inst.g, inst.k, h)
    if inst.kind is not out.kind or not are_isomorphic(inst.h, step.source_h):
        raise ValueError(
            f"{STEP_SPARSE_CASE1} input must be a deletion instance of the "
            "pattern's high-centered 3-path"
        )
    return out, step


@dataclass(frozen=True)
class StepSpec:
    """How one kind of step runs: `lift(inst, h, params)` turns an instance
    of the step's source problem into one for the target pattern h, and
    returns it with the executed ReductionStep.  `params` names the step
    params the lift reads; `pattern` says whether it needs h (the other
    lifts derive the target); `cli` says whether `hfree reduce` offers it."""

    lift: Callable[[Instance, Any, dict[str, Any]], tuple[Instance, ReductionStep]]
    params: tuple[str, ...] = ()
    pattern: bool = True
    cli: bool = True


# Every step kind.  The lifts name the reductions and constructions inside
# their bodies, so each call goes through the module's current attributes.
STEPS: dict[str, StepSpec] = {
    STEP_COMPLEMENT: StepSpec(lambda inst, h, p: complement_reduce(inst), pattern=False),
    STEP_DEGREE: StepSpec(_lift_degree, params=("d",)),
    STEP_TDIAMOND: StepSpec(
        lambda inst, h, p: reduce_tdiamond(inst, p["t"]), params=("t",), pattern=False
    ),
    STEP_SPARSE_VL: StepSpec(lambda inst, h, p: reduce_sparse_vl(inst, h)),
    STEP_SPARSE_VH: StepSpec(lambda inst, h, p: reduce_sparse_vh(inst, h)),
    STEP_SPARSE_CASE1: StepSpec(_lift_case1),
    STEP_CONSTRUCT_NONADJ: StepSpec(
        lambda inst, h, p: _construct_step(inst, h, p["v_prime"], joined=False),
        params=("v_prime",),
        cli=False,
    ),
    STEP_CONSTRUCT_ADJ: StepSpec(
        lambda inst, h, p: _construct_step(inst, h, p["v_prime"], joined=True),
        params=("v_prime",),
        cli=False,
    ),
}


def apply_step(step: ReductionStep, inst: Instance) -> Instance:
    """Execute one chain step on an instance of its source problem."""
    if inst.kind is not step.source_kind:
        raise ValueError(
            f"instance kind {inst.kind.value} does not match the step's "
            f"source kind {step.source_kind.value}"
        )
    _require_iso(inst.h, step.source_h, f"step {step.step}")
    out, _ = STEPS[step.step].lift(inst, step.target_h, step.params)
    if out.k != inst.k:
        raise ContractViolationError(
            f"step {step.step} changed the budget: {inst.k} -> {out.k}"
        )
    if out.kind is not step.target_kind or not are_isomorphic(out.h, step.target_h):
        raise ContractViolationError(
            f"step {step.step} produced a {out.kind.value} instance of {out.h!r}, "
            f"expected {step.target_kind.value} of {step.target_h!r}"
        )
    return out


def replay_chain(chain, seed: Instance) -> Instance:
    """Run a hardness chain forward: start from an instance of the chain's
    base problem and apply the steps from the base end up to the pattern the
    chain was built for.  The budget must come out unchanged."""
    inst = seed
    for idx in range(len(chain) - 1, -1, -1):
        step = chain[idx]
        try:
            inst = apply_step(step, inst)
        except (ValueError, ContractViolationError) as exc:
            raise ContractViolationError(
                f"replay failed at chain index {idx} ({step.step}): {exc}"
            ) from exc
    if inst.k != seed.k:
        raise ContractViolationError(
            f"replay changed the budget: {seed.k} -> {inst.k}"
        )
    return inst


# ---------------------------------------------------------------------------
# structural audits

def audit_branch_construction(
    g_prime: Graph,
    k: int,
    h: Graph,
    v_prime,
    out: Graph,
    records: list[BranchRecord],
    joined: bool,
) -> list[str]:
    """Check a construct_nonadj/construct_adj output against its contract.
    Returns a list of violation messages, empty when everything holds."""
    problems: list[str] = []
    vp = sorted(set(v_prime))
    sub, old_to_new = induced_subgraph(h, vp)
    copies = enumerate_pattern_copies(g_prime.n, sub)
    outside = h.n - len(vp)
    expected_n = g_prime.n + len(copies) * (k + 1) * outside
    if out.n != expected_n:
        problems.append(f"vertex count {out.n}, expected {expected_n}")
    if len(records) != len(copies) * (k + 1):
        problems.append(
            f"{len(records)} branch records for {len(copies)} placements"
        )
    original, _ = induced_subgraph(out, range(g_prime.n))
    if original.edges != g_prime.edges:
        problems.append("adjacency among original vertices changed")
    all_branch_vertices = {bv for rec in records for bv in rec.branch_vertices}
    max_outside_degree = max(
        (h.degree(x) for x in h.vertices if x not in old_to_new), default=0
    )
    for i, rec in enumerate(records):
        own = set(rec.branch_vertices)
        allowed = set(rec.base_vertices) | own
        for a, b in rec.branch_edges:
            if a not in allowed or b not in allowed:
                problems.append(f"record {i}: branch edge {a, b} leaves the branch")
            if a not in own and b not in own:
                problems.append(f"record {i}: branch edge {a, b} misses the branch")
            if edge(a, b) not in out.edges:
                problems.append(f"record {i}: branch edge {a, b} absent from output")
        pos = {v: j for j, v in enumerate(sorted(allowed))}
        union = Graph(
            len(pos),
            frozenset(
                edge(pos[a], pos[b])
                for a, b in set(rec.base_edges) | set(rec.branch_edges)
            ),
        )
        forced = {hv: pos[gv] for hv, gv in rec.base_embedding}
        if isomorphism_extending(h, union, forced) is None:
            problems.append(f"record {i}: branch union is not a copy of the pattern")
        for bv in rec.branch_vertices:
            stray = out.adj[bv] - allowed
            cross = stray & all_branch_vertices
            stray -= cross
            if stray:
                problems.append(
                    f"record {i}: vertex {bv} has stray neighbors {sorted(stray)}"
                )
            if joined:
                if cross != all_branch_vertices - own:
                    problems.append(
                        f"record {i}: vertex {bv} misses cross-branch edges"
                    )
            else:
                if cross:
                    problems.append(f"record {i}: vertex {bv} touches another branch")
                if out.degree(bv) > max_outside_degree:
                    problems.append(
                        f"record {i}: vertex {bv} degree {out.degree(bv)} exceeds "
                        f"the pattern bound {max_outside_degree}"
                    )
    return problems


def audit_clique_construction(
    g_prime: Graph, k: int, out: Graph, records: list[CliqueRecord]
) -> list[str]:
    """Check a construct_tdiamond output against its contract."""
    problems: list[str] = []
    expected_n = g_prime.n + g_prime.m * (k + 1)
    if out.n != expected_n:
        problems.append(f"vertex count {out.n}, expected {expected_n}")
    if len(records) != g_prime.m:
        problems.append(f"{len(records)} clique records for {g_prime.m} edges")
    original, _ = induced_subgraph(out, range(g_prime.n))
    if original.edges != g_prime.edges:
        problems.append("adjacency among original vertices changed")
    seen_edges = set()
    for i, rec in enumerate(records):
        seen_edges.add(rec.for_edge)
        if len(rec.clique_vertices) != k + 1:
            problems.append(f"record {i}: clique size {len(rec.clique_vertices)}")
        u, v = rec.for_edge
        allowed = set(rec.clique_vertices) | {u, v}
        for j, a in enumerate(rec.clique_vertices):
            for b in rec.clique_vertices[j + 1 :]:
                if not out.has_edge(a, b):
                    problems.append(f"record {i}: clique pair {a, b} not adjacent")
            if not (out.has_edge(a, u) and out.has_edge(a, v)):
                problems.append(f"record {i}: vertex {a} misses an endpoint")
            stray = out.adj[a] - allowed
            if stray:
                problems.append(
                    f"record {i}: vertex {a} has stray neighbors {sorted(stray)}"
                )
    if seen_edges != set(g_prime.edges):
        problems.append("clique records do not cover the host edges exactly")
    return problems
