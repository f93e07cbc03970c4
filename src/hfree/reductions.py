"""Parameter-preserving reductions between h-free modification problems.

Each operation takes a concrete instance of a smaller pattern's problem and
produces an instance of a bigger pattern's problem with the same budget k.
STEPS maps every step name to the source problem it reduces from and the
build that runs it.  Every step runs from its record: `chain_step` derives
it from the table (classify builds its chains this way), and one executor
checks the instance against the step's source problem once and builds the
target; chain replay (`apply_step`) and `hfree reduce` (`reduce_instance`)
both go through it.  Only `reduce_instance` returns a ReductionStep
describing what happened (including per-copy branch or clique records, so
the output can be audited structurally); a build keeps its raw records, and
they are serialized into that description only there, never on the replay
or campaign path.

The two workhorse constructions attach, for every placement of a fixed
sub-pattern inside the host's vertex set, k+1 fresh "branches" completing
that placement to a full copy of h.  `construct_nonadj` leaves distinct
branches non-adjacent; `construct_adj` additionally joins every pair of
branch vertices from distinct branches, across all placements.  Placements
are taken on the vertex set, so everything a construction adds depends on
the host's vertex count, k, h and V' alone: a BranchScaffold holds it, and
a host's output is the union of the host's edges with its scaffold's.  A
step keeps the scaffolds its runs build (`ReductionStep.scaffolds`), so a
campaign builds one per host size and budget, and they go when the step
does.  Joined outputs, and those routed through the complement, are
dense; `solve_branching` searches a host of at least 8 vertices with more
than three quarters of its pairs as edges in the complement.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import comb, perm
from typing import Any, Callable

from .formats import graph_to_obj
from .graphs import (
    Edge,
    Graph,
    are_isomorphic,
    automorphism_count,
    bits,
    complement,
    edge,
    edges_within,
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
    SparseLH,
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
    when `reduce_instance` applies the step to an instance.  `scaffolds`
    keeps the branch scaffolds that the step's runs have built, those of
    its complement hops included, for its later runs on hosts of the same
    size and budget; it is not part of the step's value.
    """

    step: str
    params: dict[str, Any]
    source_h: Graph
    source_kind: ModificationKind
    target_h: Graph
    target_kind: ModificationKind
    execution: StepExecution | None = None
    scaffolds: dict[tuple, BranchScaffold] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        _spec(self.step, self.params)

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


# Largest output that a construction or a complement step builds; a bigger
# one is refused before it is built.  Nothing the tests, `hfree verify all`
# or the benchmark run constructs more than 366 vertices or 7262 edges.  On 2 CPUs with Python 3.11, a construct_nonadj output of
# 19,900 vertices took 11 MB and its bitmask adjacency 25 MB more, and a
# construct_adj output of 985,634 edges took 125 MB (1,513,829 edges took
# 221 MB), so at these caps a construction stays under about 150 MB.
CONSTRUCT_VERTEX_CAP = 20_000
CONSTRUCT_EDGE_CAP = 1_000_000


class ConstructionCapExceeded(ValueError):
    """A construction or complement step would output more vertices or
    edges than its cap; refusing beats running out of memory."""


def _check_size(what: str, n: int, m: int) -> None:
    if n > CONSTRUCT_VERTEX_CAP or m > CONSTRUCT_EDGE_CAP:
        raise ConstructionCapExceeded(
            f"{what} would output {n} vertices and {m} edges, over the cap of "
            f"{CONSTRUCT_VERTEX_CAP} vertices and {CONSTRUCT_EDGE_CAP} edges"
        )


class BranchScaffold:
    """What construct_nonadj (or, joined, construct_adj) adds to any host
    on `host_n` vertices at budget k: the branch vertices host_n..n-1, the
    `m` edges touching them (the joins included) and one BranchRecord per
    branch.  Every placement of h[v_prime] on the host's vertices gets k+1
    branches of the pattern's other vertices, each carrying the pattern
    edges that touch them, and there are n!/(n-p)!/|Aut(h[v_prime])|
    placements of p vertices on n (|Aut| is counted only when n!/(n-p)! is
    not zero).  Joining adds an edge between every two branch vertices of
    distinct branches.  No host edge is read, so one scaffold serves every
    host of its size.  The size is counted at once; `parts` builds the
    edges and records on first use."""

    def __init__(self, host_n: int, k: int, h: Graph, v_prime: list[int], joined: bool):
        self.host_n, self.k, self.h, self.v_prime, self.joined = host_n, k, h, v_prime, joined
        self.sub, self.old_to_new = induced_subgraph(h, v_prime)
        placements = perm(host_n, len(v_prime))
        if placements:
            placements //= automorphism_count(self.sub)
        branches = placements * (k + 1)
        outside = h.n - len(v_prime)
        touching = h.m - edges_within(h, v_prime)
        self.n = host_n + branches * outside
        self.m = branches * touching
        if joined:
            self.m += comb(branches * outside, 2) - branches * comb(outside, 2)

    @cached_property
    def parts(self) -> tuple[frozenset[Edge], tuple[BranchRecord, ...]]:
        """The scaffold's edges and its branch records, in placement order."""
        h, old_to_new = self.h, self.old_to_new
        outside = [v for v in h.vertices if v not in old_to_new]
        records: list[BranchRecord] = []
        edges: set[Edge] = set()
        next_vertex = self.host_n
        for copy in enumerate_pattern_copies(self.host_n, self.sub):
            # placement of the original pattern vertices, not the relabeled ones
            f = {v: copy.embedding[old_to_new[v]] for v in self.v_prime}
            for _ in range(self.k + 1):
                branch = {v: next_vertex + i for i, v in enumerate(outside)}
                next_vertex += len(outside)
                branch_edges = []
                for a, b in h.edges:
                    if a in branch or b in branch:
                        ea = branch.get(a, f.get(a))
                        eb = branch.get(b, f.get(b))
                        branch_edges.append(edge(ea, eb))
                branch_edges.sort()
                edges.update(branch_edges)
                records.append(
                    BranchRecord(
                        base_vertices=copy.vertices,
                        base_edges=copy.edges,
                        branch_vertices=tuple(branch[v] for v in outside),
                        branch_edges=tuple(branch_edges),
                        base_embedding=tuple(sorted(f.items())),
                    )
                )
        if self.joined and outside:
            # branches are runs of len(outside) vertices after the host's;
            # u joins every vertex from the start of the next branch on
            size = len(outside)
            for u in range(self.host_n, next_vertex):
                later = u - (u - self.host_n) % size + size
                edges.update((u, v) for v in range(later, next_vertex))
        return frozenset(edges), tuple(records)


def construction_size(
    g_prime: Graph, k: int, h: Graph, v_prime, joined: bool = False
) -> tuple[int, int]:
    """Vertex and edge count of construct_nonadj (or, joined,
    construct_adj) output, without building it: the host's plus its
    scaffold's."""
    scaffold = BranchScaffold(g_prime.n, k, h, sorted(set(v_prime)), joined)
    return scaffold.n, g_prime.m + scaffold.m


def _attach_branches(
    g_prime: Graph,
    k: int,
    h: Graph,
    v_prime,
    joined: bool,
    scaffolds: dict[tuple, BranchScaffold] | None,
) -> tuple[Graph, list[BranchRecord]]:
    """The host's edges united with its scaffold's, which is taken from
    `scaffolds` or built and kept there."""
    vp = sorted(set(v_prime))
    if not vp:
        raise ValueError("v_prime must name at least one pattern vertex")
    if any(v not in h.vertices for v in vp):
        raise ValueError(f"v_prime {vp} is not a subset of the pattern's vertices")
    if k < 1:
        raise ValueError(f"budget must be at least 1, got {k}")
    if g_prime.n < len(vp):
        return g_prime, []  # no placement fits
    key = (g_prime.n, k, h, tuple(vp), joined)
    if scaffolds is None:
        scaffolds = {}
    scaffold = scaffolds.get(key)
    if scaffold is None:
        scaffold = scaffolds[key] = BranchScaffold(g_prime.n, k, h, vp, joined)
    _check_size("the construction", scaffold.n, g_prime.m + scaffold.m)
    edges, records = scaffold.parts
    return Graph(scaffold.n, g_prime.edges | edges), list(records)


def construct_nonadj(
    g_prime: Graph,
    k: int,
    h: Graph,
    v_prime,
    scaffolds: dict[tuple, BranchScaffold] | None = None,
) -> tuple[Graph, list[BranchRecord]]:
    """Attach k+1 non-adjacent completing branches for every placement of
    h[v_prime] inside the host's vertex set (adjacency of the host itself is
    ignored when placing, and the placement's own edges are never added).

    A host smaller than v_prime admits no placements and passes through
    unchanged.  An output over CONSTRUCT_VERTEX_CAP vertices or
    CONSTRUCT_EDGE_CAP edges is refused with ConstructionCapExceeded before
    anything is built.  The branches come from a BranchScaffold, kept in
    `scaffolds` when it is given so that later calls with the same host
    size, k, h and v_prime reuse it.
    """
    return _attach_branches(g_prime, k, h, v_prime, False, scaffolds)


def construct_adj(
    g_prime: Graph,
    k: int,
    h: Graph,
    v_prime,
    scaffolds: dict[tuple, BranchScaffold] | None = None,
) -> tuple[Graph, list[BranchRecord]]:
    """As construct_nonadj, then join every pair of branch vertices lying in
    distinct branches, across all placements.  The caps count the joined
    edges too."""
    return _attach_branches(g_prime, k, h, v_prime, True, scaffolds)


def construct_tdiamond(g_prime: Graph, k: int) -> tuple[Graph, list[CliqueRecord]]:
    """Attach to every host edge a fresh (k+1)-clique fully joined to the
    edge's two endpoints; distinct cliques stay non-adjacent.  The output
    size caps apply as for construct_nonadj."""
    if k < 1:
        raise ValueError(f"budget must be at least 1, got {k}")
    _check_size(
        "the t-diamond construction",
        g_prime.n + g_prime.m * (k + 1),
        g_prime.m * (1 + 2 * (k + 1) + comb(k + 1, 2)),
    )
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
# the step table and its executor

# A build's execution metadata, serialized on demand from its raw records.
Metadata = Callable[[], dict[str, Any]]


def _capped_complement(g: Graph) -> Graph:
    """complement(g), refused unbuilt when it is over the construction
    caps."""
    _check_size("the complement", g.n, comb(g.n, 2) - g.m)
    return complement(g)


@dataclass(frozen=True)
class _Branches:
    """How a branch step reduces the problem for h[v_prime] to the one for h,
    keeping the kind: the params the step records, and the construction,
    which is construct_adj when `joined`, construct_nonadj otherwise, or,
    with `inner` set, that (step, params) run on the complement pattern
    between two complement hops."""

    v_prime: list[int]
    params: dict[str, Any]
    joined: bool = False
    inner: tuple[str, dict[str, Any]] | None = None


def degree_kept(h: Graph, d: int, variant: str) -> list[int]:
    """The vertices of h that a degree-reduce step with threshold d keeps,
    its V': those of degree above d, or below d for the max variant."""
    if variant == "max":
        return [v for v, deg in enumerate(h.degrees) if deg < d]
    return [v for v, deg in enumerate(h.degrees) if deg > d]


def _degree_branches(h: Graph, kind: ModificationKind, params: dict[str, Any]) -> _Branches:
    d = params["d"]
    variant = params.get("variant", "min")
    if variant not in ("min", "max"):
        raise ValueError(f"unknown degree variant {variant!r}; expected min or max")
    v_prime = degree_kept(h, d, variant)
    if variant == "max":
        side = "above the maximum"
        # the min side of the complement pattern, whose degrees are n-1-deg
        inner = (STEP_DEGREE, {"d": h.n - 1 - d, "variant": "min"})
    else:
        side, inner = "below the minimum", None
    if len(v_prime) == h.n:
        raise ValueError(
            f"degree threshold {d} is {side} degree of {h!r}; "
            "the reduction would be a no-op"
        )
    return _Branches(v_prime, {"d": d, "variant": variant}, inner=inner)


def _sparse_shape(h: Graph, what: str) -> SparseLH:
    shape = recognize_sparse_lh(h)
    if shape is None:
        raise ValueError(f"{what}: {h!r} is not a sparse two-degree pattern")
    return shape


def _deletion_only(kind: ModificationKind, what: str) -> None:
    if kind is not ModificationKind.DELETION:
        raise ValueError(f"{what} only applies to deletion")


def _low_pair_branches(h: Graph, kind: ModificationKind, params: dict[str, Any]) -> _Branches:
    what = "low-pair reduction"
    shape = _sparse_shape(h, what)
    if shape.edges_in_low != 1:
        raise ValueError(f"{what} needs exactly one edge in the low class")
    _deletion_only(kind, what)
    u, v = class_edge(h, shape.v_low)
    v_prime = [w for w in h.vertices if w not in (u, v)]
    return _Branches(v_prime, {"low_pair": [u, v]})


def _high_pair_branches(h: Graph, kind: ModificationKind, params: dict[str, Any]) -> _Branches:
    what = "high-pair reduction"
    shape = _sparse_shape(h, what)
    if shape.edges_in_high != 1 or shape.edges_in_low != 0:
        raise ValueError(
            f"{what} needs the single within-class edge in the high class"
        )
    if shape.is_t_diamond:
        raise ValueError("clique-joined patterns take the induction route instead")
    _deletion_only(kind, what)
    u, v = class_edge(h, shape.v_high)
    v_prime = sorted(shape.v_low | {u, v})
    return _Branches(
        v_prime,
        {"high_pair": [u, v], "v_prime": v_prime},
        inner=(STEP_CONSTRUCT_NONADJ, {"v_prime": v_prime}),
    )


def _case1_branches(h: Graph, kind: ModificationKind, params: dict[str, Any]) -> _Branches:
    what = "independent-classes reduction"
    shape = _sparse_shape(h, what)
    if shape.edges_in_high != 0 or shape.edges_in_low != 0:
        raise ValueError(f"{what} needs both classes edge-free")
    if shape.low < 2:
        raise ValueError(f"{what} needs low degree >= 2, got {shape.low}")
    _deletion_only(kind, what)
    for v in sorted(shape.v_high):
        lows = [w for w in bits(h.masks[v]) if w in shape.v_low]
        if len(lows) >= 2:
            triple = [lows[0], v, lows[1]]
            return _Branches(sorted(triple), {"triple": triple}, joined=True)
    raise ContractViolationError(
        f"no high-centered 3-path with low endpoints exists in {h!r}"
    )


def _given_branches(joined: bool):
    return lambda h, kind, params: _Branches(
        params["v_prime"], {"v_prime": params["v_prime"]}, joined
    )


@dataclass(frozen=True)
class StepSpec:
    """One kind of step.  `source(h, kind, params)` derives the source
    problem, which the step reduces to (h, kind): it returns the source
    pattern, the source kind and the params the step records, and raises
    ValueError where the step does not apply.  `build(step, inst)` builds,
    from an instance of the step's source problem, the host of the target
    instance, and returns it with a function that serializes the execution
    metadata from the build's raw records; only `reduce_instance` calls
    that function.  The build trusts the instance to match the step.
    `params` names the step params they read.  `target(h, kind, params)`,
    set only on the steps that derive their target problem from the
    instance's (h, kind), returns that target; the other steps are told
    their target pattern.  `cli` says whether `hfree reduce` offers it."""

    source: Callable[
        [Graph, ModificationKind, dict[str, Any]],
        tuple[Graph, ModificationKind, dict[str, Any]],
    ]
    build: Callable[[ReductionStep, Instance], tuple[Graph, Metadata]]
    params: tuple[str, ...] = ()
    target: Callable[
        [Graph, ModificationKind, dict[str, Any]], tuple[Graph, ModificationKind]
    ] | None = None
    cli: bool = True


def _through_complement(
    step: ReductionStep, inst: Instance, name: str, params: dict[str, Any]
) -> tuple[Graph, Metadata]:
    """Build `step` as three chain steps run in a row: complement the
    instance, run (name, params) on the complement pattern, complement
    back; the hops keep their scaffolds in `step`'s.  The back hop is
    derived first, so a complement pattern over the caps is refused before
    any graph is built.  The metadata records the three executed hops; each
    hop's record, its own metadata included, is serialized only when the
    metadata is."""
    back = chain_step(STEP_COMPLEMENT, {}, step.target_h, step.target_kind)
    inner = chain_step(name, params, back.source_h, back.source_kind)
    forth = chain_step(STEP_COMPLEMENT, {}, inner.source_h, inner.source_kind)
    hops = [replace(hop, scaffolds=step.scaffolds) for hop in (forth, inner, back)]
    runs = []
    for hop in hops:
        out, metadata = _run_step(hop, inst)
        runs.append((hop, inst, out, metadata))
        inst = out
    return inst.g, lambda: {"composite": [_executed(*run).to_obj() for run in runs]}


def _branch_step(
    branches: Callable[[Graph, ModificationKind, dict[str, Any]], _Branches],
    **fields: Any,
) -> StepSpec:
    """The spec of a step that reduces from h[V'] by attaching branches, with
    `branches` giving V' and the construction."""

    def source(h, kind, params):
        b = branches(h, kind, params)
        return induced_subgraph(h, b.v_prime)[0], kind, b.params

    def build(step, inst):
        b = branches(step.target_h, step.target_kind, step.params)
        if b.inner is not None:
            return _through_complement(step, inst, *b.inner)
        construct = construct_adj if b.joined else construct_nonadj
        g, records = construct(inst.g, inst.k, step.target_h, b.v_prime, step.scaffolds)
        return g, lambda: {"branch_records": [r.to_obj() for r in records]}

    return StepSpec(source, build, **fields)


def _tdiamond_source(h, kind: ModificationKind, params: dict[str, Any]):
    t = params["t"]
    if t < 3:
        raise ValueError(f"induction needs t >= 3, got {t}")
    _deletion_only(kind, "the clique construction")
    return t_diamond(t - 1), kind, {"t": t}


def _tdiamond_build(step: ReductionStep, inst: Instance) -> tuple[Graph, Metadata]:
    g, records = construct_tdiamond(inst.g, inst.k)
    return g, lambda: {"clique_records": [r.to_obj() for r in records]}


# Every step kind.  The builds name the constructions inside their bodies,
# so each call goes through the module's current attributes.
STEPS: dict[str, StepSpec] = {
    STEP_COMPLEMENT: StepSpec(
        lambda h, kind, p: (_capped_complement(h), kind.flipped(), {}),
        lambda step, inst: (_capped_complement(inst.g), dict),
        target=lambda h, kind, p: (_capped_complement(h), kind.flipped()),
    ),
    STEP_DEGREE: _branch_step(_degree_branches, params=("d",)),
    STEP_TDIAMOND: StepSpec(
        _tdiamond_source,
        _tdiamond_build,
        params=("t",),
        target=lambda h, kind, p: (t_diamond(p["t"]), kind),
    ),
    STEP_SPARSE_VL: _branch_step(_low_pair_branches),
    STEP_SPARSE_VH: _branch_step(_high_pair_branches),
    STEP_SPARSE_CASE1: _branch_step(_case1_branches),
    STEP_CONSTRUCT_NONADJ: _branch_step(
        _given_branches(False), params=("v_prime",), cli=False
    ),
    STEP_CONSTRUCT_ADJ: _branch_step(
        _given_branches(True), params=("v_prime",), cli=False
    ),
}


def _spec(name: str, params: dict[str, Any]) -> StepSpec:
    """The spec of step `name`, once `params` holds every param it reads."""
    spec = STEPS.get(name)
    if spec is None:
        raise ValueError(f"unknown reduction step kind {name!r}")
    missing = [p for p in spec.params if p not in params]
    if missing:
        raise ValueError(f"step {name} needs params {missing}")
    return spec


def chain_step(
    name: str, params: dict[str, Any], h: Graph, kind: ModificationKind
) -> ReductionStep:
    """The unexecuted step `name` into the problem (h, kind), with its
    source problem and recorded params as STEPS derives them."""
    source_h, source_kind, recorded = _spec(name, params).source(h, kind, params)
    return ReductionStep(name, recorded, source_h, source_kind, h, kind)


def _run_step(step: ReductionStep, inst: Instance) -> tuple[Instance, Metadata]:
    """Build `step` on `inst`, which must be an instance of its source
    problem; returns the output with the serializer of the execution
    metadata.  The output keeps the budget and is an instance of the step's
    target problem by construction."""
    g, metadata = STEPS[step.step].build(step, inst)
    return Instance(g, inst.k, step.target_h, step.target_kind), metadata


def _execute_step(step: ReductionStep, inst: Instance) -> tuple[Instance, Metadata]:
    """Check that `inst` is an instance of the step's source problem, then
    run the step on it."""
    if inst.kind is not step.source_kind:
        raise ValueError(
            f"instance kind {inst.kind.value} does not match the step's "
            f"source kind {step.source_kind.value}"
        )
    if not are_isomorphic(inst.h, step.source_h):
        raise ValueError(
            f"step {step.step}: instance pattern {inst.h!r} is not isomorphic "
            f"to the step's source pattern {step.source_h!r}"
        )
    return _run_step(step, inst)


def _executed(
    step: ReductionStep, inst: Instance, out: Instance, metadata: Metadata
) -> ReductionStep:
    """`step` with the record of its run from `inst` to `out`, the one place
    where execution metadata is serialized."""
    return replace(step, execution=StepExecution(inst.summary(), out.summary(), metadata()))


def reduce_instance(
    inst: Instance, name: str, params: dict[str, Any], h: Graph | None = None
) -> tuple[Instance, ReductionStep]:
    """Run the step `name` with `params` on `inst`, reducing it to the
    problem for the target pattern h; the steps that derive their target
    (complement-problem, tdiamond-induction) take no h.  Returns the output
    instance with the executed step, whose source pattern is the one the
    step derives from h, whatever labels the instance's pattern carries."""
    derive = _spec(name, params).target
    if derive is not None:
        if h is not None:
            raise ValueError(f"step {name} derives its own target and takes no pattern")
        h, kind = derive(inst.h, inst.kind, params)
    elif h is None:
        raise ValueError(f"step {name} needs a target pattern")
    else:
        kind = inst.kind
    step = chain_step(name, params, h, kind)
    out, metadata = _execute_step(step, inst)
    return out, _executed(step, inst, out, metadata)


# ---------------------------------------------------------------------------
# chain replay

def apply_step(step: ReductionStep, inst: Instance) -> Instance:
    """Execute one chain step on an instance of its source problem."""
    return _execute_step(step, inst)[0]


def replay_chain(chain, seed: Instance) -> Instance:
    """Run a hardness chain forward: start from an instance of the chain's
    base problem and apply the steps from the base end up to the pattern the
    chain was built for.  The budget must come out unchanged.  A step whose
    construction would pass the cap raises ConstructionCapExceeded as it is,
    since the refusal is about size, not about the chain."""
    inst = seed
    for idx in range(len(chain) - 1, -1, -1):
        step = chain[idx]
        try:
            inst = apply_step(step, inst)
        except ConstructionCapExceeded:
            raise
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
            stray = set(bits(out.masks[bv])) - allowed
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
            stray = set(bits(out.masks[a])) - allowed
            if stray:
                problems.append(
                    f"record {i}: vertex {a} has stray neighbors {sorted(stray)}"
                )
    if seen_edges != set(g_prime.edges):
        problems.append("clique records do not cover the host edges exactly")
    return problems
