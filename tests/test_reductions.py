"""Instance constructions, single reduction steps, replay, and audits."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfree import reductions
from hfree.graphs import (
    are_isomorphic,
    complement,
    complete,
    cycle,
    delete_edges,
    disjoint_union,
    edge,
    graph_from_edges,
    induced_subgraph,
    join,
    null_graph,
    path,
    star,
    sunlet,
    t_diamond,
)
from hfree.problems import (
    ContractViolationError,
    Instance,
    ModificationKind,
    STEP_COMPLEMENT,
    STEP_CONSTRUCT_ADJ,
    STEP_CONSTRUCT_NONADJ,
    STEP_DEGREE,
    STEP_SPARSE_CASE1,
    STEP_SPARSE_VH,
    STEP_SPARSE_VL,
    STEP_TDIAMOND,
    instance_from_obj,
)
from hfree.classify import build_chain, classify
from hfree.reductions import (
    STEPS,
    ConstructionCapExceeded,
    ReductionStep,
    apply_step,
    chain_step,
    audit_branch_construction,
    audit_clique_construction,
    construct_adj,
    construct_nonadj,
    construct_tdiamond,
    construction_size,
    reduce_instance,
    replay_chain,
)
from hfree.smallgraphs import find_sparse_witness, graphs_up_to
from hfree.solve import solve_branching

DEL = ModificationKind.DELETION


def diamond():
    return t_diamond(2)


def diamond_high_pair():
    d = diamond()
    return [v for v in range(4) if d.degrees[v] == 3]


def k23():
    return join(null_graph(2), null_graph(3))


def bowtie():
    return graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


# ---------------------------------------------------------------- constructions


def test_construct_nonadj_frozen_diamond():
    # one K2 copy on the 2-vertex host, two branches of the 2 outside
    # vertices, 4 pattern edges leaving the base per branch
    out, records = construct_nonadj(complete(2), 1, diamond(), diamond_high_pair())
    assert (out.n, out.m) == (6, 9)
    assert len(records) == 2
    assert (0, 1) in out.edges


def test_construct_nonadj_frozen_p3_endpoints():
    # every host pair is a copy of the edgeless 2-vertex pattern: 3 copies,
    # 2 branches each, one fresh vertex per branch wired to both base ends
    out, records = construct_nonadj(complete(3), 1, path(3), [0, 2])
    assert (out.n, out.m) == (9, 15)
    assert len(records) == 6


def test_construct_nonadj_small_host_is_identity():
    g = null_graph(1)
    out, records = construct_nonadj(g, 2, diamond(), diamond_high_pair())
    assert out == g and records == []


def test_construct_adj_adds_exactly_the_cross_branch_pairs():
    vp = diamond_high_pair()
    plain, _ = construct_nonadj(complete(2), 1, diamond(), vp)
    joined, records = construct_adj(complete(2), 1, diamond(), vp)
    assert (joined.n, joined.m) == (6, 13)
    extra = joined.edges - plain.edges
    branches = [sorted(r.branch_vertices) for r in records]
    assert extra == frozenset(
        edge(a, b)
        for i, left in enumerate(branches)
        for right in branches[i + 1 :]
        for a in left
        for b in right
    )


def test_construct_rejects_bad_v_prime():
    with pytest.raises(ValueError):
        construct_nonadj(complete(2), 1, diamond(), [0, 9])
    with pytest.raises(ValueError):
        construct_nonadj(complete(2), 1, diamond(), [])
    with pytest.raises(ValueError):
        construct_nonadj(complete(2), 0, diamond(), diamond_high_pair())


def test_construct_tdiamond_frozen():
    out, records = construct_tdiamond(complete(2), 1)
    assert are_isomorphic(out, complete(4))
    assert len(records) == 1

    out, records = construct_tdiamond(path(3), 1)
    assert (out.n, out.m) == (7, 12)
    assert len(records) == 2

    g = null_graph(4)
    out, records = construct_tdiamond(g, 3)
    assert out == g and records == []


def test_one_scaffold_serves_every_host_of_its_size():
    # two 4-vertex hosts with different edges, built in one scope, get what
    # fresh builds give them, from one scaffold per construction
    h, vp = diamond(), diamond_high_pair()
    scaffolds = {}
    for joined, build in ((False, construct_nonadj), (True, construct_adj)):
        for host in (path(4), disjoint_union(complete(3), null_graph(1))):
            out, records = build(host, 2, h, vp, scaffolds)
            assert (out, records) == build(host, 2, h, vp)
            assert audit_branch_construction(host, 2, h, vp, out, records, joined) == []
    assert len(scaffolds) == 2


def test_steps_keep_their_scaffolds_across_hosts_and_hops():
    # the max degree strip runs three hops; its branch hop keeps its
    # scaffold in the step's, so a second host of the same size reuses it
    sub, _ = induced_subgraph(bowtie(), [1, 2, 3, 4])
    step = chain_step(STEP_DEGREE, {"d": 4, "variant": "max"}, bowtie(), DEL)
    for host in (complete(4), cycle(4)):
        out = apply_step(step, Instance(g=host, k=1, h=sub, kind=DEL))
        assert out == reduce_instance(
            Instance(g=host, k=1, h=sub, kind=DEL), STEP_DEGREE, step.params, bowtie()
        )[0]
    assert len(step.scaffolds) == 1


# ---------------------------------------------------------------- audits


def test_audits_accept_honest_outputs():
    vp = diamond_high_pair()
    out, records = construct_nonadj(complete(2), 1, diamond(), vp)
    assert audit_branch_construction(complete(2), 1, diamond(), vp, out, records, False) == []

    out, records = construct_adj(complete(2), 1, diamond(), vp)
    assert audit_branch_construction(complete(2), 1, diamond(), vp, out, records, True) == []

    out, records = construct_tdiamond(path(3), 2)
    assert audit_clique_construction(path(3), 2, out, records) == []


def test_audit_flags_missing_branch_edge():
    vp = diamond_high_pair()
    out, records = construct_nonadj(complete(2), 1, diamond(), vp)
    branch_edge = sorted(records[0].branch_edges)[0]
    tampered = delete_edges(out, [branch_edge])
    problems = audit_branch_construction(
        complete(2), 1, diamond(), vp, tampered, records, False
    )
    assert problems


def test_audit_flags_wrong_vertex_count():
    out, records = construct_tdiamond(complete(2), 1)
    problems = audit_clique_construction(complete(2), 2, out, records)
    assert any("vertex count" in p for p in problems)


# ---------------------------------------------------------------- single steps


def test_complement_reduce_round_trip():
    inst = Instance(g=cycle(5), k=1, h=path(3), kind=DEL)
    flipped, step = reduce_instance(inst, STEP_COMPLEMENT, {})
    assert flipped.kind is ModificationKind.COMPLETION
    assert flipped.g == complement(cycle(5))
    assert flipped.h == complement(path(3))
    assert flipped.k == 1
    assert step.step == STEP_COMPLEMENT
    back, _ = reduce_instance(flipped, STEP_COMPLEMENT, {})
    assert back == inst


def test_complement_reduce_fixes_editing():
    inst = Instance(g=cycle(5), k=1, h=path(3), kind=ModificationKind.EDITING)
    flipped, _ = reduce_instance(inst, STEP_COMPLEMENT, {})
    assert flipped.kind is ModificationKind.EDITING


def test_reduce_degree_frozen():
    inst = Instance(g=complete(2), k=1, h=complete(2), kind=DEL)
    out, step = reduce_instance(inst, STEP_DEGREE, {"d": 2}, diamond())
    assert (out.g.n, out.g.m) == (6, 9)
    assert out.h == diamond() and out.k == 1 and out.kind is DEL
    assert step.params == {"d": 2, "variant": "min"}

    inst = Instance(g=cycle(5), k=1, h=path(3), kind=DEL)
    out, _ = reduce_instance(inst, STEP_DEGREE, {"d": 1}, path(5))
    assert are_isomorphic(out.h, path(5))
    assert out.k == 1


def test_reduce_degree_precondition_names_both_graphs():
    inst = Instance(g=complete(2), k=1, h=path(3), kind=DEL)
    with pytest.raises(ValueError) as err:
        reduce_instance(inst, STEP_DEGREE, {"d": 2}, diamond())
    source, _ = induced_subgraph(diamond(), diamond_high_pair())
    assert STEP_DEGREE in str(err.value)
    assert repr(path(3)) in str(err.value)
    assert repr(source) in str(err.value)


def test_reduce_degree_rejects_degenerate_threshold():
    inst = Instance(g=complete(2), k=1, h=complete(3), kind=DEL)
    with pytest.raises(ValueError):
        reduce_instance(inst, STEP_DEGREE, {"d": 1}, complete(3))


def test_reduce_degree_max_composite():
    # bowtie: drop the degree-4 center, keep the four degree-2 vertices
    sub, _ = induced_subgraph(bowtie(), [1, 2, 3, 4])
    inst = Instance(g=complete(3), k=1, h=sub, kind=DEL)
    out, step = reduce_instance(inst, STEP_DEGREE, {"d": 4, "variant": "max"}, bowtie())
    assert are_isomorphic(out.h, bowtie())
    assert out.k == 1 and out.kind is DEL
    assert step.params["variant"] == "max"
    assert len(step.execution.metadata["composite"]) == 3


def test_reduce_tdiamond_frozen():
    inst = Instance(g=complete(4), k=1, h=diamond(), kind=DEL)
    out, step = reduce_instance(inst, STEP_TDIAMOND, {"t": 3})
    assert out.g.n == 4 + 6 * 2
    assert are_isomorphic(out.h, t_diamond(3))
    assert step.params == {"t": 3}

    with pytest.raises(ValueError):
        reduce_instance(inst, STEP_TDIAMOND, {"t": 2})
    completion = Instance(g=complete(4), k=1, h=diamond(), kind=ModificationKind.COMPLETION)
    with pytest.raises(ValueError):
        reduce_instance(completion, STEP_TDIAMOND, {"t": 3})


def test_reduce_sparse_vl_shapes():
    inst = Instance(g=null_graph(1), k=1, h=null_graph(1), kind=DEL)
    with pytest.raises(ValueError):
        reduce_instance(inst, STEP_SPARSE_VL, {}, complete(4))  # not sparse two-degree

    w = find_sparse_witness(0, 1)  # one edge down low
    probe, step = _vl_probe(w)
    assert step.step == STEP_SPARSE_VL
    assert are_isomorphic(probe.h, w)
    assert probe.k == 1 and probe.kind is DEL
    # the derived pattern drops the adjacent low pair and keeps >= 2 edges
    assert step.source_h.n == w.n - 2
    assert step.source_h.m >= 2


def _vl_probe(w):
    from hfree.classify import recognize_sparse_lh

    shape = recognize_sparse_lh(w)
    pair = next(
        e for e in sorted(w.edges) if e[0] in shape.v_low and e[1] in shape.v_low
    )
    keep = sorted(set(range(w.n)) - set(pair))
    sub, _ = induced_subgraph(w, keep)
    inst = Instance(g=complete(2), k=1, h=sub, kind=DEL)
    return reduce_instance(inst, STEP_SPARSE_VL, {}, w)


def test_reduce_sparse_vh_composite_matches_direct():
    w = find_sparse_witness(1, 0, exclude_t_diamond=True)
    from hfree.classify import recognize_sparse_lh

    shape = recognize_sparse_lh(w)
    pair = next(
        e for e in sorted(w.edges) if e[0] in shape.v_high and e[1] in shape.v_high
    )
    v_prime = sorted(shape.v_low | set(pair))
    sub, _ = induced_subgraph(w, v_prime)
    inst = Instance(g=complete(2), k=1, h=sub, kind=DEL)
    out, step = reduce_instance(inst, STEP_SPARSE_VH, {}, w)
    assert step.step == STEP_SPARSE_VH
    assert out.kind is DEL and out.k == 1
    assert are_isomorphic(out.h, w)
    assert len(v_prime) == len(shape.v_low) + 2 < w.n

    # replaying the recorded composite by hand lands on the same instance
    flipped, _ = reduce_instance(inst, STEP_COMPLEMENT, {})
    g_mid, _ = construct_nonadj(flipped.g, flipped.k, complement(w), v_prime)
    mid = Instance(g=g_mid, k=1, h=complement(w), kind=ModificationKind.COMPLETION)
    direct, _ = reduce_instance(mid, STEP_COMPLEMENT, {})
    assert direct == out
    assert [s["step"] for s in step.execution.metadata["composite"]] == [
        STEP_COMPLEMENT,
        STEP_CONSTRUCT_NONADJ,
        STEP_COMPLEMENT,
    ]


def test_reduce_sparse_vh_rejects_clique_joined_patterns():
    sub, _ = induced_subgraph(t_diamond(3), [0, 1, 2, 3])
    inst = Instance(g=complete(2), k=1, h=sub, kind=DEL)
    with pytest.raises(ValueError):
        reduce_instance(inst, STEP_SPARSE_VH, {}, t_diamond(3))


def test_reduce_sparse_case1_frozen():
    seed = Instance(g=complete(2), k=1, h=path(3), kind=DEL)
    out, step = reduce_instance(seed, STEP_SPARSE_CASE1, {}, k23())
    assert step.step == STEP_SPARSE_CASE1
    # the source is the pattern's own 3-path, labelled as in k23, not path(3)
    assert step.source_h == graph_from_edges(3, [(0, 1), (0, 2)])
    lo, center, hi = step.params["triple"]
    assert k23().degree(center) == 3
    assert k23().degree(lo) == k23().degree(hi) == 2
    assert out.k == 1 and out.kind is DEL
    # the joined construction adds no vertices beyond the plain one
    plain, _ = construct_nonadj(complete(2), 1, k23(), sorted((lo, center, hi)))
    assert out.g.n == plain.n

    with pytest.raises(ValueError):
        reduce_instance(seed, STEP_SPARSE_CASE1, {}, path(4))  # edge in the high class


# ---------------------------------------------------------------- equivalences


def _answers_match(inst, out):
    a = solve_branching(inst.g, inst.k, inst.h, inst.kind).answer
    b = solve_branching(out.g, out.k, out.h, out.kind).answer
    return a == b


def test_degree_step_preserves_answers_small():
    for g in graphs_up_to(3):
        inst = Instance(g=g, k=1, h=complete(2), kind=DEL)
        out, _ = reduce_instance(inst, STEP_DEGREE, {"d": 2}, diamond())
        assert _answers_match(inst, out)


def test_tdiamond_step_preserves_answers_small():
    for g in graphs_up_to(3):
        inst = Instance(g=g, k=1, h=diamond(), kind=DEL)
        out, _ = reduce_instance(inst, STEP_TDIAMOND, {"t": 3})
        assert _answers_match(inst, out)


# ---------------------------------------------------------------- replay


def test_apply_step_checks_source():
    inst = Instance(g=complete(4), k=1, h=diamond(), kind=DEL)
    _, step = reduce_instance(inst, STEP_TDIAMOND, {"t": 3})

    wrong_kind = Instance(g=complete(4), k=1, h=diamond(), kind=ModificationKind.EDITING)
    with pytest.raises(ValueError):
        apply_step(step, wrong_kind)

    wrong_h = Instance(g=complete(4), k=1, h=path(4), kind=DEL)
    with pytest.raises(ValueError):
        apply_step(step, wrong_h)

    redo = apply_step(step, inst)
    assert are_isomorphic(redo.h, t_diamond(3))
    assert redo.k == 1

    # patterns that agree in vertex count, edge count and degrees reach the
    # embedding search: the step's source is C6, a relabelled C6 passes and
    # 2K3 does not
    h, params = sunlet(6), {"v_prime": list(range(6))}
    step = chain_step(STEP_CONSTRUCT_NONADJ, params, h, DEL)
    assert step.source_h == cycle(6)
    relabelled = graph_from_edges(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
    assert relabelled != cycle(6)
    two_triangles = disjoint_union(complete(3), complete(3))
    good = Instance(g=path(3), k=1, h=relabelled, kind=DEL)
    want = Instance(g=path(3), k=1, h=h, kind=DEL)
    assert apply_step(step, good) == want
    assert reduce_instance(good, STEP_CONSTRUCT_NONADJ, params, h)[0] == want
    bad = Instance(g=path(3), k=1, h=two_triangles, kind=DEL)
    with pytest.raises(ValueError, match="not isomorphic"):
        apply_step(step, bad)
    with pytest.raises(ValueError, match="not isomorphic"):
        reduce_instance(bad, STEP_CONSTRUCT_NONADJ, params, h)


def test_apply_step_construct_steps_match_direct_constructions():
    h, v_prime = diamond(), diamond_high_pair()
    sub, _ = induced_subgraph(h, v_prime)
    inst = Instance(g=path(3), k=1, h=sub, kind=DEL)
    outs = []
    for name, build in (
        (STEP_CONSTRUCT_NONADJ, construct_nonadj),
        (STEP_CONSTRUCT_ADJ, construct_adj),
    ):
        step = ReductionStep(
            step=name,
            params={"v_prime": v_prime},
            source_h=sub,
            source_kind=DEL,
            target_h=h,
            target_kind=DEL,
        )
        g, _ = build(inst.g, inst.k, h, v_prime)
        outs.append(apply_step(step, inst))
        assert outs[-1] == Instance(g=g, k=1, h=h, kind=DEL)
    # the host admits several placements, so joining branches adds edges
    assert outs[0].g.edges < outs[1].g.edges


def _records(metadata):
    """Every branch or clique record in an execution's metadata, those of
    composite hops included."""
    own = [r for key in ("branch_records", "clique_records") for r in metadata.get(key, [])]
    hops = metadata.get("composite", [])
    return own + [r for hop in hops for r in _records(hop["execution"]["metadata"])]


def test_apply_step_and_reduce_instance_build_the_same_target():
    # (step, params, target pattern, a host that gets placements); the
    # sparse-vh source has 7 vertices, so its host only passes through
    cases = [
        (STEP_COMPLEMENT, {}, path(4), cycle(5)),
        (STEP_DEGREE, {"d": 2}, diamond(), path(3)),
        (STEP_DEGREE, {"d": 4, "variant": "max"}, bowtie(), path(4)),
        (STEP_TDIAMOND, {"t": 3}, t_diamond(3), path(3)),
        (STEP_SPARSE_VL, {}, find_sparse_witness(0, 1), cycle(4)),
        (STEP_SPARSE_VH, {}, find_sparse_witness(1, 0, exclude_t_diamond=True), path(3)),
        (STEP_SPARSE_CASE1, {}, k23(), path(3)),
        (STEP_CONSTRUCT_NONADJ, {"v_prime": diamond_high_pair()}, diamond(), path(3)),
        (STEP_CONSTRUCT_ADJ, {"v_prime": diamond_high_pair()}, diamond(), path(3)),
    ]
    assert {name for name, *_ in cases} == set(STEPS)
    for name, params, h, host in cases:
        step = chain_step(name, params, h, DEL)
        target = None if STEPS[name].target else h
        grows = name not in (STEP_COMPLEMENT, STEP_SPARSE_VH)
        # a 1-vertex host is smaller than every V', so it comes back unchanged
        for g, placed in ((host, grows), (null_graph(1), False)):
            inst = Instance(g=g, k=1, h=step.source_h, kind=step.source_kind)
            out = apply_step(step, inst)
            same, executed = reduce_instance(inst, name, params, target)
            assert same == out and out.h == h and out.k == 1, name
            assert executed.execution.output_summary == out.summary()
            metadata = json.loads(json.dumps(executed.execution.metadata))
            assert bool(_records(metadata)) == placed, name
            if g.n == 1:
                assert out.g == g, name


def test_reduction_step_rejects_unknown_names_and_missing_params():
    def step(name, params):
        return ReductionStep(
            step=name,
            params=params,
            source_h=diamond(),
            source_kind=DEL,
            target_h=t_diamond(3),
            target_kind=DEL,
        )

    with pytest.raises(ValueError, match="unknown reduction step"):
        step("bogus", {})
    with pytest.raises(ValueError, match="needs params"):
        step(STEP_TDIAMOND, {})
    assert step(STEP_TDIAMOND, {"t": 3}).params == {"t": 3}
    # chain_step and reduce_instance check the same before deriving a source
    inst = Instance(g=path(3), k=1, h=path(3), kind=DEL)
    with pytest.raises(ValueError, match="unknown reduction step kind 'bogus'"):
        chain_step("bogus", {}, path(5), DEL)
    with pytest.raises(ValueError, match="unknown reduction step kind 'bogus'"):
        reduce_instance(inst, "bogus", {}, path(5))
    with pytest.raises(ValueError, match=r"step degree-reduce needs params \['d'\]"):
        chain_step(STEP_DEGREE, {}, path(5), DEL)
    with pytest.raises(ValueError, match=r"step degree-reduce needs params \['d'\]"):
        reduce_instance(inst, STEP_DEGREE, {}, path(5))
    maximum = {"d": 1, "variant": "maximum"}
    with pytest.raises(ValueError, match="unknown degree variant 'maximum'"):
        chain_step(STEP_DEGREE, maximum, path(5), DEL)
    with pytest.raises(ValueError, match="unknown degree variant 'maximum'"):
        reduce_instance(inst, STEP_DEGREE, maximum, path(5))


def test_replay_chain_empty_and_single():
    seed = Instance(g=complete(4), k=2, h=diamond(), kind=DEL)
    assert replay_chain([], seed) == seed

    _, step = reduce_instance(seed, STEP_TDIAMOND, {"t": 3})
    direct, _ = reduce_instance(seed, STEP_TDIAMOND, {"t": 3})
    assert replay_chain([step], seed) == direct


def test_replay_chain_wraps_failures_with_position():
    seed = Instance(g=complete(4), k=2, h=path(4), kind=DEL)
    _, step = reduce_instance(
        Instance(g=complete(4), k=2, h=diamond(), kind=DEL), STEP_TDIAMOND, {"t": 3}
    )
    with pytest.raises(ContractViolationError) as err:
        replay_chain([step], seed)
    assert "index 0" in str(err.value)


def test_full_chain_replay_tdiamond4():
    from hfree.classify import build_chain

    chain, base = build_chain(t_diamond(4), DEL)
    assert base.name == "diamond-deletion"
    seed = Instance(g=complete(4), k=2, h=base.graph, kind=DEL)
    final = replay_chain(chain, seed)
    assert are_isomorphic(final.h, t_diamond(4))
    assert final.k == 2 and final.kind is DEL


def test_chain_step_derives_the_source_problem():
    step = chain_step(STEP_DEGREE, {"d": 1, "variant": "min"}, path(5), DEL)
    assert (step.source_h, step.source_kind) == (path(3), DEL)
    assert (step.target_h, step.target_kind) == (path(5), DEL)
    # the max side keeps the degree-2 vertices of the bowtie, a 2K2
    bowtie = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    step = chain_step(STEP_DEGREE, {"d": 4, "variant": "max"}, bowtie, DEL)
    assert step.source_h == graph_from_edges(4, [(0, 1), (2, 3)])
    step = chain_step(STEP_COMPLEMENT, {}, path(4), ModificationKind.COMPLETION)
    assert (step.source_h, step.source_kind) == (complement(path(4)), DEL)
    assert chain_step(STEP_TDIAMOND, {"t": 3}, t_diamond(3), DEL).source_h == diamond()
    step = chain_step(STEP_SPARSE_CASE1, {}, k23(), DEL)
    assert step.params == {"triple": [2, 0, 3]}
    assert step.source_h == graph_from_edges(3, [(0, 1), (0, 2)])
    w = find_sparse_witness(0, 1)
    step = chain_step(STEP_SPARSE_VL, {}, w, DEL)
    assert step.source_h.n == w.n - 2
    assert set(step.params) == {"low_pair"}
    for name, params, h, kind in (
        (STEP_SPARSE_VL, {}, w, ModificationKind.EDITING),
        (STEP_SPARSE_VH, {}, t_diamond(3), DEL),
        (STEP_TDIAMOND, {"t": 2}, diamond(), DEL),
        (STEP_DEGREE, {"d": 0, "variant": "min"}, path(3), DEL),
    ):
        with pytest.raises(ValueError):
            chain_step(name, params, h, kind)


HARD_PROBLEMS = [
    (h, kind)
    for h in graphs_up_to(5)
    for kind in ModificationKind
    if classify(h, kind).verdict == "NPComplete"
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(HARD_PROBLEMS),
    st.sampled_from(list(graphs_up_to(4))),
    st.integers(1, 2),
)
def test_replay_keeps_k_and_reaches_the_pattern(problem, host, k):
    h, kind = problem
    chain, base = build_chain(h, kind)
    seed = Instance(g=host, k=k, h=base.graph, kind=base.kind)
    try:
        out = replay_chain(chain, seed)
    except ConstructionCapExceeded:
        return
    assert out.k == k and out.kind is kind
    assert out.h == h


def test_every_hard_replay_ends_at_exactly_the_pattern():
    # the last step's target is the pattern itself, not a relabelled copy
    for h, kind in HARD_PROBLEMS:
        chain, base = build_chain(h, kind)
        for host in (null_graph(1), path(3)):
            seed = Instance(g=host, k=1, h=base.graph, kind=base.kind)
            out = replay_chain(chain, seed)
            assert (out.h, out.kind, out.k) == (h, kind, 1)


def test_construction_size_matches_built_outputs():
    for h in graphs_up_to(4, n_min=2):
        for v_prime in ([0], [0, 1], list(range(h.n - 1)), list(range(h.n))):
            for n in range(6):
                host = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
                for joined, build in ((False, construct_nonadj), (True, construct_adj)):
                    out, _ = build(host, 2, h, v_prime)
                    assert construction_size(host, 2, h, v_prime, joined) == (
                        out.n,
                        out.m,
                    )


def test_construction_cap_refuses_before_building():
    # the classifier's deletion chain for E?q_ grows a 3-path seed to 15 and
    # then to 360,375 vertices; the second step is refused before it starts
    from hfree.classify import classify
    from hfree.formats import parse_graph6

    verdict = classify(parse_graph6("E?q_"), DEL)
    seed = Instance(g=path(3), k=1, h=verdict.base.graph, kind=verdict.base.kind)
    with pytest.raises(ConstructionCapExceeded, match="360375 vertices"):
        replay_chain(verdict.chain, seed)

    # joining makes the edge count grow with the square of the vertex count:
    # 1770 vertices are under the vertex cap, their 1.5M joined edges are not
    assert construction_size(path(30), 1, path(4), [0, 1]) == (1770, 1769)
    assert construction_size(path(30), 1, path(4), [0, 1], True) == (1770, 1513829)
    construct_nonadj(path(30), 1, path(4), [0, 1])
    with pytest.raises(ConstructionCapExceeded, match="1513829 edges"):
        construct_adj(path(30), 1, path(4), [0, 1])
    with pytest.raises(ConstructionCapExceeded, match="79800 vertices"):
        construct_nonadj(path(200), 1, path(4), [0, 1])


def test_complement_and_tdiamond_caps_refuse_before_building(monkeypatch):
    # EEho's deletion chain complements a 6057-vertex degree construction,
    # which would give 18,328,466 edges
    from hfree.classify import classify
    from hfree.formats import parse_graph6

    verdict = classify(parse_graph6("EEho"), DEL)
    seed = Instance(g=path(3), k=1, h=verdict.base.graph, kind=verdict.base.kind)
    with pytest.raises(ConstructionCapExceeded, match="18328466 edges"):
        replay_chain(verdict.chain, seed)

    edgeless = Instance(g=graph_from_edges(1500, []), k=1, h=path(3), kind=DEL)
    with pytest.raises(ConstructionCapExceeded, match="1124250 edges"):
        reduce_instance(edgeless, STEP_COMPLEMENT, {})
    # 9 host edges, each with a 1001-clique joined to both of its ends
    with pytest.raises(
        ConstructionCapExceeded, match="9019 vertices and 4522527 edges"
    ):
        construct_tdiamond(path(10), 1000)

    # a composite step checks its complement pattern against the cap before
    # it builds any graph: the 40-leaf star's complement has 780 edges
    monkeypatch.setattr(reductions, "CONSTRUCT_EDGE_CAP", 500)
    calls = []
    real_complement = reductions.complement
    monkeypatch.setattr(
        reductions, "complement", lambda g: calls.append(g) or real_complement(g)
    )
    leaves = Instance(g=path(3), k=1, h=null_graph(40), kind=DEL)
    with pytest.raises(ConstructionCapExceeded, match="780 edges"):
        reduce_instance(leaves, STEP_DEGREE, {"d": 40, "variant": "max"}, star(40))
    assert calls == []


def test_instance_round_trip():
    inst = Instance(g=cycle(5), k=2, h=path(3), kind=ModificationKind.COMPLETION)
    assert instance_from_obj(inst.to_obj()) == inst
