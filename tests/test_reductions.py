"""Instance constructions, single reduction steps, replay, and audits."""
import pytest

from hfree.graphs import (
    are_isomorphic,
    complement,
    complete,
    cycle,
    delete_edges,
    edge,
    graph_from_edges,
    induced_subgraph,
    join,
    null_graph,
    path,
    t_diamond,
)
from hfree.problems import (
    ContractViolationError,
    Instance,
    ModificationKind,
    STEP_COMPLEMENT,
    STEP_CONSTRUCT_ADJ,
    STEP_CONSTRUCT_NONADJ,
    STEP_SPARSE_CASE1,
    STEP_SPARSE_VH,
    STEP_SPARSE_VL,
    STEP_TDIAMOND,
    instance_from_obj,
)
from hfree.reductions import (
    ConstructionCapExceeded,
    ReductionStep,
    apply_step,
    audit_branch_construction,
    audit_clique_construction,
    complement_reduce,
    construct_adj,
    construct_nonadj,
    construct_tdiamond,
    construction_size,
    reduce_degree,
    reduce_degree_max,
    reduce_sparse_case1,
    reduce_sparse_vh,
    reduce_sparse_vl,
    reduce_tdiamond,
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
    flipped, step = complement_reduce(inst)
    assert flipped.kind is ModificationKind.COMPLETION
    assert flipped.g == complement(cycle(5))
    assert flipped.h == complement(path(3))
    assert flipped.k == 1
    assert step.step == STEP_COMPLEMENT
    back, _ = complement_reduce(flipped)
    assert back == inst


def test_complement_reduce_fixes_editing():
    inst = Instance(g=cycle(5), k=1, h=path(3), kind=ModificationKind.EDITING)
    flipped, _ = complement_reduce(inst)
    assert flipped.kind is ModificationKind.EDITING


def test_reduce_degree_frozen():
    inst = Instance(g=complete(2), k=1, h=complete(2), kind=DEL)
    out, step = reduce_degree(inst, diamond(), 2)
    assert (out.g.n, out.g.m) == (6, 9)
    assert out.h == diamond() and out.k == 1 and out.kind is DEL
    assert step.params == {"d": 2, "variant": "min"}

    inst = Instance(g=cycle(5), k=1, h=path(3), kind=DEL)
    out, _ = reduce_degree(inst, path(5), 1)
    assert are_isomorphic(out.h, path(5))
    assert out.k == 1


def test_reduce_degree_precondition_names_both_graphs():
    inst = Instance(g=complete(2), k=1, h=path(3), kind=DEL)
    with pytest.raises(ValueError) as err:
        reduce_degree(inst, diamond(), 2)
    assert "degree reduction" in str(err.value)


def test_reduce_degree_rejects_degenerate_threshold():
    inst = Instance(g=complete(2), k=1, h=complete(3), kind=DEL)
    with pytest.raises(ValueError):
        reduce_degree(inst, complete(3), 1)


def test_reduce_degree_max_composite():
    # bowtie: drop the degree-4 center, keep the four degree-2 vertices
    bowtie = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    sub, _ = induced_subgraph(bowtie, [1, 2, 3, 4])
    inst = Instance(g=complete(3), k=1, h=sub, kind=DEL)
    out, step = reduce_degree_max(inst, bowtie, 4)
    assert are_isomorphic(out.h, bowtie)
    assert out.k == 1 and out.kind is DEL
    assert step.params["variant"] == "max"
    assert len(step.execution.metadata["composite"]) == 3


def test_reduce_tdiamond_frozen():
    inst = Instance(g=complete(4), k=1, h=diamond(), kind=DEL)
    out, step = reduce_tdiamond(inst, 3)
    assert out.g.n == 4 + 6 * 2
    assert are_isomorphic(out.h, t_diamond(3))
    assert step.params == {"t": 3}

    with pytest.raises(ValueError):
        reduce_tdiamond(inst, 2)
    completion = Instance(g=complete(4), k=1, h=diamond(), kind=ModificationKind.COMPLETION)
    with pytest.raises(ValueError):
        reduce_tdiamond(completion, 3)


def test_reduce_sparse_vl_shapes():
    inst = Instance(g=null_graph(1), k=1, h=null_graph(1), kind=DEL)
    with pytest.raises(ValueError):
        reduce_sparse_vl(inst, complete(4))  # not sparse two-degree

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
    return reduce_sparse_vl(inst, w)


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
    out, step = reduce_sparse_vh(inst, w)
    assert step.step == STEP_SPARSE_VH
    assert out.kind is DEL and out.k == 1
    assert are_isomorphic(out.h, w)
    assert len(v_prime) == len(shape.v_low) + 2 < w.n

    # replaying the recorded composite by hand lands on the same instance
    flipped, _ = complement_reduce(inst)
    g_mid, _ = construct_nonadj(flipped.g, flipped.k, complement(w), v_prime)
    mid = Instance(g=g_mid, k=1, h=complement(w), kind=ModificationKind.COMPLETION)
    direct, _ = complement_reduce(mid)
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
        reduce_sparse_vh(inst, t_diamond(3))


def test_reduce_sparse_case1_frozen():
    out, step = reduce_sparse_case1(complete(2), 1, k23())
    assert step.step == STEP_SPARSE_CASE1
    assert are_isomorphic(step.source_h, path(3))
    lo, center, hi = step.params["triple"]
    assert k23().degree(center) == 3
    assert k23().degree(lo) == k23().degree(hi) == 2
    assert out.k == 1 and out.kind is DEL
    # the joined construction adds no vertices beyond the plain one
    plain, _ = construct_nonadj(complete(2), 1, k23(), sorted((lo, center, hi)))
    assert out.g.n == plain.n

    with pytest.raises(ValueError):
        reduce_sparse_case1(complete(2), 1, path(4))  # edge in the high class


# ---------------------------------------------------------------- equivalences


def _answers_match(inst, out):
    a = solve_branching(inst.g, inst.k, inst.h, inst.kind).answer
    b = solve_branching(out.g, out.k, out.h, out.kind).answer
    return a == b


def test_degree_step_preserves_answers_small():
    for g in graphs_up_to(3):
        inst = Instance(g=g, k=1, h=complete(2), kind=DEL)
        out, _ = reduce_degree(inst, diamond(), 2)
        assert _answers_match(inst, out)


def test_tdiamond_step_preserves_answers_small():
    for g in graphs_up_to(3):
        inst = Instance(g=g, k=1, h=diamond(), kind=DEL)
        out, _ = reduce_tdiamond(inst, 3)
        assert _answers_match(inst, out)


# ---------------------------------------------------------------- replay


def test_apply_step_checks_source():
    inst = Instance(g=complete(4), k=1, h=diamond(), kind=DEL)
    _, step = reduce_tdiamond(inst, 3)

    wrong_kind = Instance(g=complete(4), k=1, h=diamond(), kind=ModificationKind.EDITING)
    with pytest.raises(ValueError):
        apply_step(step, wrong_kind)

    wrong_h = Instance(g=complete(4), k=1, h=path(4), kind=DEL)
    with pytest.raises(ValueError):
        apply_step(step, wrong_h)

    redo = apply_step(step, inst)
    assert are_isomorphic(redo.h, t_diamond(3))
    assert redo.k == 1


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


def test_replay_chain_empty_and_single():
    seed = Instance(g=complete(4), k=2, h=diamond(), kind=DEL)
    assert replay_chain([], seed) == seed

    _, step = reduce_tdiamond(seed, 3)
    direct, _ = reduce_tdiamond(seed, 3)
    assert replay_chain([step], seed) == direct


def test_replay_chain_wraps_failures_with_position():
    seed = Instance(g=complete(4), k=2, h=path(4), kind=DEL)
    _, step = reduce_tdiamond(Instance(g=complete(4), k=2, h=diamond(), kind=DEL), 3)
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


def test_complement_and_tdiamond_caps_refuse_before_building():
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
        complement_reduce(edgeless)
    # 9 host edges, each with a 1001-clique joined to both of its ends
    with pytest.raises(
        ConstructionCapExceeded, match="9019 vertices and 4522527 edges"
    ):
        construct_tdiamond(path(10), 1000)


def test_instance_round_trip():
    inst = Instance(g=cycle(5), k=2, h=path(3), kind=ModificationKind.COMPLETION)
    assert instance_from_obj(inst.to_obj()) == inst
