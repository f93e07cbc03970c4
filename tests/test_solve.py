"""Branching and brute-force deciders."""
import itertools
import random

import pytest

from hfree import graphs, solve
from hfree.classify import build_chain
from hfree.graphs import (
    EditSet,
    Graph,
    add_edges,
    apply_edits,
    complete,
    cycle,
    delete_edges,
    disjoint_union,
    edge,
    is_induced_copy_free,
    null_graph,
    path,
    t_diamond,
)
from hfree.problems import Instance, ModificationKind
from hfree.reductions import apply_step
from hfree.smallgraphs import find_sparse_witness, graphs_up_to
from hfree.solve import (
    BruteForceCapExceeded,
    brute_force_cap,
    check_witness,
    solve_branching,
    solve_bruteforce,
    solve_instance,
)

DEL = ModificationKind.DELETION
EDIT = ModificationKind.EDITING
KINDS = list(ModificationKind)


def test_yes_with_witness():
    r = solve_branching(path(3), 1, path(3), DEL)
    assert r.answer
    assert check_witness(path(3), 1, path(3), DEL, r.witness)
    assert len(r.witness.deletions) == 1 and not r.witness.completions


def test_zero_budget_free_input():
    r = solve_branching(complete(3), 0, path(3), DEL)
    assert r.answer
    assert r.witness.size == 0


def test_c5_p3_deletion_is_no():
    # oracle: every single-edge deletion of C5 leaves an induced 3-path
    for e in sorted(cycle(5).edges):
        assert not is_induced_copy_free(delete_edges(cycle(5), [e]), path(3))
    for solver in (solve_branching, solve_bruteforce):
        r = solver(cycle(5), 1, path(3), DEL)
        assert not r.answer and r.witness is None


def test_k4_k3_deletion_is_no():
    for e in sorted(complete(4).edges):
        assert not is_induced_copy_free(delete_edges(complete(4), [e]), complete(3))
    assert not solve_branching(complete(4), 1, complete(3), DEL).answer


def test_zero_budget_iff_free():
    pats = [path(3), complete(3), t_diamond(2)]
    for g in graphs_up_to(4):
        for h in pats:
            for kind in KINDS:
                assert (
                    solve_branching(g, 0, h, kind).answer
                    == is_induced_copy_free(g, h)
                )


def test_brute_matches_branching():
    pats = [path(3), complete(3), t_diamond(2), path(4)]
    for g in graphs_up_to(4):
        for h in pats:
            for kind in KINDS:
                for k in (1, 2):
                    a = solve_branching(g, k, h, kind)
                    b = solve_bruteforce(g, k, h, kind)
                    assert a.answer == b.answer, (g, k, h, kind)
                    for r in (a, b):
                        if r.answer:
                            assert check_witness(g, k, h, kind, r.witness)


def test_dense_hosts_are_solved_in_the_complement(monkeypatch):
    # the rule routes no host under DENSE_MIN_VERTICES; lowered, it routes
    # every small host with more than three quarters of its pairs as edges,
    # and each answer and witness must hold on the instance as given
    monkeypatch.setattr(graphs, "DENSE_MIN_VERTICES", 1)
    hosts = [g for g in graphs_up_to(7) if graphs.is_dense(g)]
    assert len(hosts) == 57
    for g in hosts:
        for h in graphs_up_to(4):
            for kind in KINDS:
                for k in range(3):
                    r = solve_branching(g, k, h, kind)
                    assert r.answer == solve_bruteforce(g, k, h, kind).answer
                    if r.answer:
                        assert check_witness(g, k, h, kind, r.witness), (g, k, h, kind)


def test_dense_hosts_are_tested_for_freeness_in_the_complement(monkeypatch):
    # at the default floor no host of at most 7 vertices is routed, so
    # these answers come from the direct search
    patterns = list(graphs_up_to(4))
    direct = {(g, h): is_induced_copy_free(g, h) for g in graphs_up_to(7) for h in patterns}
    monkeypatch.setattr(graphs, "DENSE_MIN_VERTICES", 1)
    hosts = [g for g in graphs_up_to(7) if graphs.is_dense(g)]
    assert len(hosts) == 57
    complemented = []
    original = graphs.complement

    def counted(g):
        complemented.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "complement", counted)
    for g in hosts:
        for h in patterns:
            assert is_induced_copy_free(g, h) == direct[g, h], (g, h)
    assert len(complemented) == 2 * len(hosts) * len(patterns)


def test_planted_sparse_vh_witness_is_checked():
    # the sparse-vh step's 7-vertex source, used as its own host at k = 1,
    # grows a target of 1267 vertices with 99.5 % of its pairs as edges;
    # searched directly, its witness check ran for over 300 s
    step = build_chain(find_sparse_witness(1, 0, exclude_t_diamond=True), DEL)[0][0]
    src = Instance(g=step.source_h, k=1, h=step.source_h, kind=step.source_kind)
    target = apply_step(step, src)
    assert (target.g.n, target.g.m) == (1267, 798_217)
    r = solve_branching(target.g, target.k, target.h, target.kind)
    assert r.answer
    assert check_witness(target.g, target.k, target.h, target.kind, r.witness)


def test_brute_force_builds_no_graph_per_candidate(monkeypatch):
    g, h = complete(6), complete(3)
    built = []
    searched = []
    init, from_masks = Graph.__init__, Graph.from_masks
    free = solve.is_induced_copy_free

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_from_masks(cls, *args):
        built.append(args)
        return from_masks(*args)

    def counted_free(host, pattern):
        searched.append(host)
        return free(host, pattern)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(Graph, "from_masks", classmethod(counted_from_masks))
    monkeypatch.setattr(solve, "is_induced_copy_free", counted_free)
    r = solve_bruteforce(g, 1, h, DEL)
    # every one of the 15 single deletions leaves a triangle
    assert not r.answer and r.stats.nodes == 16
    assert built == []
    assert len(searched) == r.stats.nodes


def test_brute_force_tests_each_candidate_on_g_with_only_its_pairs_flipped(monkeypatch):
    seen = []
    free = solve.is_induced_copy_free

    def recorded(host, pattern):
        seen.append(Graph.from_masks(host.n, host.masks))
        return free(host, pattern)

    monkeypatch.setattr(solve, "is_induced_copy_free", recorded)
    # P4 is a yes at its third candidate, deleting the middle edge; K6 a no
    for g, h, answer, nodes in ((path(4), path(3), True, 3), (complete(6), complete(3), False, 16)):
        before = g.masks
        seen.clear()
        r = solve_bruteforce(g, 1, h, DEL)
        assert (r.answer, r.stats.nodes, len(seen)) == (answer, nodes, nodes)
        candidates = [()] + [(e,) for e in sorted(g.edges)]
        assert seen == [delete_edges(g, c) for c in candidates[: len(seen)]]
        assert g.masks == before


def test_pairs_outside_the_vertex_range_are_refused():
    g = path(3)
    for pair in ((-1, 1), (0, 3)):
        deletion = EditSet(deletions=frozenset({pair}))
        completion = EditSet(completions=frozenset({pair}))
        for build in (
            lambda: delete_edges(g, [pair]),
            lambda: add_edges(g, [pair]),
            lambda: apply_edits(g, deletion),
            lambda: apply_edits(g, completion),
            lambda: check_witness(g, 1, g, EDIT, completion),
        ):
            with pytest.raises(ValueError):
                build()
        assert not check_witness(g, 1, g, EDIT, deletion)


def test_solve_and_check_read_no_edge_set(monkeypatch):
    sparse = cycle(12)
    dense = graphs.complement(disjoint_union(path(4), path(4)))
    assert not graphs.is_dense(sparse) and graphs.is_dense(dense)
    reads = []
    derive = Graph.edges.func
    monkeypatch.setattr(Graph, "edges", property(lambda g: reads.append(g) or derive(g)))
    results = [
        (sparse, 4, path(3), DEL, solve_branching(sparse, 4, path(3), DEL)),
        (dense, 3, complete(3), EDIT, solve_branching(dense, 3, complete(3), EDIT)),
    ]
    for g in (cycle(5), complete(5), path(6)):
        for kind in KINDS:
            results.append((g, 2, path(3), kind, solve_bruteforce(g, 2, path(3), kind)))
    assert any(r.answer for *_, r in results) and not all(r.answer for *_, r in results)
    for g, k, h, kind, r in results:
        if r.answer:
            assert check_witness(g, k, h, kind, r.witness)
    assert reads == []


def test_budget_monotone():
    for g in graphs_up_to(4):
        answers = [solve_branching(g, k, path(3), DEL).answer for k in range(4)]
        for smaller, larger in zip(answers, answers[1:]):
            assert not smaller or larger


def test_completion_is_deletion_on_complements():
    from hfree.graphs import complement

    for g in graphs_up_to(4):
        a = solve_branching(g, 1, path(3), ModificationKind.COMPLETION).answer
        b = solve_branching(complement(g), 1, complement(path(3)), DEL).answer
        assert a == b


def test_editing_beats_one_sided():
    for g in graphs_up_to(4):
        for k in (1, 2):
            edit = solve_branching(g, k, path(3), ModificationKind.EDITING).answer
            dele = solve_branching(g, k, path(3), DEL).answer
            comp = solve_branching(g, k, path(3), ModificationKind.COMPLETION).answer
            assert edit >= max(dele, comp)


def test_witness_respects_kind():
    g = cycle(4)
    r = solve_branching(g, 2, path(3), ModificationKind.COMPLETION)
    if r.answer:
        assert not r.witness.deletions
    r = solve_branching(g, 2, path(3), DEL)
    if r.answer:
        assert not r.witness.completions


def test_brute_force_cap_refusal(monkeypatch):
    monkeypatch.delenv("HFREE_BRUTE_CAP", raising=False)
    assert brute_force_cap() == 500_000
    with pytest.raises(BruteForceCapExceeded):
        solve_bruteforce(complete(9), 12, path(3), DEL)

    monkeypatch.setenv("HFREE_BRUTE_CAP", "10")
    assert brute_force_cap() == 10
    with pytest.raises(BruteForceCapExceeded):
        solve_bruteforce(complete(4), 2, path(3), DEL)
    # 1 + 6 + 15 = 22 candidate sets: a space as large as the cap is searched
    monkeypatch.setenv("HFREE_BRUTE_CAP", "22")
    assert solve_bruteforce(complete(4), 2, path(3), DEL).answer


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_brute_force_cap_must_be_a_non_negative_integer(monkeypatch, raw):
    monkeypatch.setenv("HFREE_BRUTE_CAP", raw)
    with pytest.raises(ValueError, match="HFREE_BRUTE_CAP"):
        brute_force_cap()
    with pytest.raises(ValueError, match="HFREE_BRUTE_CAP"):
        solve_bruteforce(path(4), 1, path(3), DEL)


def test_check_witness_rejections():
    from hfree.graphs import EditSet

    g = path(3)
    over = EditSet(deletions=frozenset(g.edges))
    assert not check_witness(g, 1, path(3), DEL, over)
    wrong_side = EditSet(completions=frozenset({(0, 2)}))
    assert not check_witness(g, 1, path(3), DEL, wrong_side)
    not_an_edge = EditSet(deletions=frozenset({(0, 2)}))
    assert not check_witness(g, 1, path(3), DEL, not_an_edge)
    useless = EditSet()
    assert not check_witness(g, 1, path(3), DEL, useless)


def test_solve_instance_engines():
    inst = Instance(g=path(4), k=1, h=path(3), kind=DEL)
    assert solve_instance(inst, engine="branch").answer
    assert solve_instance(inst, engine="brute").answer
    with pytest.raises(ValueError):
        solve_instance(inst, engine="quantum")


def test_result_serialization():
    r = solve_branching(path(4), 1, path(3), DEL)
    obj = r.to_obj()
    assert obj["answer"] is True
    assert set(obj["witness"]) == {"deletions", "completions"}
    r = solve_branching(cycle(5), 1, path(3), DEL)
    assert r.to_obj()["witness"] is None


def test_stats_are_reported():
    r = solve_branching(cycle(5), 1, path(3), DEL)
    assert r.stats.nodes > 0
    assert r.stats.copies_found > 0


def test_branching_handles_deep_budgets():
    # K40,40 needs 1599 deletions to lose its last induced P3; the search
    # goes that deep on its first branch
    g = Graph(80, frozenset((i, 40 + j) for i in range(40) for j in range(40)))
    r = solve_branching(g, 1600, path(3), DEL)
    assert r.answer is True and r.witness.size == 1599
    assert check_witness(g, 1600, path(3), DEL, r.witness)


GOLDEN_PROBLEMS = {
    "p3-deletion": (path(3), DEL),
    "p4-editing": (path(4), ModificationKind.EDITING),
    "diamond-deletion": (t_diamond(2), DEL),
    "c4-completion": (cycle(4), ModificationKind.COMPLETION),
}


def golden_instance(name, seed):
    """A seeded 16-25 vertex host: an H-free base (disjoint cliques, or a
    random bipartite graph for the diamond) with k, k+2 or k+5 pairs
    toggled, each of a sort the kind may toggle back."""
    rng = random.Random(f"{name}/{seed}")
    n = rng.randint(16, 25)
    k = rng.choice((3, 4))
    vs = list(range(n))
    rng.shuffle(vs)
    if name == "diamond-deletion":
        side = set(vs[: n // 2])
        base = {
            edge(u, v)
            for u, v in itertools.combinations(range(n), 2)
            if (u in side) != (v in side) and rng.random() < 0.5
        }
    else:
        cuts = sorted(rng.sample(range(1, n), n // 6))
        blocks = [vs[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        base = {edge(u, v) for b in blocks for u, v in itertools.combinations(b, 2)}
    h, kind = GOLDEN_PROBLEMS[name]
    pairs = [edge(u, v) for u, v in itertools.combinations(range(n), 2)]
    if kind is DEL:
        pairs = [p for p in pairs if p not in base]
    elif kind is ModificationKind.COMPLETION:
        pairs = [p for p in pairs if p in base]
    flips = rng.sample(pairs, k + rng.choice((0, 2, 5)))
    return Graph(n, frozenset(base) ^ set(flips)), k, h, kind


# (problem, seed) -> (n, k, answer, deletions, completions, nodes,
# copies_found).  Recorded from the branching engine before its host
# became a mutable mask list; the search order (pattern search order,
# ascending host candidates, first copy found) fixes every field.
GOLDEN_SOLVES = {
    ("p3-deletion", 0): (16, 4, False, None, None, 31, 31),
    ("p3-deletion", 4): (
        25, 4, True, [(1, 20), (3, 4), (6, 14), (8, 20)], [], 31, 30,
    ),
    ("p4-editing", 0): (24, 4, False, None, None, 1186, 1186),
    ("p4-editing", 4): (17, 3, True, [(3, 8), (3, 9)], [(4, 10)], 131, 130),
    ("diamond-deletion", 2): (19, 4, False, None, None, 781, 781),
    ("diamond-deletion", 4): (
        18, 3, True, [(2, 3), (9, 13), (11, 14)], [], 28, 27,
    ),
    ("c4-completion", 1): (
        22, 4, True, [], [(6, 13), (8, 10), (8, 13), (19, 20)], 6, 5,
    ),
    ("c4-completion", 4): (
        17, 4, True, [], [(2, 6), (6, 9), (6, 14), (9, 16)], 24, 23,
    ),
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_SOLVES))
def test_branching_golden_instances(name, seed):
    g, k, h, kind = golden_instance(name, seed)
    r = solve_branching(g, k, h, kind)
    w = r.witness
    got = (
        g.n,
        k,
        r.answer,
        sorted(w.deletions) if w else None,
        sorted(w.completions) if w else None,
        r.stats.nodes,
        r.stats.copies_found,
    )
    assert got == GOLDEN_SOLVES[name, seed]
    if r.answer:
        assert check_witness(g, k, h, kind, w)
