"""Core graph type, families, and induced-subgraph machinery."""
import dataclasses
import itertools
import math
import pickle

import pytest

from hfree.graphs import (
    EditSet,
    Graph,
    add_edges,
    apply_edits,
    are_isomorphic,
    automorphism_count,
    cached,
    complement,
    complete,
    connected_components,
    cycle,
    delete_edges,
    disjoint_union,
    edge,
    edges_within,
    enumerate_induced_copies,
    enumerate_pattern_copies,
    find_induced_copy,
    graph_from_edges,
    induced_subgraph,
    is_forest,
    is_induced_copy_free,
    is_regular,
    join,
    null_graph,
    path,
    star,
    sunlet,
    t_diamond,
)
from hfree.smallgraphs import graphs_up_to


def diamond():
    return t_diamond(2)


def two_k2():
    return disjoint_union(complete(2), complete(2))


# ---------------------------------------------------------------- basics


def test_edge_normalizes_order():
    assert edge(3, 1) == (1, 3)
    assert edge(0, 2) == edge(2, 0)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_graph_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(-1, 0)])


def test_degrees_and_m():
    g = path(4)
    assert g.degrees == (1, 2, 2, 1)
    assert g.m == 3
    assert complete(5).m == 10


def test_cached_values_are_derived_once_per_instance():
    class Counted:
        def __init__(self, x):
            self.x, self.calls = x, 0

        @cached
        def double(self):
            self.calls += 1
            return 2 * self.x

    a, b = Counted(1), Counted(5)
    assert (a.double, a.double, b.double) == (2, 2, 10)
    assert (a.calls, b.calls) == (1, 1)
    assert a.__dict__["double"] == 2
    g = path(4)
    assert "m" not in g.__dict__
    assert g.m == 3 and g.__dict__["m"] == 3


def test_cached_values_leave_the_graph_value_alone():
    assert isinstance(Graph.edges, cached) and Graph.edges is Graph.__dict__["edges"]
    assert Graph.edges.func(path(3)) == frozenset({(0, 1), (1, 2)})
    g, fresh = cycle(5), cycle(5)
    derived = (g.edges, g.m, g.degrees, g.search_order, g.search_plan)
    assert g == fresh and hash(g) == hash(fresh)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert (copy.edges, copy.m, copy.degrees, copy.search_order, copy.search_plan) == derived
    for name, value in (("n", 3), ("m", 7)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)


def test_complement_k3_is_null():
    assert complement(complete(3)).edges == frozenset()
    assert complement(complete(3)).n == 3


def test_complement_p3_frozen():
    # direct pair enumeration on 3 vertices: only {0,2} is a non-edge of P3
    g = complement(path(3))
    assert g.edges == frozenset({(0, 2)})


def test_complement_involution_exhaustive():
    for g in graphs_up_to(6):
        assert complement(complement(g)) == g
        # both constructors, and the pickling of the worker pool, give one graph
        from_masks = Graph.from_masks(g.n, g.masks)
        assert from_masks == g and hash(from_masks) == hash(g)
        assert Graph(g.n, g.edges) == g
        assert pickle.loads(pickle.dumps(g)) == g
        missing = set(itertools.combinations(g.vertices, 2)) - g.edges
        assert complement(g) == Graph(g.n, missing)


def test_induced_subgraph_diamond_high_pair():
    d = diamond()
    high = [v for v in range(4) if d.degrees[v] == 3]
    sub, relab = induced_subgraph(d, high)
    assert sub == complete(2)
    assert set(relab) == set(high)


def test_induced_subgraph_p4_endpoints():
    sub, _ = induced_subgraph(path(4), [0, 3])
    assert sub == null_graph(2)


def test_induced_subgraph_c5_consecutive():
    # any 4 consecutive cycle vertices leave a path
    c5 = cycle(5)
    for start in range(5):
        vs = [(start + i) % 5 for i in range(4)]
        sub, _ = induced_subgraph(c5, vs)
        assert are_isomorphic(sub, path(4))


def test_induced_subgraph_matches_the_edge_set_exhaustive():
    for g in graphs_up_to(6):
        for size in range(g.n + 1):
            for vs in itertools.combinations(g.vertices, size):
                relabel = {old: new for new, old in enumerate(vs)}
                kept = [(relabel[u], relabel[v]) for u, v in g.edges if u in relabel and v in relabel]
                assert induced_subgraph(g, vs) == (Graph(size, kept), relabel)


def test_induced_subgraph_takes_duplicates_and_refuses_strangers():
    sub, relabel = induced_subgraph(path(4), [3, 0, 2, 3, 0])
    assert sub == graph_from_edges(3, [(1, 2)])
    assert relabel == {0: 0, 2: 1, 3: 2}
    for vs in ([0, 4], [-1, 0]):
        with pytest.raises(ValueError, match="outside range"):
            induced_subgraph(path(4), vs)


def test_edges_within_counts_the_induced_subgraph():
    for g in graphs_up_to(6):
        for size in range(g.n + 1):
            for vs in itertools.combinations(g.vertices, size):
                assert edges_within(g, vs) == induced_subgraph(g, vs)[0].m


def test_degree_profile_partition_and_handshake():
    # bucketing vertices by Graph.degree partitions them, agreeing with
    # Graph.degrees, and the degrees sum to twice the edge count
    for g in graphs_up_to(5):
        by_degree: dict[int, set[int]] = {}
        for v in g.vertices:
            by_degree.setdefault(g.degree(v), set()).add(v)
        seen = sorted(v for bucket in by_degree.values() for v in bucket)
        assert seen == list(range(g.n))
        assert all(g.degrees[v] == d for d, vs in by_degree.items() for v in vs)
        assert sum(g.degrees) == 2 * g.m


def test_edit_helpers():
    g = delete_edges(complete(3), [(0, 1)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    g = add_edges(g, [(0, 1)])
    assert g == complete(3)
    with pytest.raises(ValueError):
        delete_edges(null_graph(2), [(0, 1)])
    with pytest.raises(ValueError):
        add_edges(complete(2), [(0, 1)])


def test_edit_set():
    with pytest.raises(ValueError):
        EditSet(deletions=frozenset({(0, 1)}), completions=frozenset({(0, 1)}))
    e = EditSet(deletions=frozenset({(0, 1)}), completions=frozenset({(0, 2)}))
    assert e.size == 2
    out = apply_edits(path(3), e)
    assert out.edges == frozenset({(0, 2), (1, 2)})


def test_components_forest_regular():
    assert len(connected_components(two_k2())) == 2
    assert is_forest(path(5))
    assert not is_forest(cycle(4))
    assert is_forest(null_graph(3))
    assert is_regular(cycle(6))
    assert not is_regular(path(3))


# ---------------------------------------------------------------- families


def test_family_shapes():
    d = diamond()
    assert (d.n, d.m) == (4, 5)
    assert sorted(d.degrees) == [2, 2, 3, 3]

    s = sunlet(4)
    assert (s.n, s.m) == (8, 8)

    assert are_isomorphic(join(complete(2), null_graph(3)), t_diamond(3))
    assert are_isomorphic(star(3), graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(ValueError):
        t_diamond(0)
    with pytest.raises(ValueError):
        sunlet(2)


# ---------------------------------------------------------------- induced copies


def test_freeness_spot_values():
    assert is_induced_copy_free(complete(4), path(3))
    assert not is_induced_copy_free(path(4), path(3))


def test_c5_has_no_induced_2k2():
    # brute force over all 4-subsets of C5: each induces a P4, never 2K2
    c5 = cycle(5)
    for sub in itertools.combinations(range(5), 4):
        g, _ = induced_subgraph(c5, sub)
        assert not are_isomorphic(g, two_k2())
    assert is_induced_copy_free(c5, two_k2())


def test_enumerate_induced_copies_frozen():
    assert sorted(enumerate_induced_copies(path(4), path(3))) == [
        frozenset({0, 1, 2}),
        frozenset({1, 2, 3}),
    ]
    assert enumerate_induced_copies(complete(3), complete(3)) == [frozenset({0, 1, 2})]
    assert enumerate_induced_copies(null_graph(5), complete(2)) == []


def test_find_induced_copy():
    assert find_induced_copy(complete(4), path(3)) is None
    found = find_induced_copy(path(4), path(3))
    assert found is not None
    sub, _ = induced_subgraph(path(4), found)
    assert are_isomorphic(sub, path(3))


def test_free_iff_no_copies_exhaustive():
    pats = graphs_up_to(4)
    for g in graphs_up_to(5):
        for h in pats:
            assert is_induced_copy_free(g, h) == (not enumerate_induced_copies(g, h))


# ---------------------------------------------------------------- isomorphism


def test_isomorphism_spot_values():
    assert are_isomorphic(cycle(4), graph_from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not are_isomorphic(cycle(4), path(4))
    assert not are_isomorphic(complete(3), null_graph(3))


def test_automorphism_counts():
    assert automorphism_count(path(3)) == 2
    assert automorphism_count(complete(4)) == 24
    assert automorphism_count(cycle(5)) == 10
    assert automorphism_count(diamond()) == 4


# ---------------------------------------------------------------- pattern copies


def _copies_by_injective_maps(n_host, pattern):
    """Count distinct (vertex set, edge-set image) placements directly."""
    total = 0
    for sub in itertools.combinations(range(n_host), pattern.n):
        images = set()
        for perm in itertools.permutations(sub):
            images.add(frozenset(edge(perm[u], perm[v]) for u, v in pattern.edges))
        total += len(images)
    return total


def test_pattern_copies_frozen():
    assert len(enumerate_pattern_copies(3, complete(2))) == 3
    assert len(enumerate_pattern_copies(3, path(3))) == 3
    assert len(enumerate_pattern_copies(4, null_graph(2))) == 6
    assert enumerate_pattern_copies(2, path(3)) == []


def test_pattern_copies_count_formula():
    # C(n,p) * p! / |Aut(pattern)|, cross-checked against direct placement
    for pattern in graphs_up_to(4):
        aut = automorphism_count(pattern)
        for n in range(1, 7):
            copies = enumerate_pattern_copies(n, pattern)
            expected = 0
            if n >= pattern.n:
                expected = (
                    math.comb(n, pattern.n)
                    * math.factorial(pattern.n)
                    // aut
                )
            assert len(copies) == expected
            assert len(copies) == _copies_by_injective_maps(n, pattern)


def test_pattern_copies_embeddings_agree_with_edge_sets():
    for copy in enumerate_pattern_copies(5, path(3)):
        mapped = frozenset(
            edge(copy.embedding[u], copy.embedding[v]) for u, v in path(3).edges
        )
        assert mapped == copy.edges
        # injective onto the copy's vertices
        assert len(copy.embedding) == len(copy.vertices)
        assert set(copy.embedding) == set(copy.vertices)
