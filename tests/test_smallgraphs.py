"""Exhaustive small-graph enumeration and sparse witness search."""
import hashlib
import itertools
from collections import defaultdict

import networkx as nx

from hfree.classify import recognize_sparse_lh, sparse_case
from hfree.formats import serialize_graph6
from hfree.graphs import Graph, are_isomorphic, certificate, graph_from_edges, t_diamond
from hfree.smallgraphs import (
    _attach_sets,
    find_sparse_witness,
    graphs_up_to,
    graphs_with_vertex_count,
)

# counts of graphs up to isomorphism on 1..6 vertices
COUNTS = [1, 2, 4, 11, 34, 156]


def test_enumeration_counts():
    for n, want in enumerate(COUNTS, start=1):
        assert len(graphs_with_vertex_count(n)) == want


def _invariant(g: nx.Graph):
    degrees = tuple(sorted(d for _, d in g.degree()))
    return degrees, tuple(sorted(nx.triangles(g).values()))


def test_enumeration_matches_the_networkx_atlas():
    # networkx's atlas lists every graph on 0..7 vertices once, up to
    # isomorphism: 1253 in all.  Pair each atlas graph with the one
    # enumerated graph that networkx finds isomorphic to it.
    atlas = defaultdict(list)
    for a in nx.graph_atlas_g():
        atlas[a.number_of_nodes()].append(a)
    assert sum(map(len, atlas.values())) == 1253
    for n in range(1, 8):
        ours = defaultdict(list)
        for g in graphs_with_vertex_count(n):
            nx_g = nx.Graph()
            nx_g.add_nodes_from(g.vertices)
            nx_g.add_edges_from(g.edges)
            ours[_invariant(nx_g)].append(nx_g)
        assert sum(map(len, ours.values())) == len(atlas[n])
        for a in atlas[n]:
            bucket = ours[_invariant(a)]
            hits = [g for g in bucket if nx.is_isomorphic(a, g)]
            assert len(hits) == 1
            bucket.remove(hits[0])
        assert not any(ours.values())


def test_enumeration_at_8_is_pinned():
    # OEIS A000088: 12,346 graphs on 8 vertices.  The digest of the graph6
    # list pins the representatives and their order.
    graphs = graphs_with_vertex_count(8)
    assert len(graphs) == 12346
    listing = "\n".join(serialize_graph6(g) for g in graphs).encode()
    assert hashlib.sha256(listing).hexdigest() == (
        "3ce1400bdb87fef4a81ce410625fbaf3a0dd471639e15828c722d84d7c48fb5d"
    )


def test_skipped_attach_sets_have_an_earlier_twin_swap():
    # Enumeration skips an attach set holding a vertex v but not its
    # previous twin u (same neighbours outside {u, v}).  Swapping u for v
    # must give an isomorphic graph from a set that comes earlier in
    # combinations order, so a kept representative never goes missing.
    skipped = 0
    for base in graphs_up_to(6):
        n = base.n + 1
        kept = set(_attach_sets(base))
        for r in range(n):
            for attach in itertools.combinations(range(base.n), r):
                if attach in kept:
                    continue
                skipped += 1
                swaps = []
                for v in attach:
                    twins = [
                        u
                        for u in range(v)
                        if all(
                            base.has_edge(u, w) == base.has_edge(v, w)
                            for w in base.vertices
                            if w not in (u, v)
                        )
                    ]
                    if twins and twins[-1] not in attach:
                        swaps.append(tuple(sorted(set(attach) - {v} | {twins[-1]})))
                assert swaps, (base, attach)
                g = Graph(n, base.edges | {(u, n - 1) for u in attach})
                for earlier in swaps:
                    assert earlier < attach
                    h = Graph(n, base.edges | {(u, n - 1) for u in earlier})
                    assert certificate(h) == certificate(g)
    # levels 2 to 7 look at 7194 of their 11,290 attach sets
    assert skipped == 11290 - 7194


def test_enumeration_is_isomorphism_free():
    graphs = graphs_with_vertex_count(4)
    for a, b in itertools.combinations(graphs, 2):
        assert not are_isomorphic(a, b)
    assert all(g.n == 4 for g in graphs)


def test_enumeration_is_complete_at_3():
    # every labeled 3-vertex graph matches one catalog entry
    catalog = graphs_with_vertex_count(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for bits in itertools.product([0, 1], repeat=3):
        g = graph_from_edges(3, [p for p, b in zip(pairs, bits) if b])
        assert sum(are_isomorphic(g, c) for c in catalog) == 1


def test_graphs_up_to_ranges():
    assert len(list(graphs_up_to(4))) == 1 + 2 + 4 + 11
    assert len(list(graphs_up_to(4, n_min=3))) == 4 + 11
    assert [g.n for g in graphs_up_to(3)] == [1, 2, 2, 3, 3, 3, 3]


def test_case3_witness():
    # smallest sparse two-degree graph with the single class edge down low
    w = find_sparse_witness(0, 1)
    assert w.n == 6 and w.m == 7
    # the exact labelled graph; the sparse-vl campaign starts from it
    assert serialize_graph6(w) == "E]`G"
    shape = recognize_sparse_lh(w)
    assert shape is not None
    assert (shape.edges_in_high, shape.edges_in_low) == (0, 1)
    assert sparse_case(shape) == 3
    assert shape.low >= 2


def test_case2_non_tdiamond_witness():
    w = find_sparse_witness(1, 0, exclude_t_diamond=True)
    assert w.n == 8 and w.m == 11
    # the exact labelled graph; the sparse-vh campaign starts from it
    assert serialize_graph6(w) == "GeibB?"
    shape = recognize_sparse_lh(w)
    assert shape is not None
    assert (shape.edges_in_high, shape.edges_in_low) == (1, 0)
    assert sparse_case(shape) == 2
    for t in range(1, 8):
        assert not are_isomorphic(w, t_diamond(t))


def test_witness_search_is_deterministic():
    assert find_sparse_witness(0, 1) == find_sparse_witness(0, 1)
