"""The induced-copy search and the two solvers against independent oracles:
networkx's induced subgraph matcher, and each other on drawn instances."""
import itertools

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from hfree.graphs import Graph, induced_embeddings
from hfree.problems import ModificationKind
from hfree.solve import check_witness, solve_branching, solve_bruteforce


@st.composite
def graphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, frozenset(p for p, keep in zip(pairs, bits) if keep))


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


@settings(max_examples=300, deadline=None)
@given(graphs(0, 7), graphs(1, 4))
def test_embeddings_match_networkx(host, pattern):
    got = list(induced_embeddings(host, pattern))
    # GraphMatcher maps host -> pattern; invert to pattern -> host
    matcher = GraphMatcher(to_nx(host), to_nx(pattern))
    want = {
        tuple(sorted((p, h) for h, p in m.items()))
        for m in matcher.subgraph_isomorphisms_iter()
    }
    assert len(got) == len(want)
    assert {tuple(sorted(m.items())) for m in got} == want
    # the documented order: ascending images along the pattern's search order
    keys = [tuple(m[v] for v in pattern.search_order) for m in got]
    assert keys == sorted(keys)


@settings(max_examples=300, deadline=None)
@given(graphs(1, 7), graphs(1, 4), st.data())
def test_forced_embeddings_filter_the_unpinned_ones(host, pattern, data):
    pinned = data.draw(st.lists(st.sampled_from(range(pattern.n)), unique=True))
    forced = {v: data.draw(st.integers(0, host.n - 1)) for v in pinned}
    got = list(induced_embeddings(host, pattern, forced))
    want = [
        m
        for m in induced_embeddings(host, pattern)
        if all(m[v] == w for v, w in forced.items())
    ]
    assert got == want


@settings(max_examples=150, deadline=None)
@given(
    graphs(1, 6),
    graphs(2, 4),
    st.integers(0, 3),
    st.sampled_from(list(ModificationKind)),
)
def test_branching_agrees_with_brute_force(g, h, k, kind):
    branch = solve_branching(g, k, h, kind)
    brute = solve_bruteforce(g, k, h, kind)
    assert branch.answer == brute.answer
    for r in (branch, brute):
        if r.answer:
            assert check_witness(g, k, h, kind, r.witness)
        else:
            assert r.witness is None
