"""graph6 and JSON graph IO."""
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfree.formats import (
    GraphParseError,
    parse_graph,
    parse_graph6,
    parse_graph_json,
    serialize_graph6,
    serialize_graph_json,
)
from hfree.graphs import Graph, complete, graph_from_edges, null_graph, path
from hfree.smallgraphs import graphs_up_to


def test_single_vertex():
    assert serialize_graph6(null_graph(1)) == "@"
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_documented_3_vertex_encoding():
    # "B[" carries nonzero padding bits; parsing is lenient, serialization
    # always zeroes the pad, so the canonical form of the same graph is "BW"
    g = parse_graph6("B[")
    assert g.n == 3
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert serialize_graph6(g) == "BW"
    assert parse_graph6("BW") == g


def test_known_encodings():
    assert serialize_graph6(complete(2)) == "A_"
    assert serialize_graph6(graph_from_edges(3, [(0, 2), (1, 2)])) == "BW"
    assert serialize_graph6(path(3)) == "Bg"
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6("A?") == null_graph(2)


def test_optional_header_accepted():
    assert parse_graph6(">>graph6<<A_") == complete(2)


def test_roundtrip_exhaustive():
    for g in graphs_up_to(6):
        assert parse_graph6(serialize_graph6(g)) == g


def test_large_n_uses_long_form():
    g = null_graph(63)
    s = serialize_graph6(g)
    assert s.startswith("~")
    assert not s.startswith("~~")
    assert parse_graph6(s) == g
    assert parse_graph6(serialize_graph6(null_graph(200))) == null_graph(200)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 70),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    st.integers(0, 2**32),
)
def test_graph6_agrees_with_networkx(n, density, seed):
    # n runs past 62, where the vertex count switches to the long form
    assert_graph6_matches_networkx(random_graph(n, density, random.Random(seed)))


def test_graph6_agrees_with_networkx_on_large_graphs():
    assert_graph6_matches_networkx(random_graph(300, 0.3, random.Random(300)))
    assert_graph6_matches_networkx(null_graph(1000))


def random_graph(n: int, density: float, rng: random.Random) -> Graph:
    return Graph(
        n,
        frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ),
    )


def assert_graph6_matches_networkx(g: Graph) -> None:
    nx_g = nx.Graph()
    nx_g.add_nodes_from(range(g.n))
    nx_g.add_edges_from(g.edges)
    text = serialize_graph6(g)
    assert text.encode() + b"\n" == nx.to_graph6_bytes(nx_g, header=False)
    back = nx.from_graph6_bytes(text.encode())
    assert back.number_of_nodes() == g.n
    assert parse_graph6(text) == Graph(
        g.n, frozenset(tuple(sorted(e)) for e in back.edges)
    )


def test_parse_errors_carry_offsets():
    with pytest.raises(GraphParseError) as err:
        parse_graph6("")
    assert err.value.offset == 0

    with pytest.raises(GraphParseError) as err:
        parse_graph6("A_!")
    assert err.value.offset == 2

    with pytest.raises(GraphParseError):
        parse_graph6("B")  # truncated body

    with pytest.raises(GraphParseError):
        parse_graph6("~~????")  # 36-bit sizes are out of scope


def test_json_graph():
    g = parse_graph_json('{"n": 2, "edges": [[0, 1]]}')
    assert g == complete(2)
    obj = json.loads(serialize_graph_json(path(3)))
    assert obj == {"n": 3, "edges": [[0, 1], [1, 2]]}
    for g in graphs_up_to(5):
        assert parse_graph_json(serialize_graph_json(g)) == g


def test_json_graph_errors():
    # "edges" may be omitted; "n" may not
    assert parse_graph_json('{"n": 2}') == null_graph(2)
    with pytest.raises(GraphParseError):
        parse_graph_json('{"edges": []}')
    with pytest.raises(GraphParseError):
        parse_graph_json('{"n": 2, "edges": [[0, 2]]}')
    with pytest.raises(GraphParseError):
        parse_graph_json('{"n": 2, "edges": [[0, 0]]}')
    with pytest.raises(GraphParseError):
        parse_graph_json("[1, 2, 3]")


def test_autodetect():
    assert parse_graph(' {"n": 2, "edges": []} ') == null_graph(2)
    assert parse_graph("A_\n") == complete(2)
    # '{' opens JSON even though it is also a legal graph6 byte
    g = parse_graph('{"n": 1, "edges": []}')
    assert g.n == 1


def test_graph6_rejects_garbage():
    for bad in ["\x1f", "A_ A_", "Bw extra"]:
        with pytest.raises(GraphParseError):
            parse_graph6(bad)
