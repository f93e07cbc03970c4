"""Small simple graphs with exact structural queries.

Vertices are the dense integers 0..n-1 and edges are unordered pairs stored
as sorted tuples.  Everything here is pure: operations return new values and
never mutate their inputs.  The scale target is desk-sized graphs (tens of
vertices), so all searches are exact and deterministic; nothing is sampled
or approximated.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

Edge = tuple[int, int]

# One shared copy of each distinct search-plan step.  Plans of different
# patterns repeat the same few steps, and every enumerated small graph keeps
# its plan, so sharing them keeps those plans from adding to peak memory.
_PLAN_STEPS: dict[tuple[tuple[int, ...], tuple[int, ...], int], tuple] = {}


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair to a sorted tuple."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e} not a sorted pair inside range(0, {self.n})")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(self.n)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbour bitmasks: bit u of masks[v] is set iff uv is an edge."""
        nbrs = [0] * self.n
        for u, v in self.edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        return tuple(nbrs)

    @cached_property
    def search_order(self) -> tuple[int, ...]:
        """Static vertex order for embedding this graph as a pattern: most
        constrained first, preferring vertices with many already placed
        neighbors, then higher degree, then lower id."""
        order: list[int] = []
        placed: set[int] = set()
        while len(order) < self.n:
            best_key = None
            best_v = -1
            for v in self.vertices:
                if v in placed:
                    continue
                key = (sum(1 for u in self.adj[v] if u in placed), self.degree(v), -v)
                if best_key is None or key > best_key:
                    best_key, best_v = key, v
            order.append(best_v)
            placed.add(best_v)
        return tuple(order)

    @cached_property
    def search_plan(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
        """Per position of `search_order`: the earlier positions adjacent to
        it in this graph, the earlier positions not adjacent to it, and its
        degree."""
        order = self.search_order
        plan = []
        for i, v in enumerate(order):
            adjacent = tuple(j for j in range(i) if order[j] in self.adj[v])
            apart = tuple(j for j in range(i) if order[j] not in self.adj[v])
            step = (adjacent, apart, self.degree(v))
            plan.append(_PLAN_STEPS.setdefault(step, step))
        return tuple(plan)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]] = ()) -> Graph:
    return Graph(n, frozenset(edge(u, v) for u, v in pairs))


@dataclass(frozen=True)
class DegreeProfile:
    """Degree summary: extremes plus the vertex classes of each degree."""

    min_degree: int
    max_degree: int
    by_degree: dict[int, frozenset[int]]


def degree_profile(g: Graph) -> DegreeProfile:
    if g.n == 0:
        raise ValueError("degree profile of the empty graph is undefined")
    classes: dict[int, set[int]] = {}
    for v in g.vertices:
        classes.setdefault(g.degree(v), set()).add(v)
    return DegreeProfile(
        min_degree=min(classes),
        max_degree=max(classes),
        by_degree={d: frozenset(vs) for d, vs in sorted(classes.items())},
    )


def complement(g: Graph) -> Graph:
    missing = (
        edge(u, v)
        for u, v in itertools.combinations(g.vertices, 2)
        if not g.has_edge(u, v)
    )
    return Graph(g.n, frozenset(missing))


def induced_subgraph(g: Graph, vs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on `vs`, relabeled to 0..|vs|-1 in sorted order.

    Returns the subgraph together with the old-to-new vertex map.
    """
    keep = sorted(set(vs))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside range(0, {g.n})")
    relabel = {old: new for new, old in enumerate(keep)}
    kept = frozenset(
        (relabel[u], relabel[v]) for u, v in g.edges if u in relabel and v in relabel
    )
    return Graph(len(keep), kept), relabel


def relabel_graph(g: Graph, mapping: dict[int, int]) -> Graph:
    """Apply a vertex bijection 0..n-1 -> 0..n-1."""
    if sorted(mapping) != list(g.vertices) or sorted(mapping.values()) != list(g.vertices):
        raise ValueError("mapping is not a bijection on the vertex set")
    return Graph(g.n, frozenset(edge(mapping[u], mapping[v]) for u, v in g.edges))


def delete_edges(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    drop = {edge(u, v) for u, v in pairs}
    missing = drop - g.edges
    if missing:
        raise ValueError(f"cannot delete non-edges {sorted(missing)}")
    return Graph(g.n, g.edges - drop)


def add_edges(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    put = {edge(u, v) for u, v in pairs}
    present = put & g.edges
    if present:
        raise ValueError(f"cannot add existing edges {sorted(present)}")
    return Graph(g.n, g.edges | put)


def toggle_pairs(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Symmetric difference with a set of vertex pairs."""
    return Graph(g.n, g.edges ^ {edge(u, v) for u, v in pairs})


@dataclass(frozen=True)
class EditSet:
    """A set of edge edits relative to some host graph.

    Deletions must be edges of the host and completions must be non-edges;
    `apply_edits` enforces that.  The two sets are disjoint by construction.
    """

    deletions: frozenset[Edge] = frozenset()
    completions: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.deletions & self.completions
        if overlap:
            raise ValueError(f"pairs {sorted(overlap)} both deleted and completed")

    @property
    def size(self) -> int:
        return len(self.deletions) + len(self.completions)

    def pairs(self) -> frozenset[Edge]:
        return self.deletions | self.completions


def apply_edits(g: Graph, edits: EditSet) -> Graph:
    return add_edges(delete_edges(g, edits.deletions), edits.completions)


def is_regular(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(set(g.degrees)) == 1


def connected_components(g: Graph) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u not in comp:
                    comp.add(u)
                    seen.add(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


def is_forest(g: Graph) -> bool:
    # acyclic iff every component has exactly |C|-1 edges
    comps = connected_components(g)
    for comp in comps:
        inside = sum(1 for u, v in g.edges if u in comp and v in comp)
        if inside != len(comp) - 1:
            return False
    return True


# ---------------------------------------------------------------------------
# named families

def path(t: int) -> Graph:
    if t < 1:
        raise ValueError("path needs at least 1 vertex")
    return graph_from_edges(t, ((i, i + 1) for i in range(t - 1)))


def cycle(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return graph_from_edges(length, ((i, (i + 1) % length) for i in range(length)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def null_graph(t: int) -> Graph:
    if t < 1:
        raise ValueError("null graph needs at least 1 vertex")
    return Graph(t)


def star(s: int) -> Graph:
    if s < 1:
        raise ValueError("star needs at least 1 leaf")
    return graph_from_edges(s + 1, ((0, i) for i in range(1, s + 1)))


def t_diamond(t: int) -> Graph:
    """An adjacent pair joined completely to t independent vertices."""
    if t < 1:
        raise ValueError("t-diamond needs t >= 1")
    pairs = [(0, 1)]
    pairs.extend((0, i) for i in range(2, t + 2))
    pairs.extend((1, i) for i in range(2, t + 2))
    return graph_from_edges(t + 2, pairs)


def sunlet(n: int) -> Graph:
    """A cycle of n vertices with one pendant vertex on each cycle vertex."""
    if n < 3:
        raise ValueError("sunlet needs a cycle of at least 3")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs.extend((i, n + i) for i in range(n))
    return graph_from_edges(2 * n, pairs)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = ((u + a.n, v + a.n) for u, v in b.edges)
    return graph_from_edges(a.n + b.n, itertools.chain(a.edges, shifted))


def join(a: Graph, b: Graph) -> Graph:
    base = disjoint_union(a, b)
    across = ((u, v + a.n) for u in a.vertices for v in b.vertices)
    return graph_from_edges(base.n, itertools.chain(base.edges, across))


_FAMILIES = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "null": null_graph,
    "star": star,
    "t_diamond": t_diamond,
    "sunlet": sunlet,
}


def make_named(family: str, *params: int) -> Graph:
    """Build a graph from a named family, e.g. make_named("path", 4)."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    return _FAMILIES[family](*params)


# ---------------------------------------------------------------------------
# embeddings, isomorphism, copy enumeration

@dataclass(frozen=True)
class Embedding:
    """Injective vertex map; position i holds the image of pattern vertex i."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.mapping)) != len(self.mapping):
            raise ValueError("embedding is not injective")

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.mapping))


def induced_embeddings(
    host: Graph, pattern: Graph, forced: dict[int, int] | None = None
) -> Iterator[dict[int, int]]:
    """Yield injective maps pattern -> host whose image induces the pattern.

    Adjacency must match exactly in both directions (edges map to edges,
    non-edges to non-edges).  `forced` pins pattern vertices to host
    vertices; yielded maps extend it.  Deterministic: a fixed pattern order
    and ascending host candidates.

    The host is read only through `n` and `masks`, so any object with
    those two attributes will do; the branching solver passes its mutable
    host this way.  A position's candidates are the unused host vertices
    inside the neighbour mask of every image of an earlier pattern
    neighbour and outside that of every earlier non-neighbour, of at least
    the pattern vertex's degree.
    """
    size = pattern.n
    if size == 0:
        yield {}
        return
    if size > host.n:
        return
    order = pattern.search_order
    plan = pattern.search_plan
    masks = host.masks
    pins = [None if forced is None else forced.get(v) for v in order]
    assigned = [-1] * size
    pools = [0] * size  # per position, the candidates not yet tried
    free = (1 << host.n) - 1  # host vertices no position holds
    i = 0
    entering = True
    while True:
        adjacent, apart, degree = plan[i]
        if entering:
            pool = free if pins[i] is None else free & (1 << pins[i])
            for j in adjacent:
                pool &= masks[assigned[j]]
            for j in apart:
                pool &= ~masks[assigned[j]]
        else:
            pool = pools[i]
        while pool:
            low = pool & -pool
            pool ^= low
            c = low.bit_length() - 1
            if masks[c].bit_count() >= degree:
                break
        else:
            if i == 0:
                return
            i -= 1
            free |= 1 << assigned[i]
            entering = False
            continue
        assigned[i] = c
        pools[i] = pool
        if i + 1 == size:
            entering = False
            yield {order[j]: assigned[j] for j in range(size)}
        else:
            free ^= low
            i += 1
            entering = True


def find_induced_embedding(
    host: Graph, pattern: Graph, forced: dict[int, int] | None = None
) -> dict[int, int] | None:
    return next(induced_embeddings(host, pattern, forced), None)


def is_induced_copy_free(g: Graph, h: Graph) -> bool:
    """True iff g has no induced subgraph isomorphic to h."""
    if h.n < 1:
        raise ValueError("pattern needs at least 1 vertex")
    return find_induced_embedding(g, h) is None


def find_induced_copy(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """Vertex set of the first induced copy of h in g, or None.

    The copy is the one reached first by the deterministic embedding
    search, so repeated runs always branch on the same copy.
    """
    found = find_induced_embedding(g, h)
    if found is None:
        return None
    return tuple(sorted(found.values()))


def enumerate_induced_copies(g: Graph, h: Graph) -> list[frozenset[int]]:
    """All vertex sets of g that induce a copy of h, in sorted order."""
    if h.n < 1:
        raise ValueError("pattern needs at least 1 vertex")
    hits: list[frozenset[int]] = []
    for sub in itertools.combinations(g.vertices, h.n):
        cand, _ = induced_subgraph(g, sub)
        if are_isomorphic(cand, h):
            hits.append(frozenset(sub))
    return hits


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degrees) != sorted(b.degrees):
        return False
    return find_induced_embedding(b, a) is not None


def isomorphism_extending(
    a: Graph, b: Graph, forced: dict[int, int]
) -> dict[int, int] | None:
    """An isomorphism a -> b that extends `forced`, or None."""
    if a.n != b.n or a.m != b.m:
        return None
    return find_induced_embedding(b, a, forced=forced)


def automorphism_count(g: Graph) -> int:
    return sum(1 for _ in induced_embeddings(g, g))


@dataclass(frozen=True)
class PatternCopy:
    """One placement of a pattern inside a complete host.

    `vertices` is the host subset used (isolated pattern vertices included),
    `edges` the realized edge set, and `embedding` the lexicographically
    least injective map producing that edge set on that subset.
    """

    vertices: tuple[int, ...]
    edges: frozenset[Edge]
    embedding: Embedding


def enumerate_pattern_copies(host_vertex_count: int, pattern: Graph) -> list[PatternCopy]:
    """Every distinct (vertex set, edge set) placement of `pattern` in a
    complete host on the given vertices.

    Subgraph placements, not induced ones: the host is complete, so a copy
    is identified by which pairs play the pattern's edges.  Two placements
    on the same subset with the same edge set are one copy; each copy keeps
    a single canonical embedding.
    """
    if pattern.n > host_vertex_count:
        return []
    copies: list[PatternCopy] = []
    for subset in itertools.combinations(range(host_vertex_count), pattern.n):
        seen: dict[frozenset[Edge], tuple[int, ...]] = {}
        for perm in itertools.permutations(subset):
            key = frozenset(edge(perm[u], perm[v]) for u, v in pattern.edges)
            if key not in seen:
                seen[key] = perm
        for key in sorted(seen, key=lambda es: sorted(es)):
            copies.append(PatternCopy(subset, key, Embedding(seen[key])))
    return copies
