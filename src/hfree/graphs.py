"""Small simple graphs with exact structural queries.

Vertices are the dense integers 0..n-1.  A `Graph` is n and `Graph.masks`,
an int bitmask of neighbours per vertex, which every builder here writes;
its edges, sorted pairs, are derived on first read.  `bits` lists a mask's
vertices.  Operations return new values and never mutate inputs.  The
scale target is desk-sized graphs (tens of vertices), so all searches are
exact and deterministic; nothing is sampled or approximated.

Every induced-copy question goes through one search loop,
`_first_embedding`, which returns the least embedding along the pattern's
`search_order`; no pattern vertex is placed in advance.  A host is a
`Graph` or a `Host`, a view of a vertex count and neighbour masks that the
solvers edit in place instead of building graphs.  The freeness test
searches the complement of a dense host (`is_dense`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

Edge = tuple[int, int]

# The fewest vertices of a host that `is_dense` calls dense.  On the
# campaigns' source hosts (at most 6 vertices), dense ones searched in the
# complement took about twice as long, complementing the host and the
# pattern included, as searched directly.
DENSE_MIN_VERTICES = 8


class cached:
    """A value derived from an instance on first read and stored in its
    `__dict__` under the same name, where later reads find it first, as
    `functools.cached_property` does but without the lock that one takes
    on every first read (Python 3.11).  Two threads reading at once may
    both derive the value; every derivation here is pure, so both store
    equal values."""

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered pair to a sorted tuple."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, init=False)
class Graph:
    """Immutable simple graph on 0..n-1: bit u of masks[v] is set iff uv is an edge."""

    n: int
    masks: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        """The graph with the given edges, each a sorted pair of vertices."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < v < n):
                raise ValueError(f"edge {e} not a sorted pair inside range(0, {n})")
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        self.__dict__.update(n=n, masks=tuple(nbrs))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> Graph:
        """The graph with these neighbour masks, unchecked: for builds whose
        masks are symmetric, loop-free and inside range(0, n) by construction."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, masks=tuple(masks))
        return g

    @cached
    def edges(self) -> frozenset[Edge]:
        return frozenset((u, v) for v in self.vertices for u in bits(self.masks[v] & (1 << v) - 1))

    @cached
    def m(self) -> int:
        return sum(map(int.bit_count, self.masks)) // 2

    @property
    def vertices(self) -> range:
        return range(self.n)

    @cached
    def search_order(self) -> tuple[int, ...]:
        """Static vertex order for embedding this graph as a pattern: most
        constrained first, preferring vertices with many already placed
        neighbors, then higher degree, then lower id."""
        masks, degrees = self.masks, self.degrees
        order: list[int] = []
        placed = 0
        for _ in self.vertices:
            best = max(
                bits(~placed & ((1 << self.n) - 1)),
                key=lambda v: ((masks[v] & placed).bit_count(), degrees[v], -v),
            )
            order.append(best)
            placed |= 1 << best
        return tuple(order)

    @cached
    def search_plan(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int, int], ...]:
        """Per position of `search_order`: the earlier positions adjacent to
        it in this graph, the earlier positions not adjacent to it, its
        degree, and the last earlier position holding a twin of it (same
        neighbours apart from each other), or -1."""
        order, masks = self.search_order, self.masks
        plan = []
        for i, v in enumerate(order):
            mask = masks[v]
            adjacent = tuple(j for j in range(i) if mask >> order[j] & 1)
            apart = tuple(j for j in range(i) if not mask >> order[j] & 1)
            twin = max(
                (j for j in range(i) if not (mask ^ masks[order[j]]) & ~(1 << v | 1 << order[j])),
                default=-1,
            )
            plan.append((adjacent, apart, self.degree(v), twin))
        return tuple(plan)

    @cached
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.masks))

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge; False for u == v.  Both must be vertices."""
        return self.masks[u] >> v & 1 == 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


class Host(NamedTuple):
    """A host as the searches read it: a vertex count and neighbour masks."""

    n: int
    masks: Sequence[int]


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]] = ()) -> Graph:
    return Graph(n, (edge(u, v) for u, v in pairs))


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complement(g: Graph | Host) -> Graph:
    """The complement of g."""
    everyone = (1 << g.n) - 1
    return Graph.from_masks(g.n, (everyone & ~(mask | 1 << v) for v, mask in enumerate(g.masks)))


def is_dense(g: Graph | Host) -> bool:
    """Whether a search for induced copies runs on g's complement: g has at
    least DENSE_MIN_VERTICES vertices and more than three quarters of its
    pairs are edges.  On random hosts of 12 to 30 vertices, the
    complement's search broke even at a density of about 0.7 to 0.75, was
    slower below (1.2 to 2 times at 0.4 to 0.65, and 3 s against 0.1 s on
    K40,40) and up to 5 times faster above."""
    n = g.n
    # sum of the degrees = 2m, and m > (3/4) C(n, 2)  <=>  8m > 3n(n - 1)
    return n >= DENSE_MIN_VERTICES and 4 * sum(m.bit_count() for m in g.masks) > 3 * n * (n - 1)


def induced_subgraph(g: Graph, vs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on `vs`, relabeled to 0..|vs|-1 in sorted order.

    Returns the subgraph together with the old-to-new vertex map.
    """
    keep = sorted(set(vs))
    relabel = {}
    new_bit = {}  # the bit of each kept vertex -> its bit in the subgraph
    inside = 0
    for new, old in enumerate(keep):
        if not 0 <= old < g.n:
            raise ValueError(f"vertex {old} outside range(0, {g.n})")
        relabel[old] = new
        new_bit[1 << old] = 1 << new
        inside |= 1 << old
    masks = g.masks
    kept = []
    for v in keep:
        rest = masks[v] & inside
        mask = 0
        while rest:
            low = rest & -rest
            rest ^= low
            mask |= new_bit[low]
        kept.append(mask)
    return Graph.from_masks(len(keep), kept), relabel


def edges_within(g: Graph, vs: Collection[int]) -> int:
    """The edge count of g[vs], without building it."""
    inside = 0
    for v in vs:
        inside |= 1 << v
    masks = g.masks
    count = 0
    for v in vs:
        count += (masks[v] & inside).bit_count()
    return count // 2


def _toggled(g: Graph, deletions: Iterable[Edge], completions: Iterable[Edge]) -> Graph:
    """g with the edges `deletions` deleted, then the non-edges `completions` added."""
    masks = list(g.masks)
    for pairs, present, wanted in ((deletions, 1, "edges"), (completions, 0, "non-edges")):
        flips = {edge(u, v) for u, v in pairs}
        bad = sorted((u, v) for u, v in flips if u < 0 or v >= g.n or masks[u] >> v & 1 != present)
        if bad:
            raise ValueError(f"pairs {bad} are not {wanted} of a graph on range(0, {g.n})")
        for u, v in flips:
            masks[u] ^= 1 << v
            masks[v] ^= 1 << u
    return Graph.from_masks(g.n, masks)


def delete_edges(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    return _toggled(g, pairs, ())


def add_edges(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    return _toggled(g, (), pairs)


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


def apply_edits(g: Graph, edits: EditSet) -> Graph:
    return _toggled(g, edits.deletions, edits.completions)


def is_regular(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(set(g.degrees)) == 1


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the components, in order of their lowest vertex."""
    comps: list[frozenset[int]] = []
    left = (1 << g.n) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= g.masks[v]
            frontier = reach & ~comp
            comp |= frontier
        left &= ~comp
        comps.append(frozenset(bits(comp)))
    return comps


def is_forest(g: Graph) -> bool:
    # a graph with c components has at least n - c edges, exactly when acyclic
    return g.m == g.n - len(connected_components(g))


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


# ---------------------------------------------------------------------------
# embeddings, isomorphism, copy enumeration

def _first_embedding(host: Graph | Host, pattern: Graph) -> list[int] | None:
    """The least induced embedding of pattern into host, as the images of
    `pattern.search_order` in turn, or None.  Least means lexicographically
    least along that order.

    Adjacency must match exactly in both directions (edges map to edges,
    non-edges to non-edges).  A position's candidates are the unused host
    vertices inside the neighbour mask of every image of an earlier pattern
    neighbour and outside that of every earlier non-neighbour, of at least
    the pattern vertex's degree, tried in ascending order.

    A position whose plan names an earlier twin takes only candidates above
    that twin's image.  Swapping two twins is an automorphism of the
    pattern, so it maps an embedding that breaks this order to one that is
    less at the earlier twin's position: the least embedding keeps the
    order, and the search still finds it first.
    """
    size = pattern.n
    if size > host.n:
        return None
    if size == 0:
        return []
    plan = pattern.search_plan
    masks = host.masks
    assigned = [-1] * size
    pools = [0] * size  # per position, the candidates not yet tried
    free = (1 << host.n) - 1  # host vertices no position holds
    i = 0
    entering = True
    while True:
        adjacent, apart, degree, twin = plan[i]
        if entering:
            pool = free if twin < 0 else free & (-2 << assigned[twin])
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
                return None
            i -= 1
            free |= 1 << assigned[i]
            entering = False
            continue
        assigned[i] = c
        if i + 1 == size:
            return assigned
        pools[i] = pool
        free ^= low
        i += 1
        entering = True


def find_induced_embedding(host: Graph, pattern: Graph) -> dict[int, int] | None:
    """The least induced embedding of pattern into host (see
    `_first_embedding`), as a pattern -> host map, or None."""
    found = _first_embedding(host, pattern)
    if found is None:
        return None
    return dict(zip(pattern.search_order, found))


def is_induced_copy_free(g: Graph | Host, h: Graph) -> bool:
    """True iff g has no induced subgraph isomorphic to h.

    A dense g (see `is_dense`) is searched in the complement: g has an
    induced copy of h iff its complement has one of h's complement."""
    if h.n < 1:
        raise ValueError("pattern needs at least 1 vertex")
    if is_dense(g):
        return _first_embedding(complement(g), complement(h)) is None
    return _first_embedding(g, h) is None


def find_induced_copy(g: Graph | Host, h: Graph) -> tuple[int, ...] | None:
    """Vertex set of the first induced copy of h in g, or None.

    The copy is the image of the least embedding, so repeated runs always
    branch on the same copy.  g is searched as given, dense or not.
    """
    found = _first_embedding(g, h)
    if found is None:
        return None
    return tuple(sorted(found))


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
    if a == b:
        return True
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degrees) != sorted(b.degrees):
        return False
    return _first_embedding(b, a) is not None


def _refine(nbr: dict[int, int], cells: list[int], todo: list[int]) -> list[int]:
    """Split the ordered partition `cells` (vertex bitmasks) until it is
    equitable: every vertex of a cell has as many neighbours in each cell
    as the others.  `todo` holds the cells the partition may not yet be
    equitable against; `nbr` maps each vertex bit to its neighbour mask.
    A split cell's parts take its place, ordered by that neighbour count."""
    n = len(nbr)
    while todo and len(cells) < n:
        splitter = todo.pop()
        out = []
        for cell in cells:
            if cell & (cell - 1):
                parts: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    count = (nbr[low] & splitter).bit_count()
                    parts[count] = parts.get(count, 0) | low
                if len(parts) > 1:
                    split = [parts[c] for c in sorted(parts)]
                    out += split
                    todo += split
                    continue
            out.append(cell)
        cells = out
    return cells


def _canonical_search(g: Graph) -> tuple[tuple[int, ...], int]:
    """The certificate and the automorphism count of g, by colour
    refinement and individualisation (McKay & Piperno, "Practical graph
    isomorphism II", 2014); it reads g only through its masks.

    The search refines an ordered partition of the vertices, starting from
    the degree classes, to an equitable one, then individualises each
    vertex of the first non-singleton cell in turn and refines again, down
    to discrete partitions: the leaves, each an order of the vertices.  The
    certificate is the greatest masks tuple relabelled by a leaf's order,
    so two graphs get the same one iff they are isomorphic.  Swapping two
    twins (same neighbours apart from each other) is an automorphism that
    fixes the partition, so their subtrees mirror each other: only one
    twin of a class is individualised, weighted by the class size.  |Aut|
    is the total weight of the leaves that reach the certificate.
    """
    # Vertices stay single-bit masks throughout, keyed in `nbr`, and sets
    # are walked by peeling off their low bit.  This runs once for every
    # enumerated candidate; walking the sets with `bits` took about a fifth
    # of the search's time under cProfile.
    nbr: dict[int, int] = {}
    classes: dict[int, int] = {}
    for v, mask in enumerate(g.masks):
        nbr[1 << v] = mask
        degree = mask.bit_count()
        classes[degree] = classes.get(degree, 0) | 1 << v
    start = [classes[d] for d in sorted(classes)]
    best: tuple[int, ...] = ()
    total = 0
    stack = [(start, start[:], 1)]  # (partition, its pending splitters, weight)
    while stack:
        cells, todo, weight = stack.pop()
        cells = _refine(nbr, cells, todo)
        if len(cells) == len(nbr):
            place = {cell: 1 << i for i, cell in enumerate(cells)}
            form = []
            for cell in cells:
                image = 0
                rest = nbr[cell]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    image |= place[low]
                form.append(image)
            leaf = tuple(form)
            if leaf > best or not total:
                best, total = leaf, weight
            elif leaf == best:
                total += weight
            continue
        i = 0
        while not cells[i] & (cells[i] - 1):
            i += 1
        cell = rest = cells[i]
        while rest:
            one = rest & -rest
            twins = 0
            others = rest
            while others:
                low = others & -others
                others ^= low
                if not (nbr[one] ^ nbr[low]) & ~(one | low):
                    twins |= low
            rest &= ~twins
            child = cells[:i] + [one, cell ^ one] + cells[i + 1 :]
            stack.append((child, [one], weight * twins.bit_count()))
    return best, total


def certificate(g: Graph) -> tuple[int, ...]:
    """A canonical form of g: two graphs have the same certificate iff
    they are isomorphic."""
    return _canonical_search(g)[0]


def automorphism_count(g: Graph) -> int:
    """|Aut(g)|, counted by the canonical search without listing the
    automorphisms."""
    return _canonical_search(g)[1]


@dataclass(frozen=True)
class PatternCopy:
    """One placement of a pattern inside a complete host.

    `vertices` is the host subset used (isolated pattern vertices included),
    `edges` the realized edge set, and `embedding` the lexicographically
    least injective map producing that edge set on that subset: position i
    holds the image of pattern vertex i.
    """

    vertices: tuple[int, ...]
    edges: frozenset[Edge]
    embedding: tuple[int, ...]


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
            copies.append(PatternCopy(subset, key, seen[key]))
    return copies
