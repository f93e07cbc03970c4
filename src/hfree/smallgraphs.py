"""Exhaustive small-graph enumeration, up to isomorphism, plus targeted
searches over degree-constrained families.

Enumeration works level by level: every n-vertex graph arises from some
(n-1)-vertex graph by attaching one new vertex, so each level extends the
previous one and keeps a candidate iff its canonical certificate
(`graphs.certificate`) is new: the first graph of each isomorphism class
is its representative.  An attach set that a twin swap in the base maps to
an earlier one cannot be first, so it is skipped before its certificate is
computed (at n = 8, 94,956 of 133,632 candidates are left).  Everything is
deterministic, so the enumeration order (and any "first hit" search over
it) is stable across runs.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .graphs import Graph, certificate
from .problems import recognize_sparse_lh


@lru_cache(maxsize=None)
def graphs_with_vertex_count(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("need at least 1 vertex")
    if n == 1:
        return (Graph(1),)
    out: list[Graph] = []
    seen: set[tuple[int, ...]] = set()
    for base in graphs_with_vertex_count(n - 1):
        for attach in _attach_sets(base):
            g = Graph(n, base.edges | {(u, n - 1) for u in attach})
            key = certificate(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return tuple(out)


def _attach_sets(base: Graph) -> Iterator[tuple[int, ...]]:
    """The vertex sets of `base` that a new vertex is attached to, in
    `itertools.combinations` order by size, less those that hold a vertex
    v but not its previous twin: the greatest u < v with the same
    neighbours outside {u, v}.  Swapping u and v is an automorphism of
    `base` that maps such a set to an earlier one, so its graph is never
    the first of its isomorphism class."""
    masks = base.masks
    twins = []
    for v in range(1, base.n):
        for u in range(v - 1, -1, -1):
            if (masks[u] ^ masks[v]) & ~(1 << u | 1 << v) == 0:
                twins.append((u, v))
                break
    for r in range(base.n + 1):
        for attach in itertools.combinations(range(base.n), r):
            if all(u in attach or v not in attach for u, v in twins):
                yield attach


def graphs_up_to(n_max: int, n_min: int = 1) -> Iterator[Graph]:
    for n in range(n_min, n_max + 1):
        yield from graphs_with_vertex_count(n)


def _capped_two_class_realizations(
    n: int, low: int, high: int, high_count: int, cap_high: int, cap_low: int
) -> Iterator[Graph]:
    # Vertices 0..high_count-1 get degree `high`, the rest `low`; prune any
    # partial graph whose within-class edge counts exceed the caps.
    degrees = [high] * high_count + [low] * (n - high_count)
    residual = list(degrees)
    chosen: list[tuple[int, int]] = []
    counts = {"high": 0, "low": 0}

    def cls(v: int) -> str:
        return "high" if v < high_count else "low"

    def rec(v: int) -> Iterator[Graph]:
        if v == n:
            if all(x == 0 for x in residual):
                yield Graph(n, frozenset(chosen))
            return
        need = residual[v]
        if need == 0:
            yield from rec(v + 1)
            return
        cands = [u for u in range(v + 1, n) if residual[u] > 0]
        if need > len(cands):
            return
        for combo in itertools.combinations(cands, need):
            same = [u for u in combo if cls(u) == cls(v)]
            bump = len(same)
            if bump and counts[cls(v)] + bump > (cap_high if cls(v) == "high" else cap_low):
                continue
            counts[cls(v)] += bump
            for u in combo:
                residual[u] -= 1
            residual[v] = 0
            chosen.extend((v, u) for u in combo)
            yield from rec(v + 1)
            del chosen[-need:]
            residual[v] = need
            for u in combo:
                residual[u] += 1
            counts[cls(v)] -= bump

    yield from rec(0)


# The most vertices of a graph that find_sparse_witness tries.
WITNESS_MAX_N = 8


@lru_cache(maxsize=None)
def find_sparse_witness(
    edges_in_high: int,
    edges_in_low: int,
    exclude_t_diamond: bool = False,
) -> Graph:
    """First graph (in a fixed exhaustive order) whose degrees take exactly
    two values h > l >= 2, whose degree classes carry exactly the requested
    within-class edge counts, optionally excluding the t-diamond family.

    Only graphs with two-valued degree sequences can qualify, so the search
    enumerates exactly those, smallest vertex count first.
    """
    for n in range(4, WITNESS_MAX_N + 1):
        for low in range(2, n - 1):
            for high in range(low + 1, n):
                for high_count in range(1, n):
                    if (high * high_count + low * (n - high_count)) % 2:
                        continue
                    for g in _capped_two_class_realizations(
                        n, low, high, high_count, edges_in_high, edges_in_low
                    ):
                        shape = recognize_sparse_lh(g)
                        if shape is None:
                            continue
                        if (
                            shape.edges_in_high != edges_in_high
                            or shape.edges_in_low != edges_in_low
                        ):
                            continue
                        if exclude_t_diamond and shape.is_t_diamond:
                            continue
                        return g
    raise LookupError(
        f"no two-valued-degree graph up to {WITNESS_MAX_N} vertices with "
        f"{edges_in_high} high-class and {edges_in_low} low-class edges"
    )
