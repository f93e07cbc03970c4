"""Exact solvers for h-free edge modification.

Two independent engines answer "can at most k edits make g free of induced
copies of h": a bounded-depth branching search and a plain enumeration of
all edit sets.  They share nothing beyond the freeness test, so agreement
between them is meaningful evidence; the equivalence campaigns lean on the
branching engine for the large constructed hosts and on the enumerator as
the ground truth for the small ones.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any

from .graphs import (
    Edge,
    EditSet,
    Graph,
    apply_edits,
    edge,
    find_induced_copy,
    is_induced_copy_free,
)
from .problems import Instance, ModificationKind

DEFAULT_BRUTE_CAP = 500_000
BRUTE_CAP_ENV = "HFREE_BRUTE_CAP"


class BruteForceCapExceeded(RuntimeError):
    """The enumeration space is too large; refusing beats guessing."""


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    copies_found: int

    def to_obj(self) -> dict[str, int]:
        return {"nodes": self.nodes, "copies_found": self.copies_found}


@dataclass(frozen=True)
class SolveResult:
    answer: bool
    witness: EditSet | None
    stats: SolveStats

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"answer": self.answer, "stats": self.stats.to_obj()}
        if self.witness is not None:
            obj["witness"] = {
                "deletions": [list(e) for e in sorted(self.witness.deletions)],
                "completions": [list(e) for e in sorted(self.witness.completions)],
            }
        else:
            obj["witness"] = None
        return obj


def _split_edits(g: Graph, pairs) -> EditSet:
    deletions = frozenset(p for p in pairs if p in g.edges)
    completions = frozenset(p for p in pairs if p not in g.edges)
    return EditSet(deletions=deletions, completions=completions)


def _allowed_pairs(g: Graph, kind: ModificationKind) -> list:
    if kind is ModificationKind.DELETION:
        return sorted(g.edges)
    all_pairs = [edge(u, v) for u, v in combinations(range(g.n), 2)]
    if kind is ModificationKind.COMPLETION:
        return [p for p in all_pairs if p not in g.edges]
    return all_pairs


def brute_force_cap() -> int:
    raw = os.environ.get(BRUTE_CAP_ENV)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    return int(raw)


def solve_bruteforce(
    g: Graph, k: int, h: Graph, kind: ModificationKind, cap: int | None = None
) -> SolveResult:
    """Try every edit set of size at most k, smallest first.

    The number of candidate sets is computed up front and compared against
    the cap (HFREE_BRUTE_CAP overrides the default); an oversized space is
    refused outright rather than answered heuristically.
    """
    if k < 0:
        raise ValueError(f"budget must be non-negative, got {k}")
    if cap is None:
        cap = brute_force_cap()
    pairs = _allowed_pairs(g, kind)
    depth = min(k, len(pairs))
    space = sum(comb(len(pairs), size) for size in range(depth + 1))
    if space > cap:
        raise BruteForceCapExceeded(
            f"{space} candidate edit sets exceed the cap of {cap}"
        )
    nodes = 0
    for size in range(depth + 1):
        for combo in combinations(pairs, size):
            nodes += 1
            candidate = Graph(g.n, g.edges ^ set(combo))
            if is_induced_copy_free(candidate, h):
                return SolveResult(
                    answer=True,
                    witness=_split_edits(g, combo),
                    stats=SolveStats(nodes=nodes, copies_found=0),
                )
    return SolveResult(answer=False, witness=None, stats=SolveStats(nodes, 0))


class _ToggledHost:
    """The branching search's current graph: one list of neighbour masks,
    edited in place.  `find_induced_copy` reads it as it reads a Graph,
    through `n` and `masks`."""

    __slots__ = ("n", "masks")

    def __init__(self, g: Graph) -> None:
        self.n = g.n
        self.masks = list(g.masks)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def toggle(self, pair: Edge) -> None:
        u, v = pair
        self.masks[u] ^= 1 << v
        self.masks[v] ^= 1 << u


def solve_branching(
    g: Graph, k: int, h: Graph, kind: ModificationKind
) -> SolveResult:
    """Bounded search tree: find one induced copy of h, branch over every
    allowed single edit within that copy's vertex set, recurse with k-1.

    A pair edited once on the current path is never touched again on that
    path, so each leaf's accumulated pair set is exactly its symmetric
    difference from g.  The current graph is a single mutable host: each
    branch toggles its pair's two mask bits and toggles them back on
    return, so a node costs one copy search and no graph rebuild.
    """
    if k < 0:
        raise ValueError(f"budget must be non-negative, got {k}")
    stats = {"nodes": 0, "copies": 0}
    cur = _ToggledHost(g)
    path: list[Edge] = []

    def candidates(copy: tuple[int, ...]) -> list[Edge]:
        present = []
        absent = []
        for u, v in combinations(copy, 2):
            (present if cur.has_edge(u, v) else absent).append(edge(u, v))
        if kind is ModificationKind.DELETION:
            return present
        if kind is ModificationKind.COMPLETION:
            return absent
        return sorted(present + absent)

    def search(budget: int) -> bool:
        stats["nodes"] += 1
        copy = find_induced_copy(cur, h)
        if copy is None:
            return True
        stats["copies"] += 1
        if budget == 0:
            return False
        for pair in candidates(copy):
            if pair in path:
                continue
            cur.toggle(pair)
            path.append(pair)
            found = search(budget - 1)
            cur.toggle(pair)
            if found:
                return True
            path.pop()
        return False

    found = search(k)
    stats_obj = SolveStats(stats["nodes"], stats["copies"])
    if not found:
        return SolveResult(answer=False, witness=None, stats=stats_obj)
    return SolveResult(answer=True, witness=_split_edits(g, path), stats=stats_obj)


def solve_instance(inst: Instance, engine: str = "branch") -> SolveResult:
    if engine == "branch":
        return solve_branching(inst.g, inst.k, inst.h, inst.kind)
    if engine == "brute":
        return solve_bruteforce(inst.g, inst.k, inst.h, inst.kind)
    raise ValueError(f"unknown engine {engine!r}")


def check_witness(g: Graph, k: int, h: Graph, kind: ModificationKind, witness: EditSet) -> bool:
    """A valid witness respects the kind's allowed edits, fits the budget,
    and actually reaches freeness."""
    if witness.size > k:
        return False
    if kind is ModificationKind.DELETION and witness.completions:
        return False
    if kind is ModificationKind.COMPLETION and witness.deletions:
        return False
    if any(p not in g.edges for p in witness.deletions):
        return False
    if any(p in g.edges for p in witness.completions):
        return False
    return is_induced_copy_free(apply_edits(g, witness), h)
