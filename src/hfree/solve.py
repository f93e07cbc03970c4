"""Exact solvers for h-free edge modification.

Two independent engines answer "can at most k edits make g free of induced
copies of h": a bounded-depth branching search and a plain enumeration of
all edit sets.  They share nothing beyond the freeness test and the `Host`
it reads, so agreement between them is meaningful evidence; the
equivalence campaigns lean on the branching engine for the large
constructed hosts and on the enumerator as the ground truth for the small
ones.
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
    Host,
    apply_edits,
    bits,
    complement,
    edge,
    find_induced_copy,
    is_dense,
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
    deletions = frozenset(p for p in pairs if g.has_edge(*p))
    completions = frozenset(p for p in pairs if not g.has_edge(*p))
    return EditSet(deletions=deletions, completions=completions)


def _allowed_pairs(g: Graph, kind: ModificationKind) -> list[Edge]:
    """The pairs that the kind may edit in g, in sorted order."""
    if kind is ModificationKind.EDITING:
        return list(combinations(range(g.n), 2))
    if kind is ModificationKind.COMPLETION:
        g = complement(g)
    return [(u, v) for u, mask in enumerate(g.masks) for v in bits(mask & ~((2 << u) - 1))]


def brute_force_cap() -> int:
    """HFREE_BRUTE_CAP as a non-negative integer, or the default when unset."""
    raw = os.environ.get(BRUTE_CAP_ENV)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    if not raw.strip().isdecimal():
        raise ValueError(f"{BRUTE_CAP_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw)


def solve_bruteforce(g: Graph, k: int, h: Graph, kind: ModificationKind) -> SolveResult:
    """Try every edit set of size at most k, smallest first.

    The number of candidate sets is computed up front and compared against
    the cap (HFREE_BRUTE_CAP overrides the default); an oversized space is
    refused outright rather than answered heuristically.  One Host holds a
    copy of g's neighbour masks: each candidate flips both bits of each of
    its pairs, is tested, and flips them back, so no graph or mask list is
    built for it.
    """
    if k < 0:
        raise ValueError(f"budget must be non-negative, got {k}")
    cap = brute_force_cap()
    pairs = _allowed_pairs(g, kind)
    depth = min(k, len(pairs))
    space = sum(comb(len(pairs), size) for size in range(depth + 1))
    if space > cap:
        raise BruteForceCapExceeded(
            f"{space} candidate edit sets exceed the cap of {cap}"
        )
    masks = list(g.masks)
    host = Host(g.n, masks)
    nodes = 0
    for size in range(depth + 1):
        for combo in combinations(pairs, size):
            nodes += 1
            for u, v in combo:
                masks[u] ^= 1 << v
                masks[v] ^= 1 << u
            if is_induced_copy_free(host, h):
                return SolveResult(
                    answer=True,
                    witness=_split_edits(g, combo),
                    stats=SolveStats(nodes=nodes, copies_found=0),
                )
            for u, v in combo:
                masks[u] ^= 1 << v
                masks[v] ^= 1 << u
    return SolveResult(answer=False, witness=None, stats=SolveStats(nodes, 0))


def solve_branching(
    g: Graph, k: int, h: Graph, kind: ModificationKind
) -> SolveResult:
    """Bounded search tree: find one induced copy of h, branch over every
    allowed single edit within that copy's vertex set, recurse with k-1.

    A pair edited once on the current path is never touched again on that
    path, so each leaf's accumulated pair set is exactly its symmetric
    difference from g.  The current graph is a single mutable Host: each
    branch flips its pair's two mask bits and flips them back on
    backtrack, so a node costs one copy search and no graph rebuild.  The
    open nodes live on an explicit stack, so any budget fits.

    The search reads the host through neighbour masks, which prune little
    in a dense host.  So a dense g (see `graphs.is_dense`) is solved in the
    complement: g' is h-free iff its complement is free of h's complement,
    and toggling a pair toggles it in both, so (complement(g), k,
    complement(h), flipped kind) has the same answer and the same witness
    pairs.  Either way the pairs are split into deletions and completions
    against g.
    """
    if k < 0:
        raise ValueError(f"budget must be non-negative, got {k}")
    if is_dense(g):
        pairs, stats = _search(complement(g), k, complement(h), kind.flipped())
    else:
        pairs, stats = _search(g, k, h, kind)
    if pairs is None:
        return SolveResult(False, None, stats)
    return SolveResult(True, _split_edits(g, pairs), stats)


def _search(
    g: Graph, k: int, h: Graph, kind: ModificationKind
) -> tuple[list[Edge] | None, SolveStats]:
    """solve_branching's search tree on g itself: the pairs edited on the
    way to the first h-free leaf, or None, and the search's stats."""
    masks = list(g.masks)
    cur = Host(g.n, masks)
    path: list[Edge] = []

    def candidates(copy: tuple[int, ...]) -> list[Edge]:
        present = []
        absent = []
        for u, v in combinations(copy, 2):
            (present if masks[u] >> v & 1 else absent).append(edge(u, v))
        if kind is ModificationKind.DELETION:
            return present
        if kind is ModificationKind.COMPLETION:
            return absent
        return sorted(present + absent)

    # frames[d] holds the untried edits of the open node at depth d, last
    # first (none at depth k).  Popping them visits the nodes in the order
    # of a recursive search, with no Python call frame per level.
    frames: list[list[Edge]] = []
    nodes = copies = 0
    while True:
        nodes += 1
        copy = find_induced_copy(cur, h)
        if copy is None:
            return path, SolveStats(nodes, copies)
        copies += 1
        untried = []
        if len(path) < k:
            untried = [p for p in reversed(candidates(copy)) if p not in path]
        frames.append(untried)
        while not frames[-1]:
            frames.pop()
            if not frames:
                return None, SolveStats(nodes, copies)
            u, v = path.pop()
            masks[u] ^= 1 << v
            masks[v] ^= 1 << u
        pair = u, v = frames[-1].pop()
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        path.append(pair)


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
    if not all(0 <= u < v < g.n and g.has_edge(u, v) for u, v in witness.deletions):
        return False
    if any(0 <= u < v < g.n and g.has_edge(u, v) for u, v in witness.completions):
        return False
    return is_induced_copy_free(apply_edits(g, witness), h)
