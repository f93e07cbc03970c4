"""Shared problem types: modification kinds, instances, the step names, the
sparse two-degree pattern shape, and the anchor problems that terminate
hardness chains."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

from .formats import graph_from_obj, graph_to_obj
from .graphs import (
    Edge,
    Graph,
    are_isomorphic,
    connected_components,
    induced_subgraph,
    is_forest,
    is_regular,
    path,
    t_diamond,
)


class ModificationKind(enum.Enum):
    DELETION = "deletion"
    COMPLETION = "completion"
    EDITING = "editing"

    def flipped(self) -> "ModificationKind":
        """The kind after moving to the complement world."""
        if self is ModificationKind.DELETION:
            return ModificationKind.COMPLETION
        if self is ModificationKind.COMPLETION:
            return ModificationKind.DELETION
        return ModificationKind.EDITING


def kind_from_str(s: str) -> ModificationKind:
    try:
        return ModificationKind(s.lower())
    except ValueError:
        raise ValueError(
            f"unknown modification kind {s!r}; expected deletion, completion, or editing"
        ) from None


class ContractViolationError(RuntimeError):
    """A structural guarantee the procedures rely on failed for a concrete
    input.  This marks an internal inconsistency, not bad user input."""


@dataclass(frozen=True)
class Instance:
    """One decision-problem input: may g be made h-free with at most k edits
    of the given kind?"""

    g: Graph
    k: int
    h: Graph
    kind: ModificationKind

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("budget k must be non-negative")
        if self.h.n < 1:
            raise ValueError("pattern h needs at least 1 vertex")

    def summary(self) -> dict[str, Any]:
        return {
            "vertices": self.g.n,
            "edges": self.g.m,
            "k": self.k,
            "pattern_vertices": self.h.n,
            "pattern_edges": self.h.m,
            "kind": self.kind.value,
        }

    def to_obj(self) -> dict[str, Any]:
        return {
            "graph": graph_to_obj(self.g),
            "k": self.k,
            "h": graph_to_obj(self.h),
            "kind": self.kind.value,
        }


def instance_from_obj(obj: Any) -> Instance:
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    for key in ("graph", "k", "h", "kind"):
        if key not in obj:
            raise ValueError(f'instance missing "{key}"')
    k = obj["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError('"k" must be an integer')
    return Instance(
        g=graph_from_obj(obj["graph"]),
        k=k,
        h=graph_from_obj(obj["h"]),
        kind=kind_from_str(obj["kind"]),
    )


# ---------------------------------------------------------------------------
# sparse two-degree recognition

@dataclass(frozen=True)
class SparseLH:
    """A graph whose degrees take exactly two values high > low, where each
    degree class induces at most one edge."""

    low: int
    high: int
    v_low: frozenset[int]
    v_high: frozenset[int]
    edges_in_low: int
    edges_in_high: int


def recognize_sparse_lh(h: Graph) -> SparseLH | None:
    """Recognize the sparse two-degree shape; None when it does not apply
    (including regular graphs, which have a single degree value)."""
    if h.n == 0:
        return None
    values = sorted(set(h.degrees))
    if len(values) != 2:
        return None
    low, high = values
    v_low = frozenset(v for v in h.vertices if h.degree(v) == low)
    v_high = frozenset(v for v in h.vertices if h.degree(v) == high)
    low_g, _ = induced_subgraph(h, v_low)
    high_g, _ = induced_subgraph(h, v_high)
    if low_g.m > 1 or high_g.m > 1:
        return None
    return SparseLH(low, high, v_low, v_high, low_g.m, high_g.m)


def sparse_case(shape: SparseLH) -> int:
    """Case split on (edges inside the high class, edges inside the low
    class): (0,0) -> 1, (1,0) -> 2, (0,1) -> 3, (1,1) -> 4."""
    table = {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4}
    return table[(shape.edges_in_high, shape.edges_in_low)]


def class_edge(h: Graph, cls: frozenset[int]) -> Edge:
    """The edge inside a degree class of a sparse shape; callers check
    first that the class holds exactly one."""
    return min(e for e in h.edges if e[0] in cls and e[1] in cls)


# ---------------------------------------------------------------------------
# anchor problems

BASE_P3_EDITING = "p3-editing"
BASE_P4_EDITING = "p4-editing"
BASE_DIAMOND_EDITING = "diamond-editing"
BASE_REGULAR_EDITING = "regular-editing"
BASE_P3_DELETION = "p3-deletion"
BASE_DIAMOND_DELETION = "diamond-deletion"
BASE_TREE_OR_REGULAR_DELETION = "tree-or-regular-deletion"
BASE_SPARSE_CASE1_DELETION = "sparse-case1-deletion"


def _sparse_case1_premise(g: Graph) -> bool:
    shape = recognize_sparse_lh(g)
    return shape is not None and shape.low >= 2 and sparse_case(shape) == 1


def _isomorphic_to(pattern: Graph) -> Callable[[Graph], bool]:
    return lambda g: are_isomorphic(g, pattern)


_EDITING, _DELETION = ModificationKind.EDITING, ModificationKind.DELETION

# Every anchor: name -> (its modification kind, the premise its graph meets).
ANCHORS: dict[str, tuple[ModificationKind, Callable[[Graph], bool]]] = {
    BASE_P3_EDITING: (_EDITING, _isomorphic_to(path(3))),
    BASE_P4_EDITING: (_EDITING, _isomorphic_to(path(4))),
    BASE_DIAMOND_EDITING: (_EDITING, _isomorphic_to(t_diamond(2))),
    BASE_REGULAR_EDITING: (_EDITING, lambda g: is_regular(g) and g.m >= 2),
    BASE_P3_DELETION: (_DELETION, _isomorphic_to(path(3))),
    BASE_DIAMOND_DELETION: (_DELETION, _isomorphic_to(t_diamond(2))),
    BASE_TREE_OR_REGULAR_DELETION: (
        _DELETION,
        lambda g: g.m >= 2 and _largest_component_regular_or_tree(g),
    ),
    BASE_SPARSE_CASE1_DELETION: (_DELETION, _sparse_case1_premise),
}


@dataclass(frozen=True)
class BaseProblem:
    """A problem whose hardness is taken as known; chains end here.

    `graph` is the concrete pattern the chain bottomed out at."""

    name: str
    graph: Graph

    def _anchor(self) -> tuple[ModificationKind, Callable[[Graph], bool]]:
        if self.name not in ANCHORS:
            raise ValueError(f"unknown base problem {self.name!r}")
        return ANCHORS[self.name]

    @property
    def kind(self) -> ModificationKind:
        return self._anchor()[0]

    def validate(self) -> None:
        """Check the premise attached to this anchor; raise on mismatch."""
        _, premise = self._anchor()
        if not premise(self.graph):
            raise ContractViolationError(
                f"base problem {self.name} premise fails for its attached graph"
            )

    def to_obj(self) -> dict[str, Any]:
        return {"name": self.name, "graph": graph_to_obj(self.graph)}


def _largest_component_regular_or_tree(g: Graph) -> bool:
    comps = connected_components(g)
    top = max(len(c) for c in comps)
    for comp in comps:
        if len(comp) != top:
            continue
        sub, _ = induced_subgraph(g, comp)
        if is_regular(sub) or (is_forest(sub) and len(connected_components(sub)) == 1):
            return True
    return False


# ---------------------------------------------------------------------------
# reduction step names; hfree.reductions.STEPS says how to replay each

STEP_COMPLEMENT = "complement-problem"
STEP_DEGREE = "degree-reduce"
STEP_TDIAMOND = "tdiamond-induction"
STEP_SPARSE_VL = "sparse-vl-strip"
STEP_SPARSE_VH = "sparse-vh-route"
STEP_SPARSE_CASE1 = "sparse-case1"
STEP_CONSTRUCT_NONADJ = "construct-nonadj"
STEP_CONSTRUCT_ADJ = "construct-adj"
