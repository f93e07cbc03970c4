"""Dichotomy classification for h-free edge modification problems.

For a fixed pattern h, deciding whether a host graph can be made free of
induced copies of h with at most k edge edits is polynomial exactly in the
degenerate regimes (editing: h has at most two vertices; deletion: at most
one edge; completion: at most one non-edge) and NP-complete everywhere
else.  The NP-complete verdicts here are constructive: `classify` returns
a chain of parameter-preserving reductions that bottoms out at a known
hard anchor problem, and every chain can be replayed mechanically on a
concrete seed instance (see `hfree.reductions.replay_chain`).

The chains are produced by two "churn" procedures that repeatedly strip
extreme-degree vertex classes from the pattern (each strip is one
degree-reduce step) until the remainder is structurally recognizable, plus
dedicated handling for the sparse two-degree remainders.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .graphs import (
    Graph,
    are_isomorphic,
    complement,
    degree_profile,
    induced_subgraph,
    is_forest,
    is_regular,
    path,
    t_diamond,
)
from .problems import (
    BASE_DIAMOND_DELETION,
    BASE_DIAMOND_EDITING,
    BASE_P3_DELETION,
    BASE_P3_EDITING,
    BASE_P4_EDITING,
    BASE_REGULAR_EDITING,
    BASE_SPARSE_CASE1_DELETION,
    BASE_TREE_OR_REGULAR_DELETION,
    STEP_COMPLEMENT,
    STEP_DEGREE,
    STEP_SPARSE_VH,
    STEP_SPARSE_VL,
    STEP_TDIAMOND,
    BaseProblem,
    ContractViolationError,
    ModificationKind,
    recognize_sparse_lh,
    sparse_case,
)
from .reductions import ReductionStep, chain_step

REASON_AT_MOST_TWO_VERTICES = "at-most-two-vertices"
REASON_AT_MOST_ONE_EDGE = "at-most-one-edge"
REASON_AT_MOST_ONE_NON_EDGE = "at-most-one-non-edge"

CHURN_COMPLEMENT = "complement-toggle"
CHURN_DELETE_MIN = "delete-min-degree"
CHURN_DELETE_MAX = "delete-max-degree"


@dataclass(frozen=True)
class ChurnStep:
    """One stage of a churn run: before -> after, with the degree stripped
    (None for a complement toggle)."""

    kind: str
    degree: int | None
    before: Graph
    after: Graph

    def to_obj(self) -> dict[str, Any]:
        from .formats import graph_to_obj

        obj: dict[str, Any] = {
            "kind": self.kind,
            "before": graph_to_obj(self.before),
            "after": graph_to_obj(self.after),
        }
        if self.degree is not None:
            obj["degree"] = self.degree
        return obj


def _is_p3(g: Graph) -> bool:
    return are_isomorphic(g, path(3))


def _is_p4(g: Graph) -> bool:
    return are_isomorphic(g, path(4))


def _is_diamond(g: Graph) -> bool:
    return are_isomorphic(g, t_diamond(2))


def editing_churn(h: Graph) -> tuple[Graph, list[ChurnStep]]:
    """Strip the pattern down to an editing-terminal form.

    Loop: stop on a regular graph, P3, P4, or the diamond; otherwise, if at
    most two vertices exceed the minimum degree, toggle to the complement;
    otherwise delete the whole minimum-degree class.  Every intermediate
    keeps at least three vertices, and two complement toggles can never be
    forced back to back; both guarantees are checked and violations raise
    ContractViolationError.
    """
    if h.n < 3:
        raise ValueError("editing churn needs a pattern with at least 3 vertices")
    steps: list[ChurnStep] = []
    cur = h
    just_toggled = False
    while True:
        if is_regular(cur) or _is_p3(cur) or _is_p4(cur) or _is_diamond(cur):
            return cur, steps
        prof = degree_profile(cur)
        above_min = [v for v in cur.vertices if cur.degree(v) > prof.min_degree]
        if len(above_min) <= 2:
            if just_toggled:
                raise ContractViolationError(
                    "editing churn would toggle complements forever; "
                    f"offending intermediate: {cur!r}"
                )
            nxt = complement(cur)
            steps.append(ChurnStep(CHURN_COMPLEMENT, None, cur, nxt))
            cur = nxt
            just_toggled = True
            continue
        nxt, _ = induced_subgraph(cur, above_min)
        if nxt.n < 3:
            raise ContractViolationError("editing churn dropped below 3 vertices")
        steps.append(ChurnStep(CHURN_DELETE_MIN, prof.min_degree, cur, nxt))
        cur = nxt
        just_toggled = False


def deletion_churn(h: Graph) -> tuple[Graph, list[ChurnStep]]:
    """Strip the pattern down to a deletion-terminal form.

    Loop: stop when both the above-minimum-degree class and the
    below-maximum-degree class induce at most one edge each.  Otherwise
    strip the minimum-degree class when the above-minimum class induces
    two or more edges (checked first), else strip the maximum-degree
    class.  Each strip's firing condition is exactly what guarantees the
    remainder keeps at least two edges.
    """
    if h.m < 2:
        raise ValueError("deletion churn needs a pattern with at least 2 edges")
    steps: list[ChurnStep] = []
    cur = h
    while True:
        prof = degree_profile(cur)
        above = [v for v in cur.vertices if cur.degree(v) > prof.min_degree]
        below = [v for v in cur.vertices if cur.degree(v) < prof.max_degree]
        above_g, _ = induced_subgraph(cur, above)
        below_g, _ = induced_subgraph(cur, below)
        if above_g.m <= 1 and below_g.m <= 1:
            return cur, steps
        if above_g.m >= 2:
            steps.append(ChurnStep(CHURN_DELETE_MIN, prof.min_degree, cur, above_g))
            cur = above_g
        else:
            steps.append(ChurnStep(CHURN_DELETE_MAX, prof.max_degree, cur, below_g))
            cur = below_g
        if cur.m < 2:
            raise ContractViolationError("deletion churn dropped below 2 edges")


# ---------------------------------------------------------------------------
# chains

@dataclass(frozen=True)
class Classification:
    verdict: str  # "Polynomial" | "NPComplete"
    reason: str | None = None
    chain: tuple[ReductionStep, ...] | None = None
    base: BaseProblem | None = None

    def to_obj(self) -> dict[str, Any]:
        if self.verdict == "Polynomial":
            return {"verdict": self.verdict, "reason": self.reason}
        return {
            "verdict": self.verdict,
            "chain": [s.to_obj(include_endpoints=False) for s in self.chain],
            "base": self.base.to_obj(),
        }


def _degree_step(cs: ChurnStep, kind: ModificationKind) -> ReductionStep:
    variant = "min" if cs.kind == CHURN_DELETE_MIN else "max"
    return chain_step(STEP_DEGREE, {"d": cs.degree, "variant": variant}, cs.before, kind)


def _editing_chain(h: Graph) -> tuple[list[ReductionStep], BaseProblem]:
    terminal, churn_steps = editing_churn(h)
    editing = ModificationKind.EDITING
    steps: list[ReductionStep] = []
    for cs in churn_steps:
        if cs.kind == CHURN_COMPLEMENT:
            steps.append(chain_step(STEP_COMPLEMENT, {}, cs.before, editing))
        else:
            steps.append(_degree_step(cs, editing))
    if _is_p3(terminal):
        return steps, BaseProblem(BASE_P3_EDITING, terminal)
    if _is_p4(terminal):
        return steps, BaseProblem(BASE_P4_EDITING, terminal)
    if _is_diamond(terminal):
        return steps, BaseProblem(BASE_DIAMOND_EDITING, terminal)
    if not is_regular(terminal):
        raise ContractViolationError(f"editing terminal {terminal!r} is not recognized")
    if terminal.m >= 2:
        return steps, BaseProblem(BASE_REGULAR_EDITING, terminal)
    # A regular terminal with under two edges is a null graph; its
    # complement is complete, so one more complement hop anchors there.
    comp = complement(terminal)
    if comp.m < 2:
        raise ContractViolationError(
            f"editing terminal {terminal!r} and its complement are both near-empty"
        )
    steps.append(chain_step(STEP_COMPLEMENT, {}, terminal, editing))
    return steps, BaseProblem(BASE_REGULAR_EDITING, comp)


def _deletion_chain(h: Graph) -> tuple[list[ReductionStep], BaseProblem]:
    deletion = ModificationKind.DELETION
    steps: list[ReductionStep] = []
    cur = h
    while True:
        cur = _run_deletion_churn(cur, steps)
        if _is_p3(cur):
            return steps, BaseProblem(BASE_P3_DELETION, cur)
        if _is_diamond(cur):
            return steps, BaseProblem(BASE_DIAMOND_DELETION, cur)
        if is_regular(cur) or is_forest(cur):
            return steps, BaseProblem(BASE_TREE_OR_REGULAR_DELETION, cur)
        shape = recognize_sparse_lh(cur)
        if shape is None:
            raise ContractViolationError(
                f"deletion terminal {cur!r} is neither regular, a forest, "
                "nor sparse two-degree"
            )
        if shape.low < 2:
            # low degree 1 forces a forest, which the branch above catches
            raise ContractViolationError(
                f"sparse terminal {cur!r} has low degree {shape.low} but is not a forest"
            )
        if len(shape.v_low) < 3:
            # low degree >= 2 plus a low class this small forces one of the
            # shapes already dispatched above
            raise ContractViolationError(
                f"sparse terminal {cur!r} has an implausibly small low class"
            )
        case = sparse_case(shape)
        if case == 1:
            return steps, BaseProblem(BASE_SPARSE_CASE1_DELETION, cur)
        t = cur.n - 2
        if case == 2 and t >= 2 and are_isomorphic(cur, t_diamond(t)):
            while t > 2:
                steps.append(chain_step(STEP_TDIAMOND, {"t": t}, cur, deletion))
                cur = steps[-1].source_h
                t -= 1
            return steps, BaseProblem(BASE_DIAMOND_DELETION, cur)
        # strip the unique adjacent low-degree pair (cases 3 and 4) or keep
        # the low class plus the high pair (case 2), and keep going
        step = chain_step(STEP_SPARSE_VH if case == 2 else STEP_SPARSE_VL, {}, cur, deletion)
        if step.source_h.m < 2 or step.source_h.n >= cur.n:
            raise ContractViolationError(
                f"the {step.step} remainder of {cur!r} lost the edge guarantee"
            )
        steps.append(step)
        cur = step.source_h


def _run_deletion_churn(cur: Graph, steps: list[ReductionStep]) -> Graph:
    terminal, churn_steps = deletion_churn(cur)
    for cs in churn_steps:
        steps.append(_degree_step(cs, ModificationKind.DELETION))
    return terminal


def build_chain(h: Graph, kind: ModificationKind) -> tuple[tuple[ReductionStep, ...], BaseProblem]:
    """Hardness chain for (h, kind), ordered from h down to the anchor.

    Entry i reduces the problem of entry i+1 (or the anchor) to the problem
    of entry i-1 (or to (h, kind) itself for i = 0).  Requires the
    NP-complete regime; polynomial patterns are rejected.
    """
    if kind is ModificationKind.EDITING:
        if h.n < 3:
            raise ValueError("editing chains need at least 3 vertices")
        steps, base = _editing_chain(h)
    elif kind is ModificationKind.DELETION:
        if h.m < 2:
            raise ValueError("deletion chains need at least 2 edges")
        steps, base = _deletion_chain(h)
    else:
        comp = complement(h)
        if comp.m < 2:
            raise ValueError("completion chains need at least 2 non-edges")
        first = chain_step(STEP_COMPLEMENT, {}, h, ModificationKind.COMPLETION)
        rest, base = _deletion_chain(comp)
        steps = [first, *rest]
    base.validate()
    return tuple(steps), base


def classify(h: Graph, kind: ModificationKind) -> Classification:
    """Polynomial-or-NP-complete verdict for the h-free modification
    problem of the given kind, with a replayable chain on the hard side."""
    if h.n == 0:
        raise ValueError("cannot classify the empty pattern")
    if kind is ModificationKind.EDITING:
        if h.n <= 2:
            return Classification("Polynomial", reason=REASON_AT_MOST_TWO_VERTICES)
    elif kind is ModificationKind.DELETION:
        if h.m <= 1:
            return Classification("Polynomial", reason=REASON_AT_MOST_ONE_EDGE)
    else:
        if complement(h).m <= 1:
            return Classification("Polynomial", reason=REASON_AT_MOST_ONE_NON_EDGE)
    chain, base = build_chain(h, kind)
    return Classification("NPComplete", chain=chain, base=base)
