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
degree-reduce chain step, each complement toggle one complement-problem
step) until the remainder is structurally recognizable, plus dedicated
handling for the sparse two-degree remainders.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Any

from .formats import graph_to_obj
from .graphs import Graph, edges_within, is_forest, is_regular
from .problems import (
    ANCHORS,
    BASE_DIAMOND_DELETION,
    BASE_P3_DELETION,
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
from .reductions import ReductionStep, chain_step, degree_kept

REASON_AT_MOST_TWO_VERTICES = "at-most-two-vertices"
REASON_AT_MOST_ONE_EDGE = "at-most-one-edge"
REASON_AT_MOST_ONE_NON_EDGE = "at-most-one-non-edge"

CHURN_COMPLEMENT = "complement-toggle"
CHURN_DELETE_MIN = "delete-min-degree"
CHURN_DELETE_MAX = "delete-max-degree"

_EDITING_ANCHORS = tuple(
    name for name, (kind, _) in ANCHORS.items() if kind is ModificationKind.EDITING
)


def _first_anchor(g: Graph, names: tuple[str, ...]) -> str | None:
    """The first of the anchors `names` whose premise g meets, or None."""
    return next((name for name in names if ANCHORS[name][1](g)), None)


@dataclass(frozen=True)
class ChurnStep:
    """One stage of a churn run: the chain step that strips a degree class
    (degree-reduce) or toggles to the complement (complement-problem).
    The stage goes from the step's target pattern (before) to its source
    pattern (after)."""

    step: ReductionStep

    @property
    def kind(self) -> str:
        if self.step.step == STEP_COMPLEMENT:
            return CHURN_COMPLEMENT
        if self.step.params["variant"] == "min":
            return CHURN_DELETE_MIN
        return CHURN_DELETE_MAX

    @property
    def degree(self) -> int | None:
        """The degree stripped; None for a complement toggle."""
        return self.step.params.get("d")

    @property
    def before(self) -> Graph:
        return self.step.target_h

    @property
    def after(self) -> Graph:
        return self.step.source_h

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "kind": self.kind,
            "before": graph_to_obj(self.before),
            "after": graph_to_obj(self.after),
        }
        if self.degree is not None:
            obj["degree"] = self.degree
        return obj


def editing_churn(h: Graph) -> tuple[Graph, list[ChurnStep]]:
    """Strip the pattern down to an editing-terminal form.

    Loop: stop on a regular graph or an editing anchor (P3, P4, the
    diamond); otherwise, if at most two vertices exceed the minimum degree,
    toggle to the complement; otherwise delete the whole minimum-degree
    class.  Every intermediate keeps at least three vertices, and two
    complement toggles can never be forced back to back; both guarantees
    are checked and violations raise ContractViolationError.
    """
    if h.n < 3:
        raise ValueError("editing churn needs a pattern with at least 3 vertices")
    editing = ModificationKind.EDITING
    steps: list[ChurnStep] = []
    cur = h
    just_toggled = False
    while True:
        if is_regular(cur) or _first_anchor(cur, _EDITING_ANCHORS) is not None:
            return cur, steps
        low = min(cur.degrees)
        if sum(1 for d in cur.degrees if d > low) <= 2:
            if just_toggled:
                raise ContractViolationError(
                    "editing churn would toggle complements forever; "
                    f"offending intermediate: {cur!r}"
                )
            step = chain_step(STEP_COMPLEMENT, {}, cur, editing)
            just_toggled = True
        else:
            step = chain_step(STEP_DEGREE, {"d": low, "variant": "min"}, cur, editing)
            if step.source_h.n < 3:
                raise ContractViolationError("editing churn dropped below 3 vertices")
            just_toggled = False
        steps.append(ChurnStep(step))
        cur = step.source_h


def deletion_churn(h: Graph) -> tuple[Graph, list[ChurnStep]]:
    """Strip the pattern down to a deletion-terminal form.

    Loop: stop when both the above-minimum-degree class and the
    below-maximum-degree class induce at most one edge each.  Otherwise
    strip the minimum-degree class when the above-minimum class induces
    two or more edges (checked first), else strip the maximum-degree
    class.  Each strip's firing condition is exactly what guarantees the
    remainder keeps at least two edges.  The conditions are tested on the
    strips' vertex sets, so only the strip taken is built as a chain step.
    """
    if h.m < 2:
        raise ValueError("deletion churn needs a pattern with at least 2 edges")
    deletion = ModificationKind.DELETION
    steps: list[ChurnStep] = []
    cur = h
    while True:
        for d, variant in ((min(cur.degrees), "min"), (max(cur.degrees), "max")):
            if edges_within(cur, degree_kept(cur, d, variant)) >= 2:
                break
        else:
            return cur, steps
        step = chain_step(STEP_DEGREE, {"d": d, "variant": variant}, cur, deletion)
        steps.append(ChurnStep(step))
        cur = step.source_h


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


def _editing_chain(h: Graph) -> tuple[list[ReductionStep], BaseProblem]:
    terminal, churn_steps = editing_churn(h)
    steps = [cs.step for cs in churn_steps]
    name = _first_anchor(terminal, _EDITING_ANCHORS)
    if name is not None:
        return steps, BaseProblem(name, terminal)
    if not is_regular(terminal):
        raise ContractViolationError(f"editing terminal {terminal!r} is not recognized")
    # A regular terminal with under two edges is a null graph; its
    # complement is complete, so one more complement hop anchors there.
    steps.append(chain_step(STEP_COMPLEMENT, {}, terminal, ModificationKind.EDITING))
    return steps, BaseProblem(BASE_REGULAR_EDITING, steps[-1].source_h)


def _deletion_chain(h: Graph) -> tuple[list[ReductionStep], BaseProblem]:
    deletion = ModificationKind.DELETION
    steps: list[ReductionStep] = []
    cur = h
    while True:
        cur, churn_steps = deletion_churn(cur)
        steps.extend(cs.step for cs in churn_steps)
        name = _first_anchor(cur, (BASE_P3_DELETION, BASE_DIAMOND_DELETION))
        if name is not None:
            return steps, BaseProblem(name, cur)
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
        if shape.is_t_diamond:
            for t in range(cur.n - 2, 2, -1):
                steps.append(chain_step(STEP_TDIAMOND, {"t": t}, cur, deletion))
                cur = steps[-1].source_h
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


def _polynomial_reason(h: Graph, kind: ModificationKind) -> str | None:
    """Why the problem for (h, kind) is polynomial, or None when it is in
    the NP-complete regime."""
    if kind is ModificationKind.EDITING:
        return REASON_AT_MOST_TWO_VERTICES if h.n <= 2 else None
    if kind is ModificationKind.DELETION:
        return REASON_AT_MOST_ONE_EDGE if h.m <= 1 else None
    return REASON_AT_MOST_ONE_NON_EDGE if comb(h.n, 2) - h.m <= 1 else None


def build_chain(h: Graph, kind: ModificationKind) -> tuple[tuple[ReductionStep, ...], BaseProblem]:
    """Hardness chain for (h, kind), ordered from h down to the anchor.

    Entry i reduces the problem of entry i+1 (or the anchor) to the problem
    of entry i-1 (or to (h, kind) itself for i = 0).  Requires the
    NP-complete regime; polynomial patterns are rejected.
    """
    reason = _polynomial_reason(h, kind)
    if reason is not None:
        raise ValueError(f"{kind.value} is polynomial for this pattern ({reason}); it has no chain")
    if kind is ModificationKind.EDITING:
        steps, base = _editing_chain(h)
    elif kind is ModificationKind.DELETION:
        steps, base = _deletion_chain(h)
    else:
        first = chain_step(STEP_COMPLEMENT, {}, h, ModificationKind.COMPLETION)
        rest, base = _deletion_chain(first.source_h)
        steps = [first, *rest]
    base.validate()
    return tuple(steps), base


def classify(h: Graph, kind: ModificationKind) -> Classification:
    """Polynomial-or-NP-complete verdict for the h-free modification
    problem of the given kind, with a replayable chain on the hard side."""
    if h.n == 0:
        raise ValueError("cannot classify the empty pattern")
    reason = _polynomial_reason(h, kind)
    if reason is not None:
        return Classification("Polynomial", reason=reason)
    chain, base = build_chain(h, kind)
    return Classification("NPComplete", chain=chain, base=base)
