"""Dichotomy verdicts, churn procedures, and reduction-chain assembly."""
import hashlib
import json
import sys

import pytest

from hfree.classify import (
    CHURN_COMPLEMENT,
    CHURN_DELETE_MIN,
    REASON_AT_MOST_ONE_EDGE,
    REASON_AT_MOST_ONE_NON_EDGE,
    REASON_AT_MOST_TWO_VERTICES,
    build_chain,
    classify,
    deletion_churn,
    editing_churn,
    recognize_sparse_lh,
    sparse_case,
)
from hfree.formats import serialize_graph6
from hfree.graphs import (
    are_isomorphic,
    complement,
    complete,
    cycle,
    disjoint_union,
    graph_from_edges,
    induced_subgraph,
    is_forest,
    is_regular,
    join,
    null_graph,
    path,
    star,
    sunlet,
    t_diamond,
)
from hfree.problems import (
    BASE_DIAMOND_DELETION,
    BASE_P3_DELETION,
    BASE_P3_EDITING,
    BASE_REGULAR_EDITING,
    BASE_TREE_OR_REGULAR_DELETION,
    ANCHORS,
    ModificationKind,
    STEP_COMPLEMENT,
    STEP_TDIAMOND,
    SparseLH,
)
from hfree.reductions import chain_step
from hfree.smallgraphs import graphs_up_to


def k23():
    return join(null_graph(2), null_graph(3))


# ---------------------------------------------------------------- verdicts


def test_polynomial_verdicts():
    c = classify(complete(2), ModificationKind.EDITING)
    assert c.verdict == "Polynomial" and c.reason == REASON_AT_MOST_TWO_VERTICES

    one_edge = graph_from_edges(4, [(1, 2)])
    c = classify(one_edge, ModificationKind.DELETION)
    assert c.verdict == "Polynomial" and c.reason == REASON_AT_MOST_ONE_EDGE

    c = classify(complete(4), ModificationKind.COMPLETION)
    assert c.verdict == "Polynomial" and c.reason == REASON_AT_MOST_ONE_NON_EDGE


def test_hard_verdicts_spot():
    c = classify(path(3), ModificationKind.EDITING)
    assert c.verdict == "NPComplete"
    assert c.chain == () and c.base.name == BASE_P3_EDITING

    c = classify(path(3), ModificationKind.DELETION)
    assert c.base.name == BASE_P3_DELETION

    c = classify(cycle(4), ModificationKind.EDITING)
    assert c.base.name == BASE_REGULAR_EDITING
    assert are_isomorphic(c.base.graph, cycle(4))


def test_diamond_deletion_is_its_own_base():
    c = classify(t_diamond(2), ModificationKind.DELETION)
    assert c.verdict == "NPComplete"
    assert c.chain == ()
    assert c.base.name == BASE_DIAMOND_DELETION


def test_tdiamond_chain_frozen():
    c = classify(t_diamond(4), ModificationKind.DELETION)
    assert [(s.step, s.params["t"]) for s in c.chain] == [
        (STEP_TDIAMOND, 4),
        (STEP_TDIAMOND, 3),
    ]
    assert c.base.name == BASE_DIAMOND_DELETION
    assert are_isomorphic(c.chain[0].target_h, t_diamond(4))
    assert are_isomorphic(c.chain[-1].source_h, t_diamond(2))


def test_completion_chain_starts_with_complement():
    c = classify(cycle(7), ModificationKind.COMPLETION)
    assert c.verdict == "NPComplete"
    assert c.chain[0].step == STEP_COMPLEMENT
    assert c.chain[0].source_kind is ModificationKind.DELETION
    assert c.chain[0].target_kind is ModificationKind.COMPLETION


def test_chain_endpoints_and_continuity():
    for h in [star(3), sunlet(3), k23(), t_diamond(3), cycle(6)]:
        for kind in ModificationKind:
            c = classify(h, kind)
            if c.verdict != "NPComplete":
                continue
            chain, base = c.chain, c.base
            if chain:
                assert chain[-1].source_h == base.graph
                assert chain[0].target_h == h
                assert chain[0].target_kind is kind
                for earlier, later in zip(chain, chain[1:]):
                    assert earlier.source_h == later.target_h
                    assert earlier.source_kind is later.target_kind
            else:
                assert base.graph == h


def test_completion_matches_deletion_of_complement():
    for h in graphs_up_to(5):
        comp = classify(h, ModificationKind.COMPLETION)
        dele = classify(complement(h), ModificationKind.DELETION)
        assert comp.verdict == dele.verdict


def test_classification_to_obj():
    obj = classify(complete(2), ModificationKind.EDITING).to_obj()
    assert obj == {"verdict": "Polynomial", "reason": REASON_AT_MOST_TWO_VERTICES}
    obj = classify(t_diamond(3), ModificationKind.DELETION).to_obj()
    assert obj["verdict"] == "NPComplete"
    assert [s["step"] for s in obj["chain"]] == [STEP_TDIAMOND]
    assert obj["base"]["name"] == BASE_DIAMOND_DELETION


def test_build_chain_rejects_easy_patterns():
    with pytest.raises(ValueError):
        build_chain(complete(2), ModificationKind.EDITING)
    with pytest.raises(ValueError):
        build_chain(graph_from_edges(3, [(0, 1)]), ModificationKind.DELETION)


# ---------------------------------------------------------------- editing churn


def test_editing_churn_frozen_traces():
    term, steps = editing_churn(path(5))
    assert [(s.kind, s.degree) for s in steps] == [(CHURN_DELETE_MIN, 1)]
    assert are_isomorphic(term, path(3))

    term, steps = editing_churn(complete(4))
    assert steps == [] and term == complete(4)

    term, steps = editing_churn(star(3))
    assert [(s.kind, s.degree) for s in steps] == [
        (CHURN_COMPLEMENT, None),
        (CHURN_DELETE_MIN, 0),
    ]
    assert are_isomorphic(term, complete(3))


def test_editing_churn_terminal_set():
    allowed = [path(3), path(4), t_diamond(2)]
    for h in graphs_up_to(5, n_min=3):
        term, steps = editing_churn(h)
        assert term.n >= 3
        assert is_regular(term) or any(are_isomorphic(term, a) for a in allowed)
        # no two complement toggles in a row
        kinds = [s.kind for s in steps]
        for a, b in zip(kinds, kinds[1:]):
            assert not (a == b == CHURN_COMPLEMENT)
        # each step's before/after glue together
        for a, b in zip(steps, steps[1:]):
            assert a.after == b.before
        if steps:
            assert steps[0].before == h and steps[-1].after == term


def test_editing_churn_rejects_tiny_patterns():
    with pytest.raises(ValueError):
        editing_churn(complete(2))


# ---------------------------------------------------------------- deletion churn


def test_deletion_churn_frozen_traces():
    term, steps = deletion_churn(sunlet(5))
    assert [(s.kind, s.degree) for s in steps] == [(CHURN_DELETE_MIN, 1)]
    assert are_isomorphic(term, cycle(5))

    term, steps = deletion_churn(sunlet(6))
    assert [(s.kind, s.degree) for s in steps] == [(CHURN_DELETE_MIN, 1)]
    assert are_isomorphic(term, cycle(6))

    term, steps = deletion_churn(complete(3))
    assert steps == [] and term == complete(3)

    term, steps = deletion_churn(t_diamond(2))
    assert steps == []


def test_deletion_churn_terminal_trichotomy():
    for h in graphs_up_to(6):
        if h.m < 2:
            continue
        term, _ = deletion_churn(h)
        assert term.m >= 2
        sparse = recognize_sparse_lh(term)
        assert is_regular(term) or is_forest(term) or sparse is not None


def test_deletion_churn_rejects_sparse_input():
    with pytest.raises(ValueError):
        deletion_churn(graph_from_edges(3, [(0, 1)]))


def test_churn_builds_only_the_steps_it_keeps(monkeypatch):
    # `hfree.classify` names the function, so patch the module itself
    module = sys.modules["hfree.classify"]
    built = []

    def counting(*args):
        built.append(args)
        return chain_step(*args)

    monkeypatch.setattr(module, "chain_step", counting)
    for h in graphs_up_to(6):
        for churn, applies in ((editing_churn, h.n >= 3), (deletion_churn, h.m >= 2)):
            if applies:
                built.clear()
                _, steps = churn(h)
                assert len(built) == len(steps), (churn.__name__, h)


# ---------------------------------------------------------------- sparse shapes


def test_recognize_sparse_frozen():
    sh = recognize_sparse_lh(t_diamond(3))
    assert (sh.low, sh.high) == (2, 4)
    assert (len(sh.v_low), len(sh.v_high)) == (3, 2)
    assert (sh.edges_in_low, sh.edges_in_high) == (0, 1)
    assert sparse_case(sh) == 2

    sh = recognize_sparse_lh(path(4))
    assert (sh.low, sh.high) == (1, 2)
    assert (sh.edges_in_low, sh.edges_in_high) == (0, 1)
    assert sparse_case(sh) == 2

    sh = recognize_sparse_lh(k23())
    assert (sh.low, sh.high) == (2, 3)
    assert (sh.edges_in_low, sh.edges_in_high) == (0, 0)
    assert sparse_case(sh) == 1


def test_recognize_sparse_rejections():
    # single degree value
    assert recognize_sparse_lh(complete(4)) is None
    # three degree values
    paw = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    assert recognize_sparse_lh(paw) is None
    # two degree values but a class induces 2 edges
    bowtie = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert recognize_sparse_lh(bowtie) is None


def test_is_t_diamond_matches_isomorphism():
    seen = 0
    for g in graphs_up_to(7):
        shape = recognize_sparse_lh(g)
        if shape is None:
            continue
        expect = g.n >= 4 and are_isomorphic(g, t_diamond(g.n - 2))
        assert shape.is_t_diamond == expect, serialize_graph6(g)
        seen += expect
    assert seen == 4  # t = 2..5


def test_sparse_class_split_matches_degree_profile():
    # the shape derived here by building each degree class's induced
    # subgraph, on every graph of at most 7 vertices
    for h in graphs_up_to(7):
        expect = None
        values = sorted(set(h.degrees))
        if len(values) == 2:
            low, high = values
            v_low = frozenset(v for v in h.vertices if h.degree(v) == low)
            v_high = frozenset(v for v in h.vertices if h.degree(v) == high)
            in_low = induced_subgraph(h, v_low)[0].m
            in_high = induced_subgraph(h, v_high)[0].m
            if in_low <= 1 and in_high <= 1:
                expect = SparseLH(low, high, v_low, v_high, in_low, in_high)
        assert recognize_sparse_lh(h) == expect, serialize_graph6(h)


# ---------------------------------------------------------------- sweeps


def test_dichotomy_thresholds_small():
    for h in graphs_up_to(5):
        non_edges = complete(h.n).m - h.m
        assert (classify(h, ModificationKind.EDITING).verdict == "Polynomial") == (
            h.n <= 2
        )
        assert (classify(h, ModificationKind.DELETION).verdict == "Polynomial") == (
            h.m <= 1
        )
        assert (classify(h, ModificationKind.COMPLETION).verdict == "Polynomial") == (
            non_edges <= 1
        )


def test_every_base_premise_holds_small():
    checks = {
        BASE_P3_EDITING: lambda g: are_isomorphic(g, path(3)),
        BASE_P3_DELETION: lambda g: are_isomorphic(g, path(3)),
        BASE_DIAMOND_DELETION: lambda g: are_isomorphic(g, t_diamond(2)),
        BASE_REGULAR_EDITING: lambda g: is_regular(g) and g.m >= 2,
    }
    seen = set()
    for h in graphs_up_to(5):
        for kind in ModificationKind:
            c = classify(h, kind)
            if c.verdict != "NPComplete":
                continue
            c.base.validate()
            seen.add(c.base.name)
            if c.base.name in checks:
                assert checks[c.base.name](c.base.graph)
    assert BASE_DIAMOND_DELETION in seen and BASE_REGULAR_EDITING in seen


def test_tree_or_regular_premise_matches_a_component_reference():
    # the premise answers at once on a regular graph or a forest; the
    # reference reads the largest components one by one, from the edges
    _, premise = ANCHORS[BASE_TREE_OR_REGULAR_DELETION]

    def reference(g):
        comps, unseen = [], set(g.vertices)
        while unseen:
            comp, todo = set(), [min(unseen)]
            while todo:
                v = todo.pop()
                if v not in comp:
                    comp.add(v)
                    todo += [b if a == v else a for a, b in g.edges if v in (a, b)]
            comps.append(comp)
            unseen -= comp
        top = max(map(len, comps))
        for comp in (c for c in comps if len(c) == top):
            inside = [e for e in g.edges if e[0] in comp]
            degrees = {sum(v in e for e in inside) for v in comp}
            if len(degrees) == 1 or len(inside) == len(comp) - 1:
                return True
        return False

    answers = {}
    for g in graphs_up_to(7):
        if g.m >= 2:
            want = reference(g)
            assert premise(g) == want, serialize_graph6(g)
            shortcut = is_regular(g) or is_forest(g)
            answers[shortcut, want] = answers.get((shortcut, want), 0) + 1
    # both answers are seen off the shortcut, and the shortcut never says no
    assert set(answers) == {(True, True), (False, True), (False, False)}


# sha256 over every verdict, chain (with step endpoints) and churn trace of
# the patterns up to 6 vertices; any change to the classifier's output moves it
GOLDEN_CLASSIFY_SHA256 = "d5825f47e2a3cf802ed33f8eb757e17a6a00181f03f515b0dcd25d412b548437"


def test_classify_and_churn_outputs_are_pinned():
    digest = hashlib.sha256()

    def put(obj):
        digest.update(json.dumps(obj).encode() + b"\n")

    for h in graphs_up_to(6):
        for kind in ModificationKind:
            c = classify(h, kind)
            put([c.to_obj(), [s.to_obj() for s in c.chain or ()]])
        if h.n >= 3:
            terminal, steps = editing_churn(h)
            put([[s.to_obj() for s in steps], serialize_graph6(terminal)])
        if h.m >= 2:
            terminal, steps = deletion_churn(h)
            put([[s.to_obj() for s in steps], serialize_graph6(terminal)])
    assert digest.hexdigest() == GOLDEN_CLASSIFY_SHA256
