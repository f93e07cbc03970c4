"""Self-tests of the benchmark's checks, inputs and tracer.  Each check
must reject a planted fault and accept the same output without it.

    python3 -m pytest bench
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

P3 = {"n": 3, "edges": [[0, 1], [1, 2]]}


def path_instance(n: int, k: int) -> dict:
    edges = [[i, i + 1] for i in range(n - 1)]
    return {"graph": {"n": n, "edges": edges}, "k": k, "h": P3, "kind": "deletion"}


def yes(deletions, completions=()) -> dict:
    return {"answer": True, "deletions": list(deletions), "completions": list(completions)}


# ---------------------------------------------------------------------------
# witnesses

def test_witness_that_destroys_every_copy_passes():
    inst = path_instance(4, 1)
    assert checks.check_solve_output(inst, {"answer": True}, yes([(1, 2)])) == []


def test_witness_leaving_a_copy_is_rejected():
    inst = path_instance(4, 1)
    errors = checks.check_solve_output(inst, {"answer": True}, yes([(0, 1)]))
    assert any("still contains H" in e for e in errors)


def test_witness_over_budget_is_rejected():
    inst = path_instance(4, 1)
    errors = checks.check_solve_output(inst, {"answer": True}, yes([(0, 1), (2, 3)]))
    assert any("exceeds k" in e for e in errors)


def test_witness_with_edits_the_kind_forbids_is_rejected():
    inst = path_instance(4, 2)
    errors = checks.check_solve_output(inst, {"answer": True}, yes([(1, 2)], [(0, 2)]))
    assert any("adds edges" in e for e in errors)


def test_answer_against_the_certificate_is_rejected():
    inst = path_instance(5, 1)
    out = {"answer": True, "deletions": [], "completions": []}
    assert checks.check_solve_output(inst, {"answer": False}, out)


# ---------------------------------------------------------------------------
# certificates

def test_packing_sharing_one_vertex_passes():
    inst = path_instance(5, 1)
    cert = {"answer": False, "copies": [[0, 1, 2], [2, 3, 4]]}
    assert checks.check_no_certificate(inst, cert) == []


def test_packing_sharing_a_vertex_pair_is_rejected():
    inst = path_instance(4, 1)
    cert = {"answer": False, "copies": [[0, 1, 2], [1, 2, 3]]}
    errors = checks.check_no_certificate(inst, cert)
    assert any("share a vertex pair" in e for e in errors)


def test_packing_of_a_non_copy_is_rejected():
    inst = path_instance(5, 1)
    cert = {"answer": False, "copies": [[0, 1, 2], [0, 3, 4]]}
    assert any("does not induce H" in e for e in checks.check_no_certificate(inst, cert))


def test_yes_certificate_with_h_in_its_graph_is_rejected():
    inst = path_instance(4, 1)
    good = {"free_edges": [[0, 1], [2, 3]], "perturbation": [[1, 2]]}
    bad = {"free_edges": [[0, 1], [1, 2]], "perturbation": [[2, 3]]}
    assert checks.check_yes_certificate(inst, good) == []
    assert any("contains H" in e for e in checks.check_yes_certificate(inst, bad))


def test_generated_certificates_hold():
    _, plain, certs = workloads.solve_instances(0)
    assert len(plain) == 160 * workloads.SOLVE_REPEATS
    assert sum(c["answer"] for c in certs) == 80 * workloads.SOLVE_REPEATS
    for inst, cert in list(zip(plain, certs))[::28]:
        check = checks.check_yes_certificate if cert["answer"] else checks.check_no_certificate
        assert check(inst, cert) == [], cert["pattern"]


def test_generated_graph6_reads_back_in_networkx():
    import networkx as nx

    objs, plain, _ = workloads.solve_instances(1)
    for obj, inst in list(zip(objs, plain))[1:40:2]:
        g = nx.from_graph6_bytes(obj["graph"].encode())
        assert g.number_of_nodes() == inst["graph"]["n"]
        assert checks.edge_set(g.edges()) == checks.edge_set(inst["graph"]["edges"])


# ---------------------------------------------------------------------------
# campaign and sweep reports

def campaign_report(instances: int, agree_no: int) -> dict:
    campaign = {
        "instances": instances,
        "agree_yes": instances - agree_no,
        "agree_no": agree_no,
        "disagreements": [],
        "oracle_mismatches": [],
        "witness_failures": [],
        "k_preserved": True,
    }
    return {"suite": "tdiamond", "campaigns": [campaign], "problems": 0}


def test_campaign_with_the_expected_instances_passes():
    # host cap 5, k cap 2: 2 * (1 + 2 + 4 + 11 + 34) instances
    assert checks.check_campaign_suite(campaign_report(104, 2), 5, 2) == []


def test_campaign_instance_count_off_by_one_is_rejected():
    errors = checks.check_campaign_suite(campaign_report(103, 1), 5, 2)
    assert any("expected 104" in e for e in errors)


def test_campaign_whose_agreement_does_not_add_up_is_rejected():
    report = campaign_report(104, 2)
    report["campaigns"][0]["agree_yes"] -= 1
    assert checks.check_campaign_suite(report, 5, 2)


SWEEP_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def sweep_reports():
    classify = {"suite": "classify", "problems": 0, "polynomial": 29, "npcomplete": 3727}
    churn = {"suite": "churn", "problems": 0, "editing_checked": 1249, "deletion_checked": 1239}
    return classify, churn


def test_sweep_matching_the_atlas_passes():
    expect = checks.atlas_expectations(7)
    assert checks.check_sweep(SWEEP_COUNTS, *sweep_reports(), expect) == []


def test_sweep_verdict_total_off_by_one_is_rejected():
    expect = checks.atlas_expectations(7)
    classify, churn = sweep_reports()
    classify["npcomplete"] += 1
    errors = checks.check_sweep(SWEEP_COUNTS, classify, churn, expect)
    assert any("npcomplete" in e for e in errors)


def test_sweep_enumeration_count_off_by_one_is_rejected():
    expect = checks.atlas_expectations(7)
    counts = {**SWEEP_COUNTS, 6: 155}
    assert checks.check_sweep(counts, *sweep_reports(), expect)


def test_solve_patterns_are_np_complete_by_the_papers_rule():
    rule = {
        "editing": lambda n, m: n >= 3,
        "deletion": lambda n, m: m >= 2,
        "completion": lambda n, m: n * (n - 1) // 2 - m >= 2,
    }
    for n, edges, kind in workloads.PATTERNS.values():
        assert rule[kind](n, len(edges))


# ---------------------------------------------------------------------------
# tracer

def span(name, start, end, parent, extra=None):
    return [name, start, end, parent, 0, 0, extra]


def test_self_time_subtracts_child_spans_and_nesting_counts_once():
    import tracer

    spans = [
        span("verify_equivalence", 0.0, 10.0, -1, {"instances": 4}),
        span("apply_step", 1.0, 4.0, 0, {"n": 9, "m": 12}),
        span("construct_adj", 1.5, 3.5, 1),
        span("construct_nonadj", 2.0, 3.0, 2),
        span("solve_branching", 5.0, 7.0, 0, {"nodes": 6}),
        span("find_induced_copy", 5.5, 6.0, 4),
    ]
    m = tracer.round_metrics(spans)[0]
    assert m["verify.self_s"] == 10.0 - 3.0 - 2.0
    assert m["verify.instances"] == 4
    assert m["reductions.construct_s"] == 2.0
    assert m["reductions.target_n_max"] == 9
    assert m["solve.branch_nodes_per_s"] == 3.0
    assert m["graphs.search_calls"] == 1


def test_tracer_wraps_imported_names_and_restores_them():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import hfree
    import tracer

    original = hfree.graphs.find_induced_copy
    p3 = hfree.path(3)
    t = tracer.Tracer()
    t.install()
    try:
        assert hfree.solve.find_induced_copy is not original
        assert hfree.graphs.find_induced_copy is original  # graphs is not a caller
        hfree.solve_instance(hfree.Instance(p3, 1, p3, hfree.ModificationKind.DELETION))
    finally:
        t.uninstall()
    assert hfree.solve.find_induced_copy is original
    first, child = t.spans[0], t.spans[1]
    assert first[tracer.NAME] == "solve_branching"
    assert first[tracer.EXTRA] == {"nodes": 2}
    assert child[tracer.NAME] == "find_induced_copy" and child[tracer.PARENT] == 0
