"""Acceptance gate: the six release criteria, one test and one printed
PASS/FAIL line each.

Caps mirror the stated tolerances: pattern sweeps go to 6 vertices, the
reduction-equivalence campaigns use each suite's default host and budget
caps, solver cross-validation covers hosts up to 5 vertices with budgets
up to 2, and the structural audits take 100 seeded random inputs.
"""
import pytest

from hfree.classify import classify, deletion_churn, editing_churn
from hfree.graphs import complete, is_induced_copy_free, path, t_diamond
from hfree.problems import ModificationKind
from hfree.smallgraphs import graphs_up_to
from hfree.solve import check_witness, solve_branching, solve_bruteforce
from hfree.verify import run_audit_suite, run_churn_suite, run_suite

EQUIVALENCE_SUITES = (
    "degree",
    "tdiamond",
    "case1",
    "sparse-vl",
    "sparse-vh",
    "complement",
)


def report_line(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def equivalence_reports():
    return {name: run_suite(name) for name in EQUIVALENCE_SUITES}


def test_criterion_1_dichotomy_table():
    failures = []
    for h in graphs_up_to(6):
        non_edges = complete(h.n).m - h.m
        expect = {
            ModificationKind.EDITING: h.n <= 2,
            ModificationKind.DELETION: h.m <= 1,
            ModificationKind.COMPLETION: non_edges <= 1,
        }
        for kind, easy in expect.items():
            verdict = classify(h, kind).verdict
            if verdict != ("Polynomial" if easy else "NPComplete"):
                failures.append((h, kind.value, verdict))
    report_line(1, "dichotomy table", not failures)


def test_criterion_2_churn_soundness():
    suite = run_churn_suite(6)
    ok = suite["problems"] == 0
    ok = ok and suite["editing_checked"] == 4 + 11 + 34 + 156
    # spot totals: every 3..6-vertex pattern churns, every >=2-edge one strips
    for h in graphs_up_to(6, n_min=3):
        term, _ = editing_churn(h)
        ok = ok and term.n >= 3
    for h in graphs_up_to(6):
        if h.m >= 2:
            term, _ = deletion_churn(h)
            ok = ok and term.m >= 2
    report_line(2, "churn soundness", ok)


def test_criterion_3_reduction_equivalence(equivalence_reports):
    bad = [
        name
        for name, suite in equivalence_reports.items()
        if suite["problems"] != 0
    ]
    report_line(3, "reduction equivalence", not bad)


def test_criterion_4_solver_cross_validation():
    patterns = [path(3), complete(3), t_diamond(2), path(4)]
    disagreements = []
    for g in graphs_up_to(5):
        for h in patterns:
            for kind in ModificationKind:
                for k in (1, 2):
                    branch = solve_branching(g, k, h, kind)
                    brute = solve_bruteforce(g, k, h, kind)
                    if branch.answer != brute.answer:
                        disagreements.append((g, k, h, kind.value))
                        continue
                    for result in (branch, brute):
                        if result.answer and not check_witness(
                            g, k, h, kind, result.witness
                        ):
                            disagreements.append((g, k, h, kind.value, "witness"))
    report_line(4, "solver cross-validation", not disagreements)


def test_criterion_5_structural_audits():
    suite = run_audit_suite(0, count=100, host_cap=5, k_cap=2)
    report_line(5, "structural audits", suite["problems"] == 0 and suite["inputs"] == 100)


def test_criterion_6_parameter_preservation(equivalence_reports):
    ok = True
    for suite in equivalence_reports.values():
        for campaign in suite["campaigns"]:
            ok = ok and campaign["k_preserved"] is True
    # classifier chains replay with the budget intact as well
    classify_suite = run_suite("classify", n_cap=5)
    ok = ok and classify_suite["problems"] == 0
    report_line(6, "parameter preservation", ok)


# (suite, step, params, source kind, instances, agree_yes, agree_no) of every
# campaign at the default caps.  A change to how campaign steps are built
# must leave each of them as it is.
CAMPAIGNS = [
    ("degree", "degree-reduce", {"d": 2, "variant": "min"}, "deletion", 36, 17, 19),
    ("degree", "degree-reduce", {"d": 2, "variant": "min"}, "completion", 36, 8, 28),
    ("degree", "degree-reduce", {"d": 2, "variant": "min"}, "editing", 36, 17, 19),
    ("degree", "degree-reduce", {"d": 1, "variant": "min"}, "deletion", 36, 33, 3),
    ("degree", "degree-reduce", {"d": 1, "variant": "min"}, "completion", 36, 30, 6),
    ("degree", "degree-reduce", {"d": 1, "variant": "min"}, "editing", 36, 34, 2),
    ("tdiamond", "tdiamond-induction", {"t": 3}, "deletion", 36, 36, 0),
    ("case1", "sparse-case1", {"triple": [2, 0, 3]}, "deletion", 18, 15, 3),
    ("sparse-vl", "sparse-vl-strip", {"low_pair": [4, 5]}, "deletion", 18, 18, 0),
    (
        "sparse-vh",
        "sparse-vh-route",
        {"high_pair": [0, 1], "v_prime": [0, 1, 3, 4, 5, 6, 7]},
        "deletion",
        18,
        18,
        0,
    ),
    ("complement", "complement-problem", {}, "deletion", 104, 70, 34),
    ("complement", "complement-problem", {}, "deletion", 104, 93, 11),
]


def test_campaign_steps_and_counts_are_pinned(equivalence_reports):
    got = [
        (
            name,
            c["step"]["step"],
            c["step"]["params"],
            c["step"]["source"]["kind"],
            c["instances"],
            c["agree_yes"],
            c["agree_no"],
        )
        for name, suite in equivalence_reports.items()
        for c in suite["campaigns"]
    ]
    assert got == CAMPAIGNS


def test_zero_budget_sanity():
    # freeness and the k=0 solver agree everywhere the gate looks
    for g in graphs_up_to(4):
        assert solve_branching(g, 0, path(3), ModificationKind.DELETION).answer == (
            is_induced_copy_free(g, path(3))
        )
