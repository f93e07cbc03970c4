"""Equivalence campaigns and the property suites."""
import concurrent.futures
import json
import os

import pytest

from hfree import reductions
from hfree.graphs import complete, t_diamond
from hfree.problems import STEP_TDIAMOND, Instance, ModificationKind
from hfree.reductions import reduce_instance
from hfree.verify import (
    _SUITES,
    SUITE_NAMES,
    _degree_steps,
    run_audit_suite,
    run_churn_suite,
    run_classify_suite,
    run_suite,
    run_suites,
    verify_equivalence,
)


def tdiamond_step():
    inst = Instance(g=complete(2), k=1, h=t_diamond(2), kind=ModificationKind.DELETION)
    _, step = reduce_instance(inst, STEP_TDIAMOND, {"t": 3})
    return step


def test_equivalence_campaign_clean():
    report = verify_equivalence(tdiamond_step(), host_cap=3, k_cap=1)
    assert report["disagreements"] == []
    assert report["instances"] == 7  # graphs on 1..3 vertices, k=1
    assert report["k_preserved"] is True
    assert report["agree_yes"] + report["agree_no"] == report["instances"]
    assert report["oracle_mismatches"] == []


def test_equivalence_worker_count_does_not_change_report():
    one = verify_equivalence(tdiamond_step(), host_cap=3, k_cap=2, workers=1)
    two = verify_equivalence(tdiamond_step(), host_cap=3, k_cap=2, workers=2)
    assert one == two


def test_churn_suite_small():
    report = run_churn_suite(4)
    assert report["problems"] == 0
    # editing needs 3 vertices: the 4 + 11 graphs on 3 and 4
    assert report["editing_checked"] == 4 + 11
    assert report["deletion_checked"] > 0


def test_classify_suite_small():
    report = run_classify_suite(4)
    assert report["problems"] == 0
    # editing easy cases: the two patterns under 3 vertices; deletion and
    # completion: graphs within one edge of empty or complete
    assert report["polynomial"] == 17
    assert report["polynomial"] + report["npcomplete"] == 18 * 3


def test_audit_suite_seeded_and_deterministic():
    a = run_audit_suite(7, count=10, host_cap=4, k_cap=2)
    b = run_audit_suite(7, count=10, host_cap=4, k_cap=2)
    assert a == b
    assert a["problems"] == 0
    assert a["inputs"] == 10
    assert a["seed"] == 7


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_run_suite_refuses_caps_below_1():
    for name, caps in (
        ("degree", {"host_cap": 0}),
        ("complement", {"k_cap": -1}),
        ("classify", {"n_cap": 0}),
        ("churn", {"workers": 0}),
    ):
        with pytest.raises(ValueError, match="must be at least 1"):
            run_suite(name, **caps)


def test_run_suite_refuses_caps_it_does_not_read():
    for name in SUITE_NAMES:
        defaults = _SUITES[name][0]
        for cap, default in zip(("host_cap", "k_cap", "n_cap"), defaults):
            if not default:
                with pytest.raises(ValueError, match=f"the {name} suite reads no"):
                    run_suite(name, **{cap: 3})
    # all gives each suite only the caps it reads
    report = run_suites(["all"], host_cap=2, k_cap=1, n_cap=3)
    assert report["ok"] is True
    assert report["suites"]["classify"]["n_cap"] == 3
    assert report["suites"]["degree"]["campaigns"][0]["host_cap"] == 2


def test_campaigns_build_one_scaffold_per_host_size_and_budget(monkeypatch):
    # each scaffold build enumerates its placements once
    builds = []
    enumerate_copies = reductions.enumerate_pattern_copies

    def counted(n, pattern):
        builds.append(n)
        return enumerate_copies(n, pattern)

    monkeypatch.setattr(reductions, "enumerate_pattern_copies", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    first = run_suite("degree", host_cap=4, k_cap=2)
    # one per step, host size that fits V' (the source pattern) and budget
    assert len(builds) == sum(
        2 * max(0, 4 - step.source_h.n + 1) for step in _degree_steps()
    ) == 30
    # each campaign's scaffolds go when it ends: a second run builds them
    # all again, and the step given to a campaign keeps none
    assert run_suite("degree", host_cap=4, k_cap=2) == first
    assert len(builds) == 60
    step = _degree_steps()[0]
    assert verify_equivalence(step, host_cap=4, k_cap=2) == first["campaigns"][0]
    assert step.scaffolds == {}
    assert run_suite("degree", host_cap=4, k_cap=2, workers=2) == first


def test_worker_pool_is_capped_and_sized_by_the_cases(monkeypatch):
    # a stand-in pool records its size and starts no process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    # one 1-vertex host at budgets 1 and 2: two cases
    report = run_suite("tdiamond", host_cap=1, k_cap=2, workers=64)
    assert sizes == [2]
    assert report == run_suite("tdiamond", host_cap=1, k_cap=2)
    with pytest.raises(ValueError, match="at most the CPU count 64, got 65"):
        run_suite("tdiamond", host_cap=1, k_cap=2, workers=65)
    assert sizes == [2]


def test_run_suites_consolidated_report():
    report = run_suites(["complement"], host_cap=3, k_cap=1)
    assert report["tool"] == "hfree"
    assert report["version"]
    assert report["config"]["suites"] == ["complement"]
    assert report["ok"] is True and report["problems"] == 0
    assert set(report["suites"]) == {"complement"}
    json.dumps(report)  # everything must be plain data


def test_run_suites_all_names_resolve():
    assert len(SUITE_NAMES) == 9
    report = run_suites(["churn", "classify"], n_cap=3)
    assert set(report["suites"]) == {"churn", "classify"}
    assert report["ok"]
