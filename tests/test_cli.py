"""Command-line behavior: outputs, exit codes, format detection."""
import hashlib
import json
import os
import subprocess
import sys

import pytest

from hfree import cli
from hfree.classify import classify
from hfree.cli import build_parser, main
from hfree.formats import serialize_graph6, serialize_graph_json
from hfree.graphs import cycle, join, null_graph, path, star, t_diamond
from hfree.problems import (
    STEP_COMPLEMENT,
    STEP_SPARSE_CASE1,
    STEP_TDIAMOND,
    Instance,
    ModificationKind,
)
from hfree.reductions import STEPS, chain_step
from hfree.smallgraphs import graphs_up_to


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def instance_file(tmp_path, name, g, k, h, kind):
    inst = Instance(g=g, k=k, h=h, kind=kind)
    return write(tmp_path, name, json.dumps(inst.to_obj()))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_polynomial(tmp_path, capsys):
    f = write(tmp_path, "k2.g6", "A_")
    code, out, _ = run(capsys, ["classify", "--input", f, "--kind", "editing"])
    assert code == 0
    assert out.endswith("\n")
    assert json.loads(out) == {
        "verdict": "Polynomial",
        "reason": "at-most-two-vertices",
    }


def test_classify_chain_json(tmp_path, capsys):
    f = write(tmp_path, "dia.g6", serialize_graph6(t_diamond(2)))
    code, out, _ = run(capsys, ["classify", "--input", f, "--kind", "deletion"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "NPComplete"
    assert obj["base"]["name"] == "diamond-deletion"


def test_classify_accepts_json_graphs(tmp_path, capsys):
    f = write(tmp_path, "g.json", serialize_graph_json(path(3)))
    code, out, _ = run(capsys, ["classify", "--input", f, "--kind", "deletion"])
    assert code == 0
    assert json.loads(out)["base"]["name"] == "p3-deletion"


def test_churn_trace(tmp_path, capsys):
    f = write(tmp_path, "p5.g6", serialize_graph6(path(5)))
    code, out, _ = run(capsys, ["churn", "--input", f, "--mode", "editing"])
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "editing"
    assert [s["kind"] for s in obj["steps"]] == ["delete-min-degree"]
    assert obj["terminal"]["n"] == 3


def test_churn_precondition_exit_2(tmp_path, capsys):
    f = write(tmp_path, "k2.g6", "A_")
    code, _, err = run(capsys, ["churn", "--input", f, "--mode", "editing"])
    assert code == 2
    assert "error" in err


def test_reduce_writes_out_file(tmp_path, capsys):
    inst = instance_file(
        tmp_path, "in.json", cycle(5), 1, path(3), ModificationKind.DELETION
    )
    patt = write(tmp_path, "p5.g6", serialize_graph6(path(5)))
    out_path = str(tmp_path / "out.json")
    code, stdout, _ = run(
        capsys,
        [
            "reduce",
            "--input", inst,
            "--step", "degree-reduce",
            "--pattern", patt,
            "--degree", "1",
            "--out", out_path,
        ],
    )
    assert code == 0 and stdout == ""
    obj = json.loads((tmp_path / "out.json").read_text())
    assert obj["step"]["step"] == "degree-reduce"
    assert obj["instance"]["k"] == 1
    assert obj["instance"]["kind"] == "deletion"
    assert obj["instance"]["h"]["n"] == 5


def test_reduce_complement_twice_is_identity(tmp_path, capsys):
    first = instance_file(
        tmp_path, "in.json", cycle(5), 1, path(3), ModificationKind.DELETION
    )
    code, out, _ = run(capsys, ["reduce", "--input", first, "--step", "complement-problem"])
    assert code == 0
    middle = write(tmp_path, "mid.json", json.dumps(json.loads(out)["instance"]))
    code, out, _ = run(capsys, ["reduce", "--input", middle, "--step", "complement-problem"])
    assert code == 0
    assert json.loads(out)["instance"] == json.loads((tmp_path / "in.json").read_text())


def test_reduce_over_construction_cap_exit_2(tmp_path, capsys):
    # P3 has 24,360 placements on 30 vertices, each with two 2-vertex branches
    inst = instance_file(
        tmp_path, "in.json", path(30), 1, path(3), ModificationKind.DELETION
    )
    patt = write(tmp_path, "p5.g6", serialize_graph6(path(5)))
    code, out, err = run(
        capsys,
        ["reduce", "--input", inst, "--step", "degree-reduce", "--pattern", patt, "--degree", "1"],
    )
    assert code == 2 and out == ""
    assert "48750 vertices" in err and "over the cap" in err


def test_reduce_missing_flag_exit_2(tmp_path, capsys):
    inst = instance_file(
        tmp_path, "in.json", cycle(5), 1, path(3), ModificationKind.DELETION
    )
    code, _, err = run(capsys, ["reduce", "--input", inst, "--step", "degree-reduce"])
    assert code == 2 and "degree" in err


def test_reduce_pattern_flag_must_match_the_step(tmp_path, capsys):
    # complement-problem and tdiamond-induction derive their own target
    inst = instance_file(
        tmp_path, "in.json", cycle(5), 1, t_diamond(2), ModificationKind.DELETION
    )
    patt = write(tmp_path, "p5.g6", serialize_graph6(path(5)))
    for flags in (["--step", "complement-problem"], ["--step", "tdiamond-induction", "--t", "3"]):
        code, out, err = run(capsys, ["reduce", "--input", inst, "--pattern", patt, *flags])
        assert code == 2 and out == ""
        assert f"step {flags[1]} derives its own target" in err
    code, out, err = run(
        capsys, ["reduce", "--input", inst, "--step", "degree-reduce", "--degree", "2"]
    )
    assert code == 2 and out == ""
    assert "step degree-reduce needs a target pattern" in err


def test_reduce_unknown_step_exit_2(tmp_path, capsys):
    inst = instance_file(
        tmp_path, "in.json", cycle(5), 1, path(3), ModificationKind.DELETION
    )
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--input", inst, "--step", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def offered(spec):
    """Whether `hfree reduce` offers the step: a flag carries each param it reads."""
    return set(spec.params) <= cli._PARAM_FLAGS.keys()


def test_reduce_step_choices_follow_the_step_table():
    command = next(a for a in build_parser()._actions if a.dest == "command")
    reduce = command.choices["reduce"]
    step = next(a for a in reduce._actions if a.dest == "step")
    assert step.choices == [name for name, spec in STEPS.items() if offered(spec)]
    # the construction steps are reachable only through chain replay
    assert step.choices == [
        "complement-problem",
        "degree-reduce",
        "tdiamond-induction",
        "sparse-vl-strip",
        "sparse-vh-route",
        "sparse-case1",
    ]


# sha256 over the stdout and exit code of `hfree reduce` for every distinct
# CLI-offered step of every classify chain up to 5 vertices, plus the K2,3
# sparse-case1 step, each run on its own source instance
GOLDEN_REDUCE_SHA256 = "fc20e32c97915fb25eff7c896de446d566ba0ddb5bc75fedd387857cc1d1586e"


def _cli_chain_steps():
    steps = {}
    for h in graphs_up_to(5):
        for kind in ModificationKind:
            for step in classify(h, kind).chain or ():
                if offered(STEPS[step.step]):
                    steps.setdefault(json.dumps(step.to_obj()), step)
    case1 = chain_step(
        STEP_SPARSE_CASE1, {}, join(null_graph(2), null_graph(3)), ModificationKind.DELETION
    )
    steps.setdefault(json.dumps(case1.to_obj()), case1)
    return list(steps.values())


def test_reduce_outputs_are_pinned(tmp_path, capsys):
    steps = _cli_chain_steps()
    assert len(steps) == 152
    digest = hashlib.sha256()
    for i, step in enumerate(steps):
        inst = instance_file(
            tmp_path, f"in{i}.json", path(3), 1, step.source_h, step.source_kind
        )
        argv = ["reduce", "--input", inst, "--step", step.step]
        if "d" in step.params:
            argv += ["--degree", str(step.params["d"]), "--variant", step.params["variant"]]
        if "t" in step.params:
            argv += ["--t", str(step.params["t"])]
        if step.step not in (STEP_COMPLEMENT, STEP_TDIAMOND):
            argv += ["--pattern", write(tmp_path, f"h{i}.json", serialize_graph_json(step.target_h))]
        code, out, _ = run(capsys, argv)
        digest.update(f"{code}\n".encode() + out.encode())
    assert digest.hexdigest() == GOLDEN_REDUCE_SHA256


def test_solve_exit_codes(tmp_path, capsys):
    yes = instance_file(
        tmp_path, "yes.json", path(4), 1, path(3), ModificationKind.DELETION
    )
    code, out, _ = run(capsys, ["solve", "--input", yes, "--engine", "brute"])
    assert code == 0
    assert json.loads(out)["answer"] is True

    no = instance_file(
        tmp_path, "no.json", cycle(5), 1, path(3), ModificationKind.DELETION
    )
    code, out, _ = run(capsys, ["solve", "--input", no])
    assert code == 1
    assert json.loads(out)["answer"] is False


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_invalid_brute_cap_exit_2(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("HFREE_BRUTE_CAP", raw)
    inst = instance_file(
        tmp_path, "in.json", path(4), 1, path(3), ModificationKind.DELETION
    )
    code, out, err = run(capsys, ["solve", "--input", inst, "--engine", "brute"])
    assert code == 2 and not out and "HFREE_BRUTE_CAP" in err


def test_malformed_inputs_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.g6", "!!not a graph!!")
    code, _, err = run(capsys, ["classify", "--input", bad, "--kind", "deletion"])
    assert code == 2 and "error" in err

    code, _, err = run(capsys, ["solve", "--input", str(tmp_path / "nope.json")])
    assert code == 2

    bad_inst = write(tmp_path, "bad.json", '{"graph": 5}')
    code, _, err = run(capsys, ["solve", "--input", bad_inst])
    assert code == 2


def test_unexpected_errors_exit_2(tmp_path, capsys, monkeypatch):
    # exit code 1 means "no", so an error of a kind no handler names must
    # still come out as 2; one without a message is named by its type
    inst = instance_file(
        tmp_path, "in.json", path(4), 1, path(3), ModificationKind.DELETION
    )
    for exc, message in ((KeyError("boom"), "'boom'"), (MemoryError(), "MemoryError")):

        def broken(inst, engine, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "solve_instance", broken)
        code, out, err = run(capsys, ["solve", "--input", inst])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_classify_refuses_oversized_complement(tmp_path, capsys):
    # editing churn toggles a star to its complement, which would hold
    # C(1499, 2) = 1,122,751 edges, over the construction edge cap
    f = write(tmp_path, "star.g6", serialize_graph6(star(1499)))
    code, out, err = run(capsys, ["classify", "--input", f, "--kind", "editing"])
    assert code == 2 and out == ""
    assert "the complement would output 1500 vertices and 1122751 edges" in err
    assert "over the cap" in err


def test_verify_suite_report(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    code, _, _ = run(
        capsys,
        ["verify", "complement", "--host-cap", "3", "--k-cap", "1", "--out", out_path],
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is True
    assert report["config"]["host_cap"] == 3
    assert list(report["suites"]) == ["complement"]


def test_verify_rejects_nonpositive_caps(capsys):
    code, _, err = run(capsys, ["verify", "complement", "--host-cap", "0"])
    assert code == 2
    assert "host-cap" in err


def test_verify_refuses_more_workers_than_cpus(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, ["verify", "classify", "--n-cap", "3", "--workers", "3"])
    assert code == 2 and out == ""
    assert "workers" in err


def test_verify_refuses_caps_the_suite_does_not_read(capsys):
    code, out, err = run(capsys, ["verify", "classify", "--host-cap", "3"])
    assert code == 2 and out == ""
    assert err == "error: the classify suite reads no host-cap, got 3\n"
    code, out, err = run(capsys, ["verify", "degree", "--n-cap", "3"])
    assert code == 2 and "reads no n-cap" in err
    # all gives each suite only the caps it reads
    code, out, _ = run(
        capsys, ["verify", "all", "--host-cap", "2", "--k-cap", "1", "--n-cap", "3"]
    )
    assert code == 0 and json.loads(out)["ok"] is True


# sha256 of `hfree verify` stdout, byte for byte: every suite at its
# acceptance caps, the same with two workers (the config records them), and
# the case1 campaign one host-size step up
GOLDEN_VERIFY_SHA256 = {
    ("all",): "c38bbef21e82f706b82ea8c2b1e59c6b42fb506f2af888be210506361534cfe0",
    ("all", "--workers", "2"): (
        "c592c0467e66346dd68913f54a1e7c04e47a9d43ef2f9d7a78aa30addc5d1b40"
    ),
    ("case1", "--host-cap", "5"): (
        "ff9af1580e34f65b0aa07744ff17b2f986ac7d9aa74f6f724e813d94893b4cf4"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_VERIFY_SHA256))
def test_verify_outputs_are_pinned(argv, capsys, monkeypatch):
    # two workers must be allowed whatever the machine's CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, _ = run(capsys, ["verify", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_SHA256[argv]


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hfree.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "hfree", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout
