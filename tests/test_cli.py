"""Command-line behavior: outputs, exit codes, format detection."""
import json
import subprocess
import sys

import pytest

from hfree.cli import build_parser, main
from hfree.formats import serialize_graph6, serialize_graph_json
from hfree.graphs import cycle, path, t_diamond
from hfree.problems import Instance, ModificationKind
from hfree.reductions import STEPS


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


def test_reduce_unknown_step_exit_2(tmp_path, capsys):
    inst = instance_file(
        tmp_path, "in.json", cycle(5), 1, path(3), ModificationKind.DELETION
    )
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--input", inst, "--step", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_reduce_step_choices_follow_the_step_table():
    command = next(a for a in build_parser()._actions if a.dest == "command")
    reduce = command.choices["reduce"]
    step = next(a for a in reduce._actions if a.dest == "step")
    assert step.choices == [name for name, spec in STEPS.items() if spec.cli]
    # the construction steps are reachable only through chain replay
    assert step.choices == [
        "complement-problem",
        "degree-reduce",
        "tdiamond-induction",
        "sparse-vl-strip",
        "sparse-vh-route",
        "sparse-case1",
    ]


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


def test_malformed_inputs_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.g6", "!!not a graph!!")
    code, _, err = run(capsys, ["classify", "--input", bad, "--kind", "deletion"])
    assert code == 2 and "error" in err

    code, _, err = run(capsys, ["solve", "--input", str(tmp_path / "nope.json")])
    assert code == 2

    bad_inst = write(tmp_path, "bad.json", '{"graph": 5}')
    code, _, err = run(capsys, ["solve", "--input", bad_inst])
    assert code == 2


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


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "hfree.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout
