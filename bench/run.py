"""hfree benchmark: one workload per run, checked, one JSON result line.

    python3 bench/run.py --workload campaign|sweep|solve --seed N \\
        --seconds S --trace 0|1

The workload runs in a child process (worker.py), which imports hfree from
``src/`` and times only calls into its public functions.  Set-up is
measured here, from starting a child to its ``ready`` line, in several
children, and reported as the median.  Every output the child returns is
checked here with code that does not import hfree (checks.py).  With
``--trace 1`` the child wraps the public functions of each hfree module
(tracer.py), writes its spans to ``bench/out/`` and reports per-layer
metrics instead of end-to-end ones.  A failed check prints the result with
``"correct": false`` and exits with 1; a missing program exits with 2.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import CAMPAIGN_SUITES, SWEEP_N_CAP, solve_instances  # noqa: E402

SETUP_RUNS = 8  # set-up-only children, besides the measured one
DEADLINE_S = 170  # the whole run, set-up and checks included


def spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; return it with the
    set-up time."""
    t = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


# ---------------------------------------------------------------------------
# checks of the child's outputs

def distinct(rounds: list[dict]):
    """(position, output) of every distinct output over all rounds; the
    rounds repeat the same operations, so most outputs repeat too."""
    seen = set()
    for r in rounds:
        for i, out in enumerate(r["outputs"]):
            key = (i, json.dumps(out, sort_keys=True))
            if key not in seen:
                seen.add(key)
                yield i, out


def check_outputs(workload: str, seed: int, rounds: list[dict]) -> list[str]:
    errors = []
    if workload == "campaign":
        for i, report in distinct(rounds):
            suite, host_cap, k_cap = CAMPAIGN_SUITES[i]
            if report.get("suite") != suite:
                errors.append(f"report {i} is for {report.get('suite')}, expected {suite}")
            errors += checks.check_campaign_suite(report, host_cap, k_cap)
    elif workload == "sweep":
        expect = checks.atlas_expectations(SWEEP_N_CAP)
        for r in rounds:
            errors += checks.check_sweep(r["outputs"][2], *r["outputs"][:2], expect)
    else:
        _, plain, certs = solve_instances(seed)
        for i, (inst, cert) in enumerate(zip(plain, certs)):
            if cert["answer"]:
                cert_errors = checks.check_yes_certificate(inst, cert)
            else:
                cert_errors = checks.check_no_certificate(inst, cert)
            errors += [f"instance {i}: {e}" for e in cert_errors]
        for i, out in distinct(rounds):
            out_errors = checks.check_solve_output(plain[i], certs[i], out)
            errors += [f"instance {i}: {e}" for e in out_errors]
    return errors


def check_trace(workload: str, result: dict) -> list[str]:
    """The traced rounds must do the work of the untraced one: the same
    outputs, and counts the outputs show agree with the spans'."""
    errors = list(result["errors"])
    ref = json.dumps(result["reference"]["outputs"], sort_keys=True)
    for i, r in enumerate(result["rounds"]):
        if json.dumps(r["outputs"], sort_keys=True) != ref:
            errors.append(f"traced round {i} gave other outputs than the untraced round")
    layers, outputs = result["layers"], result["reference"]["outputs"]
    if workload == "campaign":
        want = {
            "verify.campaigns": sum(len(r["campaigns"]) for r in outputs),
            "verify.instances": sum(c["instances"] for r in outputs for c in r["campaigns"]),
        }
    elif workload == "solve":
        want = {
            "solve.branch_calls": len(outputs),
            "solve.branch_nodes": sum(o["nodes"] for o in outputs),
        }
    else:
        want = {}
    for name, value in want.items():
        if layers[name] != value:
            errors.append(f"{name} is {layers[name]} traced, {value} in the outputs")
    return errors


# ---------------------------------------------------------------------------
# metrics

def end_to_end(rounds: list[dict], setups: list[float], rss_kb: int, per_op: bool) -> dict:
    # Rounds repeat the same timed calls; each call's time is its median
    # over the rounds, so that a stall in one round does not count.
    calls = [
        statistics.median(r["ops"][i][1] for r in rounds)
        for i in range(len(rounds[0]["ops"]))
    ]
    ops = sum(n for n, _ in rounds[0]["ops"])
    if per_op:
        # each operation is timed alone
        samples = calls
    else:
        # operations run in suites; a round gives the mean time per operation
        samples = [sum(t for _, t in r["ops"]) / ops for r in rounds]
    p90 = (
        statistics.quantiles(samples, n=10, method="inclusive")[8]
        if len(samples) > 1
        else samples[0]
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / sum(calls), "ops/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "op_p50_ms": (statistics.median(samples) * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("campaign", "sweep", "solve"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hfree" / "__init__.py").is_file():
        print(f"no hfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                proc, setup = spawn(common + ["--setup-only"])
                finish(proc, 30)
                setups.append(setup)
        run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            trace_out = HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
            run_args += ["--trace-out", str(trace_out)]
        proc, setup = spawn(run_args)
        setups.append(setup)
        out = finish(proc, DEADLINE_S - (perf_counter() - start))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    result = json.loads(out.splitlines()[-1])
    rounds = result["rounds"]

    errors = check_outputs(args.workload, args.seed, rounds)
    if args.trace:
        errors += check_trace(args.workload, result)
        units = dict(METRICS, **{"trace.slowdown": "ratio"})
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in result["layers"].items()
        }
    else:
        figures = end_to_end(rounds, setups, result["rss_kb"], args.workload == "solve")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in figures.items()}
    for e in errors[:50]:
        print(f"check failed: {e}", file=sys.stderr)
    attempted = sum(n for r in rounds for n, _ in r["ops"])
    if args.trace:
        attempted += sum(n for n, _ in result["reference"]["ops"])
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": 0,
                "metrics": metrics,
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
