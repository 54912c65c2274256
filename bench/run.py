"""The sptab benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30          # all three in turn

Run from the root of a source checkout; the program is imported from
./src.  Every workload is a closed loop with one caller, and at most one
program process runs at a time:

  roundtrip  phi then psi on seeded deep symplectic tableaux (n = 5..7),
             plus plain-letter reduce_sl / expand_sl (n = 6..8)
  verify     verify_bijection(4, shape) for every shape of <= 5 boxes
  cli        fresh `python -m sptab.cli` processes: a seeded script of short
             invocations, one `verify dims --n 7 --max-k 7`, and three
             malformed requests counted as failed

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of one
traced round of every workload.  Raw samples and span files go to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("roundtrip", "verify", "cli")
# roundtrip and verify: worker processes, each running one round of the
# workload, start one after another until the operations have taken
# --seconds; each worker's start-up is one set-up sample.  cli: a fresh
# interpreter importing sptab.cli is timed before every round of the script,
# so set-up samples spread over the run as the host's speed drifts.
TIMEOUT_S = 150
# the traced run: bare interpreters and sptab.cli imports timed for the floor
INTERPRETER_STARTS = 7


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdin: str = "") -> tuple[float, int, str, str]:
    """Run one child to its end; (wall seconds, exit code, stdout, stderr)."""
    t0 = monotonic()
    proc = subprocess.run(
        argv, input=stdin, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=TIMEOUT_S
    )
    return monotonic() - t0, proc.returncode, proc.stdout, proc.stderr


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "sptab.cli", *args]


def cold_start_s() -> float:
    wall, code, _, err = spawn([sys.executable, "-c", "import sptab.cli"])
    if code:
        raise RuntimeError(f"importing sptab.cli failed: {err.strip()[-300:]}")
    return wall


def worker(job: dict) -> tuple[dict, float]:
    """One worker process; returns its result and its set-up seconds."""
    text = json.dumps(job)
    t0 = monotonic()
    _, code, out, err = spawn([sys.executable, str(BENCH / "worker.py")], text)
    if code:
        raise RuntimeError(f"{job['workload']} worker exited {code}: {err.strip()[-500:]}")
    res = json.loads(out)
    return res, res["ready"] - t0


# ---------------------------------------------------------------------------
# untraced runs


def run_in_workers(job: dict, seconds: float) -> tuple[list[float], list[float], dict]:
    setups: list[float] = []
    ops: list[float] = []
    log = W.new_log()
    while True:
        res, setup = worker(job)
        setups.append(setup)
        ops += res["ops"]
        W.merge_log(log, res["log"])
        if sum(ops) >= seconds * 1000:
            return setups, ops, log


def run_in_children(script: list[dict], seconds: float) -> tuple[list[float], list[float], dict]:
    """Whole rounds of the script, one fresh interpreter per entry."""
    setups: list[float] = []
    ops: list[float] = []
    log = W.new_log()
    while True:
        setups.append(cold_start_s())
        phi_out: dict[int, str] = {}
        for entry in script:
            stdin = entry["stdin"] if entry["stdin"] is not None else phi_out.get(entry["tid"], "")
            wall, code, out, err = spawn(cli_argv(entry["argv"]), stdin)
            ops.append(wall * 1000)
            if entry["op"] == "phi" and code == 0:
                phi_out[entry["tid"]] = W.phi_result(out)
            W.record(log, *W.judge_cli(entry, code, out, err))
        if sum(ops) >= seconds * 1000:
            return setups, ops, log


def measure(name: str, seed: int, seconds: float) -> tuple[tuple[list[float], list[float], dict], int]:
    """((set-up samples in s, operation times in ms, log), items one operation completes)."""
    if name == "roundtrip":
        return run_in_workers({"workload": name, "mode": "time", "inputs": W.roundtrip_inputs(seed)}, seconds), 1
    if name == "verify":
        job = {"workload": name, "mode": "time", "n": W.VERIFY_N, "inputs": W.verify_shapes(seed)}
        return run_in_workers(job, seconds), W.verify_items()
    return run_in_children(W.cli_script(seed), seconds), 1


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    (setups, ops, log), items = measure(name, seed, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "items_per_s": (items * len(ops) / (sum(ops) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "op_p90_ms": (p90(ops), "ms"),
    }
    raw = {"setup_s": setups, "op_ms": ops, "reasons": log["reasons"]}
    return result(log, len(ops), metrics, raw)


def result(log: dict, attempted: int, metrics: dict, raw: dict) -> dict:
    return {
        "correct": log["wrong"] == 0,
        "attempted": attempted,
        "failed": log["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": raw,
    }


# ---------------------------------------------------------------------------
# the traced run


def traced(seed: int) -> dict:
    interp = [spawn([sys.executable, "-c", "pass"])[0] * 1000 for _ in range(INTERPRETER_STARTS)]
    imports = []
    for _ in range(INTERPRETER_STARTS):
        _, _, out, _ = spawn(
            [sys.executable, "-c", "import time; t = time.perf_counter(); import sptab.cli; print(time.perf_counter() - t)"]
        )
        imports.append(float(out) * 1000)
    jobs = {
        "roundtrip": {"inputs": W.roundtrip_inputs(seed)},
        "verify": {"n": W.VERIFY_N, "inputs": W.verify_shapes(seed)},
        "cli": {"inputs": W.cli_script(seed)},
    }
    per: dict[str, dict] = {}
    log = W.new_log()
    attempted = 0
    for name, job in jobs.items():
        job.update(workload=name, mode="trace", spans=str(OUT / f"spans-{name}"))
        res, _ = worker(job)
        per[name] = res
        W.merge_log(log, res["log"])
        attempted += len(res["ops"])

    def total(section: str, key: str) -> float:
        return sum(r["trace"][section].get(key, 0) for r in per.values())

    def calls(fn: str) -> int:
        return int(total("calls", fn))

    def events(key: str) -> int:
        return int(total("events", key))

    phases = per["roundtrip"]["phases"]
    med = statistics.median
    metrics = {
        "columns.self_ms": (total("self_ms", "columns"), "ms"),
        "columns.column_builds": (events("column_builds"), "count"),
        "columns.dble_calls": (calls("columns.dble"), "count"),
        "columns.g_from_calls": (calls("columns.g_from"), "count"),
        "tableaux.self_ms": (total("self_ms", "tableaux"), "ms"),
        "tableaux.dble_tableau_calls": (calls("tableaux.dble_tableau"), "count"),
        "taquin_sp.phi_ms": (med(phases["phi"]), "ms"),
        "taquin_sp.psi_ms": (med(phases["psi"]), "ms"),
        "taquin_sp.self_ms": (total("self_ms", "taquin_sp"), "ms"),
        "taquin_sp.invariant_check_ms": (total("group_ms", "invariant_check"), "ms"),
        "taquin_sp.skew_state_builds": (events("skew_state_builds"), "count"),
        "taquin_sp.passes": (calls("taquin_sp.slide_pass_sp"), "count"),
        "taquin_sp.steps_vertical": (events("steps_vertical"), "count"),
        "taquin_sp.steps_horizontal": (events("steps_horizontal"), "count"),
        "taquin_sp.invariant_checks": (calls("taquin_sp.is_semistandard_skew_sp"), "count"),
        "taquin_sl.reduce_ms": (med(phases["reduce"]), "ms"),
        "taquin_sl.expand_ms": (med(phases["expand"]), "ms"),
        "taquin_sl.slide_steps": (events("sl_slide_steps"), "count"),
        "enumeration.self_ms": (total("self_ms", "enumeration"), "ms"),
        "enumeration.enum_ms": (total("group_ms", "enum"), "ms"),
        "enumeration.qs_enumerations": (calls("enumeration.enum_qs_sp"), "count"),
        "enumeration.tableaux_enumerated": (events("tableaux_enumerated"), "count"),
        "enumeration.qs_kept_ratio": (events("qs_kept") / events("qs_generated"), "ratio"),
        "enumeration.admissible_ms": (total("group_ms", "admissible"), "ms"),
        "plucker.contraction_matrix_ms": (total("group_ms", "contraction_matrix"), "ms"),
        "plucker.exact_rank_ms": (total("group_ms", "exact_rank"), "ms"),
        "plucker.matrix_cells": (events("matrix_cells"), "count"),
        "cli.interpreter_ms": (med(interp), "ms"),
        "cli.import_ms": (med(imports), "ms"),
        "cli.command_ms": (med(per["cli"]["trace"]["command_ms"]), "ms"),
    }
    raw = {name: {"traced_ms": sum(r["ops"]), "trace": r["trace"]} for name, r in per.items()}
    passes = per["roundtrip"]["passes"]
    raw["roundtrip"]["untraced_ms"] = sum(sum(v) for v in phases.values())
    raw["roundtrip"]["passes_histogram"] = {p: passes.count(p) for p in sorted(set(passes))}
    return result(log, attempted, metrics, raw)


# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "sptab" / "__init__.py").is_file():
        raise SystemExit(f"error: no sptab sources under {SRC}; run from the root of a source checkout")
    OUT.mkdir(exist_ok=True)
    # a first import writes the bytecode caches, so no timed start compiles
    cold_start_s()
    res = traced(seed) if trace else end_to_end(name, seed, seconds)
    label = "traced" if trace else name
    with open(OUT / f"{label}-seed{seed}.json", "w") as fh:
        json.dump(res, fh, indent=1)
    del res["raw"]
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES, help="one workload; all of them in turn when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in res["metrics"].items():
        print(f"{args.workload:10} {key:32} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:10} attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
    print(json.dumps(res))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
        if args.trace:
            break  # a traced run covers every workload
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
