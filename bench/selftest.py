"""Self-test of the benchmark, a few seconds long.

    python3 bench/selftest.py

Checks the reference code against the closed-form counts, runs every
workload at a tiny size through the same worker and child-process paths the
benchmark uses, and shows that each output check rejects a corrupted
answer: a swapped letter in a psi result, an off-by-one count, and a
traceback on stderr.  Exits 1 with the first failed expectation.
"""

from __future__ import annotations

import json
import sys

import reference as R
import run
import workloads as W


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest: FAILED: {what}")


def swap_letter(cols):
    """The first column with two letters, its first two letters swapped."""
    cols = [list(c) for c in cols]
    col = next(c for c in cols if len(c) > 1)
    col[0], col[1] = col[1], col[0]
    return tuple(tuple(c) for c in cols)


def tiny_workers() -> None:
    items = W.roundtrip_inputs(7)
    tiny = [W.WORKED_EXAMPLE] + [next(it for it in items if it["kind"] == k) for k in ("sp", "sl")]
    res, setup = run.worker({"workload": "roundtrip", "mode": "time", "inputs": tiny})
    expect(res["log"] == {"ok": 3, "failed": 0, "wrong": 0, "reasons": []}, f"roundtrip worker: {res['log']}")
    expect(0 < setup < 30, f"roundtrip set-up {setup}")

    shapes = [(), (1,), (2, 1)]
    res, _ = run.worker({"workload": "verify", "mode": "time", "n": W.VERIFY_N, "inputs": shapes})
    expect(res["log"]["ok"] == 1 and len(res["ops"]) == 1, f"verify worker: {res['log']}")


def tiny_children() -> None:
    setups, ops, log = run.run_in_children(W.dims_script(3), 0)
    expect(log == {"ok": 1, "failed": 0, "wrong": 0, "reasons": []}, f"dims: {log}")
    expect(len(setups) == 1 and len(ops) == 1, "dims samples")

    script = W.cli_script(7)
    tid = next(e["tid"] for e in script if "tid" in e)
    tiny = [e for e in script if e.get("tid") == tid or e["op"] == "malformed"]
    _, ops, log = run.run_in_children(tiny, 0)
    expect(log["ok"] == 5 and log["wrong"] == 0, f"cli: {log}")
    expect(log["failed"] == len(W.MALFORMED) - _mended(), f"cli failed {log['failed']}")


def _mended() -> int:
    """Malformed requests the program already answers correctly."""
    mended = 0
    for entry in W.MALFORMED:
        _, code, out, err = run.spawn(run.cli_argv(entry["argv"]), entry["stdin"])
        mended += W.is_error_response(code, out, err)
    return mended


def corrupted_answers() -> None:
    # a swapped letter in a psi result
    item = W.WORKED_EXAMPLE
    t = tuple(tuple(c) for c in item["cols"])
    mu, q = W.WORKED_RESULT
    expect(W.check_roundtrip(item, mu, q, t) is None, "worked example accepted")
    expect(W.check_roundtrip(item, mu, q, swap_letter(t)) is not None, "swapped letter in psi rejected")
    entry = {"op": "psi", "item": item, "argv": ["psi"]}
    good = json.dumps({"result": {"n": 4, "kind": "sp", "columns": [W.to_json_letters(4, c) for c in t]}})
    bad = json.dumps({"result": {"n": 4, "kind": "sp", "columns": [W.to_json_letters(4, c) for c in swap_letter(t)]}})
    expect(W.judge_cli(entry, 0, good, "") == ("ok", None), "cli psi accepted")
    expect(W.judge_cli(entry, 0, bad, "")[0] == "wrong", "cli psi with a swapped letter rejected")

    # off-by-one counts
    shape = (2, 1)
    weyl = R.weyl_dim_sp(W.VERIFY_N, shape)
    report = {
        "status": "pass",
        "problems": [],
        "round_trip_failures": [],
        "counts": {"ss": weyl, "weyl": weyl, "qs_by_subshape": {"2,1": weyl}},
    }
    expect(W.check_verify(W.VERIFY_N, shape, report) is None, "verify report accepted")
    report["counts"]["ss"] += 1
    expect(W.check_verify(W.VERIFY_N, shape, report) is not None, "off-by-one semi-standard count rejected")
    report["counts"]["ss"] -= 1
    report["counts"]["qs_by_subshape"]["2,1"] -= 1
    expect(W.check_verify(W.VERIFY_N, shape, report) is not None, "off-by-one quasi-standard sum rejected")
    enum = {"op": "enum", "item": {**item, "n": 3, "shape": [2, 1]}, "argv": ["enum"]}
    count = R.weyl_dim_sp(3, (2, 1))
    expect(W.judge_cli(enum, 0, json.dumps({"count": count}), "") == ("ok", None), "enum count accepted")
    expect(W.judge_cli(enum, 0, json.dumps({"count": count + 1}), "")[0] == "wrong", "off-by-one enum count rejected")
    dims = W.dims_script(3)[0]
    results = [{"k": k, "admissible": R.kernel_count(3, k), "kernel": R.kernel_count(3, k)} for k in (2, 3)]
    expect(W.judge_cli(dims, 0, json.dumps({"status": "pass", "results": results}), "")[0] == "ok", "dims accepted")
    results[1]["kernel"] += 1
    expect(W.judge_cli(dims, 0, json.dumps({"status": "pass", "results": results}), "")[0] == "wrong", "off-by-one kernel rejected")

    # a traceback on stderr
    trace = "Traceback (most recent call last):\n  File \"cli.py\"\nTypeError: boom\n"
    expect(W.judge_cli(entry, 0, good, trace)[0] == "failed", "traceback after a good answer counted as failed")
    malformed = W.MALFORMED[0]
    expect(W.judge_cli(malformed, 1, "", "error: columns must be a list\n") == ("ok", None), "clean error accepted")
    expect(W.judge_cli(malformed, 1, "", trace)[0] == "failed", "traceback on a malformed request counted as failed")


def main() -> int:
    R.self_check()
    corrupted_answers()
    tiny_workers()
    tiny_children()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
