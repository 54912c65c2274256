"""Seeded workload inputs and the checks applied to sptab's outputs.

Imports nothing from sptab: inputs are drawn with the reference code, and
outputs are judged against it or against properties the method must have.
Tableaux travel as plain data, {"kind", "n", "shape", "cols"} with columns
as top-down letter codes.  Every check returns None when the output is
right, or a one-line reason.
"""

from __future__ import annotations

import json
import random

import reference as R

# roundtrip: symplectic tableaux at these ranks, SP_PER_CELL of them for
# every box count, plus SL_PER_RANK plain-letter tableaux per plain rank (a
# fifth of the inputs).  Operation times spread over a factor of 30; with
# 432 symplectic inputs a round's total work moves by about 4% from one
# seed to the next.
SP_RANKS = (5, 6, 7)
SL_RANKS = (6, 7, 8)
BOXES = tuple(range(5, 17))
SP_PER_CELL = 12
SL_PER_RANK = 36
# Letter bias of the column walk: a uniform walk gives about 90%
# quasi-standard tableaux, which phi returns untouched.
BETA = 1.0

# The paper's worked example: shape (4,3,2) at rank 4 reduces to the single
# column 1, 3', 2', 1' of shape (4,).
WORKED_EXAMPLE = {"kind": "sp", "n": 4, "shape": [4, 3, 2], "cols": [[1, 2, 3, 6], [1, 3, 6], [3, 6]]}
WORKED_RESULT = ((4,), ((1, 6, 7, 8),))

VERIFY_N = 4
VERIFY_MAX_BOXES = 5

DIMS_N = 7


def dims_script(n: int) -> list[dict]:
    return [{"op": "dims", "n": n, "argv": ["verify", "dims", "--n", str(n), "--max-k", str(n)], "stdin": ""}]


CLI_N = 3
CLI_TABLEAUX = 4
CLI_BOXES = (3, 4, 5)


def _draw(rng: random.Random, kind: str, n: int, boxes: int) -> dict:
    """A semi-standard tableau with `boxes` cells that is not quasi-standard."""
    hmax = n if kind == "sp" else n - 1
    while True:
        shape = R.random_shape(rng, hmax, boxes)
        if kind == "sp":
            t = R.random_ss_sp(rng, n, shape, BETA)
            if t is None or R.is_quasistandard_sp(n, t):
                continue
        else:
            t = R.random_ss_sl(rng, n, shape, BETA)
            if t is None or R.is_quasistandard_sl(t):
                continue
        return {"kind": kind, "n": n, "shape": list(shape), "cols": [list(c) for c in t]}


def roundtrip_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = [WORKED_EXAMPLE]
    for n in SP_RANKS:
        for boxes in BOXES:
            items.extend(_draw(rng, "sp", n, boxes) for _ in range(SP_PER_CELL))
    for n in SL_RANKS:
        items.extend(_draw(rng, "sl", n, rng.choice(BOXES)) for _ in range(SL_PER_RANK))
    rng.shuffle(items)
    return items


def check_roundtrip(item: dict, mu, q, back) -> str | None:
    """mu and q from phi (or reduce_sl), back from psi (or expand_sl); q and
    back as tuples of code tuples."""
    n, kind = item["n"], item["kind"]
    lam = tuple(item["shape"])
    t = tuple(tuple(c) for c in item["cols"])
    if back != t:
        return f"inverse gave {back}, not the input {t}"
    if tuple(mu) != R.shape_of(q):
        return f"reported shape {mu} is not the shape of {q}"
    if not R.weight_below(mu, lam):
        return f"shape {mu} is not weight-below {lam}"
    if kind == "sp":
        if not (R.is_semistandard_sp(n, q) and R.is_quasistandard_sp(n, q)):
            return f"reduction {q} is not semi-standard and quasi-standard"
        if item == WORKED_EXAMPLE and (tuple(mu), q) != WORKED_RESULT:
            return f"worked example reduced to {mu}, {q}"
    elif not (R.is_semistandard_sl(n, q) and R.is_quasistandard_sl(q)):
        return f"reduction {q} is not semi-standard and quasi-standard"
    return None


def verify_shapes(seed: int) -> list[tuple[int, ...]]:
    """Every shape with at most VERIFY_MAX_BOXES cells, in a seeded order."""
    shapes = R.shapes_up_to(VERIFY_N, VERIFY_MAX_BOXES)
    random.Random(seed).shuffle(shapes)
    return shapes


def check_verify(n: int, shape, report: dict) -> str | None:
    weyl = R.weyl_dim_sp(n, shape)
    counts = report["counts"]
    if report["status"] != "pass" or report["problems"] or report["round_trip_failures"]:
        return f"shape {shape}: report is {report['status']}"
    if counts["ss"] != weyl or counts["weyl"] != weyl:
        return f"shape {shape}: {counts['ss']} semi-standard tableaux, Weyl dimension is {weyl}"
    if sum(counts["qs_by_subshape"].values()) != weyl:
        return f"shape {shape}: quasi-standard counts sum to {sum(counts['qs_by_subshape'].values())}, not {weyl}"
    return None


def verify_items() -> int:
    """Semi-standard tableaux verified by one sweep."""
    return sum(R.weyl_dim_sp(VERIFY_N, s) for s in R.shapes_up_to(VERIFY_N, VERIFY_MAX_BOXES))


def check_dims(n: int, out: dict) -> str | None:
    """verify dims --n n --max-k n: admissible count = kernel = C(2n,k) - C(2n,k-2)."""
    ks = list(range(2, n + 1))
    if out.get("status") != "pass" or [r["k"] for r in out["results"]] != ks:
        return f"dims report is {out.get('status')} over k = {[r['k'] for r in out['results']]}"
    for r in out["results"]:
        want = R.kernel_count(n, r["k"])
        if not r["admissible"] == r["kernel"] == want:
            return f"k={r['k']}: admissible {r['admissible']}, kernel {r['kernel']}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# the cli script


def to_json_letters(n: int, col) -> list[int]:
    """Signed-integer letters (barred = negative) of a column of codes."""
    return [c if c <= n else -(2 * n + 1 - c) for c in col]


def from_json_letters(n: int, col) -> tuple[int, ...]:
    return tuple(x if x > 0 else 2 * n + 1 + x for x in col)


def _tableau_json(n: int, cols) -> str:
    return json.dumps({"n": n, "kind": "sp", "columns": [to_json_letters(n, c) for c in cols]})


# Three requests that fail every time because of faults in the program.  The
# right answer to each is exit code 1 with a single "error:" line.
MALFORMED = [
    # tableau_from_json iterates an integer "columns": TypeError traceback.
    {"op": "malformed", "argv": ["double", "--n", "3"], "stdin": '{"n": 3, "kind": "sp", "columns": 5}'},
    # cmd_sjdt indexes an "inner" list shorter than "columns": IndexError traceback.
    {
        "op": "malformed",
        "argv": ["sjdt", "--n", "3", "--star", "1,2"],
        "stdin": '{"n": 3, "columns": [[1, 2], [2], [3]], "inner": [0]}',
    },
    # psi accepts a q that is not quasi-standard and exits 0 with a wrong tableau.
    {
        "op": "malformed",
        "argv": ["psi", "--n", "3", "--target-shape", "3,1,1"],
        "stdin": '{"n": 3, "kind": "sp", "columns": [[1, 2, 3], [1]]}',
    },
]


def cli_script(seed: int) -> list[dict]:
    """One round of invocations: five short ones on each of CLI_TABLEAUX
    seeded tableaux, one `verify dims` and the malformed requests.  A "psi"
    entry reads the result of the "phi" entry with the same "tid", which
    always runs before it."""
    rng = random.Random(seed)
    script: list[dict] = []
    for tid in range(CLI_TABLEAUX):
        item = _draw(rng, "sp", CLI_N, rng.choice(CLI_BOXES))
        n, shape = str(item["n"]), ",".join(str(h) for h in item["shape"])
        stdin = _tableau_json(item["n"], item["cols"])
        for op, argv, text in (
            ("double", ["double", "--n", n], stdin),
            ("check", ["check", "--n", n, "--predicate", "qs-sp"], stdin),
            ("phi", ["phi", "--n", n, "--trace"], stdin),
            ("psi", ["psi", "--n", n, "--target-shape", shape], None),
            ("enum", ["enum", "--n", n, "--shape", shape, "--predicate", "ss-sp", "--count"], ""),
        ):
            script.append({"op": op, "tid": tid, "item": item, "argv": argv, "stdin": text})
    script += dims_script(DIMS_N) + MALFORMED
    rng.shuffle(script)
    out: list[dict] = []
    held: dict[int, dict] = {}
    for entry in script:
        if entry["op"] == "psi" and entry["tid"] not in held:
            held[entry["tid"]] = entry
            continue
        out.append(entry)
        if entry["op"] == "phi":
            if entry["tid"] in held:
                out.append(held.pop(entry["tid"]))
            else:
                held[entry["tid"]] = None
    return out


def phi_result(stdout: str) -> str:
    """The stdin for psi: the tableau phi printed, or "" when it printed none."""
    try:
        return json.dumps(json.loads(stdout)["result"])
    except (ValueError, KeyError, TypeError):
        return ""


def new_log() -> dict:
    """Operations judged "ok", "failed" or "wrong", and the first reasons."""
    return {"ok": 0, "failed": 0, "wrong": 0, "reasons": []}


def record(log: dict, status: str, why: str | None) -> None:
    log[status] += 1
    if why and len(log["reasons"]) < 5:
        log["reasons"].append(why)


def merge_log(into: dict, log: dict) -> None:
    for key in ("ok", "failed", "wrong"):
        into[key] += log[key]
    into["reasons"] = (into["reasons"] + log["reasons"])[:5]


def is_error_response(code: int, stdout: str, stderr: str) -> bool:
    """Exit code 1, nothing on stdout, one "error:" line on stderr."""
    lines = stderr.splitlines()
    return code == 1 and not stdout.strip() and len(lines) == 1 and lines[0].startswith("error:")


def judge_cli(entry: dict, code: int, stdout: str, stderr: str) -> tuple[str, str | None]:
    """("ok", None), ("failed", why) for an invocation that did not do its
    job, or ("wrong", why) for one that exited 0 with a wrong answer."""
    failed = "failed", f"{' '.join(entry['argv'])}: exit {code}, stderr {stderr.strip()[-120:]!r}"
    if entry["op"] == "malformed":
        return ("ok", None) if is_error_response(code, stdout, stderr) else failed
    if code != 0 or stderr:
        return failed
    try:
        out = json.loads(stdout)
        bad = check_dims(entry["n"], out) if entry["op"] == "dims" else check_cli(entry, out)
    except (ValueError, KeyError, TypeError) as exc:
        bad = f"unreadable output ({type(exc).__name__}: {exc})"
    return ("wrong", f"{' '.join(entry['argv'])}: {bad}") if bad else ("ok", None)


def check_cli(entry: dict, out: dict) -> str | None:
    """Judge the parsed stdout of a successful invocation."""
    item = entry["item"]
    n, lam = item["n"], tuple(item["shape"])
    t = tuple(tuple(c) for c in item["cols"])
    op = entry["op"]
    if op == "double":
        want = [to_json_letters(n, c) for c in R.double_tableau(n, t)]
        if out != {"n": n, "kind": "double", "columns": want}:
            return f"double gave {out}, expected {want}"
    elif op == "check":
        g = R.double_tableau(n, t)
        pushable = [s for s in range(1, len(g[0]) + 1) if R.grid_pushable(g, s)]
        want = {"result": not pushable, "violation": {"kind": "nqs-row", "row": pushable[0]} if pushable else None}
        if out != want:
            return f"check gave {out}, expected {want}"
    elif op == "phi":
        q = tuple(from_json_letters(n, c) for c in out["result"]["columns"])
        mu = tuple(out["shape"])
        if mu != R.shape_of(q) or not R.weight_below(mu, lam):
            return f"phi shape {mu} does not fit {q} below {lam}"
        if not (R.is_semistandard_sp(n, q) and R.is_quasistandard_sp(n, q)):
            return f"phi gave {q}, not semi-standard and quasi-standard"
        if not out.get("trace"):
            return "phi --trace printed no trace"
    elif op == "psi":
        back = tuple(from_json_letters(n, c) for c in out["result"]["columns"])
        if back != t:
            return f"psi gave {back}, not the input {t}"
    elif op == "enum":
        if out != {"count": R.weyl_dim_sp(n, lam)}:
            return f"enum gave {out}, Weyl dimension is {R.weyl_dim_sp(n, lam)}"
    return None
