"""Command-line surface: doubling, predicate checks, enumeration, reduction
and its inverse, raw slides, and the verification reports.

Exit codes: 0 success, 1 bad input, 2 verification failure, 3 internal
invariant trap.  All output is deterministic JSON (or the fixed-width ASCII
layout with --format ascii).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .errors import ParseError, SptabError, TaquinInvariantError

# Each command imports the layers it runs inside its own body, so that a
# fresh process compiles and loads only those.

__all__ = ["main"]


def _read_input(args) -> object:
    try:
        if args.file:
            with open(args.file) as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SptabError(f"cannot read the input: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SptabError(f"input is not JSON: {exc}") from exc


def _emit(obj: object) -> None:
    from .tableaux import dumps

    sys.stdout.write(dumps(obj) + "\n")


def _match_rank(args, n: int) -> None:
    if n != args.n:
        raise SptabError(f"--n {args.n} does not match the input rank {n}")


def _tableau(args, data):
    """The tableau of the JSON input `data`, its rank matched against --n."""
    from .tableaux import tableau_from_json

    t = tableau_from_json(data)
    _match_rank(args, t.n)
    return t


def cmd_double(args) -> int:
    from .tableaux import _json_columns, dble_tableau, render_grid

    t = _tableau(args, _read_input(args))
    if t.kind != "sp":
        raise SptabError("double expects a symplectic tableau")
    grid = dble_tableau(t)
    if args.format == "ascii":
        print(render_grid(grid, t.n))
    else:
        _emit({"n": t.n, "kind": "double", "columns": _json_columns(grid, t.n)})
    return 0


def cmd_check(args) -> int:
    from .columns import is_admissible
    from .tableaux import _from_letters, _json_letters, check_kind, dble_tableau, first_grid_violation, nqs_rows

    data = _read_input(args)
    if args.predicate == "admissible" and isinstance(data, list):
        col = _from_letters(_json_letters([data]), args.n, "sp").columns[0]
        _emit({"result": is_admissible(col), "violation": None})
        return 0
    t = _tableau(args, data)
    pred, violation = args.predicate, None
    if pred != "qs-sl":
        check_kind(t, "sl" if pred == "ss-sl" else "sp")
    if pred in ("admissible", "ss-sp"):
        bad = next((j for j, col in enumerate(t.columns, start=1) if not is_admissible(col)), None)
        if bad is not None:
            violation = {"kind": "column", "col": bad}
    if pred != "admissible" and violation is None:
        grid = dble_tableau(t) if pred.endswith("-sp") else t.grid()
        if pred.startswith("ss-"):
            cell = first_grid_violation(grid)
            if cell is not None:
                violation = dict(zip(("kind", "row", "col"), cell))
        else:
            rows = nqs_rows(grid)
            if rows:
                violation = {"kind": "nqs-row", "row": rows[0]}
    _emit({"result": violation is None, "violation": violation})
    return 0


def _parse_ints(text: str, what: str = "shape") -> tuple[int, ...]:
    """Comma-separated integers; argparse hands over an option value of "--" as []."""
    if not isinstance(text, str):
        raise SptabError(f"unreadable {what} {text!r}")
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise SptabError(f"unreadable {what} {text!r}") from exc


def cmd_enum(args) -> int:
    from .enumeration import _admissible_count, enum_qs_sl, enum_qs_sp, enum_ss_sl, enum_ss_sp
    from .tableaux import render, tableau_to_json

    shape = _parse_ints(args.shape)
    if args.predicate == "admissible":
        # the one-column tableaux of a height are its admissible columns
        if len(shape) != 1:
            raise SptabError("admissible enumeration takes a single height")
        if args.count:
            _emit({"count": _admissible_count(args.n, shape[0])})
            return 0
    fn = {
        "admissible": enum_ss_sp,
        "ss-sp": enum_ss_sp,
        "qs-sp": enum_qs_sp,
        "ss-sl": enum_ss_sl,
        "qs-sl": enum_qs_sl,
    }[args.predicate]
    items = fn(args.n, shape)
    if args.count:
        _emit({"count": len(items)})
        return 0
    for t in items:
        if args.format == "ascii":
            print(render(t))
            print()
        else:
            _emit(tableau_to_json(t))
    return 0


def cmd_phi(args) -> int:
    from .taquin_sp import phi

    t = _tableau(args, _read_input(args))
    record: list | None = [] if args.trace else None
    mu, q = phi(t, record)
    return _emit_result(args, {"shape": list(mu)}, q, record)


def cmd_psi(args) -> int:
    from .taquin_sp import psi

    t = _tableau(args, _read_input(args))
    lam = _parse_ints(args.target_shape)
    record: list | None = [] if args.trace else None
    return _emit_result(args, {}, psi(lam, t.shape, t, record), record)


def _emit_result(args, out: dict, result, record: list | None) -> int:
    """Print the tableau phi or psi returned, with the slide trace when recorded."""
    from .tableaux import render, tableau_to_json
    from .taquin_sp import trace_to_json

    if args.format == "ascii":
        print(render(result))
        return 0
    out["result"] = tableau_to_json(result)
    if record is not None:
        out["trace"] = trace_to_json(record)
    _emit(out)
    return 0


def cmd_sjdt(args) -> int:
    from .columns import _sets
    from .letters import _is_int, code
    from .tableaux import _json_letters
    from .taquin_sp import SpSkewColumn, SpSkewTableau, is_semistandard_skew_sp, shed, sjdt_to_rest
    from .taquin_sp import state_to_json, trace_to_json

    data = _read_input(args)
    if not isinstance(data, dict) or "columns" not in data:
        raise SptabError("sjdt expects a skew tableau object with columns and inner")
    n = data.get("n", args.n)
    if not _is_int(n):
        raise ParseError(f"unreadable rank {n!r}")
    _match_rank(args, n)
    columns = _json_letters(data["columns"])
    inner = data.get("inner", [0] * len(columns))
    if not isinstance(inner, list) or len(inner) != len(columns) or not all(_is_int(v) for v in inner):
        raise ParseError(f"sjdt inner must be a list of {len(columns)} integers, one per column")
    star = _parse_ints(args.star, "star")
    if len(star) != 2:
        raise SptabError(f"unreadable star {args.star!r}")
    row, col = star
    # the star sits on the bottom vacated cell of its column, at an inner corner
    if not 1 <= col <= len(columns):
        raise SptabError(f"star column {col} outside [1, {len(columns)}]")
    inn = inner[col - 1]
    if inn < 1:
        raise SptabError(f"star column {col} has no vacated cell (inner={inn})")
    if row != inn:
        raise SptabError(f"star row {row} must be the bottom vacated cell (inner={inn})")
    if col < len(inner) and inner[col] >= row:
        raise SptabError(f"star {row},{col} is not at an inner corner: cell {row},{col + 1} is vacated")
    cols = []
    for j, letters in enumerate(columns, start=1):
        # codes first, naming a letter above the rank by magnitude; they must be the column's: sorted, each once
        codes = tuple(code(l, n) for l in letters)
        A, D = _sets(n, codes)
        c = SpSkewColumn(n, row - 1, A, D, row) if j == col else SpSkewColumn(n, inner[j - 1], A, D)
        if codes != c.content.codes():
            raise SptabError(f"column {j}: letters must strictly increase in alphabet order")
        cols.append(c)
    state = SpSkewTableau(n, tuple(cols))
    # the slide keeps this and checks it after every move; the check reads
    # the double of every column, so an inadmissible one is refused here
    if not is_semistandard_skew_sp(state):
        raise SptabError("the skew tableau is not semi-standard away from the star")
    record: list = []
    rest, path = sjdt_to_rest(state, record)
    final = shed(rest)
    record.append(final)
    _emit(
        {
            "final": state_to_json(final, any(s.zero_present for s in record)),
            "path": [list(p) for p in path],
            "trace": trace_to_json(record),
        }
    )
    return 0


def _check_verify_rank(args) -> None:
    if args.n < 1:
        raise SptabError(f"rank must be positive, got {args.n}")


def _kernel_formula(n: int, k: int) -> int:
    """The dimension the contraction kernel of degree k must have: C(2n,k) - C(2n,k-2)."""
    return comb(2 * n, k) - comb(2 * n, k - 2)


def _verdict(report: dict, ok: bool) -> int:
    """Print a verification report with its status; exit 0 on pass, 2 on fail."""
    report["status"] = "pass" if ok else "fail"
    _emit(report)
    return 0 if ok else 2


def cmd_verify_bijection(args) -> int:
    _check_verify_rank(args)
    if args.max_boxes < 0:
        raise SptabError(f"--max-boxes must be non-negative, got {args.max_boxes}")
    if args.jobs < 1:
        raise SptabError(f"--jobs must be at least 1, got {args.jobs}")
    from .enumeration import shapes_up_to, verify_bijection, weyl_dim_sp
    from .tableaux import shape_to_multiplicities

    shapes = shapes_up_to(args.n, args.max_boxes)
    if args.jobs > 1:
        from multiprocessing import Pool

        # largest shapes first, one per task, so no worker is left with a
        # chunk of the big ones; reports go back in shapes_up_to order
        order = sorted(shapes, key=lambda s: -weyl_dim_sp(args.n, shape_to_multiplicities(s, args.n)))
        with Pool(min(args.jobs, len(shapes))) as pool:
            done = pool.starmap(verify_bijection, [(args.n, s) for s in order], chunksize=1)
        by_shape = dict(zip(order, done))
        reports = [by_shape[s] for s in shapes]
    else:
        reports = [verify_bijection(args.n, s) for s in shapes]
    ok = all(r["status"] == "pass" for r in reports)
    return _verdict({"n": args.n, "max_boxes": args.max_boxes, "reports": reports}, ok)


def cmd_verify_dims(args) -> int:
    _check_verify_rank(args)
    if min(args.max_k, args.n) < 2:  # no height from 2 to min(max_k, n) to check
        raise SptabError(f"--max-k and --n must be at least 2, got {args.max_k} and {args.n}")
    from .enumeration import _admissible_count
    from .plucker import kernel_dimension

    results = []
    for k in range(2, min(args.max_k, args.n) + 1):
        kernel = kernel_dimension(args.n, k)
        formula = _kernel_formula(args.n, k)
        adm = _admissible_count(args.n, k)
        results.append(
            {"k": k, "admissible": adm, "kernel": kernel, "formula": formula, "ok": adm == kernel == formula}
        )
    return _verdict({"n": args.n, "results": results}, all(r["ok"] for r in results))


def cmd_verify_plucker(args) -> int:
    _check_verify_rank(args)
    from .plucker import contraction_matrix, exact_rank

    rows = contraction_matrix(args.n, args.k)
    rank = exact_rank(rows)
    kernel = comb(2 * args.n, args.k) - rank
    expected = _kernel_formula(args.n, args.k)
    report = {
        "n": args.n,
        "k": args.k,
        "rows": len(rows),
        "cols": comb(2 * args.n, args.k),
        "rank": rank,
        "kernel": kernel,
        "expected_kernel": expected,
    }
    if args.dump_matrix:
        report["triplets"] = [[r, c, v] for r, row in enumerate(rows) for c, v in row.items()]
    return _verdict(report, kernel == expected)


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 1), not argparse's 2, a failed report."""

    def error(self, message: str):
        raise SptabError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sptab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, reads: bool = True, formats: bool = True):
        """--n, and --file and --format where the command reads them."""
        sp.add_argument("--n", type=int, required=True, help="rank")
        if reads:
            sp.add_argument("--file", help="read input from a file instead of stdin")
        if formats:
            sp.add_argument("--format", choices=("json", "ascii"), default="json")

    sp = sub.add_parser("double", help="double a symplectic tableau")
    common(sp)
    sp.set_defaults(fn=cmd_double)

    sp = sub.add_parser("check", help="evaluate a predicate on a tableau")
    common(sp, formats=False)
    sp.add_argument("--predicate", required=True, choices=("ss-sp", "qs-sp", "ss-sl", "qs-sl", "admissible"))
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("enum", help="enumerate tableaux of a shape")
    common(sp, reads=False)
    sp.add_argument("--shape", required=True, help="comma-separated column heights")
    sp.add_argument("--predicate", required=True, choices=("ss-sp", "qs-sp", "ss-sl", "qs-sl", "admissible"))
    sp.add_argument("--count", action="store_true", help="print the cardinality only")
    sp.set_defaults(fn=cmd_enum)

    sp = sub.add_parser("phi", help="reduce to a quasi-standard tableau")
    common(sp)
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(fn=cmd_phi)

    sp = sub.add_parser("psi", help="inverse reduction to a target shape")
    common(sp)
    sp.add_argument("--target-shape", required=True)
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(fn=cmd_psi)

    sp = sub.add_parser("sjdt", help="run one slide on a skew tableau")
    common(sp, formats=False)
    sp.add_argument("--star", required=True, help="ROW,COL of the pointed cell")
    sp.set_defaults(fn=cmd_sjdt)

    sp = sub.add_parser("verify", help="verification reports")
    vs = sp.add_subparsers(dest="what", required=True)
    v = vs.add_parser("bijection")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--max-boxes", type=int, required=True)
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(fn=cmd_verify_bijection)
    v = vs.add_parser("dims")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--max-k", type=int, required=True)
    v.set_defaults(fn=cmd_verify_dims)
    v = vs.add_parser("plucker")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--dump-matrix", action="store_true")
    v.set_defaults(fn=cmd_verify_plucker)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except TaquinInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except SptabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
