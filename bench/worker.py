"""One worker process: imports sptab, warms up, then runs a timed or a
traced share of a workload.

Reads a job as JSON on stdin and prints its result as JSON on stdout.  The
time at the end of the warm-up is taken on CLOCK_MONOTONIC, which every
process on the host shares, so the parent can measure set-up from the
moment it started this process.  The benchmark's own modules (reference
code, checks, tracer) are imported only after that point.

Library functions are looked up on the sptab package at each call, so that
a traced round goes through the tracer's wrappers.
"""

from __future__ import annotations

import json
import sys
import time


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# roundtrip


def _sp_codes(t) -> tuple[tuple[int, ...], ...]:
    """Codes of a symplectic tableau, read off the (A, D) data alone."""
    import reference

    return tuple(reference.join_codes(t.n, c.A, c.D) for c in t.columns)


class Roundtrip:
    def __init__(self, job: dict) -> None:
        import sptab

        self.sptab = sptab
        self.items = job["inputs"]
        self.tableaux = [
            sptab.Tableau.sp(it["n"], it["cols"]) if it["kind"] == "sp" else sptab.Tableau.sl(it["n"], it["cols"])
            for it in self.items
        ]
        self.round_size = len(self.items)

    def warm_up(self) -> None:
        # the first symplectic and the first plain-letter input, once each
        for kind in ("sp", "sl"):
            self.op(next(k for k, it in enumerate(self.items) if it["kind"] == kind))

    def op(self, k: int):
        it, t, s = self.items[k], self.tableaux[k], self.sptab
        if it["kind"] == "sp":
            mu, q = s.phi(t)
            return mu, q, s.psi(tuple(it["shape"]), mu, q)
        mu, q = s.reduce_sl(t)
        return mu, q, s.expand_sl(tuple(it["shape"]), mu, q)

    def check(self, k: int, res) -> tuple[str, str | None]:
        import workloads

        mu, q, back = res
        if self.items[k]["kind"] == "sp":
            q, back = _sp_codes(q), _sp_codes(back)
        else:
            q, back = tuple(q.columns), tuple(back.columns)
        bad = workloads.check_roundtrip(self.items[k], tuple(mu), q, back)
        return ("wrong", bad) if bad else ("ok", None)

    def phases(self) -> dict:
        """Untraced times of each half of every round trip."""
        s = self.sptab
        times: dict[str, list[float]] = {"phi": [], "psi": [], "reduce": [], "expand": []}
        for it, t in zip(self.items, self.tableaux):
            fwd, inv = (s.phi, s.psi) if it["kind"] == "sp" else (s.reduce_sl, s.expand_sl)
            t0 = time.perf_counter()
            mu, q = fwd(t)
            t1 = time.perf_counter()
            inv(tuple(it["shape"]), mu, q)
            t2 = time.perf_counter()
            names = ("phi", "psi") if it["kind"] == "sp" else ("reduce", "expand")
            times[names[0]].append((t1 - t0) * 1000)
            times[names[1]].append((t2 - t1) * 1000)
        return times


# ---------------------------------------------------------------------------
# verify


class Verify:
    def __init__(self, job: dict) -> None:
        import sptab

        self.sptab = sptab
        self.n = job["n"]
        self.shapes = [tuple(s) for s in job["inputs"]]
        self.round_size = 1  # one operation is a sweep over every shape

    def warm_up(self) -> None:
        for k in range(1, self.n + 1):
            self.sptab.enum_admissible_columns(self.n, k)
        self.sptab.verify_bijection(self.n, (1,))

    def op(self, k: int):
        return [self.sptab.verify_bijection(self.n, s) for s in self.shapes]

    def check(self, k: int, res: list[dict]) -> tuple[str, str | None]:
        import workloads

        for shape, report in zip(self.shapes, res):
            bad = workloads.check_verify(self.n, shape, report)
            if bad:
                return "wrong", bad
        return "ok", None


# ---------------------------------------------------------------------------
# cli, in process (traced runs only)


class InProcessCli:
    """Calls sptab.cli.main with the arguments and stdin of each script
    entry, capturing stdout and stderr as a subprocess would see them."""

    def __init__(self, job: dict) -> None:
        import sptab.cli

        self.cli = sptab.cli
        self.script = job["inputs"]
        self.round_size = len(self.script)
        self.phi_out: dict[int, str] = {}

    def warm_up(self) -> None:
        pass

    def op(self, k: int):
        import contextlib
        import io

        entry = self.script[k]
        stdin = entry["stdin"] if entry["stdin"] is not None else self.phi_out[entry["tid"]]
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(entry["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # an uncaught error is a traceback in a real run
                    err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
                    code = 1
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def check(self, k: int, res: tuple) -> tuple[str, str | None]:
        import workloads

        entry = self.script[k]
        if entry["op"] == "phi" and res[0] == 0:  # the next psi reads it
            self.phi_out[entry["tid"]] = workloads.phi_result(res[1])
        return workloads.judge_cli(entry, *res)


WORKLOADS = {"roundtrip": Roundtrip, "verify": Verify, "cli": InProcessCli}


def run_round(w, ops: list, log: dict) -> None:
    """One pass over the workload's operations, each timed alone; outputs
    are judged after the clock stops."""
    import workloads

    for k in range(w.round_size):
        t0 = time.perf_counter()
        try:
            res = w.op(k)
        except Exception as exc:
            ops.append((time.perf_counter() - t0) * 1000)
            workloads.record(log, "failed", f"{type(exc).__name__}: {exc}")
        else:
            ops.append((time.perf_counter() - t0) * 1000)
            workloads.record(log, *w.check(k, res))


def main() -> int:
    job = json.loads(sys.stdin.read())
    w = WORKLOADS[job["workload"]](job)
    w.warm_up()
    ready = monotonic()

    import workloads  # the checks, imported after set-up is stamped

    ops: list[float] = []
    log = workloads.new_log()
    out: dict = {"ready": ready, "log": log, "ops": ops}
    if job["mode"] == "time":
        run_round(w, ops, log)
    else:
        # The traced round runs first, so that it meets the caches a real
        # run meets.  For roundtrip an untraced round then times phi and psi
        # apart.
        import tracer

        tr = tracer.Tracer()
        tr.install()
        run_round(w, ops, log)
        tr.uninstall()
        if isinstance(w, Roundtrip):
            out["phases"] = w.phases()
            out["passes"] = tr.per_root("taquin_sp.phi", "taquin_sp.slide_pass_sp")
        out["trace"] = tr.summary()
        tr.write_spans(job["spans"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
