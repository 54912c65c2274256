"""Spans and counts around sptab's layers, recorded from outside the library.

install() wraps the public functions (the names in each module's __all__)
of the layer modules.  sptab's modules import those functions by name, so
every binding of a wrapped function anywhere in the package is replaced,
not only the one in the defining module.  Two constructors are counted
without a span; their time stays with the calling layer.

Every wrapped call records a span: name, start, end and the span that was
open when it began.  Spans live in flat arrays and are written out by
write_spans() when the run ends.  A layer's self time is the time of its
spans minus the time covered by their child spans.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("columns", "tableaux", "taquin_sp", "taquin_sl", "enumeration", "plucker", "cli")

# Functions whose inclusive time is reported; an inner call of the same
# group (enum_qs_sp calling enum_ss_sp) is not counted twice.
TIMED_GROUPS = {
    "taquin_sp.is_semistandard_skew_sp": "invariant_check",
    "enumeration.enum_ss_sp": "enum",
    "enumeration.enum_qs_sp": "enum",
    "enumeration.enum_ss_sl": "enum",
    "enumeration.enum_qs_sl": "enum",
    "enumeration.enum_admissible_columns": "admissible",
    "plucker.contraction_matrix": "contraction_matrix",
    "plucker.exact_rank": "exact_rank",
    "cli.main": "command",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.group_s = dict.fromkeys(set(TIMED_GROUPS.values()), 0.0)
        self.group_depth = dict.fromkeys(self.group_s, 0)
        self.events = dict.fromkeys(
            (
                "column_builds",
                "skew_state_builds",
                "steps_vertical",
                "steps_horizontal",
                "sl_slide_steps",
                "tableaux_enumerated",
                "qs_generated",
                "qs_kept",
                "matrix_cells",
            ),
            0,
        )
        self.command_s: list[float] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, stack, self_s = self.calls, self._stack, self.self_s
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end
        group = TIMED_GROUPS.get(name)
        hook = _HOOKS.get(name)
        tracer = self

        def enter():
            calls[nid] += 1
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            if group:
                tracer.group_depth[group] += 1
            t0 = perf_counter()
            s_start.append(t0)
            return frame, t0

        def leave(frame, t0):
            t1 = perf_counter()
            stack.pop()
            s_end[frame[0]] = t1
            dur = t1 - t0
            self_s[layer] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if group:
                tracer.group_depth[group] -= 1
                if not tracer.group_depth[group]:
                    tracer.group_s[group] += dur
                    if group == "command":
                        tracer.command_s.append(dur)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the work lands where it is done
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame, t0 = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, t0)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                frame, t0 = enter()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    leave(frame, t0)
                if hook:
                    hook(tracer, args, res)
                return res

        return wrapper

    def install(self) -> None:
        import sptab

        package = [sptab] + [
            importlib.import_module(f"sptab.{m}") for m in LAYERS + ("letters", "errors")
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"sptab.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(inspect.unwrap(fn)) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(fn, layer, f"{layer}.{attr}")
                for m in package:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, key, wrapper)
        self._count_builds(sptab.columns.SymplecticColumn, "column_builds")
        self._count_builds(sptab.taquin_sp.SpSkewTableau, "skew_state_builds")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count_builds(self, cls, event: str) -> None:
        init = cls.__post_init__
        events = self.events

        def counted(obj):
            events[event] += 1
            init(obj)

        self._set(cls, "__post_init__", counted)

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_ms": {layer: s * 1000 for layer, s in self.self_s.items()},
            "group_ms": {g: s * 1000 for g, s in self.group_s.items()},
            "calls": {nm: c for nm, c in zip(self.names, self.calls) if c},
            "events": dict(self.events),
            "command_ms": [s * 1000 for s in self.command_s],
            "spans": len(self.span_start),
        }

    def per_root(self, root: str, child: str) -> list[int]:
        """For each outermost span named root, the number of spans named
        child beneath it."""
        r, c = self.names.index(root), self.names.index(child)
        names, parents = self.span_name, self.span_parent
        counts = {k: 0 for k, nid in enumerate(names) if nid == r and parents[k] == -1}
        for k, nid in enumerate(names):
            if nid == c:
                while parents[k] != -1:
                    k = parents[k]
                if k in counts:
                    counts[k] += 1
        return list(counts.values())

    def write_spans(self, path: str) -> None:
        """Names as JSON, then the four span arrays as raw machine values."""
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "layout": ["name:i", "parent:i", "start:d", "end:d"]}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _sjdt_step(tracer: Tracer, args, res) -> None:
    """Classify a symplectic slide step by the star before and after it."""
    if res is not None:
        before, after = args[0].star, res.star
        kind = "steps_vertical" if after[1] == before[1] else "steps_horizontal"
        tracer.events[kind] += 1


def _jdt_step(tracer: Tracer, args, res) -> None:
    if res is not None:
        tracer.events["sl_slide_steps"] += 1


def _enum_ss_sp(tracer: Tracer, args, res) -> None:
    tracer.events["tableaux_enumerated"] += len(res)
    if tracer.group_depth["enum"]:  # inside enum_qs_sp
        tracer.events["qs_generated"] += len(res)


def _enum_qs_sp(tracer: Tracer, args, res) -> None:
    tracer.events["qs_kept"] += len(res)


def _contraction_matrix(tracer: Tracer, args, res) -> None:
    tracer.events["matrix_cells"] += len(res) * (len(res[0]) if res else 0)


_HOOKS = {
    "taquin_sp.sjdt_step": _sjdt_step,
    "taquin_sl.jdt_step": _jdt_step,
    "enumeration.enum_ss_sp": _enum_ss_sp,
    "enumeration.enum_qs_sp": _enum_qs_sp,
    "plucker.contraction_matrix": _contraction_matrix,
}
