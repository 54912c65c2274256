"""Columns carry dense process-local ids, the keys of the hot memos, and
records keep CPython's fast attribute path: no module writes an instance's
`__dict__`."""

import ast
import copy
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

from sptab.columns import SymplecticColumn
from sptab.enumeration import enum_ss_sp
from sptab.tableaux import Tableau
from sptab.taquin_sl import SlSkewColumn
from sptab.taquin_sp import SpSkewColumn

F = frozenset
SRC = Path(__file__).resolve().parent.parent / "src" / "sptab"

# dict methods that change the dict
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__", "__ior__"}


def _is_instance_dict(node) -> bool:
    """`x.__dict__` or `vars(x)`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__dict__"
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars" and bool(node.args)


def dict_writes(source: str) -> list[int]:
    """The lines that write through an object's `__dict__` (or `vars()`)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            targets = [ast.Subscript(value=node.func.value)]
        else:
            continue
        if any(_is_instance_dict(t.value if isinstance(t, ast.Subscript) else t) for t in targets):
            lines.append(node.lineno)
    return lines


def test_the_guard_sees_every_form_of_dict_write():
    writes = [
        "t.__dict__.update(verdicts, n=n)",
        'self.__dict__["star"] = star',
        "obj.__dict__[name] = value",
        "del obj.__dict__[name]",
        "obj.__dict__ |= other",
        "vars(obj)[name] = value",
        "obj.__dict__.setdefault(name, value)",
    ]
    assert [dict_writes(w) for w in writes] == [[1]] * len(writes)
    assert dict_writes('"_fields" in cls.__dict__\nx = obj.__dict__.get(name)\nobject.__setattr__(o, "a", 1)') == []


def test_no_module_writes_an_instance_dict():
    # one such write takes the object off CPython 3.11's inline-values path,
    # and every later field read of it is several times slower
    found = {p.name: dict_writes(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_equal_columns_share_an_id_and_distinct_ones_do_not():
    a, b = SymplecticColumn(3, {1, 2}, {2}), SymplecticColumn(3, F({2, 1}), F({2}))
    assert a is not b and a._id == b._id and a == b
    assert SymplecticColumn(3, {1, 2}, {3})._id != a._id
    assert SymplecticColumn(4, {1, 2}, {2})._id != a._id
    skew = [SpSkewColumn(3, 0, F({1, 2}), F({2})), SpSkewColumn(3, 1, F({1, 2}), F({2})), SlSkewColumn(0, (1, 2))]
    assert len({c._id for c in skew} | {a._id}) == 4
    assert SpSkewColumn(3, 0, {1, 2}, {2})._id == skew[0]._id and skew[0].content._id == a._id
    # a copy is rebuilt through the constructor
    assert copy.copy(a) is not a and copy.copy(a)._id == a._id == copy.deepcopy(a)._id


def test_ids_are_unique_under_threads():
    # columns no other test builds (rank 9), built by four threads at once,
    # two in each order, switching as often as the interpreter allows
    fields = [(9, F({a, b}), F({c})) for a in range(1, 10) for b in range(a + 1, 10) for c in range(1, 10)]
    barrier, ids = threading.Barrier(4, timeout=30), {}

    def build(k):
        barrier.wait()
        order = fields if k % 2 else fields[::-1]
        ids[k] = dict(zip(order, (SymplecticColumn(*f)._id for f in order)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and len(ids) == 4
    assert ids[0] == ids[1] == ids[2] == ids[3]
    assert len(set(ids[0].values())) == len(fields)


LOADER = """
import pickle, sys
from sptab import tableaux
from sptab.columns import SymplecticColumn
from sptab.enumeration import enum_ss_sp
from sptab.taquin_sp import phi

# other columns first, then the shape's tableaux, each verdict in the memos
assert len(enum_ss_sp(3, (3, 3))) > 0
built = enum_ss_sp(3, (2, 1))
col, t = pickle.loads(bytes.fromhex(sys.stdin.read()))
sizes = len(tableaux._COLUMNS), len(tableaux._PAIRS)
twin = next(u for u in built if u == t)
fresh = SymplecticColumn(col.n, col.A, col.D)
print(
    col._id == fresh._id,
    tableaux._column(col) is tableaux._column(fresh),
    [c._id for c in t.columns] == [c._id for c in twin.columns],
    t._semistandard and t._nqs_rows == twin._nqs_rows,
    (len(tableaux._COLUMNS), len(tableaux._PAIRS)) == sizes,
    phi(t) == phi(twin),
)
"""


def test_pickled_columns_and_tableaux_take_the_ids_of_the_loading_process():
    t = enum_ss_sp(3, (2, 1))[7]
    col = t.columns[0]
    data = pickle.dumps((col, t))
    assert b"_id" not in data
    r = subprocess.run(
        [sys.executable, "-c", LOADER],
        input=data.hex(),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True"] * 6
    assert pickle.loads(data) == (col, t) and isinstance(pickle.loads(data)[1], Tableau)
