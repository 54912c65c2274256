"""Shapes, tableaux, the tableau-level double, and the standardness predicates.

A shape is the weakly decreasing tuple of column heights.  Two partial orders
on shapes matter here, and they differ:

* diagram containment (column heights dominate pairwise) -- the geometric
  order used to lay out skew regions;
* the weight order (every column of mu occurs among lambda's columns, with
  multiplicity) -- the stratification order the reduction bijection ranges
  over.

Grids are tuples of columns, each column a top-down tuple of letter codes.

Each rule about a straight tableau is here once, for every layer to read.
Both verdicts are facts about columns (`_column`: sound, trivial top, the
rows its double kills) and neighbouring pairs (`_pair`: compatible, the rows
the cross inequality kills), each memoised once per process, a kill set a
bitmask found by one rule (`_kills`).  The memos key a symplectic column by
its id and a plain one by its tuple of letters, so no lookup runs Python
code to hash or compare.  A tableau is semi-standard when every
column is sound and every pair compatible; its non-quasi-standard rows are
the heights up to its first column's trivial top that no column or pair
kills, a fold that stops once no row is left, as `nqs_rows` on a grid.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import product
from operator import attrgetter

from ._record import Record, _set
from .columns import SymplecticColumn, _double as _column_double, dble
from .errors import ParseError, ShapeError, TableauError
from .letters import (
    Letter,
    _is_int,
    code as letter_code,
    format_letter,
    from_code,
    letter_from_json,
    letter_to_json,
    parse_letter,
)

__all__ = [
    "Grid",
    "Tableau",
    "dble_tableau",
    "dumps",
    "first_grid_violation",
    "is_quasistandard_sl",
    "is_quasistandard_sp",
    "is_semistandard_sp",
    "multiplicities_to_shape",
    "nqs_grid",
    "nqs_rows",
    "nqs_with_height",
    "parse",
    "render",
    "render_grid",
    "shape_contains",
    "shape_to_multiplicities",
    "skew_cells",
    "tableau_from_json",
    "tableau_to_json",
    "weight_leq",
    "weight_subshapes",
]

Grid = tuple[tuple[int, ...], ...]

_height = attrgetter("height")


# ---------------------------------------------------------------------------
# shapes


def check_shape(heights: tuple[int, ...], hmax: int | None = None) -> None:
    for a, b in zip(heights, heights[1:]):
        if b > a:
            raise ShapeError(f"heights {heights} are not weakly decreasing")
    if heights and heights[-1] < 1:
        raise ShapeError(f"heights {heights} contain a non-positive entry")
    if hmax is not None and heights and heights[0] > hmax:
        raise ShapeError(f"height {heights[0]} exceeds the maximum {hmax}")


def check_rank(n: int) -> None:
    if n < 1:
        raise TableauError(f"rank must be positive, got {n}")


# the alphabet of each kind of tableau
_ALPHABET = {"sl": "plain-letter", "sp": "symplectic"}


def _known_kind(kind: str, error: type[Exception] = TableauError) -> None:
    if kind not in ("sl", "sp"):
        raise error(f"unknown kind {kind!r}")


def check_kind(t: Tableau, kind: str) -> None:
    """The tableau is of the alphabet `kind`: "sp" symplectic, "sl" plain letters."""
    if t.kind != kind:
        raise TableauError(f"expects a {_ALPHABET[kind]} tableau")


def shape_to_multiplicities(heights: tuple[int, ...], hmax: int) -> tuple[int, ...]:
    """(a_1, ..., a_hmax) with a_k the number of height-k columns."""
    check_shape(heights, hmax)
    mult = [0] * hmax
    for h in heights:
        mult[h - 1] += 1
    return tuple(mult)


def multiplicities_to_shape(mult) -> tuple[int, ...]:
    heights: list[int] = []
    for k in range(len(mult), 0, -1):
        heights.extend([k] * mult[k - 1])
    return tuple(heights)


def shape_contains(mu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """Diagram containment: mu fits inside lambda column by column."""
    check_shape(mu)
    check_shape(lam)
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def weight_leq(mu: tuple[int, ...], lam: tuple[int, ...], hmax: int) -> bool:
    """Weight order: columns of mu are a sub-multiset of lambda's columns."""
    bm = shape_to_multiplicities(mu, hmax)
    am = shape_to_multiplicities(lam, hmax)
    return all(b <= a for b, a in zip(bm, am))


def weight_subshapes(lam: tuple[int, ...], hmax: int) -> Iterator[tuple[int, ...]]:
    """All shapes below lambda in the weight order."""
    am = shape_to_multiplicities(lam, hmax)
    for bm in product(*(range(a + 1) for a in am)):
        yield multiplicities_to_shape(bm)


def row_lengths(heights: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate of the height sequence."""
    if not heights:
        return ()
    return tuple(sum(1 for h in heights if h >= i) for i in range(1, heights[0] + 1))


def skew_cells(lam: tuple[int, ...], mu: tuple[int, ...]) -> list[tuple[int, int]]:
    """Cells of lambda \\ mu as (row, column), 1-based, in reading order."""
    if not shape_contains(mu, lam):
        raise ShapeError(f"{mu} is not contained in {lam}")
    lam_rows = row_lengths(lam)
    mu_rows = row_lengths(mu)
    cells = []
    for i, lam_len in enumerate(lam_rows, start=1):
        mu_len = mu_rows[i - 1] if i <= len(mu_rows) else 0
        cells.extend((i, j) for j in range(mu_len + 1, lam_len + 1))
    return cells


# ---------------------------------------------------------------------------
# tableaux


class _memo:
    """`functools.cached_property` without the lock it takes on every first
    read before Python 3.12: the value, stored by `object.__setattr__` (so
    the instance keeps CPython's fast attribute path), shadows it."""

    def __init__(self, fn) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.fn(obj)
        _set(obj, self.name, value)
        return value


class Tableau(Record):
    """A straight-shape tableau: plain letter columns (sl) or symplectic columns (sp).

    Construction validates the shape and letter ranges only; semistandardness
    and admissibility are predicates, so that failing fillings can be
    represented and rejected by them.  A tableau keeps its heights, its
    semi-standard verdict and its non-quasi-standard rows, each worked out
    at its first read.

    `enumeration._enum` and `taquin_sl._straight` build by `_trusted`, with
    no check, as their parts passed them: the first joins sound rank-n
    columns in a checked rank and shape and records both verdicts, the
    second strips a tableau from a checked frame after trapping vacated,
    star and zero cells.
    """

    _fields = ("n", "kind", "columns")

    def __post_init__(self) -> None:
        n, kind, cols = self.n, self.kind, tuple(self.columns)
        check_rank(n)
        _known_kind(kind)
        # each column's type first, as the heights read it
        for j, col in enumerate(cols):
            if not isinstance(col, (tuple, list) if kind == "sl" else SymplecticColumn):
                raise TableauError(f"column {j + 1} is not a rank-{n} {_ALPHABET[kind]} column")
        # plain columns are tuples, so a verdict can be memoised per pair
        cols = tuple(map(tuple, cols)) if kind == "sl" else cols
        object.__setattr__(self, "columns", cols)
        try:
            check_shape(self.heights, self.hmax)
        except ShapeError as exc:
            raise TableauError(str(exc)) from exc
        if kind == "sl":
            for j, col in enumerate(cols):
                if any(type(t) is not int or not 1 <= t <= n for t in col):
                    raise TableauError(f"column {j + 1} has entries outside [1, {n}]")
        else:
            for j, col in enumerate(cols):
                if col.n != n:
                    raise TableauError(f"column {j + 1} is not a rank-{n} symplectic column")
                if not col.is_standard():
                    raise TableauError(f"column {j + 1} contains the extended letter 0")

    @classmethod
    def _trusted(cls, n: int, kind: str, columns: tuple, **verdicts) -> "Tableau":
        """Built from parts that passed every check, plain columns as tuples;
        `verdicts` are memoised properties already known."""
        t = object.__new__(cls)
        _set(t, "n", n)
        _set(t, "kind", kind)
        _set(t, "columns", columns)
        for name, value in verdicts.items():
            _set(t, name, value)
        return t

    @staticmethod
    def sl(n: int, columns) -> "Tableau":
        return Tableau(n, "sl", columns)

    @staticmethod
    def sp(n: int, columns) -> "Tableau":
        """Build from SymplecticColumn objects or top-down letter-code tuples."""
        cols = []
        for j, c in enumerate(columns):
            if isinstance(c, SymplecticColumn):
                cols.append(c)
                continue
            A, D = set(), set()
            prev = 0
            for cd in c:
                if type(cd) is not int or not prev < cd <= 2 * n:
                    raise TableauError(
                        f"column {j + 1}: codes must be strictly increasing within [1, {2 * n}]"
                    )
                prev = cd
                if cd <= n:
                    A.add(cd)
                else:
                    D.add(2 * n + 1 - cd)
            cols.append(SymplecticColumn(n, frozenset(A), frozenset(D)))
        return Tableau(n, "sp", tuple(cols))

    @_memo
    def heights(self) -> tuple[int, ...]:
        return tuple(map(len if self.kind == "sl" else _height, self.columns))

    @property
    def hmax(self) -> int:
        """The tallest column allowed: n-1 for plain letters, n for symplectic."""
        return self.n - 1 if self.kind == "sl" else self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return self.heights

    def form(self) -> tuple[int, ...]:
        return shape_to_multiplicities(self.heights, self.hmax)

    def grid(self) -> Grid:
        """Letter codes column by column (for sp, the visible letters)."""
        if self.kind == "sl":
            return self.columns
        return tuple(c.codes() for c in self.columns)

    def __str__(self) -> str:
        return render(self)

    @_memo
    def _semistandard(self) -> bool:
        """Every column is sound and every pair of neighbours compatible.  A
        plain column is sound when its letters strictly increase; a
        symplectic one when it is admissible, since the double of an
        admissible column is semi-standard on its own."""
        cols = self.columns
        return all(_column(c)[0] for c in cols) and all(_pair(a, b)[0] for a, b in zip(cols, cols[1:]))

    @_memo
    def _nqs_rows(self) -> tuple[int, ...]:
        """The non-quasi-standard rows of the double, or of the letters."""
        top = _column(self.columns[0])[1] if self.columns else 0
        return _rows(self._unkilled(sum({1 << h for h in self.heights if h <= top})))

    def _unkilled(self, rows: int) -> int:
        """Those of `rows` (bit s for row s) that no column or pair kills; the
        first inadmissible column raises, the pairs stop when none is left."""
        cols = self.columns
        for c in cols:
            sound, _, kills = _column(c)
            if not sound and self.kind == "sp":
                dble(c)  # raises
            rows &= ~kills
        for a, b in zip(cols, cols[1:]):
            if not rows:
                break
            rows &= ~_pair(a, b)[1]
        return rows


# the facts of each column, and of each pair of neighbouring columns: a
# symplectic column keyed by its id, a plain one by its letters
_COLUMNS: dict = {}
_PAIRS: dict = {}


def _column(c) -> tuple[bool, int, int]:
    """(sound, length of the trivial top, rows killed inside its double) of a
    letter column (killing none) or a symplectic one; (False, 0, 0) if inadmissible."""
    plain = type(c) is tuple
    facts = _COLUMNS.get(c if plain else c._id)
    if facts is None:
        if plain:
            facts = _COLUMNS[c] = (all(a < b for a, b in zip(c, c[1:])), _top(c), 0)
        else:
            d = _column_double(c.n, c.A, c.D)
            facts = (False, 0, 0) if d is None else (True, _top(d.left), _kills(d.left, d.right))
            _COLUMNS[c._id] = facts
    return facts


def _pair(a, b) -> tuple[bool, int]:
    """Whether the right half of column a's grid (its letters, or its double's
    right column) is at most b's left half row by row, and the rows the cross
    inequality between those halves kills; a symplectic column is admissible."""
    plain = type(a) is tuple
    key = (a, b) if plain else (a._id, b._id)
    facts = _PAIRS.get(key)
    if facts is None:
        right = a if plain else _column_double(a.n, a.A, a.D).right
        left = b if plain else _column_double(b.n, b.A, b.D).left
        facts = _PAIRS[key] = (all(x <= y for x, y in zip(right, left)), _kills(right, left))
    return facts


def _kills(left: Sequence[int], right: Sequence[int]) -> int:
    """The rows s (as bits, 1-based) at which the cross inequality right[s] <
    left[s+1] between neighbouring grid columns fails, where both exist."""
    kills = 0
    for s in range(1, min(len(left) - 1, len(right)) + 1):
        if not right[s - 1] < left[s]:
            kills |= 1 << s
    return kills


def _top(col: Sequence[int]) -> int:
    """How many of the letters 1, 2, ... head the column."""
    top = 0
    while top < len(col) and col[top] == top + 1:
        top += 1
    return top


@lru_cache(maxsize=None)
def _rows(mask: int) -> tuple[int, ...]:
    """The rows of a bitmask, ascending."""
    return tuple(s for s in range(mask.bit_length()) if mask >> s & 1)


def dble_tableau(t: Tableau) -> Grid:
    """Juxtapose the doubles of the columns; fails on an inadmissible column."""
    if t.kind != "sp":
        raise TableauError("only symplectic tableaux have a double")
    return tuple(half for d in map(dble, t.columns) for half in (d.left, d.right))


# ---------------------------------------------------------------------------
# grid predicates


def first_grid_violation(grid: Sequence[Sequence[int | None]]) -> tuple[str, int, int] | None:
    """First semistandardness violation as (kind, row, col), 1-based; None if clean.

    A None cell (vacated or star, in a skew grid) is skipped: only pairs of
    filled neighbours are compared.
    """
    for j in range(1, len(grid)):
        if len(grid[j]) > len(grid[j - 1]):
            return ("shape", 1, j + 1)
    for j, col in enumerate(grid):
        for i in range(1, len(col)):
            if col[i] is not None and col[i - 1] is not None and col[i] <= col[i - 1]:
                return ("column", i + 1, j + 1)
    for j in range(1, len(grid)):
        left, right = grid[j - 1], grid[j]
        for i in range(len(right)):
            if left[i] is not None and right[i] is not None and left[i] > right[i]:
                return ("row", i + 1, j + 1)
    return None


def nqs_grid(grid: Grid, s: int) -> bool:
    """Non-quasi-standardness of a grid at row s (see `nqs_rows`)."""
    return s in nqs_rows(grid)


def nqs_rows(grid: Grid) -> tuple[int, ...]:
    """The rows s, ascending, at which the grid is not quasi-standard, in one
    pass: the top s cells of column 1 are the s smallest letters, some
    column has height exactly s, and the cross inequalities hold at s."""
    if not grid:
        return ()
    top = _top(grid[0])
    rows = sum({1 << h for h in map(len, grid) if 0 < h <= top})
    for left, right in zip(grid, grid[1:]):
        if not rows:
            break
        rows &= ~_kills(left, right)
    return _rows(rows)


# ---------------------------------------------------------------------------
# tableau-level predicates


def is_quasistandard_sl(t: Tableau) -> bool:
    """No row witnesses non-quasi-standardness of the visible letters."""
    return not (t._nqs_rows if t.kind == "sl" else nqs_rows(t.grid()))


def is_semistandard_sp(t: Tableau) -> bool:
    check_kind(t, "sp")
    return t._semistandard


def is_quasistandard_sp(t: Tableau) -> bool:
    check_kind(t, "sp")
    return not t._nqs_rows


def nqs_with_height(t: Tableau, s: int) -> bool:
    """Pushable at s in the weak sense: a height-s column plus the cross
    inequalities on the double, without the trivial-top requirement."""
    check_kind(t, "sp")
    return s in t.heights and bool(t._unkilled(1 << s))


# ---------------------------------------------------------------------------
# text and JSON forms

CELL_WIDTH = 3


def render_grid(grid: Grid, n: int) -> str:
    """Row-wise ASCII for a grid of rank-n letter codes, 3-character fields."""
    if not grid:
        return ""
    lines = []
    for i in range(len(grid[0])):
        cells = [format_letter(from_code(c[i], n)) for c in grid if len(c) > i]
        lines.append("".join(f"{s:<{CELL_WIDTH}}" for s in cells).rstrip())
    return "\n".join(lines)


def render(t: Tableau) -> str:
    """Row-wise ASCII, one cell per 3-character field."""
    return render_grid(t.grid(), t.n)


def parse(text: str, n: int, kind: str) -> Tableau:
    """Invert render: fixed-width cells, rows top-down."""
    _known_kind(kind, ParseError)
    rows: list[list[Letter]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        cells = [line[k : k + CELL_WIDTH].strip() for k in range(0, len(line), CELL_WIDTH)]
        try:
            rows.append([parse_letter(c) for c in cells if c])
        except Exception as exc:
            raise ParseError(f"unreadable row {line!r}: {exc}") from exc
    return _from_rows(rows, n, kind)


def _from_rows(rows: list[list[Letter]], n: int, kind: str) -> Tableau:
    """The tableau with these rows, top-down; their lengths weakly decrease,
    so column j holds one cell of each row longer than j."""
    for i in range(1, len(rows)):
        if len(rows[i]) > len(rows[i - 1]):
            raise ParseError(f"row {i + 1} is longer than row {i}")
    columns = [[row[j] for row in rows if len(row) > j] for j in range(len(rows[0]) if rows else 0)]
    return _from_letters(columns, n, kind)


def _from_letters(columns: list[list[Letter]], n: int, kind: str) -> Tableau:
    """The tableau with these letter columns; a malformed one is a ParseError."""
    try:
        if kind == "sl":
            for j, col in enumerate(columns):
                if any(l.barred for l in col):
                    raise ParseError(f"column {j + 1}: barred letter in a plain-letter tableau")
            return Tableau.sl(n, tuple(tuple(l.magnitude for l in col) for col in columns))
        return Tableau.sp(n, tuple(tuple(letter_code(l, n) for l in col) for col in columns))
    except (TableauError, ShapeError) as exc:
        raise ParseError(str(exc)) from exc


def tableau_to_json(t: Tableau) -> dict:
    cols = []
    for codes in t.grid():
        cols.append([letter_to_json(from_code(c, t.n)) for c in codes])
    return {"n": t.n, "kind": t.kind, "columns": cols}


def tableau_from_json(data: object) -> Tableau:
    if not isinstance(data, dict):
        raise ParseError("tableau JSON must be an object")
    try:
        n = data["n"]
        kind = data["kind"]
        raw_cols = data["columns"]
    except KeyError as exc:
        raise ParseError(f"tableau JSON missing fields: {exc}") from exc
    if not _is_int(n):
        raise ParseError(f"tableau rank must be an integer, got {n!r}")
    _known_kind(kind, ParseError)
    if not isinstance(raw_cols, list) or not all(isinstance(raw, list) for raw in raw_cols):
        raise ParseError("tableau JSON columns must be a list of lists")
    cols = []
    for j, raw in enumerate(raw_cols):
        try:
            cols.append([letter_from_json(v) for v in raw])
        except Exception as exc:
            raise ParseError(f"column {j + 1}: {exc}") from exc
    return _from_letters(cols, n, kind)


def dumps(obj: object) -> str:
    """Deterministic JSON text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
