"""Shapes, tableaux, the tableau-level double, and the standardness predicates.

A shape is the weakly decreasing tuple of column heights.  Two partial orders
on shapes matter here, and they differ:

* diagram containment (column heights dominate pairwise) -- the geometric
  order used to lay out skew regions;
* the weight order (every column of mu occurs among lambda's columns, with
  multiplicity) -- the stratification order the reduction bijection ranges
  over.

Grids are tuples of columns, each column a top-down tuple of letter codes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .columns import SymplecticColumn, dble, is_admissible
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
    "is_quasistandard_grid",
    "is_quasistandard_sl",
    "is_quasistandard_sp",
    "is_semistandard_grid",
    "is_semistandard_sl",
    "is_semistandard_sp",
    "multiplicities_to_shape",
    "nqs_grid",
    "nqs_rows",
    "nqs_with_height",
    "parse",
    "render",
    "render_grid",
    "row_inequality_holds",
    "shape_contains",
    "shape_to_multiplicities",
    "skew_cells",
    "tableau_from_json",
    "tableau_to_json",
    "weight_leq",
    "weight_subshapes",
]

Grid = tuple[tuple[int, ...], ...]


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

    def rec(k: int) -> Iterator[tuple[int, ...]]:
        if k == len(am):
            yield ()
            return
        for b in range(am[k] + 1):
            for rest in rec(k + 1):
                yield (b,) + rest

    for bm in rec(0):
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


@dataclass(frozen=True)
class Tableau:
    """A straight-shape tableau: plain letter columns (sl) or symplectic columns (sp).

    Construction validates the shape and letter ranges only; semistandardness
    and admissibility are predicates, so that failing fillings can be
    represented and rejected by them.
    """

    n: int
    kind: str
    columns: tuple

    def __post_init__(self) -> None:
        if self.n < 1:
            raise TableauError(f"rank must be positive, got {self.n}")
        if self.kind not in ("sl", "sp"):
            raise TableauError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "columns", tuple(self.columns))
        try:
            check_shape(self.heights, self.hmax)
        except ShapeError as exc:
            raise TableauError(str(exc)) from exc
        if self.kind == "sl":
            for j, col in enumerate(self.columns):
                if any(not 1 <= t <= self.n for t in col):
                    raise TableauError(f"column {j + 1} has entries outside [1, {self.n}]")
        else:
            for j, col in enumerate(self.columns):
                if not isinstance(col, SymplecticColumn) or col.n != self.n:
                    raise TableauError(f"column {j + 1} is not a rank-{self.n} symplectic column")
                if not col.is_standard():
                    raise TableauError(f"column {j + 1} contains the extended letter 0")

    @staticmethod
    def sl(n: int, columns) -> "Tableau":
        return Tableau(n, "sl", tuple(tuple(c) for c in columns))

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
                if not prev < cd <= 2 * n:
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

    @property
    def heights(self) -> tuple[int, ...]:
        if self.kind == "sl":
            return tuple(len(c) for c in self.columns)
        return tuple(c.height for c in self.columns)

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


def dble_tableau(t: Tableau) -> Grid:
    """Juxtapose the doubles of the columns; fails on an inadmissible column."""
    if t.kind != "sp":
        raise TableauError("only symplectic tableaux have a double")
    out: list[tuple[int, ...]] = []
    for col in t.columns:
        d = dble(col)
        out += (d.left, d.right)
    return tuple(out)


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


def is_semistandard_grid(grid: Grid) -> bool:
    """Rows weakly increase left to right, columns strictly increase top-down."""
    return first_grid_violation(grid) is None


def nqs_grid(grid: Grid, s: int) -> bool:
    """Non-quasi-standardness of a grid at row s.

    Requires the top s cells of column 1 to be the s smallest letters, some
    column of height exactly s, and the strict cross inequalities
    t[s][j+1] < t[s+1][j] wherever both entries exist.
    """
    if s < 1 or not grid:
        return False
    col1 = grid[0]
    if len(col1) < s or any(col1[i] != i + 1 for i in range(s)):
        return False
    if all(len(c) != s for c in grid):
        return False
    return row_inequality_holds(grid, s)


def row_inequality_holds(grid: Grid, s: int) -> bool:
    """The cross inequalities t[s][j+1] < t[s+1][j] alone (rows 1-based)."""
    for j in range(len(grid) - 1):
        below = grid[j]
        right = grid[j + 1]
        if len(right) >= s and len(below) >= s + 1 and right[s - 1] >= below[s]:
            return False
    return True


def nqs_rows(grid: Grid) -> tuple[int, ...]:
    if not grid:
        return ()
    return tuple(s for s in range(1, len(grid[0]) + 1) if nqs_grid(grid, s))


def is_quasistandard_grid(grid: Grid) -> bool:
    return not nqs_rows(grid)


# ---------------------------------------------------------------------------
# tableau-level predicates


def is_semistandard_sl(t: Tableau) -> bool:
    if t.kind != "sl":
        raise TableauError("expects a plain-letter tableau")
    return is_semistandard_grid(t.grid())


def is_quasistandard_sl(t: Tableau) -> bool:
    """No row witnesses non-quasi-standardness of the visible letters."""
    return is_quasistandard_grid(t.grid())


def _admissible_double(t: Tableau) -> Grid | None:
    """The double of a symplectic tableau; None when a column is inadmissible."""
    if t.kind != "sp":
        raise TableauError("expects a symplectic tableau")
    return dble_tableau(t) if all(is_admissible(c) for c in t.columns) else None


def is_semistandard_sp(t: Tableau) -> bool:
    grid = _admissible_double(t)
    return grid is not None and is_semistandard_grid(grid)


def is_quasistandard_sp(t: Tableau) -> bool:
    return is_quasistandard_grid(dble_tableau(t))


def nqs_with_height(t: Tableau, s: int) -> bool:
    """Pushable at s in the weak sense: a height-s column plus the cross
    inequalities on the double, without the trivial-top requirement."""
    if all(h != s for h in t.heights):
        return False
    return row_inequality_holds(dble_tableau(t), s)


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
    ncols = max((len(r) for r in rows), default=0)
    columns = []
    for j in range(ncols):
        columns.append([row[j] for row in rows if len(row) > j])
    for j in range(1, ncols):
        if len(columns[j]) > len(columns[j - 1]):
            raise ParseError(f"column {j + 1} is taller than column {j}")
    for i, row in enumerate(rows):
        if len(row) > len(rows[0]):
            raise ParseError(f"row {i + 1} is longer than row 1")
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
    if kind not in ("sl", "sp"):
        raise ParseError(f"unknown kind {kind!r}")
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
