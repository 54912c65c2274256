"""Jeu de taquin on pointed skew tableaux, written once for both alphabets,
and its classical (Schuetzenberger) instance: the slide, the 180-degree
reversal conjugating it to its inverse, and the reduction of a semi-standard
tableau to a quasi-standard one.

A pointed skew tableau keeps the star as an actual cell: forward slides
start with the star at an inner corner of the vacated region and end with
it resting at an outer corner; shedding then removes the cell.  Columns may
have height 0 after a shed -- the bounding rectangle of an inverse slide
must survive until the final reversal.

The engine -- skew states, the slide step, shedding, the reversal, the
reduction pass and the star-filling inverse -- only sees a column model.
A model lays its filled cells out as one or two top-down code sequences
(`grid`): the slide compares the right letter of the cell below the star
with the left letter of the cell to its right, and the semi-standardness
check reads those sequences as columns.  The model also supplies the
horizontal move (`pull`) and the letter reversal (`_reversed`).  The
classical model SlSkewColumn is one plain letter column, moved by a swap
and reversed by t -> n+1-t; the symplectic model SpSkewColumn (taquin_sp)
is a column double, moved by surgery and reversed by swapping A and D.

A slide step reads and changes only the column j the star leaves and
column j+1.  A vertical move reframes column j around the same letters; a
horizontal move puts in the two columns the model's move returns.  Columns
come from one intern table keyed by the model's letters and the frame
(inner, star_row), so each distinct column is built, checked and hashed
once per process.  A column stores its size, height and whether it holds
the letter 0 when built, and gets an id, the same for every equal column
(`_record.Identified`); it lays out its grid by row (`placed`) at first
read; its 180-degree turn in a rectangle is interned like any column, and
the trivial columns are memoised by their frame.  The tables below
key columns by their ids, so no lookup runs Python code to hash or
compare.  The step table `_MOVES` holds the new columns of each move by its
pair (column j, column j+1), so a move is worked out once per distinct
pair; a move that raises is not stored.  The public constructor is the
one place that checks a frame (outer and inner heights weakly decreasing,
at most one star, and in the symplectic model one rank); the engine builds
its own states unchecked (`_unchecked`), each in a frame known valid.  No
move changes the frame (a worked-out move is a trap if its columns'
heights, inner heights or star rows differ from what it implies), a pass
and the inverse start from trivial columns around a checked tableau's, and
a rotation turns a valid frame into a valid one.  When a slide is checked,
the state after its first move is checked whole and each later state only
on columns j-1 .. j+2, which decides the whole check because every other
column and pair is as in the state before.  A check is the verdicts,
memoised in `_PAIRS`, of one grid pass (`first_grid_violation`) over the
placed halves of each pair of neighbours in its range.

The reduction pass and the inverse are made of one star step
(`_slide_star`): a star put at an inner corner slides along its row to rest
and is shed; a star off an inner corner, one that leaves its row and a
letter 0 that appears are traps.  A pass takes one step from row s of a
trivial column put before the tableau; the inverse, planned once per
(lambda, mu, hmax) (`_plan`: the shape checks, the trivial columns it
prepends, the star cells in the turned frame), takes one per star from the
straight state, rotated.  Both strip their lead columns in `_straight`, the
one home of the rule that each ends trivial.  One pass loop (`_passes`)
serves reduce_sl and phi and checks its input semi-standard.  The alphabet
check (`check_kind`), the rows a pass may push and the inverse's
precondition are read from tableaux, which owns those rules (`_nqs_rows`,
`_semistandard`).
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Identified, Record, _set
from .errors import ShapeError, TableauError, TaquinInvariantError
from .letters import sigma_letter_sl
from .tableaux import Tableau, _memo, check_kind, first_grid_violation, skew_cells, weight_leq

__all__ = [
    "SlSkewColumn",
    "SlSkewTableau",
    "expand_sl",
    "jdt_step",
    "jdt_to_rest",
    "reduce_sl",
    "shed",
    "sigma_sl",
    "slide_pass_sl",
]


# ---------------------------------------------------------------------------
# the engine: skew columns and skew states


# engine columns by their fields (letters, inner, star_row); a miss runs every check
_COLUMNS: dict = {}
# the step table: by the ids of (column j, column j+1, None if none), the
# columns a move of the star in column j puts in their place, () when it
# rests; by the ids of a pair, its verdict
_MOVES: dict = {}
_PAIRS: dict = {}


def _interned(cls, *fields):
    return _COLUMNS.get(fields) or _COLUMNS.setdefault(fields, cls(*fields))


class _SkewColumn(Identified):
    """`inner` vacated cells on top, then the `size` filled cells in row
    order with the star cell (at `star_row`, if any) among them.  The size,
    the height and the id are stored when the frame is checked."""

    has_zero = False

    def _check_frame(self, size: int) -> None:
        if self.inner < 0:
            raise TableauError("negative inner height")
        height = self.inner + size + (self.star_row is not None)
        if self.star_row is not None and not self.inner < self.star_row <= height:
            raise TableauError(f"star row {self.star_row} outside ({self.inner}, {height}]")
        _set(self, "size", size)
        _set(self, "height", height)
        self._identify(self._key(self))

    def rows(self, codes: tuple[int, ...]) -> list[int | None]:
        """Codes of the filled cells placed by row (index 0 = row 1), None
        at vacated and star cells."""
        out: list[int | None] = [None] * self.inner + list(codes)
        if self.star_row is not None:
            out.insert(self.star_row - 1, None)
        return out

    @_memo
    def placed(self) -> tuple[list[int | None], ...]:
        """The halves of the grid, each placed by `rows`; kept from the first
        read on, not built eagerly: a column with no double raises here."""
        return tuple(self.rows(codes) for codes in self.grid())

    def left_at(self, row: int) -> int | None:
        return self.placed[0][row - 1]

    def right_at(self, row: int) -> int | None:
        return self.placed[-1][row - 1]

    def turned(self, H: int, n: int):
        """The column turned upside down in a rectangle of height H."""
        star = None if self.star_row is None else H + 1 - self.star_row
        return self._reversed(H - self.height, star, n)


class _SkewTableau(Record):
    """Columns whose outer and inner heights weakly decrease, with at most
    one star; `star` is its (row, col), 1-based, or None."""

    _fields = ("n", "columns")

    def __post_init__(self) -> None:
        self._check_frame()

    def _check_frame(self) -> None:
        """Check the frame and store the star."""
        cols = self.columns
        for name, attr in (("outer", "height"), ("inner", "inner")):
            hs = tuple(getattr(c, attr) for c in cols)
            if any(a < b for a, b in zip(hs, hs[1:])):
                raise TableauError(f"{name} heights {hs} not weakly decreasing")
        stars = [(c.star_row, k) for k, c in enumerate(cols, 1) if c.star_row is not None]
        if len(stars) > 1:
            raise TableauError("more than one star")
        _set(self, "star", stars[0] if stars else None)

    @classmethod
    def _unchecked(cls, n: int, columns: tuple, star: tuple[int, int] | None):
        """The state of these columns, the star at `star`; the caller keeps the frame valid."""
        state = object.__new__(cls)
        _set(state, "n", n)
        _set(state, "columns", columns)
        _set(state, "star", star)
        return state

    def _with(self, col: int, new: tuple, star: tuple[int, int] | None):
        """Columns col, col+1, ... (1-based) replaced by `new`, the star at
        `star`; unchecked, so the caller must keep the frame."""
        cols = self.columns
        return self._unchecked(self.n, cols[: col - 1] + new + cols[col - 1 + len(new) :], star)

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(c.height for c in self.columns)

    @property
    def inners(self) -> tuple[int, ...]:
        return tuple(c.inner for c in self.columns)

    @property
    def zero_present(self) -> bool:
        return any(c.has_zero for c in self.columns)

    def rotated(self):
        """Rotate 180 degrees in the bounding rectangle, star to star; the
        column model reverses the letters.  A valid frame turns valid."""
        if not self.columns:
            return self
        H, W, star = self.columns[0].height, len(self.columns), self.star
        cols = tuple(c.turned(H, self.n) for c in reversed(self.columns))
        return self._unchecked(self.n, cols, None if star is None else (H + 1 - star[0], W + 1 - star[1]))


def _is_semistandard_skew(state: _SkewTableau, cols: range | None = None) -> bool:
    """The columns of the model's grid are semi-standard away from star and
    vacated cells, which are None in the placed halves and skipped.  With
    `cols` (a range of 1-based model columns) only those columns and the
    pairs of neighbours among them are read, each pair's verdict once."""
    columns = state.columns if cols is None else state.columns[max(cols.start, 1) - 1 : cols.stop - 1]
    if len(columns) == 1:
        return first_grid_violation(columns[0].placed) is None
    for p, c in zip(columns, columns[1:]):
        key = (p._id, c._id)
        ok = _PAIRS.get(key)
        if ok is None:
            ok = _PAIRS.setdefault(key, first_grid_violation(p.placed + c.placed) is None)
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# the engine: slides


def _neighbours(state: _SkewTableau, i: int, j: int) -> tuple[bool, bool]:
    cols = state.columns
    return cols[j - 1].height >= i + 1, j < len(cols) and cols[j].height >= i


def _move(state: _SkewTableau, i: int, j: int) -> tuple:
    """The columns put in place of column j (and j+1) by a move of the star
    at (i, j), () when it rests: it moves down when the right letter of the
    cell below is at most the left letter of the cell to the right."""
    below, right = _neighbours(state, i, j)
    if not below and not right:
        return ()
    col = state.columns[j - 1]
    if below and (not right or col.right_at(i + 1) <= state.columns[j].left_at(i)):
        return (col.reframed(col.inner, i + 1),)
    return col.pull(state.columns[j], i)


def _framed(old: tuple, new: tuple, i: int, j: int) -> tuple:
    """The columns of a move of the star at (i, j), after checking that they
    keep the heights and inner heights of the columns they replace and hold
    the star where the move puts it: row i+1 of column j, or row i of j+1."""
    stars = (i + 1,) if len(new) == 1 else (None, i)
    if new and (
        [(c.height, c.inner) for c in new] != [(c.height, c.inner) for c in old[: len(new)]]
        or tuple(c.star_row for c in new) != stars
    ):
        raise TaquinInvariantError(f"the move of the star at ({i}, {j}) changed the frame")
    return new


def _step(state: _SkewTableau):
    """One slide move; None when the star rests at an outer corner.  A move
    reads only columns j and j+1; one that raises is not stored, nor one
    from a star off column j's star cell, which would keep it in place."""
    pos = state.star
    if pos is None:
        raise TableauError("no star to slide")
    i, j = pos
    cols = state.columns
    col = cols[j - 1]
    if col.star_row != i:
        raise TaquinInvariantError(f"the star at ({i}, {j}) is not in its column")
    key = (col._id, cols[j]._id if j < len(cols) else None)
    new = _MOVES.get(key)
    if new is None:
        new = _MOVES.setdefault(key, _framed(cols[j - 1 : j + 1], _move(state, i, j), i, j))
    if not new:
        return None
    return state._with(j, new, (i + 1, j) if len(new) == 1 else (i, j + 1))


def _to_rest(state, step, record: list | None = None, check=None):
    """Slide with `step` until the star rests; returns the state and the
    star's path.  States go to `record` when given; `check(state, cols)`
    must hold on every state after a move, else the slide broke an
    invariant.  The first move's state is checked whole.  A later move
    from column j changes only columns j and j+1 of a state that passed,
    so it is checked on columns j-1 .. j+2: the changed columns and their
    neighbours on either side, which gives the answer of the whole check."""
    if record is not None:
        record.append(state)
    path = [state.star]
    while True:
        nxt = step(state)
        if nxt is None:
            return state, path
        j = path[-1][1]
        state = nxt
        path.append(state.star)
        if record is not None:
            record.append(state)
        if check is not None and not check(state, None if len(path) == 2 else range(j - 1, j + 3)):
            raise TaquinInvariantError(f"slide left a non-semi-standard state at {state.star}")


def shed(state):
    """Remove the resting star cell (height-0 columns stay in place)."""
    pos = state.star
    if pos is None:
        raise TableauError("no star to shed")
    i, j = pos
    below, right = _neighbours(state, i, j)
    if below or right:
        raise TableauError("star is not resting at an outer corner")
    col = state.columns[j - 1]
    return state._with(j, (col.reframed(col.inner, None),), None)


# ---------------------------------------------------------------------------
# the engine: reduction pass and inverse


def _straight(state: _SkewTableau, lead: int) -> Tableau:
    """The tableau in the columns after the first `lead`, built unchecked; a
    lead column not trivial under its vacated cells, or a vacated cell, the
    star or the extended letter 0 after them, is a trap."""
    for j, c in enumerate(state.columns[:lead], start=1):
        if c._id != state.column.trivial(state.n, c.inner + 1, c.inner)._id:
            raise TaquinInvariantError(f"column {j} is not a trivial bottom")
    cols = state.columns[lead:]
    for c in cols:
        if c.inner or c.star_row is not None:
            raise TaquinInvariantError(f"residual vacated or star cell beyond the first {lead} columns")
        if c.has_zero:
            raise TaquinInvariantError("extended letter 0 survived the slides")
    return Tableau._trusted(state.n, type(state).kind, tuple(c.content for c in cols if c.size))


def _passes(cls, t: Tableau, slide_pass, *args):
    """Yield (s, tableau after the pass) for each reduction pass, at the
    largest non-quasi-standard row, until the tableau is quasi-standard;
    `slide_pass(tableau, s, *args)` is the model's pass."""
    check_kind(t, cls.kind)
    if not t._semistandard:
        raise TableauError("input tableau is not semi-standard")
    while t._nqs_rows:
        s = max(t._nqs_rows)
        t = slide_pass(t, s, *args)
        yield s, t


def _reduced(t: Tableau, passes) -> tuple[tuple[int, ...], Tableau]:
    """(shape, tableau) after the last of the passes, t when there is none."""
    for _, t in passes:
        pass
    return t.shape, t


def _slide_star(cls, n: int, cols: tuple, row: int, col: int, to_rest, star: str, during: str):
    """Put the star at the inner corner (row, col) of these columns, slide
    it to rest with `to_rest` and shed it; returns the state and its last
    cell.  A star off an inner corner, one that leaves its row and a letter
    0 that appears are traps, named by `star` and `during`."""
    c = cols[col - 1]
    if c.inner != row or (col < len(cols) and cols[col].inner >= row):
        raise TaquinInvariantError(f"{star} at ({row},{col}) is not at an inner corner")
    cols = cols[: col - 1] + (c.reframed(row - 1, row),) + cols[col:]
    rest, path = to_rest(cls._unchecked(n, cols, (row, col)))
    if any(i != row for i, _ in path):
        raise TaquinInvariantError(f"{star} left row {row}: path {path}")
    if rest.zero_present:
        raise TaquinInvariantError(f"extended letter 0 appeared during {during}")
    return shed(rest), path[-1]


def _slide_pass(cls, t: Tableau, s: int, to_rest) -> Tableau:
    """One reduction pass at row s: put a full-height trivial column with s
    vacated cells before t's columns (a valid frame), take one star step
    from (s, 1), and strip the column, which must end trivial."""
    check_kind(t, cls.kind)
    if s not in t._nqs_rows:
        raise TableauError(f"tableau is quasi-standard at row {s}")
    n, model = t.n, cls.column
    cols = (model.trivial(n, s + 1, s),) + tuple(model.of(n, c) for c in t.columns)
    state, _ = _slide_star(cls, n, cols, s, 1, to_rest, "star", "a reduction pass")
    return _straight(state, 1)


@lru_cache(maxsize=None)
def _plan(lam: tuple[int, ...], mu: tuple[int, ...], hmax: int) -> tuple[int, tuple]:
    """Check that mu lies in lambda (the skew cells check it) and below it in
    the weight order; then d, the trivial columns to prepend, and the stars
    (k, row, col) in sliding order: lambda minus mu in reading order,
    numbered down, turned over."""
    d, cells = len(lam) - len(mu), skew_cells(lam, mu)
    if not weight_leq(mu, lam, hmax):
        raise ShapeError(f"{mu} is not below {lam} in the weight order")
    W = len(mu) + 2 * d
    return d, tuple((len(cells) - k, hmax + 1 - i, W + 1 - (j + d)) for k, (i, j) in enumerate(cells))


def _expand(cls, lam, mu, q: Tableau, to_rest, record: list | None = None) -> Tableau:
    """Rebuild the tableau of shape lambda that reduces to (mu, q): d
    trivial columns around q, rotated; one star step per cell of lambda
    minus mu, in decreasing index (the later stars' cells still vacated);
    rotated back, the d lead columns stripped.  q must be semi-standard and
    quasi-standard in the model's alphabet."""
    lam, mu, hmax = tuple(lam), tuple(mu), q.hmax
    if q.shape != mu:
        raise ShapeError(f"tableau shape {q.shape} is not {mu}")
    d, stars = _plan(lam, mu, hmax)
    check_kind(q, cls.kind)
    if not q._semistandard or q._nqs_rows:
        raise TableauError("the tableau to expand is not semi-standard and quasi-standard")
    if lam == mu:
        return q
    n, model = q.n, cls.column
    # d full trivial columns, q, then d empty ones (trivial from past hmax),
    # rotated in their rectangle, hmax tall as the first column is full: the
    # cells of lambda minus mu are vacated cells on top, a valid frame
    start = (
        (model.trivial(n, 1),) * d
        + tuple(model.of(n, c) for c in q.columns)
        + (model.trivial(n, hmax + 1),) * d
    )
    state = cls._unchecked(n, start, None).rotated()
    if record is not None:
        record.append(state)
    exits: list[tuple[int, int]] = []
    for k, row, col in stars:
        state, last = _slide_star(cls, n, state.columns, row, col, to_rest, f"star {k}", "the inverse")
        exits.append(last)
    for e1, e2 in zip(exits, exits[1:]):
        if not e2 < e1:
            raise TaquinInvariantError(f"star exit corners not monotone: {exits}")

    state = state.rotated()
    if record is not None:
        record.append(state)
    return _straight(state, d)


# ---------------------------------------------------------------------------
# the classical model


class SlSkewColumn(_SkewColumn):
    """inner vacated cells on top, then letters in row order, star optional."""

    _fields = ("inner", "letters", "star_row")
    star_row = None

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        _set(self, "letters", letters)
        self._check_frame(len(letters))

    @property
    def content(self) -> tuple[int, ...]:
        return self.letters

    def grid(self) -> tuple[tuple[int, ...]]:
        return (self.letters,)

    def reframed(self, inner: int, star_row: int | None) -> "SlSkewColumn":
        """The same letters under a new frame."""
        return _interned(SlSkewColumn, inner, self.letters, star_row)

    def pull(self, right: "SlSkewColumn", row: int) -> tuple["SlSkewColumn", "SlSkewColumn"]:
        """Horizontal move: the letter at (row, right) swaps with the star here."""
        k = row - right.inner - 1  # right holds no star
        idx = row - self.inner - 1
        return (
            _interned(SlSkewColumn, self.inner, self.letters[:idx] + (right.letters[k],) + self.letters[idx:], None),
            _interned(SlSkewColumn, right.inner, right.letters[:k] + right.letters[k + 1 :], row),
        )

    def _reversed(self, inner: int, star: int | None, n: int) -> "SlSkewColumn":
        return _interned(SlSkewColumn, inner, tuple(sigma_letter_sl(t, n) for t in reversed(self.letters)), star)

    @classmethod
    @lru_cache(maxsize=None)
    def trivial(cls, n: int, top: int, inner: int = 0) -> "SlSkewColumn":
        """The letters top, ..., n-1 under `inner` vacated cells."""
        return _interned(cls, inner, tuple(range(top, n)), None)

    @classmethod
    def of(cls, n: int, letters: tuple[int, ...]) -> "SlSkewColumn":
        return _interned(cls, 0, tuple(letters), None)


class SlSkewTableau(_SkewTableau):
    column = SlSkewColumn
    kind = "sl"


def jdt_step(state: SlSkewTableau) -> SlSkewTableau | None:
    """One slide move; None when the star rests at an outer corner."""
    return _step(state)


def jdt_to_rest(state: SlSkewTableau) -> tuple[SlSkewTableau, list[tuple[int, int]]]:
    """Slide until the star rests; returns the state and the star's path."""
    return _to_rest(state, jdt_step)


def sigma_sl(state: SlSkewTableau) -> SlSkewTableau:
    """Rotate 180 degrees in the bounding rectangle and map entries by n+1-t."""
    return state.rotated()


# ---------------------------------------------------------------------------
# reduction and expansion


def slide_pass_sl(t: Tableau, s: int) -> Tableau:
    """One reduction pass at row s: prepend a vacated trivial column, slide, strip."""
    return _slide_pass(SlSkewTableau, t, s, jdt_to_rest)


def reduce_sl(t: Tableau) -> tuple[tuple[int, ...], Tableau]:
    """Iterate passes at the largest non-quasi-standard row; returns (shape, result)."""
    return _reduced(t, _passes(SlSkewTableau, t, slide_pass_sl))


def expand_sl(lam: tuple[int, ...], mu: tuple[int, ...], q: Tableau) -> Tableau:
    """Rebuild the semi-standard tableau of shape lambda reducing to (mu, q)."""
    return _expand(SlSkewTableau, lam, mu, q, jdt_to_rest)
