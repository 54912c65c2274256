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
once per process, and lays out its grid by row (`placed`) once, at first
read.  The step table `_MOVES` holds the new columns of each move by its
pair (column j, column j+1), so a move is worked out once per distinct
pair; a move that raises is not stored.  The public constructor is the
one place that checks a frame (outer and inner heights weakly decreasing,
at most one star, and in the symplectic model one rank); the engine builds
its own states unchecked (`_unchecked`), each in a frame known valid.  No
move changes the frame (a worked-out move is a trap if its columns'
heights, inner heights or star rows differ from what it implies), a pass
and the inverse start from trivial columns around a checked tableau's, and
a rotation turns a valid frame into a valid one.  When
a slide is checked, the state after its first move is checked whole and
each later state only on columns j-1 .. j+2, which decides the whole check
because every other column and pair is as in the state before.  A check is
the verdicts, memoised in `_PAIRS`, of one grid pass
(`first_grid_violation`) over the placed halves of each pair of neighbours
in its range.

The inverse plans each (lambda, mu, hmax) once (`_plan`): the shape checks,
the trivial columns it prepends and the star cells in the turned frame.  Its
start state is the straight one, rotated.

One pass loop (`_passes`) serves reduce_sl and phi and checks its input
semi-standard.  The alphabet check (`check_kind`), the rows a pass may push
and the inverse's precondition are read from tableaux, which owns those
rules (`_nqs_rows`, `_semistandard`).
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
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
# the step table: by (column j, column j+1 if any), the columns a move of the
# star in column j puts in their place, () when it rests; each pair's verdict
_MOVES: dict = {}
_PAIRS: dict = {}


def _interned(cls, *fields):
    return _COLUMNS.get(fields) or _COLUMNS.setdefault(fields, cls(*fields))


class _SkewColumn(Record):
    """`inner` vacated cells on top, then the `size` filled cells in row
    order with the star cell (at `star_row`, if any) among them.  The
    height and the hash of the fields are stored when the frame is checked."""

    has_zero = False

    def _check_frame(self) -> None:
        if self.inner < 0:
            raise TableauError("negative inner height")
        height = self.inner + self.size + (self.star_row is not None)
        if self.star_row is not None and not self.inner < self.star_row <= height:
            raise TableauError(f"star row {self.star_row} outside ({self.inner}, {height}]")
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "_hash", hash(self._key(self)))

    def __hash__(self) -> int:
        return self._hash

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
        self.__dict__["star"] = stars[0] if stars else None

    @classmethod
    def _unchecked(cls, n: int, columns: tuple, star: tuple[int, int] | None):
        """The state of these columns, the star at `star`; the caller keeps the frame valid."""
        state = object.__new__(cls)
        state.__dict__.update(n=n, columns=columns, star=star)
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
        H, W, star = self.heights[0], len(self.columns), self.star
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
    for pair in zip(columns, columns[1:]):
        ok = _PAIRS.get(pair)
        if ok is None:
            p, c = pair
            ok = _PAIRS.setdefault(pair, first_grid_violation(p.placed + c.placed) is None)
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
    key = state.columns[j - 1 : j + 1]
    if key[0].star_row != i:
        raise TaquinInvariantError(f"the star at ({i}, {j}) is not in its column")
    new = _MOVES.get(key)
    if new is None:
        new = _MOVES.setdefault(key, _framed(key, _move(state, i, j), i, j))
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
    vacated cell, the star or the extended letter 0 left there is a trap."""
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


def _slide_pass(cls, t: Tableau, s: int, to_rest) -> Tableau:
    """One reduction pass at row s: prepend a trivial column with s-1
    vacated cells and the star at s, slide to rest, strip it.  The
    invariants from theory are hard traps: the star stays in row s, no 0
    appears, the first column ends trivial."""
    check_kind(t, cls.kind)
    if s not in t._nqs_rows:
        raise TableauError(f"tableau is quasi-standard at row {s}")
    n, model = t.n, cls.column
    # a full-height column before t's columns: a valid frame, star at (s, 1)
    cols = (model.trivial(n, s + 1, s - 1, s),) + tuple(model.of(n, c) for c in t.columns)
    state = cls._unchecked(n, cols, (s, 1))
    rest, path = to_rest(state)
    if any(i != s for i, _ in path):
        raise TaquinInvariantError(f"star left row {s}: path {path}")
    if rest.zero_present:
        raise TaquinInvariantError("extended letter 0 appeared during a reduction pass")
    state = shed(rest)
    if state.columns[0] != model.trivial(n, s, s - 1):
        raise TaquinInvariantError(f"first column did not end trivial-with-{s - 1}-vacated")
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
    """Rebuild the tableau of shape lambda that reduces to (mu, q).

    Prepends trivial columns, fills lambda minus mu with numbered stars,
    reverses, slides the stars in decreasing index (each star's remaining
    predecessors acting as vacated cells), reverses back, completes the
    trivial columns and strips them.  q must be semi-standard and
    quasi-standard in the model's alphabet.
    """
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
        c, right = state.columns[col - 1], state.columns[col : col + 1]
        if c.inner != row or (right and right[0].inner >= row):
            raise TaquinInvariantError(f"star {k} at ({row},{col}) is not at an inner corner")
        state = state._with(col, (c.reframed(row - 1, row),), (row, col))
        rest, path = to_rest(state)
        if rest.zero_present:
            raise TaquinInvariantError("extended letter 0 appeared during the inverse")
        state = shed(rest)
        exits.append(path[-1])
    for e1, e2 in zip(exits, exits[1:]):
        if not e2 < e1:
            raise TaquinInvariantError(f"star exit corners not monotone: {exits}")

    state = state.rotated()
    if record is not None:
        record.append(state)
    for j, c in enumerate(state.columns[:d], start=1):
        if c != model.trivial(n, c.inner + 1, c.inner):
            raise TaquinInvariantError(f"column {j} is not a trivial bottom")
    return _straight(state, d)


# ---------------------------------------------------------------------------
# the classical model


class SlSkewColumn(_SkewColumn):
    """inner vacated cells on top, then letters in row order, star optional."""

    _fields = ("inner", "letters", "star_row")
    star_row = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        self._check_frame()

    @property
    def size(self) -> int:
        return len(self.letters)

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
    def trivial(cls, n: int, top: int, inner: int = 0, star: int | None = None) -> "SlSkewColumn":
        """The letters top, ..., n-1 under `inner` vacated cells."""
        return _interned(cls, inner, tuple(range(top, n)), star)

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
