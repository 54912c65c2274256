"""Symplectic jeu de taquin: the column model that runs the skew-tableau
engine of taquin_sl on column doubles, the reduction to a quasi-standard
tableau and its inverse (the engine's pass loop and inverse, given this
model's slide), and the trace JSON.

Slide decisions compare the doubled letters: with the star at (i, j), the
right copy of the cell below (beta) against the left copy of the cell to
the right (alpha).  A vertical move swaps the star with the cell below; a
horizontal move performs the surgery

    alpha unbarred u:  c_j gains u on its B-side, c_{j+1} loses u from A;
    alpha barred   v': c_j gains v on its D-side, c_{j+1} loses v from C;

and the star lands at (i, j+1).  The reversal swaps A and D.  The extended
letter 0 can appear (first column only); inside the reduction passes it is
a hard invariant violation.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import _set
from .columns import (
    SymplecticColumn,
    dble,
    surgery_add_B,
    surgery_add_D,
    surgery_remove_A,
    surgery_remove_C,
)
from .errors import TableauError
from .letters import from_code, letter_to_json
from .tableaux import Tableau
from .taquin_sl import (
    _expand,
    _interned,
    _is_semistandard_skew,
    _passes,
    _reduced,
    _SkewColumn,
    _SkewTableau,
    _slide_pass,
    _step,
    _to_rest,
    shed,
)

__all__ = [
    "SpSkewColumn",
    "SpSkewTableau",
    "is_semistandard_skew_sp",
    "phi",
    "phi_passes",
    "psi",
    "shed",
    "sigma_sp",
    "sjdt_step",
    "sjdt_to_rest",
    "slide_pass_sp",
]


class SpSkewColumn(_SkewColumn):
    """Vacated prefix, column content (A, D), and an optional star cell.

    The content is built once, as a SymplecticColumn, so (A, D) obeys its
    rules; the grid is the memoised double: A over C' and B over D'.
    """

    _fields = ("n", "inner", "A", "D", "star_row")
    star_row = None

    def __post_init__(self) -> None:
        content = SymplecticColumn(self.n, self.A, self.D)
        A, D = content.A, content.D
        _set(self, "A", A)
        _set(self, "D", D)
        _set(self, "content", content)
        _set(self, "has_zero", 0 in A or 0 in D)
        self._check_frame(content.height)

    def grid(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        d = dble(self.content)
        return d.left, d.right

    def reframed(self, inner: int, star_row: int | None) -> "SpSkewColumn":
        """The same letters under a new frame."""
        return _interned(SpSkewColumn, self.n, inner, self.A, self.D, star_row)

    def pull(self, right: "SpSkewColumn", row: int) -> tuple["SpSkewColumn", "SpSkewColumn"]:
        """Horizontal move: the left letter alpha at (row, right) crosses
        into this column by surgery through the doubling."""
        alpha = right.left_at(row)
        v = alpha if alpha <= self.n else 2 * self.n + 1 - alpha
        add, remove = (surgery_add_B, surgery_remove_A) if alpha <= self.n else (surgery_add_D, surgery_remove_C)
        new, new_right = add(self.content, v), remove(right.content, v)
        return (
            _interned(SpSkewColumn, new.n, self.inner, new.A, new.D, None),
            _interned(SpSkewColumn, new_right.n, right.inner, new_right.A, new_right.D, row),
        )

    def _reversed(self, inner: int, star: int | None, n: int) -> "SpSkewColumn":
        return _interned(SpSkewColumn, self.n, inner, self.D, self.A, star)

    @classmethod
    @lru_cache(maxsize=None)
    def trivial(cls, n: int, top: int, inner: int = 0) -> "SpSkewColumn":
        """The letters top, ..., n under `inner` vacated cells."""
        return _interned(cls, n, inner, frozenset(range(top, n + 1)), frozenset(), None)

    @classmethod
    def of(cls, n: int, col: SymplecticColumn) -> "SpSkewColumn":
        """A column of a rank-n tableau, whose columns all have rank n."""
        return _interned(cls, col.n, 0, col.A, col.D, None)


class SpSkewTableau(_SkewTableau):
    column = SpSkewColumn
    kind = "sp"

    def _check_frame(self) -> None:
        super()._check_frame()
        if any(c.n != self.n for c in self.columns):
            raise TableauError("column rank mismatch")


def is_semistandard_skew_sp(state: SpSkewTableau, cols: range | None = None) -> bool:
    """The double is semi-standard away from star and vacated cells; with
    `cols` (a range of 1-based columns), within those columns only."""
    return _is_semistandard_skew(state, cols)


# ---------------------------------------------------------------------------
# slides


def sjdt_step(state: SpSkewTableau) -> SpSkewTableau | None:
    """One slide move; None when the star rests at an outer corner."""
    return _step(state)


def sjdt_to_rest(state: SpSkewTableau, record: list | None = None) -> tuple[SpSkewTableau, list[tuple[int, int]]]:
    """Slide until the star rests; returns the state and the star's path.

    The state must be semi-standard away from the star.  The slide rules
    keep it so, and every state after a move is checked: one that is not
    is a TaquinInvariantError.
    """
    return _to_rest(state, sjdt_step, record, is_semistandard_skew_sp)


def sigma_sp(state: SpSkewTableau) -> SpSkewTableau:
    """Rotate 180 degrees in the bounding rectangle and bar-swap, star to star.

    On column content the bar-swap exchanges the unbarred and barred parts,
    so a column (A, D) becomes (D, A).
    """
    return state.rotated()


# ---------------------------------------------------------------------------
# reduction and its inverse


def slide_pass_sp(t: Tableau, s: int, record: list | None = None) -> Tableau:
    """One reduction pass at row s, the engine's `_slide_pass`, slides checked."""
    return _slide_pass(SpSkewTableau, t, s, lambda state: sjdt_to_rest(state, record))


def phi_passes(t: Tableau, record: list | None = None):
    """Yield (s, tableau-after-pass) for each reduction pass of phi; each
    tableau keeps its double and pushable rows, so the last one, q, is
    judged quasi-standard here and not again by psi."""
    yield from _passes(SpSkewTableau, t, slide_pass_sp, record)


def phi(t: Tableau, record: list | None = None) -> tuple[tuple[int, ...], Tableau]:
    """Reduce to a quasi-standard tableau; returns (shape, tableau)."""
    return _reduced(t, phi_passes(t, record))


def psi(
    lam: tuple[int, ...],
    mu: tuple[int, ...],
    q: Tableau,
    record: list | None = None,
) -> Tableau:
    """Rebuild the semi-standard tableau of shape lambda reducing to (mu, q)
    by the engine's inverse (`_expand`), each slide checked; q must be
    semi-standard and quasi-standard, else TableauError."""
    return _expand(SpSkewTableau, lam, mu, q, lambda state: sjdt_to_rest(state, record), record)


# ---------------------------------------------------------------------------
# trace serialization


def state_to_json(state: SpSkewTableau, extended: bool = False) -> dict:
    """One slide snapshot; letters as signed integers, or as {m, b} objects
    when the trace holds extended letters (a signed integer cannot encode
    the barred zero)."""
    cols = []
    for c in state.columns:
        rows: list = []
        for code in c.rows(c.content.codes())[c.inner :]:
            if code is None:
                rows.append(None)
                continue
            letter = from_code(code, c.n)
            if extended:
                rows.append({"m": letter.magnitude, "b": letter.barred})
            else:
                rows.append(letter_to_json(letter))
        cols.append(rows)
    star = state.star
    return {
        "columns": cols,
        "inner": list(state.inners),
        "star": list(star) if star else None,
        "zero_present": state.zero_present,
    }


def trace_to_json(states: list[SpSkewTableau]) -> list[dict]:
    extended = any(s.zero_present for s in states)
    return [state_to_json(s, extended) for s in states]
