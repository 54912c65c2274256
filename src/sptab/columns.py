"""Symplectic columns: admissibility, doubling, recovery, surgery.

A column is a pair of subsets (A, D) of [1, n]: the unbarred letters A read
top-down ascending, then the barred letters D' read top-down descending in
magnitude.  Writing I = A cap D, the column is admissible when the witness
set J (same size as I, element-wise dominating, lexicographically smallest
inside the complement of A cup D) exists; then

    B = (A \\ I) cup J,      C = (D \\ I) cup J,

and the double of the column is the two-column pair (A over C' | B over D').
Conversely (B, C) determines (A, D): J = B cap C and I is the largest
dominated set in the complement, taken inside [0, n] -- magnitude 0 is the
boundary extension that slides may touch, anything below 0 is an error.
Recovery is the doubling's search, read in the mirror x -> n+1-x that maps
[0, n] onto [1, n+1] and the largest dominated set to the smallest dominating.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .errors import ColumnError, GBoundaryError, InadmissibleColumnError

__all__ = [
    "DoubledColumn",
    "SymplecticColumn",
    "dble",
    "dble_sets",
    "g_from",
    "is_admissible",
    "surgery_add_B",
    "surgery_add_D",
    "surgery_remove_A",
    "surgery_remove_C",
]


def _check_subsets(A: frozenset[int], D: frozenset[int], lo: int, hi: int) -> None:
    for name, S in (("A", A), ("D", D)):
        for x in S:
            if type(x) is not int or not lo <= x <= hi:
                raise ColumnError(f"{name} contains {x!r}, outside [{lo}, {hi}]")


def _codes(n: int, A, D) -> tuple[int, ...]:
    """Letter codes of the column (A, D), top-down (strictly increasing)."""
    bar = 2 * n + 1
    return tuple(sorted(A) + sorted(bar - d for d in D))


class SymplecticColumn(Record):
    """Column content (A, D) for rank n, its field hash stored; magnitude 0 only inside slides."""

    _fields = ("n", "A", "D")

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ColumnError(f"rank must be positive, got {n}")
        A, D = frozenset(self.A), frozenset(self.D)
        _check_subsets(A, D, 0, n)
        if len(A) + len(D) > n + 1:
            raise ColumnError(f"column holds {len(A) + len(D)} letters, rank is {n}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "_hash", hash((n, A, D)))

    def __hash__(self) -> int:
        return self._hash

    # by hand, as the memos meet distinct equal columns tens of thousands of times a sweep
    def __eq__(self, other: object) -> bool:
        if type(other) is not SymplecticColumn:
            return NotImplemented
        return self.A == other.A and self.D == other.D and self.n == other.n

    @property
    def height(self) -> int:
        return len(self.A) + len(self.D)

    def is_standard(self) -> bool:
        """True when no extended letter 0 appears and the height fits the rank."""
        return 0 not in self.A and 0 not in self.D and self.height <= self.n

    def codes(self) -> tuple[int, ...]:
        """Visible letters as codes, top-down (strictly increasing)."""
        return _codes(self.n, self.A, self.D)

    def __str__(self) -> str:
        from .letters import format_letter, from_code

        return "[" + ",".join(format_letter(from_code(c, self.n)) for c in self.codes()) + "]"


def _smallest_dominating(I: list[int], pool: list[int]) -> list[int] | None:
    """Lexicographically smallest J in pool (sorted) with I[k] < J[k] for all k."""
    out: list[int] = []
    idx = 0
    prev = -1
    for i in I:
        lo = max(i, prev)
        while idx < len(pool) and pool[idx] <= lo:
            idx += 1
        if idx == len(pool):
            return None
        out.append(pool[idx])
        prev = pool[idx]
        idx += 1
    return out


class DoubledColumn(Record):
    """The double of (A, D): the witness sets, and the left column A over C'
    and the right column B over D' as letter codes."""

    _fields = ("n", "A", "D", "I", "J", "B", "C", "left", "right")

    def left_codes(self) -> tuple[int, ...]:
        """The column A over C', top-down."""
        return self.left

    def right_codes(self) -> tuple[int, ...]:
        """The column B over D', top-down."""
        return self.right


@lru_cache(maxsize=None)
def _double(n: int, A: frozenset[int], D: frozenset[int]) -> DoubledColumn | None:
    """The double of the column (A, D) at rank n, or None when inadmissible.

    The one place a double is computed: doubling, the tableau double, the
    skew columns of the slides and enumeration all read this memo.  The
    (A, C) and (B, D) columns need no check of their own: |C| = |D| and
    J lies in [1, n], so they obey the rules (A, D) was built under.
    """
    I = sorted(A & D)
    J = _smallest_dominating(I, [x for x in range(1, n + 1) if x not in A and x not in D])
    if J is None:
        return None
    I, J = frozenset(I), frozenset(J)
    B, C = (A - I) | J, (D - I) | J
    return DoubledColumn(n, A, D, I, J, B, C, _codes(n, A, C), _codes(n, B, D))


def dble(col: SymplecticColumn) -> DoubledColumn:
    """The memoised double of the column; raises if it is inadmissible."""
    d = _double(col.n, col.A, col.D)
    if d is None:
        raise InadmissibleColumnError(f"column {col} is not admissible for rank {col.n}")
    return d


def dble_sets(
    col: SymplecticColumn,
) -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]:
    """(I, J, B, C) of an admissible column; raises if inadmissible."""
    d = dble(col)
    return d.I, d.J, d.B, d.C


def is_admissible(col: SymplecticColumn) -> bool:
    """Staircase condition: the witness set J exists."""
    return _double(col.n, col.A, col.D) is not None


def g_from(B, C, n: int) -> SymplecticColumn:
    """Recover the column (A, D) whose double has the given (B, C).

    I is the largest dominated partner of J = B cap C inside the complement
    of B cup C, taken in [0, n]: the smallest dominating partner in the
    mirror x -> n+1-x.  Needing an index below 0 raises GBoundaryError (the
    boundary never reached by the reduction pipelines).
    """
    B, C = frozenset(B), frozenset(C)
    _check_subsets(B, C, 0, n)
    J = B & C
    pool = [n + 1 - x for x in range(n, -1, -1) if x not in B and x not in C]
    I = _smallest_dominating(sorted(n + 1 - j for j in J), pool)
    if I is None:
        raise GBoundaryError(f"no dominated partner of J={sorted(J)} in [0,{n}] outside B∪C")
    I = frozenset(n + 1 - x for x in I)
    return SymplecticColumn(n, (B - J) | I, (C - J) | I)


def surgery_add_B(col: SymplecticColumn, u: int) -> SymplecticColumn:
    """Insert u into the B-side and recompute (A, D)."""
    _, _, B, C = dble_sets(col)
    if u in B:
        raise ColumnError(f"{u} already in B = {sorted(B)}")
    return g_from(B | {u}, C, col.n)


def surgery_add_D(col: SymplecticColumn, v: int) -> SymplecticColumn:
    """Insert v into D."""
    if v in col.D:
        raise ColumnError(f"{v} already in D = {sorted(col.D)}")
    return SymplecticColumn(col.n, col.A, col.D | {v})


def surgery_remove_A(col: SymplecticColumn, a: int) -> SymplecticColumn:
    """Delete a from A."""
    if a not in col.A:
        raise ColumnError(f"{a} not in A = {sorted(col.A)}")
    return SymplecticColumn(col.n, col.A - {a}, col.D)


def surgery_remove_C(col: SymplecticColumn, c: int) -> SymplecticColumn:
    """Delete c from the C-side and recompute (A, D)."""
    _, _, B, C = dble_sets(col)
    if c not in C:
        raise ColumnError(f"{c} not in C = {sorted(C)}")
    return g_from(B, C - {c}, col.n)
