"""The contraction map on wedge basis vectors, whose sparse rows are the
internal relations among column functions, and exact integer rank
computations.

Wedge basis elements of degree k are strictly increasing tuples of letter
codes over the 2n-letter alphabet.  The symplectic form pairs e_l with
e_l-bar, so contracting a basis wedge keeps exactly the position pairs
(i < j) whose letters are a bar pair, with sign (-1)^(i+j-1); signs are
computed here once, and the relation rank reads them from the contraction
matrix, so the two sides cannot drift apart.

Both wedge bases are read lazily.  `relation_rank` uses up its own rows:
each is let go once the elimination has read it, in the rows' order, so
only the pivots stay; `exact_rank` never modifies the rows it is given.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations
from math import comb, gcd

from .errors import ShapeError

__all__ = [
    "contract",
    "contraction_matrix",
    "exact_rank",
    "kernel_dimension",
    "relation_rank",
    "wedge_basis",
]

Wedge = tuple[int, ...]
FormalVector = dict[Wedge, int]
Row = dict[int, int]


def _wedges(n: int, k: int) -> Iterable[Wedge]:
    return combinations(range(1, 2 * n + 1), k)


def wedge_basis(n: int, k: int) -> list[Wedge]:
    """All degree-k basis wedges over the rank-n alphabet, lexicographic."""
    if k < 0 or k > 2 * n:
        raise ShapeError(f"degree {k} outside [0, {2 * n}]")
    return list(_wedges(n, k))


def contract(w: Wedge, n: int) -> FormalVector:
    """Pair every unbarred/barred position pair out of w, with signs.

    Sum over positions i < j (1-based) whose letters pair under the
    symplectic form of (-1)^(i+j-1) times w with both positions removed.
    """
    if len(w) < 2:
        raise ShapeError("contraction needs degree at least 2")
    out: FormalVector = {}
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] + w[j] != 2 * n + 1:
                continue
            # the letters of w are distinct, so each pair leaves its own target
            target = w[:i] + w[i + 1 : j] + w[j + 1 :]
            out[target] = -1 if (i + j + 1) % 2 else 1  # (-1)^(i+j-1) with 1-based i, j
    return out


def contraction_matrix(n: int, k: int) -> list[Row]:
    """One sparse row per degree-(k-2) wedge, {column index: coefficient}
    over the degree-k wedges; both bases are in lexicographic order."""
    if not 2 <= k <= n:
        raise ShapeError(f"degree {k} outside [2, {n}]")
    index = {e: r for r, e in enumerate(_wedges(n, k - 2))}
    rows: list[Row] = [{} for _ in index]
    for c, w in enumerate(_wedges(n, k)):
        for e, coeff in contract(w, n).items():
            rows[index[e]][c] = coeff
    return rows


def exact_rank(rows: Iterable[Row]) -> int:
    """Rank over the rationals of sparse integer rows.

    Each row is reduced, fraction-free, against pivot rows keyed by their
    leading (least) column.  The two leading coefficients are divided by
    their gcd and every reduced row by the gcd of its entries, which keeps
    the entries small.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            g = gcd(*row.values())
            row = {c: v // g for c, v in row.items()}
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            g = gcd(piv[lead], row[lead])
            a, b = piv[lead] // g, row[lead] // g
            row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                x = row.get(c, 0) - b * v
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


def relation_rank(n: int, k: int) -> int:
    """The rank of the degree-k contraction, its rows let go as they are read."""
    rows = contraction_matrix(n, k)
    rows.reverse()
    return exact_rank(rows.pop() for _ in range(len(rows)))


def kernel_dimension(n: int, k: int) -> int:
    """Dimension of the kernel of the degree-k contraction."""
    return comb(2 * n, k) - relation_rank(n, k)
