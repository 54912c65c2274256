"""Reference combinatorics for the benchmark, written from the definitions and
importing nothing from sptab.

A tableau here is a tuple of columns, each column a top-down tuple of letter
codes.  At rank n the alphabet 1 < ... < n < n' < ... < 1' is coded as
i -> i and i' -> 2n+1-i, so code order is alphabet order.

A symplectic column holds the unbarred letters A and the barred letters D'.
With I = A & D it is admissible (De Concini) when some set J of |I| free
letters, free meaning outside A | D, dominates I element-wise (i_k < j_k).
The least such J in lexicographic order defines the double

    (A over C' | B over D'),   B = (A - I) | J,   C = (D - I) | J.

Here J is found by brute force over subsets of the free letters, not by the
greedy scan the library uses, so the two cannot share a mistake.

The generators take a random.Random and draw from these definitions alone,
so a change to sptab's enumeration order cannot change the inputs.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations

Column = tuple[int, ...]
Tab = tuple[Column, ...]


# ---------------------------------------------------------------------------
# columns


def split_codes(n: int, col: Column) -> tuple[frozenset[int], frozenset[int]]:
    """(A, D) of a column given by its codes."""
    A = frozenset(c for c in col if c <= n)
    D = frozenset(2 * n + 1 - c for c in col if c > n)
    return A, D


def join_codes(n: int, A, D) -> Column:
    """Top-down codes of the column with unbarred A and barred D'."""
    return tuple(sorted(A)) + tuple(sorted(2 * n + 1 - d for d in D))


@lru_cache(maxsize=None)
def witness(n: int, col: Column) -> tuple[int, ...] | None:
    """The lexicographically least J dominating I = A & D among free letters."""
    A, D = split_codes(n, col)
    I = sorted(A & D)
    free = [x for x in range(1, n + 1) if x not in A and x not in D]
    for J in combinations(free, len(I)):
        if all(i < j for i, j in zip(I, J)):
            return J
    return None


def is_admissible(n: int, col: Column) -> bool:
    return witness(n, col) is not None


@lru_cache(maxsize=None)
def double(n: int, col: Column) -> tuple[Column, Column]:
    """(left, right) = (A over C', B over D') of an admissible column."""
    J = witness(n, col)
    if J is None:
        raise ValueError(f"column {col} is not admissible at rank {n}")
    A, D = split_codes(n, col)
    I = A & D
    B = (A - I) | frozenset(J)
    C = (D - I) | frozenset(J)
    return join_codes(n, A, C), join_codes(n, B, D)


@lru_cache(maxsize=None)
def admissible_columns(n: int, k: int) -> tuple[Column, ...]:
    """All admissible columns of height k, as code tuples in code order."""
    return tuple(c for c in combinations(range(1, 2 * n + 1), k) if is_admissible(n, c))


def double_tableau(n: int, t: Tab) -> Tab:
    out: list[Column] = []
    for col in t:
        out.extend(double(n, col))
    return tuple(out)


# ---------------------------------------------------------------------------
# grid predicates


def grid_is_semistandard(g: Tab) -> bool:
    """Heights weakly decrease, columns strictly increase, rows weakly increase."""
    for a, b in zip(g, g[1:]):
        if len(b) > len(a):
            return False
        if any(a[i] > b[i] for i in range(len(b))):
            return False
    return all(all(x < y for x, y in zip(c, c[1:])) for c in g)


def grid_pushable(g: Tab, s: int) -> bool:
    """Row s witnesses non-quasi-standardness.

    The first column starts with 1, ..., s; some column has height exactly
    s; and t(s, j+1) < t(s+1, j) wherever both cells exist.
    """
    if not g or len(g[0]) < s or tuple(g[0][:s]) != tuple(range(1, s + 1)):
        return False
    if s not in {len(c) for c in g}:
        return False
    for left, right in zip(g, g[1:]):
        if len(right) >= s and len(left) > s and not right[s - 1] < left[s]:
            return False
    return True


def grid_is_quasistandard(g: Tab) -> bool:
    return not g or not any(grid_pushable(g, s) for s in range(1, len(g[0]) + 1))


def is_semistandard_sp(n: int, t: Tab) -> bool:
    if any(not 1 <= len(c) <= n or not is_admissible(n, c) for c in t):
        return False
    return grid_is_semistandard(double_tableau(n, t))


def is_quasistandard_sp(n: int, t: Tab) -> bool:
    return grid_is_quasistandard(double_tableau(n, t))


def is_semistandard_sl(n: int, t: Tab) -> bool:
    if any(not 1 <= len(c) < n or not all(1 <= x <= n for x in c) for c in t):
        return False
    return grid_is_semistandard(t)


def is_quasistandard_sl(t: Tab) -> bool:
    return grid_is_quasistandard(t)


# ---------------------------------------------------------------------------
# shapes and closed forms


def shape_of(t: Tab) -> tuple[int, ...]:
    return tuple(len(c) for c in t)


def weight_below(mu, lam) -> bool:
    """mu's columns are a sub-multiset of lambda's (the weight order)."""
    return all(list(mu).count(h) <= list(lam).count(h) for h in set(mu))


def shapes_up_to(hmax: int, max_boxes: int) -> list[tuple[int, ...]]:
    """Every shape with heights <= hmax and at most max_boxes cells, empty included."""
    out = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for s in frontier:
            for h in range(1, min(s[-1] if s else hmax, max_boxes - sum(s)) + 1):
                nxt.append(s + (h,))
        out.extend(nxt)
        frontier = nxt
    return out


def weyl_dim_sp(n: int, shape) -> int:
    """Weyl dimension of the sp(2n) irreducible whose highest weight is the
    sum of the fundamental weights w_h over the column heights h."""
    lam = [sum(1 for h in shape if h >= i) for i in range(1, n + 1)]
    rho = list(range(n, 0, -1))
    v = [a + r for a, r in zip(lam, rho)]
    num = den = 1
    for i in range(n):
        num *= v[i]
        den *= rho[i]
        for j in range(i + 1, n):
            num *= (v[i] - v[j]) * (v[i] + v[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
    if num % den:
        raise ArithmeticError(f"non-integral dimension for {shape} at rank {n}")
    return num // den


def kernel_count(n: int, k: int) -> int:
    """dim of the degree-k contraction kernel: C(2n, k) - C(2n, k-2)."""
    return math.comb(2 * n, k) - (math.comb(2 * n, k - 2) if k >= 2 else 0)


# ---------------------------------------------------------------------------
# seeded generators


def _compatible(n: int, prev: Column | None, col: Column) -> bool:
    """col may follow prev in a row: prev's right double <= col's left double."""
    if prev is None:
        return True
    right = double(n, prev)[1]
    left = double(n, col)[0]
    return len(col) <= len(prev) and all(right[i] <= left[i] for i in range(len(col)))


def _walk(rng: random.Random, shape, beta: float, candidates) -> Tab | None:
    """Column by column, each drawn from candidates(height, previous column)
    with weight exp(-beta * code sum), which favours small letters.  None on
    a dead end."""
    cols: list[Column] = []
    for h in shape:
        cands = candidates(h, cols[-1] if cols else None)
        if not cands:
            return None
        low = min(sum(c) for c in cands)
        cols.append(rng.choices(cands, [math.exp(-beta * (sum(c) - low)) for c in cands])[0])
    return tuple(cols)


def random_ss_sp(rng: random.Random, n: int, shape, beta: float) -> Tab | None:
    """A random semi-standard symplectic tableau of the shape."""
    return _walk(rng, shape, beta, lambda h, prev: [c for c in admissible_columns(n, h) if _compatible(n, prev, c)])


def random_ss_sl(rng: random.Random, n: int, shape, beta: float) -> Tab | None:
    """A random semi-standard plain-letter tableau, letters 1..n."""
    return _walk(
        rng,
        shape,
        beta,
        lambda h, prev: [
            c for c in combinations(range(1, n + 1), h) if prev is None or all(prev[i] <= c[i] for i in range(h))
        ],
    )


def random_shape(rng: random.Random, hmax: int, boxes: int) -> tuple[int, ...]:
    """A random shape with exactly `boxes` cells and heights <= hmax."""
    heights: list[int] = []
    left = boxes
    while left:
        top = min(left, heights[-1] if heights else hmax)
        h = rng.randint(1, top)
        heights.append(h)
        left -= h
    return tuple(sorted(heights, reverse=True))


def self_check() -> None:
    """Check the reference against closed forms; raises AssertionError."""
    for n in range(1, 6):
        for k in range(1, n + 1):
            if len(admissible_columns(n, k)) != kernel_count(n, k):
                raise AssertionError(f"{len(admissible_columns(n, k))} admissible columns of height {k} at rank {n}")
    for n, max_boxes in ((1, 4), (2, 5), (3, 4)):
        for shape in shapes_up_to(n, max_boxes):
            if _count_ss_sp(n, shape) != weyl_dim_sp(n, shape):
                raise AssertionError(f"semi-standard count of {shape} at rank {n} is not its Weyl dimension")


def _count_ss_sp(n: int, shape) -> int:
    """Brute-force count of semi-standard tableaux, column by column."""
    if not shape:
        return 1
    rows = [(c,) for c in admissible_columns(n, shape[0])]
    for h in shape[1:]:
        rows = [
            t + (c,)
            for t in rows
            for c in admissible_columns(n, h)
            if grid_is_semistandard(double(n, t[-1]) + double(n, c))
        ]
    return sum(1 for t in rows if is_semistandard_sp(n, t))
