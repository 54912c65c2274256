"""Exhaustive generators, the Weyl dimension oracle for type C, and the
bijection verifier.

Generation is column by column: each appended column must be admissible for
its height and row-compatible with its left neighbour through the doubles,
which prunes early and keeps the exhaustive suites fast.  Output orders are
deterministic (columns sorted by their visible letter codes).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .columns import SymplecticColumn, dble, is_admissible
from .errors import ShapeError
from .tableaux import (
    Tableau,
    check_shape,
    is_quasistandard_sl,
    is_quasistandard_sp,
    shape_to_multiplicities,
    weight_subshapes,
)

__all__ = [
    "enum_admissible_columns",
    "enum_qs_sl",
    "enum_qs_sp",
    "enum_ss_sl",
    "enum_ss_sp",
    "shapes_up_to",
    "verify_bijection",
    "weyl_dim_sp",
]


@lru_cache(maxsize=None)
def enum_admissible_columns(n: int, k: int) -> tuple[SymplecticColumn, ...]:
    """All admissible columns of height k, sorted by visible letter codes."""
    if not 1 <= k <= n:
        raise ShapeError(f"height {k} outside [1, {n}]")
    out = []
    universe = range(1, n + 1)
    for a in range(k + 1):
        for A in combinations(universe, a):
            for D in combinations(universe, k - a):
                col = SymplecticColumn(n, frozenset(A), frozenset(D))
                if is_admissible(col):
                    out.append(col)
    return tuple(sorted(out, key=lambda c: c.codes()))


@lru_cache(maxsize=None)
def _columns_by_height_sl(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(1, n + 1), k))


def _enum(n: int, heights: tuple[int, ...], kind: str, candidates, compatible) -> list[Tableau]:
    """Tableaux built column by column from the candidates of each height,
    each column compatible with its left neighbour."""
    out: list[Tableau] = []

    def rec(j: int, cols: list) -> None:
        if j == len(heights):
            out.append(Tableau(n, kind, tuple(cols)))
            return
        for col in candidates(n, heights[j]):
            if not cols or compatible(cols[-1], col):
                cols.append(col)
                rec(j + 1, cols)
                cols.pop()

    rec(0, [])
    return out


def enum_ss_sp(n: int, heights: tuple[int, ...]) -> list[Tableau]:
    """All semi-standard symplectic tableaux of the given shape."""
    heights = tuple(heights)
    check_shape(heights, n)

    def compatible(a: SymplecticColumn, b: SymplecticColumn) -> bool:
        # row by row, the right column of a's double is at most the left column of b's
        return all(x <= y for x, y in zip(dble(a).right, dble(b).left))

    return _enum(n, heights, "sp", enum_admissible_columns, compatible)


def enum_qs_sp(n: int, heights: tuple[int, ...]) -> list[Tableau]:
    return [t for t in enum_ss_sp(n, heights) if is_quasistandard_sp(t)]


def enum_ss_sl(n: int, heights: tuple[int, ...]) -> list[Tableau]:
    """All semi-standard plain-letter tableaux of the given shape."""
    heights = tuple(heights)
    check_shape(heights, n - 1)
    return _enum(n, heights, "sl", _columns_by_height_sl, lambda a, b: all(x <= y for x, y in zip(a, b)))


def enum_qs_sl(n: int, heights: tuple[int, ...]) -> list[Tableau]:
    return [t for t in enum_ss_sl(n, heights) if is_quasistandard_sl(t)]


def shapes_up_to(hmax: int, max_boxes: int) -> list[tuple[int, ...]]:
    """All shapes with heights <= hmax and at most max_boxes cells."""
    out: list[tuple[int, ...]] = [()]

    def rec(prefix: tuple[int, ...], prev: int, left: int) -> None:
        for h in range(min(prev, left), 0, -1):
            shape = prefix + (h,)
            out.append(shape)
            rec(shape, h, left - h)

    rec((), hmax, max_boxes)
    return sorted(out, key=lambda s: (sum(s), s))


def weyl_dim_sp(n: int, mult: tuple[int, ...]) -> int:
    """Dimension of the irreducible of highest weight sum a_k w_k, type C_n.

    Product over the positive roots theta_i - theta_j, theta_i + theta_j
    (i < j) and 2 theta_i of <lam+rho, root> / <rho, root>, with
    rho = (n, n-1, ..., 1) in the theta coordinates.  Exact integer: the
    product of the numerators over the product of the denominators.
    """
    if n < 1 or len(mult) != n or any(a < 0 for a in mult):
        raise ShapeError(f"need a positive rank and {n} non-negative multiplicities, got {mult}")
    lam = [sum(mult[i:]) for i in range(n)]
    rho = [n - i for i in range(n)]
    v = [l + r for l, r in zip(lam, rho)]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= (v[i] - v[j]) * (v[i] + v[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
        num *= v[i]
        den *= rho[i]
    if num % den:
        raise ArithmeticError(f"non-integral dimension for {mult}")
    return num // den


def _shape_key(heights: tuple[int, ...]) -> str:
    return ",".join(str(h) for h in heights)


def verify_bijection(n: int, heights: tuple[int, ...]) -> dict:
    """Check the counting and bijection claims for one shape.

    (1) the semi-standard count equals the Weyl dimension; (2) the reduction
    maps semi-standard tableaux injectively into the union of quasi-standard
    sets over shapes below in the weight order; (3) onto; (4) the inverse
    recomposes every tableau.  Failures are report entries, not exceptions.
    """
    from .taquin_sp import phi, psi  # enum and dims never load the slide engine

    heights = tuple(heights)
    ss = enum_ss_sp(n, heights)
    weyl = weyl_dim_sp(n, shape_to_multiplicities(heights, n))
    qs_by_subshape: dict[str, int] = {}
    union: dict[tuple[tuple[int, ...], tuple], tuple[int, ...]] = {}
    for mu in weight_subshapes(heights, n):
        qs = [t for t in ss if is_quasistandard_sp(t)] if mu == heights else enum_qs_sp(n, mu)
        qs_by_subshape[_shape_key(mu)] = len(qs)
        for t in qs:
            union[(mu, t.columns)] = mu

    round_trip_failures = []
    images: dict[tuple[tuple[int, ...], tuple], Tableau] = {}
    problems = []
    for t in ss:
        mu, q = phi(t)
        key = (mu, q.columns)
        if key in images:
            problems.append(f"phi not injective: {key} hit twice")
        images[key] = t
        if key not in union:
            problems.append(f"phi image outside the union: shape {mu}")
        back = psi(heights, mu, q)
        if back != t:
            round_trip_failures.append(
                {"input": [list(c.codes()) for c in t.columns], "shape": list(mu)}
            )
    missing = [k for k in union if k not in images]
    if missing:
        problems.append(f"{len(missing)} quasi-standard tableaux not reached")
    counts_ok = len(ss) == weyl == sum(qs_by_subshape.values())
    status = "pass" if counts_ok and not problems and not round_trip_failures else "fail"
    return {
        "shape": list(heights),
        "counts": {"ss": len(ss), "weyl": weyl, "qs_by_subshape": qs_by_subshape},
        "round_trip_failures": round_trip_failures,
        "problems": problems,
        "status": status,
    }
