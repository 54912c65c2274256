"""Exhaustive generators, the Weyl dimension oracle for type C, and the
bijection verifier.

Generation is column by column: each appended column is sound for its
height (admissible, or strictly increasing letters) and compatible with its
left neighbour by the pair memo of tableaux (`_pair`), the rule every
semi-standard verdict reads; this prunes early and keeps the exhaustive
suites fast.  Each prefix ORs the rows its columns and pairs kill, so every
tableau is built with both verdicts recorded.  Output orders are
deterministic (columns sorted by their visible letter codes).

The admissible columns of a height come from one witness search
(`_admissible_sets`), which yields their (A, D) and builds nothing:
`enum_admissible_columns` builds and caches the columns from it, and
`_admissible_count`, which `verify dims` and `enum --count` read, only
counts them.  Every generator checks the rank before the shape.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .columns import SymplecticColumn, _witness
from .errors import ShapeError
from .tableaux import (
    Tableau,
    _column,
    _pair,
    _rows,
    check_rank,
    check_shape,
    is_quasistandard_sl,
    is_quasistandard_sp,
    is_semistandard_sp,
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


def _admissible_sets(n: int, k: int):
    """The (A, D) of each admissible column of height k, as sorted tuples,
    in candidate order: the witness search runs on each candidate, and no
    column is built.  Rank and height are checked before it returns."""
    check_rank(n)
    if not 1 <= k <= n:
        raise ShapeError(f"height {k} outside [1, {n}]")
    universe = range(1, n + 1)
    return (
        (A, D)
        for a in range(k + 1)
        for A in combinations(universe, a)
        for D in combinations(universe, k - a)
        if _witness(n, A, D)[1] is not None
    )


def _admissible_count(n: int, k: int) -> int:
    """How many admissible columns of height k there are, none of them built."""
    return sum(1 for _ in _admissible_sets(n, k))


@lru_cache(maxsize=None)
def enum_admissible_columns(n: int, k: int) -> tuple[SymplecticColumn, ...]:
    """All admissible columns of height k, sorted by visible letter codes."""
    out = [SymplecticColumn(n, frozenset(A), frozenset(D)) for A, D in _admissible_sets(n, k)]
    return tuple(sorted(out, key=lambda c: c.codes()))


@lru_cache(maxsize=None)
def _columns_by_height_sl(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(1, n + 1), k))


def _enum(n: int, heights: tuple[int, ...], kind: str, candidates) -> list[Tableau]:
    """Tableaux built column by column from the (sound) candidates of each
    height, each column compatible with its left neighbour: every prefix is
    extended in turn by each candidate, which keeps the order of a
    depth-first walk.  Each is semi-standard, and not quasi-standard at the
    heights up to its first column's trivial top that no column or pair of
    its prefix killed.  The caller checks the rank, then the shape."""
    prefixes: list[tuple] = [((), 0)]
    for h in heights:
        cands = [(c, _column(c)[2]) for c in candidates(n, h)]
        grown = []
        for p, killed in prefixes:
            for c, kills in cands:
                ok, cross = _pair(p[-1], c) if p else (True, 0)
                if ok:
                    grown.append((p + (c,), killed | kills | cross))
        prefixes = grown
    shape_rows, out = sum({1 << h for h in heights}), []
    for p, killed in prefixes:
        up_to_top = (2 << _column(p[0])[1]) - 1 if p else 0
        out.append(Tableau._trusted(n, kind, p, _semistandard=True, _nqs_rows=_rows(shape_rows & up_to_top & ~killed)))
    return out


def enum_ss_sp(n: int, heights: tuple[int, ...]) -> list[Tableau]:
    """All semi-standard symplectic tableaux of the given shape."""
    heights = tuple(heights)
    check_rank(n)
    check_shape(heights, n)
    return _enum(n, heights, "sp", enum_admissible_columns)


def enum_qs_sp(n: int, heights: tuple[int, ...]) -> list[Tableau]:
    return [t for t in enum_ss_sp(n, heights) if is_quasistandard_sp(t)]


def enum_ss_sl(n: int, heights: tuple[int, ...]) -> list[Tableau]:
    """All semi-standard plain-letter tableaux of the given shape."""
    heights = tuple(heights)
    check_rank(n)
    check_shape(heights, n - 1)
    return _enum(n, heights, "sl", _columns_by_height_sl)


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


@lru_cache(maxsize=None)
def _qs_count(n: int, mu: tuple[int, ...]) -> int:
    return len(enum_qs_sp(n, mu))


def verify_bijection(n: int, heights: tuple[int, ...]) -> dict:
    """Check the counting and bijection claims for one shape.

    (1) the semi-standard count equals the Weyl dimension; (2) the reduction
    maps semi-standard tableaux injectively into the union of quasi-standard
    sets over shapes below in the weight order; (3) onto; (4) the inverse
    recomposes every tableau.  Failures are report entries, not exceptions.

    |QS(mu)| is counted once per process for mu below lambda and filtered
    from SS(lambda) for lambda; the union is not built.  An image (mu, q) is
    in it when mu is below lambda and q is a semi-standard, quasi-standard
    tableau of shape mu, verdicts each tableau works out once for phi, psi
    and the count; those not reached are the counts' sum less the distinct
    images in the union, each keyed by mu and the ids of q's columns.
    """
    from .taquin_sp import phi, psi  # enum and dims never load the slide engine

    heights = tuple(heights)
    ss = enum_ss_sp(n, heights)
    weyl = weyl_dim_sp(n, shape_to_multiplicities(heights, n))
    below = list(weight_subshapes(heights, n))
    qs_by_subshape = {
        _shape_key(mu): sum(map(is_quasistandard_sp, ss)) if mu == heights else _qs_count(n, mu) for mu in below
    }

    round_trip_failures = []
    images: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
    problems = []
    for t in ss:
        mu, q = phi(t)
        ok = mu in below and q.shape == mu and is_semistandard_sp(q) and is_quasistandard_sp(q)
        seen = len(images)
        images[mu, tuple([c._id for c in q.columns])] = ok
        if len(images) == seen:
            problems.append(f"phi not injective: {(mu, q.columns)} hit twice")
        if not ok:
            problems.append(f"phi image outside the union: shape {mu}")
        back = psi(heights, mu, q)
        if back != t:
            round_trip_failures.append(
                {"input": [list(c.codes()) for c in t.columns], "shape": list(mu)}
            )
    missing = sum(qs_by_subshape.values()) - sum(images.values())
    if missing:
        problems.append(f"{missing} quasi-standard tableaux not reached")
    counts_ok = len(ss) == weyl == sum(qs_by_subshape.values())
    status = "pass" if counts_ok and not problems and not round_trip_failures else "fail"
    return {
        "shape": list(heights),
        "counts": {"ss": len(ss), "weyl": weyl, "qs_by_subshape": qs_by_subshape},
        "round_trip_failures": round_trip_failures,
        "problems": problems,
        "status": status,
    }
