"""Acceptance suite: every criterion is exact, timed against its budget,
and prints one pass/fail line."""

import gc
import time
from itertools import combinations
from math import comb

import pytest

from sptab.columns import SymplecticColumn, dble, dble_sets, g_from, is_admissible
from sptab.enumeration import (
    enum_admissible_columns,
    enum_qs_sl,
    enum_ss_sl,
    enum_ss_sp,
    shapes_up_to,
    verify_bijection,
)
from sptab.plucker import kernel_dimension
from sptab.tableaux import (
    Tableau,
    dble_tableau,
    is_quasistandard_sl,
    is_quasistandard_sp,
    nqs_grid,
    nqs_with_height,
    parse,
    render,
    shape_to_multiplicities,
    tableau_from_json,
    tableau_to_json,
    weight_subshapes,
)
from sptab.taquin_sl import (
    SlSkewColumn,
    SlSkewTableau,
    expand_sl,
    jdt_step,
    reduce_sl,
    shed as shed_sl,
    sigma_sl,
)
from sptab.taquin_sp import (
    SpSkewColumn,
    SpSkewTableau,
    phi,
    phi_passes,
    psi,
    shed as shed_sp,
    sigma_sp,
    sjdt_step,
)

F = frozenset


def start_timer() -> float:
    """The start of a criterion's timed region, after a full garbage
    collection: one owed to earlier tests could otherwise land inside it."""
    gc.collect()
    return time.perf_counter()


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num}: {verdict} — {detail} ({elapsed * 1000:.2f} ms, budget {budget * 1000:.0f} ms)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.3f}s"


def sp_skew(n, *cols):
    return SpSkewTableau(n, tuple(SpSkewColumn(n, *c) for c in cols))


def sl_skew(n, *cols):
    return SlSkewTableau(n, tuple(SlSkewColumn(*c) for c in cols))


def test_criterion_1_golden_doubling():
    t0 = start_timer()
    d8 = dble(SymplecticColumn(4, F({1, 2}), F({1})))
    d18 = dble(SymplecticColumn(9, F({1, 2, 3, 7, 8}), F({1, 2, 3, 8})))
    elapsed = time.perf_counter() - t0
    ok = (
        d8.left == (1, 2, 6)
        and d8.right == (2, 3, 8)
        and sorted(d8.B) == [2, 3]
        and sorted(d8.C) == [3]
        and sorted(d18.B) == [4, 5, 6, 7, 9]
        and sorted(d18.C) == [4, 5, 6, 9]
        and d18.left == (1, 2, 3, 7, 8, 10, 13, 14, 15)
        and d18.right == (4, 5, 6, 7, 9, 11, 16, 17, 18)
    )
    report(1, ok, "both displayed doubles reproduced exactly", elapsed, 0.001)


def test_criterion_2_quasistandard_split():
    t = Tableau.sp(3, [(1, 2, 5), (2, 5)])
    t0 = start_timer()
    visible_qs = is_quasistandard_sl(t)
    doubled_qs = is_quasistandard_sp(t)
    elapsed = time.perf_counter() - t0
    ok = visible_qs is True and doubled_qs is False
    report(2, ok, "visible letters quasi-standard, double not", elapsed, 0.001)


EX3_TRACE1 = [
    sp_skew(4, (2, F(), F({1, 2, 3}), 3), (0, F({1, 3}), F({1, 3})), (0, F({2, 4}), F({2}))),
    sp_skew(4, (2, F(), F({1, 2, 3, 4})), (0, F({1, 4}), F({1}), 3), (0, F({2, 4}), F({2}))),
    sp_skew(4, (2, F(), F({1, 2, 3, 4})), (0, F({1, 4}), F({1, 3})), (0, F({3, 4}), F(), 3)),
]
EX3_TRACE2 = [
    sp_skew(4, (1, F(), F({1, 2, 3, 4}), 2), (0, F({1, 4}), F({1, 3})), (0, F({3, 4}), F())),
    sp_skew(4, (1, F({0}), F({0, 1, 2, 3})), (0, F({1}), F({1, 3}), 2), (0, F({3, 4}), F())),
    sp_skew(4, (1, F({0}), F({0, 1, 2, 3})), (0, F({1, 4}), F({1, 3})), (0, F({3}), F(), 2)),
]
JDT_TRACE1 = [
    sl_skew(7, (1, (4, 5), 2), (0, (2, 3, 6, 7)), (0, (4, 5))),
    sl_skew(7, (1, (3, 4, 5)), (0, (2, 6, 7), 2), (0, (4, 5))),
    sl_skew(7, (1, (3, 4, 5)), (0, (2, 5, 6, 7)), (0, (4,), 2)),
]
JDT_TRACE2 = [
    sl_skew(7, (1, (4, 5), 2), (0, (2, 3, 5, 7)), (0, (4, 6))),
    sl_skew(7, (1, (3, 4, 5)), (0, (2, 5, 7), 2), (0, (4, 6))),
    sl_skew(7, (1, (3, 4, 5)), (0, (2, 5, 7), 3), (0, (4, 6))),
    sl_skew(7, (1, (3, 4, 5)), (0, (2, 5, 7), 4), (0, (4, 6))),
]


def test_criterion_3_golden_slides():
    t0 = start_timer()
    ok = True
    for expected, stepper in ((EX3_TRACE1, sjdt_step), (EX3_TRACE2, sjdt_step)):
        state = expected[0]
        got = [state]
        while True:
            nxt = stepper(got[-1])
            if nxt is None:
                break
            got.append(nxt)
        ok = ok and got == expected
    zero_cols = [
        [c.has_zero for c in s.columns] for s in EX3_TRACE2[1:]
    ]
    ok = ok and all(flags == [True, False, False] for flags in zero_cols)
    ok = ok and shed_sp(EX3_TRACE1[-1]) == sp_skew(
        4, (2, F(), F({1, 2, 3, 4})), (0, F({1, 4}), F({1, 3})), (0, F({3, 4}), F())
    )
    ok = ok and shed_sp(EX3_TRACE2[-1]) == sp_skew(
        4, (1, F({0}), F({0, 1, 2, 3})), (0, F({1, 4}), F({1, 3})), (0, F({3}), F())
    )
    for expected in (JDT_TRACE1, JDT_TRACE2):
        state = expected[0]
        got = [state]
        while True:
            nxt = jdt_step(got[-1])
            if nxt is None:
                break
            got.append(nxt)
        ok = ok and got == expected
    ok = ok and shed_sl(JDT_TRACE1[-1]) == sl_skew(
        7, (1, (3, 4, 5)), (0, (2, 5, 6, 7)), (0, (4,))
    )
    ok = ok and shed_sl(JDT_TRACE2[-1]) == sl_skew(
        7, (1, (3, 4, 5)), (0, (2, 5, 7)), (0, (4, 6))
    )
    elapsed = time.perf_counter() - t0
    report(3, ok, "both symplectic and both classical chains, snapshot for snapshot", elapsed, 0.010)


def test_criterion_4_golden_bijection():
    T = Tableau.sp(4, [(1, 2, 3, 6), (1, 3, 6), (3, 6)])
    expected_passes = [
        (3, Tableau.sp(4, [(1, 2, 5, 6), (1, 4), (3, 6)])),
        (2, Tableau.sp(4, [(1, 2, 6, 7), (1, 5), (4,)])),
        (2, Tableau.sp(4, [(1, 5, 6, 7), (1,), (4,)])),
        (1, Tableau.sp(4, [(1, 5, 6, 7), (4,)])),
        (1, Tableau.sp(4, [(1, 6, 7, 8)])),
    ]
    t0 = start_timer()
    passes = list(phi_passes(T))
    mu, q = phi(T)
    record = []
    back = psi((4, 3, 2), mu, q, record)
    elapsed = time.perf_counter() - t0
    star_path = [s.star for s in record if s.star is not None]
    ok = (
        passes == expected_passes
        and mu == (4,)
        and shape_to_multiplicities(q.shape, 4) == (0, 0, 0, 1)
        and q == Tableau.sp(4, [(1, 6, 7, 8)])
        and back == T
        and star_path
        == [
            (4, 2), (4, 3), (4, 4), (4, 5),
            (4, 1), (4, 2), (4, 3), (4, 4),
            (3, 2), (3, 3), (3, 4), (3, 5),
            (3, 1), (3, 2), (3, 3), (3, 4),
            (2, 2), (2, 3), (2, 4), (2, 5),
        ]
    )
    report(4, ok, "reduction and inverse reproduce every displayed panel", elapsed, 0.010)


def test_criterion_5_dimension_identities():
    t0 = start_timer()
    ok = True
    for n in (2, 3, 4):
        for k in range(2, n + 1):
            formula = comb(2 * n, k) - comb(2 * n, k - 2)
            ok = ok and len(enum_admissible_columns(n, k)) == formula
            ok = ok and kernel_dimension(n, k) == formula
    elapsed = time.perf_counter() - t0
    report(5, ok, "admissible counts = kernel dimensions = binomial formula, 2<=k<=n<=4", elapsed, 30.0)


@pytest.fixture(scope="module")
def desk_runs():
    """Criterion 6 exhaustive runs, with every reduction pass recorded."""
    data = {"reports": [], "passes": [], "elapsed": None}
    t0 = start_timer()
    for n, max_boxes in ((2, 5), (3, 4)):
        for lam in shapes_up_to(n, max_boxes):
            data["reports"].append(verify_bijection(n, lam))
            for t in enum_ss_sp(n, lam):
                cur = t
                for s, nxt in phi_passes(cur):
                    data["passes"].append((n, cur, s, nxt))
                    cur = nxt
    data["elapsed"] = time.perf_counter() - t0
    return data


def test_criterion_6_counting_and_bijectivity(desk_runs):
    ok = all(r["status"] == "pass" for r in desk_runs["reports"])
    for r in desk_runs["reports"]:
        ok = ok and r["counts"]["ss"] == r["counts"]["weyl"] == sum(
            r["counts"]["qs_by_subshape"].values()
        )
    shapes = len(desk_runs["reports"])
    report(
        6,
        ok and shapes > 20,
        f"{shapes} shapes: counts match the dimension oracle, reduction bijective, inverse exact",
        desk_runs["elapsed"],
        300.0,
    )


def test_criterion_7_proposition_traps_never_fire(desk_runs):
    # the pass itself asserts: star pinned to its row, no extended letter,
    # first column trivial with one fewer vacated cell; reaching this point
    # means no trap fired across every recorded pass
    t0 = start_timer()
    count = len(desk_runs["passes"])
    ok = count > 500
    elapsed = time.perf_counter() - t0 + desk_runs["elapsed"]
    report(7, ok, f"{count} reduction passes, zero invariant traps", elapsed, 300.0)


def test_criterion_8_monotonicity(desk_runs):
    t0 = start_timer()
    ok = True
    for n, before, s, after in desk_runs["passes"]:
        gb, ga = dble_tableau(before), dble_tableau(after)
        for t in range(s + 1, n + 1):
            if not nqs_with_height(before, t) and nqs_with_height(after, t):
                ok = False
            if not nqs_grid(gb, t) and nqs_grid(ga, t):
                ok = False
    elapsed = time.perf_counter() - t0
    report(8, ok, f"higher-row blockings preserved across {len(desk_runs['passes'])} passes", elapsed, 300.0)


def test_criterion_9_sl_baseline():
    t0 = start_timer()
    n, ok = 3, True
    for lam in shapes_up_to(n - 1, 4):
        union = {}
        for mu in weight_subshapes(lam, n - 1):
            for q in enum_qs_sl(n, mu):
                union[(mu, q.columns)] = None
        ss = enum_ss_sl(n, lam)
        ok = ok and len(ss) == len(union)
        seen = set()
        for t in ss:
            mu, q = reduce_sl(t)
            key = (mu, q.columns)
            ok = ok and key in union and key not in seen
            seen.add(key)
            ok = ok and expand_sl(lam, mu, q) == t
        ok = ok and seen == set(union)
    elapsed = time.perf_counter() - t0
    report(9, ok, "plain-letter counting identity and mutually inverse reduction", elapsed, 30.0)


def test_criterion_10_round_trips():
    t0 = start_timer()
    ok = True
    for n in (1, 2, 3, 4, 5):
        for k in range(1, n + 1):
            for a in range(k + 1):
                for A in combinations(range(1, n + 1), a):
                    for D in combinations(range(1, n + 1), k - a):
                        c = SymplecticColumn(n, F(A), F(D))
                        if not is_admissible(c):
                            continue
                        _, _, B, C = dble_sets(c)
                        ok = ok and g_from(B, C, n) == c
    for state in EX3_TRACE1 + EX3_TRACE2:
        ok = ok and sigma_sp(sigma_sp(state)) == state
    for state in JDT_TRACE1 + JDT_TRACE2:
        ok = ok and sigma_sl(sigma_sl(state)) == state
    corpus = [
        Tableau.sp(3, [(1, 2, 5), (2, 5)]),
        Tableau.sp(4, [(1, 2, 3, 6), (1, 3, 6), (3, 6)]),
        Tableau.sp(4, [(1, 2, 6)]),
        Tableau.sp(9, [(1, 2, 3, 7, 8, 11, 16, 17, 18)]),
        Tableau.sp(4, [(1, 6, 7, 8)]),
        Tableau.sp(3, []),
        Tableau.sl(7, ((2, 3, 4, 5), (2, 3, 6, 7), (4, 5))),
        Tableau.sl(3, ((1, 3), (2,))),
    ]
    for t in corpus:
        ok = ok and parse(render(t), t.n, t.kind) == t
        ok = ok and tableau_from_json(tableau_to_json(t)) == t
    elapsed = time.perf_counter() - t0
    report(10, ok, "column recovery (n<=5), reversal involutions, parse/render identity", elapsed, 30.0)
