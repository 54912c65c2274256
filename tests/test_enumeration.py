import gc
import weakref
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from sptab import enumeration, taquin_sp
from sptab.enumeration import (
    enum_admissible_columns,
    enum_qs_sl,
    enum_qs_sp,
    enum_ss_sl,
    enum_ss_sp,
    shapes_up_to,
    verify_bijection,
    weyl_dim_sp,
)
from sptab.errors import ShapeError, TableauError
from sptab.tableaux import Tableau, first_grid_violation, is_quasistandard_sp, weight_subshapes


def test_column_counts():
    cols = enum_admissible_columns(2, 2)
    assert [c.codes() for c in cols] == [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
    assert len(enum_admissible_columns(3, 3)) == 14
    for n in (2, 3, 4):
        assert len(enum_admissible_columns(n, 1)) == 2 * n
    for n in (2, 3, 4):
        for k in range(2, n + 1):
            assert len(enum_admissible_columns(n, k)) == comb(2 * n, k) - comb(2 * n, k - 2)
    with pytest.raises(ShapeError):
        enum_admissible_columns(3, 4)


def test_admissible_count_equals_the_enumeration_and_the_formula():
    # the count reads the generator the enumeration builds from, and equals
    # the kernel dimension C(2n, k) - C(2n, k - 2) of the column case
    for n in range(1, 7):
        for k in range(1, n + 1):
            formula = comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
            assert enumeration._admissible_count(n, k) == len(enum_admissible_columns(n, k)) == formula, (n, k)
    with pytest.raises(ShapeError, match=r"^height 4 exceeds the maximum 3$"):
        enumeration._admissible_count(3, 4)


@pytest.mark.parametrize(
    "enum, args",
    [
        (enum_admissible_columns, (1,)),
        (enumeration._admissible_count, (1,)),
        (enum_ss_sp, ((1,),)),
        (enum_qs_sp, ((1,),)),
        (enum_ss_sl, ((1,),)),
        (enum_qs_sl, ((1,),)),
    ],
    ids=["admissible", "admissible-count", "ss-sp", "qs-sp", "ss-sl", "qs-sl"],
)
def test_enumerators_check_the_rank_before_the_shape(enum, args):
    # a shape fault used to be reported for a non-positive rank
    for n in (0, -1):
        with pytest.raises(TableauError, match=f"^rank must be positive, got {n}$"):
            enum(n, *args)


def test_enum_ss_sp_counts_and_membership():
    assert len(enum_ss_sp(2, (2,))) == 5
    t = Tableau.sp(3, [(1, 2, 5), (2, 5)])
    assert t in enum_ss_sp(3, (3, 2))
    assert enum_ss_sp(3, ()) == [Tableau.sp(3, [])]
    assert enum_qs_sp(3, ()) == [Tableau.sp(3, [])]


def test_enum_qs_is_filtered_ss():
    for n, shape in [(2, (2, 1)), (2, (1, 1)), (3, (2,))]:
        ss = enum_ss_sp(n, shape)
        assert enum_qs_sp(n, shape) == [t for t in ss if is_quasistandard_sp(t)]


def test_weyl_dims():
    assert weyl_dim_sp(2, (1, 0)) == 4
    assert weyl_dim_sp(2, (0, 1)) == 5
    assert weyl_dim_sp(2, (1, 1)) == 16
    assert weyl_dim_sp(3, (0, 1, 1)) == 126
    assert weyl_dim_sp(3, (0, 0, 0)) == 1
    with pytest.raises(ShapeError):
        weyl_dim_sp(2, (1, -1))
    with pytest.raises(ShapeError):
        weyl_dim_sp(2, (1,))
    for n in (0, -1):
        with pytest.raises(ShapeError):
            weyl_dim_sp(n, ())


def weyl_dim_fraction(n, mult):
    """The Weyl product as a product of fractions, one per positive root."""
    v = [sum(mult[i:]) + n - i for i in range(n)]
    rho = [n - i for i in range(n)]
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(v[i] - v[j], rho[i] - rho[j]) * Fraction(v[i] + v[j], rho[i] + rho[j])
        dim *= Fraction(v[i], rho[i])
    assert dim.denominator == 1
    return dim.numerator


def test_weyl_dim_matches_the_fraction_product():
    mults = [m for n in range(1, 5) for m in product(range(4), repeat=n)]
    mults += [(5, 0, 2, 0, 1), (1, 1, 1, 1, 1), (0, 0, 0, 0, 7), (2, 3, 0, 1, 0, 4), (9, 0, 0, 0, 0, 1)]
    for mult in mults:
        got = weyl_dim_sp(len(mult), mult)
        assert type(got) is int and got == weyl_dim_fraction(len(mult), mult), mult


def test_enumerators_reject_rank_below_one():
    # the empty shape used to give one tableau of any rank; the generators
    # build their tableaux unchecked, so they give the constructor's message
    for n in (0, -1, -2):
        for enum in (enum_ss_sp, enum_qs_sp, enum_ss_sl, enum_qs_sl):
            with pytest.raises(TableauError, match=f"^rank must be positive, got {n}$"):
                enum(n, ())


def brute_ss_sl(n, heights):
    """Independent cell-by-cell generator for the plain-letter count."""
    cells = [(i, j) for j, h in enumerate(heights, start=1) for i in range(1, h + 1)]
    cells.sort()
    count = 0
    grid = {}

    def rec(idx):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        i, j = cells[idx]
        for v in range(1, n + 1):
            if (i - 1, j) in grid and grid[(i - 1, j)] >= v:
                continue
            if (i, j - 1) in grid and grid[(i, j - 1)] > v:
                continue
            grid[(i, j)] = v
            rec(idx + 1)
            del grid[(i, j)]

    rec(0)
    return count


def test_enum_ss_sl_against_brute_force():
    n = 3
    for lam in shapes_up_to(n - 1, 4):
        got = enum_ss_sl(n, lam)
        assert all(first_grid_violation(t.grid()) is None for t in got)
        assert len(got) == brute_ss_sl(n, lam)
        assert len(set(got)) == len(got)
    assert len(enum_qs_sl(3, (1,))) == 2


def test_shapes_up_to():
    assert shapes_up_to(2, 3) == [(), (1,), (1, 1), (2,), (1, 1, 1), (2, 1)]
    assert shapes_up_to(1, 2) == [(), (1,), (1, 1)]
    assert all(sum(s) <= 5 and (not s or s[0] <= 3) for s in shapes_up_to(3, 5))


def test_verify_bijection_examples():
    r = verify_bijection(2, (2, 1))
    assert r["status"] == "pass"
    assert r["counts"]["ss"] == r["counts"]["weyl"] == 16
    assert r["counts"]["qs_by_subshape"] == {"": 1, "1": 3, "2": 4, "2,1": 8}

    r = verify_bijection(2, ())
    assert r["status"] == "pass" and r["counts"]["ss"] == 1

    r = verify_bijection(3, (3, 2))
    assert r["status"] == "pass"
    assert r["counts"]["ss"] == weyl_dim_sp(3, (0, 1, 1)) == 126


def test_enum_deterministic_order():
    a = [t.grid() for t in enum_ss_sp(2, (2, 1))]
    b = [t.grid() for t in enum_ss_sp(2, (2, 1))]
    assert a == b and a == sorted(a)


def test_verify_bijection_enumerates_its_own_shape_once(monkeypatch):
    # QS(lambda) is filtered from SS(lambda); the shapes below are enumerated
    # once per process, so a second run enumerates nothing again
    lam, calls = (2, 1, 1), []
    real = enumeration.enum_qs_sp
    enumeration._qs_count.cache_clear()
    monkeypatch.setattr(enumeration, "enum_qs_sp", lambda n, mu: calls.append(mu) or real(n, mu))
    r = verify_bijection(3, lam)
    assert r["status"] == "pass"
    assert calls == [mu for mu in weight_subshapes(lam, 3) if mu != lam]
    assert list(r["counts"]["qs_by_subshape"].items()) == [
        (",".join(map(str, mu)), len(real(3, mu))) for mu in weight_subshapes(lam, 3)
    ]
    calls.clear()
    assert verify_bijection(3, lam) == r
    assert calls == []


def test_verify_bijection_reports_a_duplicate_and_an_outside_image(monkeypatch):
    # phi sends ss[1] to ss[3]'s image, ss[2] to a shape not below lambda and
    # ss[4] to a q that is not quasi-standard; psi undoes whatever phi was given
    n, lam = 2, (2, 1)
    ss = enum_ss_sp(n, lam)
    real, fed = taquin_sp.phi, []
    wrong = {
        ss[1]: real(ss[3]),
        ss[2]: ((2, 2), Tableau.sp(n, [(1, 2), (3, 4)])),
        ss[4]: ((2,), Tableau.sp(n, [(1, 2)])),
    }
    monkeypatch.setattr(taquin_sp, "phi", lambda t: fed.append(t) or wrong.get(t) or real(t))
    monkeypatch.setattr(taquin_sp, "psi", lambda lam, mu, q: fed[-1])
    r = verify_bijection(n, lam)
    assert r["status"] == "fail" and r["round_trip_failures"] == []
    assert r["problems"] == [
        "phi image outside the union: shape (2, 2)",
        "phi not injective: ((1,), (SymplecticColumn(n=2, A=frozenset(), D=frozenset({1})),)) hit twice",
        "phi image outside the union: shape (2,)",
        "3 quasi-standard tableaux not reached",
    ]


def test_verify_bijection_rank5_up_to_5_boxes():
    reports = [verify_bijection(5, lam) for lam in shapes_up_to(5, 5)]
    assert len(reports) == 19 and sum(r["counts"]["ss"] for r in reports) == 24903
    assert all(r["status"] == "pass" for r in reports)


def test_enumeration_leaves_no_reference_cycle():
    # the tableaux go when their list goes, without the cyclic collector
    gc.disable()
    try:
        ts = enum_ss_sp(3, (2, 1))
        ref = weakref.ref(ts[0])
        del ts
        assert ref() is None
    finally:
        gc.enable()


def test_verify_bijection_rank4_small():
    for lam in shapes_up_to(4, 4):
        assert verify_bijection(4, lam)["status"] == "pass"


@pytest.fixture
def fresh_qs_counts():
    # a patched generator must not leave its counts in the memo
    counts = enumeration._qs_count
    counts.cache_clear()
    yield
    counts.cache_clear()


def test_verify_bijection_fails_when_only_the_weyl_dimension_disagrees(monkeypatch, fresh_qs_counts):
    # without the column [1'] the semi-standard and quasi-standard sets
    # shrink together and phi still maps the one onto the other
    n, lam, real = 2, (2, 1), enumeration.enum_admissible_columns
    dropped = Tableau.sp(n, [(4,)]).columns[0]
    monkeypatch.setattr(
        enumeration, "enum_admissible_columns", lambda n, k: tuple(c for c in real(n, k) if c != dropped)
    )
    r = verify_bijection(n, lam)
    assert (r["problems"], r["round_trip_failures"]) == ([], [])
    assert (r["counts"]["ss"], sum(r["counts"]["qs_by_subshape"].values()), r["counts"]["weyl"]) == (11, 11, 16)
    assert r["status"] == "fail"


def test_verify_bijection_reports_a_quasi_standard_image_of_a_shape_not_below(monkeypatch):
    # [[2],[2],[2]] is semi-standard and quasi-standard, but (1, 1, 1) is not
    # below (2, 1) in the weight order
    n, lam = 2, (2, 1)
    ss = enum_ss_sp(n, lam)
    real, fed = taquin_sp.phi, []
    outside = Tableau.sp(n, [(2,), (2,), (2,)])
    monkeypatch.setattr(taquin_sp, "phi", lambda t: fed.append(t) or (((1, 1, 1), outside) if t == ss[0] else real(t)))
    monkeypatch.setattr(taquin_sp, "psi", lambda lam, mu, q: fed[-1])
    r = verify_bijection(n, lam)
    assert r["problems"] == ["phi image outside the union: shape (1, 1, 1)", "1 quasi-standard tableaux not reached"]
    assert r["status"] == "fail"


def test_verify_bijection_reports_more_images_than_counted(monkeypatch):
    # a count one short of |QS(mu)| leaves one image more than it counts
    n, lam, real = 2, (2, 1), enumeration._qs_count
    monkeypatch.setattr(enumeration, "_qs_count", lambda n, mu: real(n, mu) - (mu == (2,)))
    r = verify_bijection(n, lam)
    assert r["problems"] == ["-1 quasi-standard tableaux not reached"]
    assert r["counts"]["qs_by_subshape"]["2"] == 3 and r["status"] == "fail"
