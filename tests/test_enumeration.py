from fractions import Fraction
from itertools import product
from math import comb

import pytest

from sptab import enumeration
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
from sptab.tableaux import Tableau, is_quasistandard_sp, is_semistandard_sl, weight_subshapes


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
    # the empty shape used to give one tableau of any rank
    for n in (0, -2):
        for enum in (enum_ss_sp, enum_qs_sp, enum_ss_sl, enum_qs_sl):
            with pytest.raises(TableauError):
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
        assert all(is_semistandard_sl(t) for t in got)
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
    # QS(lambda) is filtered from SS(lambda); only the shapes below are enumerated again
    lam, calls = (2, 1, 1), []
    real = enumeration.enum_qs_sp
    monkeypatch.setattr(enumeration, "enum_qs_sp", lambda n, mu: calls.append(mu) or real(n, mu))
    r = verify_bijection(3, lam)
    assert r["status"] == "pass"
    assert calls == [mu for mu in weight_subshapes(lam, 3) if mu != lam]
    assert list(r["counts"]["qs_by_subshape"].items()) == [
        (",".join(map(str, mu)), len(real(3, mu))) for mu in weight_subshapes(lam, 3)
    ]


def test_verify_bijection_rank4_small():
    for lam in shapes_up_to(4, 4):
        assert verify_bijection(4, lam)["status"] == "pass"
