from itertools import product

import pytest

from sptab.columns import SymplecticColumn
from sptab.enumeration import shapes_up_to
from sptab.errors import ParseError, ShapeError, TableauError
from sptab.tableaux import (
    Tableau,
    dble_tableau,
    first_grid_violation,
    is_quasistandard_grid,
    is_quasistandard_sl,
    is_quasistandard_sp,
    is_semistandard_grid,
    is_semistandard_sp,
    multiplicities_to_shape,
    nqs_grid,
    nqs_rows,
    nqs_with_height,
    parse,
    render,
    shape_contains,
    shape_to_multiplicities,
    skew_cells,
    tableau_from_json,
    tableau_to_json,
    weight_leq,
    weight_subshapes,
)

F = frozenset

# the rank-3 running example [1,2,2' | 2,2'] (2' is code 5)
T_RANK3 = Tableau.sp(3, [(1, 2, 5), (2, 5)])


# ---------------------------------------------------------------------------
# shapes


def test_shape_multiplicities_round_trip():
    assert shape_to_multiplicities((4, 3, 2), 4) == (0, 1, 1, 1)
    assert multiplicities_to_shape((0, 1, 1, 1)) == (4, 3, 2)
    assert shape_to_multiplicities((), 3) == (0, 0, 0)
    with pytest.raises(ShapeError):
        shape_to_multiplicities((1, 2), 3)


def test_shape_contains():
    assert shape_contains((4,), (4, 3, 2))
    assert shape_contains((2, 1), (2, 1))
    assert not shape_contains((3,), (2, 2))
    assert shape_contains((), ())


def test_skew_cells_golden():
    cells = skew_cells((4, 3, 2), (4,))
    assert len(cells) == 5
    assert cells == [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
    assert skew_cells((2, 1), (2, 1)) == []
    with pytest.raises(ShapeError):
        skew_cells((2,), (3,))


def brute_subshapes(lam):
    """Independent enumeration: all height tuples in the bounding box."""
    if not lam:
        return {()}
    out = set()
    for hs in product(range(lam[0] + 1), repeat=len(lam)):
        k = len(hs)
        while k and hs[k - 1] == 0:
            k -= 1
        cand = hs[:k]
        if 0 in cand or any(a < b for a, b in zip(cand, cand[1:])):
            continue
        if shape_contains(cand, lam):
            out.add(cand)
    return out


def subshapes(lam):
    """The shapes contained in lambda as diagrams."""
    return [mu for mu in shapes_up_to(max(lam, default=0), sum(lam)) if shape_contains(mu, lam)]


def test_subshapes_against_brute_force():
    for lam in [(), (2,), (2, 1), (3, 2, 2), (4, 3, 2), (1, 1, 1)]:
        got = subshapes(lam)
        assert len(got) == len(set(got))
        assert set(got) == brute_subshapes(lam)
    assert sorted(subshapes((2,))) == [(), (1,), (2,)]


def test_weight_order_differs_from_containment():
    # one column of height 2 versus two of height 1
    assert shape_contains((1, 1), (2, 1))
    assert not weight_leq((1, 1), (2, 1), 2)
    assert weight_leq((2,), (2, 1), 2)
    assert set(weight_subshapes((2, 1), 2)) == {(), (1,), (2,), (2, 1)}
    assert set(subshapes((2, 1))) == {(), (1,), (2,), (1, 1), (2, 1)}


# ---------------------------------------------------------------------------
# doubling and predicates


def test_dble_tableau_golden_rank3():
    grid = dble_tableau(T_RANK3)
    # rows: 1 1 2 3 / 2 3 3' 2' / 3' 2'   (codes: 3'->4, 2'->5)
    assert grid == ((1, 2, 4), (1, 3, 5), (2, 4), (3, 5))


def test_dble_tableau_trivia():
    assert dble_tableau(Tableau.sp(3, [])) == ()
    t = Tableau.sp(4, [(1, 2, 3)])
    assert dble_tableau(t) == ((1, 2, 3), (1, 2, 3))


def test_dble_heights_duplicate_pairwise():
    grid = dble_tableau(T_RANK3)
    heights = tuple(len(c) for c in grid)
    assert heights == (3, 3, 2, 2)


def test_semistandard_grid():
    assert is_semistandard_grid(((1, 2, 4), (1, 3, 5), (2, 4), (3, 5)))
    assert not is_semistandard_grid(((2, 1),))
    assert first_grid_violation(((2, 1),)) == ("column", 2, 1)
    assert first_grid_violation(((1, 1),)) == ("column", 2, 1)
    assert is_semistandard_grid(((1,), (1,), (1,)))
    assert first_grid_violation(((2,), (1,))) == ("row", 1, 2)
    assert first_grid_violation(((1,), (1, 2))) == ("shape", 1, 2)


def test_first_grid_violation_skips_empty_cells():
    # None is a vacated or star cell of a skew grid; only filled neighbours
    # are compared, across it neither down a column nor along a row
    assert first_grid_violation(((None, 2, None, 1), (None, None))) is None
    assert first_grid_violation(((None, 2, None, 1), (None, 1))) == ("row", 2, 2)
    assert first_grid_violation(((None, 3, 4), (2, None, 3))) == ("row", 3, 2)


def test_quasistandard_split_golden():
    # the running example is quasi-standard on its visible letters but its
    # double is not
    assert is_quasistandard_grid(T_RANK3.grid())
    assert not is_quasistandard_sp(T_RANK3)
    assert is_semistandard_sp(T_RANK3)
    assert 2 in nqs_rows(dble_tableau(T_RANK3))


def test_nqs_sl_examples():
    t = Tableau.sl(3, ((1, 3), (2,)))
    assert nqs_grid(t.grid(), 1)
    assert not is_quasistandard_sl(t)
    assert is_quasistandard_sl(Tableau.sl(3, ((3,),)))
    assert not nqs_grid(Tableau.sl(3, ((2, 3),)).grid(), 1)
    empty = Tableau.sl(3, ())
    assert all(not nqs_grid(empty.grid(), s) for s in range(1, 4))
    assert is_quasistandard_sl(empty)


def test_nqs_grid_vacuous_inequalities():
    # a single trivial column is non-quasi-standard at its full height
    assert nqs_grid(((1, 2),), 2)
    assert not nqs_grid(((1, 2),), 1)


def test_is_semistandard_sp_rejects_inadmissible_column():
    t = Tableau(2, "sp", (SymplecticColumn(2, F({2}), F({2})),))
    assert not is_semistandard_sp(t)


def test_single_admissible_column_is_semistandard():
    from sptab.enumeration import enum_admissible_columns

    for n in (2, 3):
        for k in range(1, n + 1):
            for c in enum_admissible_columns(n, k):
                assert is_semistandard_sp(Tableau(n, "sp", (c,)))


def test_example4_pushable():
    t = Tableau.sp(4, [(1, 2, 3, 6), (1, 3, 6), (3, 6)])
    assert not is_quasistandard_sp(t)
    assert max(nqs_rows(dble_tableau(t))) == 3
    assert nqs_with_height(t, 3)


def test_quasistandard_single_column_nontrivial_top():
    t = Tableau.sp(3, [(2, 4)])  # [2, 3']
    assert is_quasistandard_sp(t)


# ---------------------------------------------------------------------------
# rendering and serialization


def test_render_single_column():
    t = Tableau.sp(4, [(1, 2, 8)])  # [1, 2, 1']
    assert render(t) == "1\n2\n1'"


def test_render_parse_round_trip():
    corpus = [
        T_RANK3,
        Tableau.sp(4, [(1, 2, 3, 6), (1, 3, 6), (3, 6)]),
        Tableau.sp(9, [(1, 2, 3, 7, 8, 11, 16, 17, 18)]),
        Tableau.sp(3, []),
        Tableau.sl(3, ((1, 3), (2,))),
        Tableau.sl(7, ((2, 3, 4, 5), (2, 3, 6, 7), (4, 5))),
    ]
    for t in corpus:
        assert parse(render(t), t.n, t.kind) == t
        assert tableau_from_json(tableau_to_json(t)) == t


def test_tableau_json_golden():
    assert tableau_to_json(T_RANK3) == {
        "n": 3,
        "kind": "sp",
        "columns": [[1, 2, -2], [2, -2]],
    }
    assert tableau_from_json({"n": 3, "kind": "sp", "columns": [[1, 2, -2], [2, -2]]}) == T_RANK3


def test_parse_flags_bad_columns():
    with pytest.raises(ParseError):
        tableau_from_json({"n": 2, "kind": "sp", "columns": [[2, 2]]})
    with pytest.raises(ParseError):
        tableau_from_json({"n": 3, "kind": "sp", "columns": [[1], [1, 2]]})
    with pytest.raises(ParseError):
        parse("1  x", 3, "sl")


def test_tableau_validation():
    with pytest.raises(TableauError):
        Tableau.sl(3, ((1, 2, 3),))  # height must stay below the rank
    with pytest.raises(TableauError):
        Tableau.sp(2, [(1,), (1, 2)])  # heights must weakly decrease
    with pytest.raises(TableauError):
        Tableau.sl(3, ((4,),))
    # a tableau with no columns used to carry any rank, so a rank -1 request
    # passed every check
    for n in (0, -1):
        for build in (Tableau.sl, Tableau.sp):
            with pytest.raises(TableauError):
                build(n, ())
    with pytest.raises(ParseError):
        tableau_from_json({"n": -1, "kind": "sp", "columns": []})
