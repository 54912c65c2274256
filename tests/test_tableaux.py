import re
from itertools import combinations, product

import pytest

from sptab import tableaux
from sptab.columns import SymplecticColumn
from sptab.enumeration import enum_admissible_columns, enum_ss_sl, enum_ss_sp, shapes_up_to
from sptab.errors import InadmissibleColumnError, ParseError, ShapeError, TableauError
from sptab.tableaux import (
    Tableau,
    dble_tableau,
    first_grid_violation,
    is_quasistandard_sl,
    is_quasistandard_sp,
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


def test_weight_subshapes_order_and_lazy_check():
    # multiplicities (a_1, a_2) = (1, 2), the count of height-2 columns fastest
    assert list(weight_subshapes((2, 2, 1), 2)) == [(), (2,), (2, 2), (1,), (2, 1), (2, 2, 1)]
    walk = weight_subshapes((0,), 2)  # a generator: the shape is checked at the first next()
    with pytest.raises(ShapeError):
        next(walk)


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
    assert first_grid_violation(((1, 2, 4), (1, 3, 5), (2, 4), (3, 5))) is None
    assert first_grid_violation(((2, 1),)) is not None
    assert first_grid_violation(((2, 1),)) == ("column", 2, 1)
    assert first_grid_violation(((1, 1),)) == ("column", 2, 1)
    assert first_grid_violation(((1,), (1,), (1,))) is None
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
    assert not nqs_rows(T_RANK3.grid())
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
    for n in (2, 3):
        for k in range(1, n + 1):
            for c in enum_admissible_columns(n, k):
                assert is_semistandard_sp(Tableau(n, "sp", (c,)))


def arbitrary_sp_columns(n, k):
    """Every rank-n column (A, D) of height k, admissible or not."""
    return [
        SymplecticColumn(n, F(A), F(D))
        for a in range(k + 1)
        for A in combinations(range(1, n + 1), a)
        for D in combinations(range(1, n + 1), k - a)
    ]


def tableaux_of(n, kind, hmax, max_boxes, columns):
    """Every tableau whose column of height k is any of columns(n, k)."""
    for shape in shapes_up_to(hmax, max_boxes):
        for cols in product(*(columns(n, k) for k in shape)):
            yield Tableau(n, kind, cols)


def test_admissible_double_is_semistandard_on_its_own():
    # the premise of the neighbour rule: an admissible column is sound
    for n in range(1, 8):
        for k in range(1, n + 1):
            for c in enum_admissible_columns(n, k):
                d = dble_tableau(Tableau(n, "sp", (c,)))
                assert first_grid_violation(d) is None, c


def whole_grid_sp(t):
    try:
        return first_grid_violation(dble_tableau(t)) is None
    except InadmissibleColumnError:
        return False


def test_semistandard_sp_is_the_whole_grid_pass():
    seen = {True: 0, False: 0}
    for n in (2, 3):
        for t in tableaux_of(n, "sp", n, 4, arbitrary_sp_columns):
            verdict = is_semistandard_sp(t)
            assert verdict == whole_grid_sp(t), t.columns
            seen[verdict] += 1
    assert seen[True] and seen[False] > seen[True]


def test_semistandard_sl_is_the_whole_grid_pass():
    # arbitrary letter columns, also repeated or decreasing letters
    seen = {True: 0, False: 0}
    for n in (3, 4):
        for t in tableaux_of(n, "sl", n - 1, 4, lambda n, k: list(product(range(1, n + 1), repeat=k))):
            verdict = t._semistandard  # folded from the column and pair memos
            assert verdict == (first_grid_violation(t.grid()) is None), t.columns
            seen[verdict] += 1
    assert seen[True] and seen[False] > seen[True]


def pushable_reference(grid, s):
    """A column of height s, and the cross inequalities at row s."""
    height = any(len(c) == s for c in grid)
    return height and all(r[s - 1] < l[s] for l, r in zip(grid, grid[1:]) if len(r) >= s and len(l) > s)


def nqs_reference(grid, s):
    """Non-quasi-standardness at row s, from its three conditions."""
    top = bool(grid) and len(grid[0]) >= s and all(grid[0][i] == i + 1 for i in range(s))
    return top and pushable_reference(grid, s)


def test_nqs_rows_is_the_per_row_reference():
    # the grid pass and the tableau's fold over its column and pair memos
    # (fresh builds, so the fold runs rather than the generators' record)
    # both equal the rows the three conditions give
    grids = []
    for n, boxes in ((1, 6), (2, 6), (3, 6), (4, 5)):
        for shape in shapes_up_to(n, boxes):
            for t in enum_ss_sp(n, shape):
                grids += [(dble_tableau(t), Tableau(n, "sp", t.columns)), (t.grid(), None)]
    for n in (1, 2, 3, 4, 5):
        for shape in shapes_up_to(n - 1, 6):
            grids += [(t.grid(), Tableau(n, "sl", t.columns)) for t in enum_ss_sl(n, shape)]
    witnessed = 0
    for grid, t in grids:
        tallest = max(map(len, grid), default=0)
        rows = tuple(s for s in range(1, tallest + 1) if nqs_reference(grid, s))
        assert nqs_rows(grid) == rows, grid
        assert t is None or t._nqs_rows == rows, grid
        if t is not None and t.kind == "sp":
            assert all(nqs_with_height(t, s) == pushable_reference(grid, s) for s in range(tallest + 2))
        assert all(nqs_grid(grid, s) == nqs_reference(grid, s) for s in range(tallest + 2))
        witnessed += bool(rows)
    assert 0 < witnessed < len(grids)


def test_nqs_rows_raise_at_the_first_inadmissible_column():
    # [2,3,3'] and [3,3'] are not admissible at rank 3; the fold reads every
    # column, also when no row is a candidate ([2,3] has no trivial top)
    bad3, bad2 = SymplecticColumn(3, F({2, 3}), F({3})), SymplecticColumn(3, F({3}), F({3}))
    for cols, first in (((bad3, bad2), bad3), ((SymplecticColumn(3, F({1, 2, 3}), F()), bad2), bad2),
                        ((SymplecticColumn(3, F({2, 3}), F()), bad2), bad2)):
        message = f"^column {re.escape(str(first))} is not admissible for rank 3$"
        with pytest.raises(InadmissibleColumnError, match=message):
            dble_tableau(Tableau(3, "sp", cols))
        for read in (lambda t: t._nqs_rows, is_quasistandard_sp):
            with pytest.raises(InadmissibleColumnError, match=message):
                read(Tableau(3, "sp", cols))


def test_quasistandard_predicates_check_their_alphabet(monkeypatch):
    # the plain-letter tableau [[1,2],[1]] once got a verdict from
    # is_quasistandard_sp on its letters
    plain = Tableau.sl(4, ((1, 2), (1,)))
    for predicate in (is_semistandard_sp, is_quasistandard_sp):
        with pytest.raises(TableauError, match="^expects a symplectic tableau$"):
            predicate(plain)
    # on plain letters is_quasistandard_sl reads the rows the generators
    # record, with no grid pass; on a symplectic tableau, its visible letters
    ts = [t for shape in shapes_up_to(3, 4) for t in enum_ss_sl(4, shape)]
    expected = [not nqs_rows(t.grid()) for t in ts]
    assert all("_nqs_rows" in t.__dict__ for t in ts) and True in expected and False in expected
    monkeypatch.setattr(tableaux, "nqs_rows", None)
    assert [is_quasistandard_sl(t) for t in ts] == expected
    assert is_quasistandard_sl(plain) is False


def test_nqs_with_height_checks_its_alphabet():
    # on plain letters it once answered False at s = 1, not a height, and
    # raised "only symplectic tableaux have a double" at s = 2, a height
    plain = Tableau.sl(4, ((1, 2),))
    for s in (1, 2):
        with pytest.raises(TableauError, match="^expects a symplectic tableau$"):
            nqs_with_height(plain, s)


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


def test_parse_rejects_an_unknown_kind():
    # it built a symplectic tableau, as tableau_from_json rejects the same kind
    with pytest.raises(ParseError, match="^unknown kind 'xx'$"):
        parse("1", 3, "xx")
    with pytest.raises(ParseError, match="^unknown kind 'xx'$"):
        tableau_from_json({"n": 3, "kind": "xx", "columns": [[1]]})


@pytest.mark.parametrize(
    "build, message",
    [
        # the heights were read first: an AttributeError
        (lambda: Tableau(3, "sp", ((1,),)), "column 1 is not a rank-3 symplectic column"),
        (lambda: Tableau(3, "sp", (5,)), "column 1 is not a rank-3 symplectic column"),
        (lambda: Tableau.sl(3, [5]), "column 1 is not a rank-3 plain-letter column"),
        # a bare TypeError, then an accepted float
        (lambda: Tableau.sl(3, [[1, "a"]]), r"column 1 has entries outside \[1, 3\]"),
        (lambda: Tableau.sl(3, [[1], [1.5]]), r"column 2 has entries outside \[1, 3\]"),
        (lambda: Tableau.sp(3, [[1, "a"]]), r"column 1: codes must be strictly increasing within \[1, 6\]"),
        (lambda: Tableau.sp(3, [[1, 8]]), r"column 1: codes must be strictly increasing within \[1, 6\]"),
        # the extended codes 0 and 2n+1 were blamed on the order, as above
        (lambda: Tableau.sp(3, [[0, 1]]), "column 1 contains the extended letter 0"),
        (lambda: Tableau.sp(3, [[1, 2], [7]]), "column 2 contains the extended letter 0"),
        # the codes were judged first, within the empty range [1, 0]
        (lambda: Tableau.sp(0, [(1,)]), "rank must be positive, got 0"),
    ],
    ids=[
        "sp-tuple", "sp-int", "sl-int", "sl-str", "sl-float", "sp-codes-str", "sp-code-above",
        "sp-code-zero", "sp-code-zero-bar", "sp-rank-first",
    ],
)
def test_malformed_columns_raise_tableau_errors(build, message):
    with pytest.raises(TableauError, match=f"^{message}$"):
        build()


def test_a_letter_above_the_rank_is_named_before_the_shape_in_both_alphabets():
    # a plain letter used to be judged by a range after the shape, as in
    # "column 1 has entries outside [1, 3]" or "height 3 exceeds the maximum 2",
    # and a symplectic one escaped as a LetterError
    for kind in ("sl", "sp"):
        with pytest.raises(ParseError, match="^magnitude 5 exceeds rank 3$"):
            parse("5", 3, kind)
        for columns in ([[5]], [[1, 2, 5]], [[1, 2, 3, 5]]):
            with pytest.raises(ParseError, match="^magnitude 5 exceeds rank 3$"):
                tableau_from_json({"n": 3, "kind": kind, "columns": columns})


def test_parse_rejects_a_row_longer_than_the_row_above():
    # the third row once lent its second cell to the second row: the text
    # parsed to the columns of "1  1  1\n2  3\n3"
    with pytest.raises(ParseError, match="^row 3 is longer than row 2$"):
        parse("1  1  1\n2\n3  3\n", 4, "sl")
    with pytest.raises(ParseError, match="^row 2 is longer than row 1$"):
        parse("1\n2  3\n", 4, "sl")
    assert parse("1  1  1\n2  3\n3\n", 4, "sl").columns == ((1, 2, 3), (1, 3), (1,))


def test_check_kind_and_dble_tableau_check_their_alphabet():
    with pytest.raises(TableauError, match="^expects a plain-letter tableau$"):
        tableaux.check_kind(T_RANK3, "sl")
    with pytest.raises(TableauError, match="^only symplectic tableaux have a double$"):
        dble_tableau(Tableau.sl(4, ((1, 2),)))


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
    with pytest.raises(TableauError, match="^unknown kind 'xx'$"):
        Tableau(3, "xx", ())
    with pytest.raises(TableauError, match="^column 2 is not a rank-3 symplectic column$"):
        Tableau(3, "sp", (SymplecticColumn(3, F({1}), F()), SymplecticColumn(4, F({1}), F())))
    with pytest.raises(TableauError, match="^column 1 contains the extended letter 0$"):
        Tableau(3, "sp", (SymplecticColumn(3, F({0, 1}), F()),))
