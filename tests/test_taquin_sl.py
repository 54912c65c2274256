
import pytest

from sptab import taquin_sl
from sptab.errors import ShapeError, TableauError, TaquinInvariantError
from sptab.tableaux import Tableau, first_grid_violation, nqs_rows, skew_cells, weight_subshapes
from sptab.taquin_sl import (
    SlSkewColumn,
    SlSkewTableau,
    expand_sl,
    jdt_step,
    jdt_to_rest,
    reduce_sl,
    shed,
    sigma_sl,
    slide_pass_sl,
)

N = 7


def skew(n, *cols):
    return SlSkewTableau(n, tuple(SlSkewColumn(*c) for c in cols))


def is_semistandard_skew_sl(state):
    """One generic grid pass over the letters placed by row, None at vacated
    and star cells."""
    return first_grid_violation([c.rows(c.letters) for c in state.columns]) is None


def jdt_inverse(state):
    """Inverse slide: the reversal conjugate of the forward slide."""
    return sigma_sl(jdt_to_rest(sigma_sl(state))[0])


# the two worked slide chains (rank 7 letters)
TRACE1_START = skew(N, (1, (4, 5), 2), (0, (2, 3, 6, 7)), (0, (4, 5)))
TRACE2_START = skew(N, (1, (4, 5), 2), (0, (2, 3, 5, 7)), (0, (4, 6)))


def test_trace1_golden():
    states = [TRACE1_START]
    while True:
        nxt = jdt_step(states[-1])
        if nxt is None:
            break
        states.append(nxt)
        assert is_semistandard_skew_sl(nxt)
    assert [s.star for s in states] == [(2, 1), (2, 2), (2, 3)]
    assert states[1] == skew(N, (1, (3, 4, 5)), (0, (2, 6, 7), 2), (0, (4, 5)))
    assert states[2] == skew(N, (1, (3, 4, 5)), (0, (2, 5, 6, 7)), (0, (4,), 2))
    final = shed(states[-1])
    assert final == skew(N, (1, (3, 4, 5)), (0, (2, 5, 6, 7)), (0, (4,)))


def test_trace2_golden():
    rest, path = jdt_to_rest(TRACE2_START)
    assert path == [(2, 1), (2, 2), (3, 2), (4, 2)]
    assert rest == skew(N, (1, (3, 4, 5)), (0, (2, 5, 7), 4), (0, (4, 6)))
    final = shed(rest)
    assert final == skew(N, (1, (3, 4, 5)), (0, (2, 5, 7)), (0, (4, 6)))


def test_lone_star_sheds_immediately():
    state = skew(3, (0, (), 1))
    rest, path = jdt_to_rest(state)
    assert path == [(1, 1)]
    assert tuple(c.height for c in shed(rest).columns) == (0,)


def test_sigma_golden_display():
    rest, _ = jdt_to_rest(TRACE2_START)
    sg = sigma_sl(rest)
    # rows: [_,*,3] / [_,1,4] / [2,3,5] / [4,6]
    assert sg == skew(N, (2, (2, 4)), (0, (1, 3, 6), 1), (0, (3, 4, 5)))
    assert sigma_sl(sg) == rest


def test_sigma_single_cell_fixed_point():
    state = skew(N, (0, (4,)))
    assert sigma_sl(state) == state


def test_jdt_inverse_four_panel():
    rest, _ = jdt_to_rest(TRACE2_START)
    sg = sigma_sl(rest)
    mid, path = jdt_to_rest(sg)
    assert mid == skew(N, (2, (2, 4)), (0, (1, 3, 5, 6)), (0, (3, 4), 3))
    assert path == [(1, 2), (2, 2), (3, 2), (3, 3)]
    assert sigma_sl(mid) == TRACE2_START
    assert jdt_inverse(rest) == TRACE2_START


def enum_skew_fillings(n, lam, mu):
    """All semi-standard fillings of lam minus mu, brute force cell by cell."""
    cells = sorted(skew_cells(lam, mu), key=lambda ij: (ij[1], ij[0]))
    fillings = []

    def rec(idx, acc):
        if idx == len(cells):
            fillings.append(dict(acc))
            return
        i, j = cells[idx]
        up = acc.get((i - 1, j))
        left = acc.get((i, j - 1))
        for v in range(1, n + 1):
            if up is not None and up >= v:
                continue
            if left is not None and left > v:
                continue
            acc[(i, j)] = v
            rec(idx + 1, acc)
            del acc[(i, j)]

    rec(0, {})
    return cells, fillings


def all_pointed_states(n, max_boxes):
    """Every pointed skew state with at most max_boxes outer cells."""
    hmax = n - 1
    from sptab.enumeration import shapes_up_to

    for lam in shapes_up_to(hmax, max_boxes):
        if not lam:
            continue
        for mu in subshapes_list(lam):
            if mu == lam or not mu:
                continue
            cells, fillings = enum_skew_fillings(n, lam, mu)
            corners = inner_corners(mu)
            for filling in fillings:
                for (ci, cj) in corners:
                    yield lam, mu, filling, (ci, cj)


def subshapes_list(lam):
    from sptab.enumeration import shapes_up_to
    from sptab.tableaux import shape_contains

    return [mu for mu in shapes_up_to(lam[0], sum(lam)) if shape_contains(mu, lam)]


def inner_corners(mu):
    out = []
    for j in range(len(mu)):
        i = mu[j]
        right = mu[j + 1] if j + 1 < len(mu) else 0
        if right < i:
            out.append((i, j + 1))
    return out


def build_state(n, lam, mu, filling, corner):
    cols = []
    ci, cj = corner
    for j in range(1, len(lam) + 1):
        inner = mu[j - 1] if j - 1 < len(mu) else 0
        letters = tuple(filling[(i, j)] for i in range(inner + 1, lam[j - 1] + 1))
        if j == cj:
            cols.append(SlSkewColumn(inner - 1, letters, ci))
        else:
            cols.append(SlSkewColumn(inner, letters))
    return SlSkewTableau(n, tuple(cols))


def test_jdt_inverse_exhaustive_small():
    # the reversal conjugate inverts the slide whenever the bounding
    # rectangle is recoverable, i.e. the rest state's last column has no
    # vacated cells; outside that domain the rectangle is lost (pinned below)
    n, checked, skipped = 4, 0, 0
    for lam, mu, filling, corner in all_pointed_states(n, 6):
        state = build_state(n, lam, mu, filling, corner)
        if not is_semistandard_skew_sl(state):
            continue
        rest, _ = jdt_to_rest(state)
        if rest.columns[-1].inner == 0:
            assert jdt_inverse(rest) == state
            checked += 1
        else:
            assert jdt_inverse(rest) != state
            skipped += 1
    assert checked > 500
    assert skipped > 0


def test_sigma_loses_trailing_vacated_cells():
    # [_, *, 1] and [*, 1] reverse to the same state, so the conjugation
    # formula cannot tell them apart; the first is outside its domain
    tall = skew(4, (1, (1,), 2))
    short = skew(4, (0, (1,), 1))
    assert sigma_sl(tall) == sigma_sl(short)
    rest_tall, _ = jdt_to_rest(tall)
    rest_short, _ = jdt_to_rest(short)
    assert jdt_inverse(rest_short) == short
    assert jdt_inverse(rest_tall) == rest_tall_trimmed() != tall


def test_a_star_off_its_column_traps_and_no_move_keeps_it(monkeypatch):
    # a rotation that puts the state's star one row above its column's star
    # cell: the column reframed around row 1 is the column itself, a stored
    # move that keeps the star in place would slide it down forever
    rotated = SlSkewTableau.rotated

    def off_by_one(state):
        out = rotated(state)
        i, j = out.star
        return SlSkewTableau._unchecked(out.n, out.columns, (i - 1, j))

    monkeypatch.setattr(SlSkewTableau, "rotated", off_by_one)
    monkeypatch.setattr(taquin_sl, "_MOVES", {})
    rest_short, _ = jdt_to_rest(skew(4, (0, (1,), 1)))
    with pytest.raises(TaquinInvariantError, match=r"^the star at \(0, 1\) is not in its column$"):
        jdt_inverse(rest_short)
    assert taquin_sl._MOVES
    # () marks a star at rest; every stored move changes column j, whose id
    # heads the key
    assert all(not new or new[0]._id != key[0] for key, new in taquin_sl._MOVES.items())


def test_skew_state_preconditions():
    with pytest.raises(TableauError, match="^negative inner height$"):
        SlSkewColumn(-1, (1,))
    with pytest.raises(TableauError, match=r"^star row 3 outside \(0, 2\]$"):
        SlSkewColumn(0, (1,), 3)
    with pytest.raises(TableauError, match="^more than one star$"):
        skew(4, (0, (), 1), (0, (), 1))
    with pytest.raises(TableauError, match="^no star to shed$"):
        shed(skew(4, (0, (1,))))
    with pytest.raises(TableauError, match="^star is not resting at an outer corner$"):
        shed(skew(4, (0, (2,), 1)))


def rest_tall_trimmed():
    return skew(4, (0, (1,), 1))


# ---------------------------------------------------------------------------
# reduction


def test_reduce_quasistandard_is_identity():
    t = Tableau.sl(3, ((1, 3), (3,)))
    assert nqs_rows(t.grid()) == ()
    assert reduce_sl(t) == (t.shape, t)


def test_reduce_golden_small():
    t = Tableau.sl(3, ((1, 2), (1,)))
    mu, q = reduce_sl(t)
    assert mu == () and q.columns == ()
    t = Tableau.sl(3, ((1, 3), (2,)))
    mu, q = reduce_sl(t)
    assert mu == (2,) and q.columns == ((2, 3),)


def test_slide_pass_strictly_decreases_boxes():
    t = Tableau.sl(3, ((1, 2), (1,)))
    s = max(nqs_rows(t.grid()))
    out = slide_pass_sl(t, s)
    assert sum(out.heights) == sum(t.heights) - 1


def test_slide_pass_requires_nqs_row():
    t = Tableau.sl(3, ((2, 3),))
    with pytest.raises(TableauError):
        slide_pass_sl(t, 1)


def test_expand_rejects_bad_shapes():
    q = Tableau.sl(3, ((2,),))
    with pytest.raises(ShapeError):
        expand_sl((1,), (2,), q)  # wrong target
    with pytest.raises(ShapeError):
        expand_sl((2, 2), (1,), q)  # not below in the weight order


def test_expand_rejects_q_not_standard():
    # (1, 2 | 1) is semi-standard but not quasi-standard at row 1
    with pytest.raises(TableauError):
        expand_sl((2, 1, 1), (2, 1), Tableau.sl(3, ((1, 2), (1,))))
    with pytest.raises(TableauError):
        expand_sl((2, 1), (2, 1), Tableau.sl(3, ((1, 2), (1,))))  # also when lambda = mu
    with pytest.raises(TableauError):
        expand_sl((1, 1, 1), (1, 1), Tableau.sl(3, ((3,), (2,))))  # rows must weakly increase


def test_the_engine_rejects_a_tableau_of_the_other_alphabet():
    from sptab.taquin_sp import phi, psi, slide_pass_sp

    sp = Tableau.sp(3, [(1, 2), (1,)])
    sp_quasistandard = Tableau.sp(3, [(2,)])
    sl = Tableau.sl(3, ((1, 2), (1,)))
    calls = [
        lambda: reduce_sl(sp),
        lambda: reduce_sl(sp_quasistandard),  # no pass to run
        lambda: slide_pass_sl(sp, 1),
        lambda: expand_sl(sp.shape, sp.shape, sp),
        lambda: phi(sl),
        lambda: slide_pass_sp(sl, 1),
        lambda: psi(sl.shape, sl.shape, sl),
    ]
    for call in calls:
        with pytest.raises(TableauError, match="expects a"):
            call()


def test_reduce_expand_inverse_rank3():
    from sptab.enumeration import enum_qs_sl, enum_ss_sl, shapes_up_to

    n = 3
    for lam in shapes_up_to(n - 1, 4):
        seen = set()
        union = set()
        for mu in weight_subshapes(lam, n - 1):
            for q in enum_qs_sl(n, mu):
                union.add((mu, q.columns))
        for t in enum_ss_sl(n, lam):
            mu, q = reduce_sl(t)
            key = (mu, q.columns)
            assert key not in seen
            seen.add(key)
            assert key in union
            assert expand_sl(lam, mu, q) == t
        assert seen == union
