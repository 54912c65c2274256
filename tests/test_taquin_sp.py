import re

import pytest
from hypothesis import given, reject, settings, strategies as st

from sptab import columns, taquin_sl, taquin_sp
from sptab.cli import main
from sptab.columns import SymplecticColumn, surgery_add_B, surgery_add_D, surgery_remove_A, surgery_remove_C
from sptab.enumeration import enum_admissible_columns, enum_ss_sl, enum_ss_sp, shapes_up_to
from sptab.errors import (
    ColumnError,
    InadmissibleColumnError,
    ShapeError,
    SptabError,
    TableauError,
    TaquinInvariantError,
)
from sptab.tableaux import Tableau, dble_tableau, dumps, first_grid_violation, tableau_to_json
from sptab.taquin_sl import SlSkewColumn, SlSkewTableau, expand_sl, reduce_sl
from sptab.taquin_sp import (
    SpSkewColumn,
    SpSkewTableau,
    is_semistandard_skew_sp,
    phi,
    phi_passes,
    psi,
    shed,
    sigma_sp,
    sjdt_step,
    sjdt_to_rest,
    slide_pass_sp,
    state_to_json,
    trace_to_json,
)

F = frozenset


def skew(n, *cols):
    return SpSkewTableau(n, tuple(SpSkewColumn(n, *c) for c in cols))


def clear_memos():
    taquin_sl._COLUMNS.clear()
    taquin_sl._MOVES.clear()
    taquin_sl._PAIRS.clear()


@pytest.fixture
def empty_memos():
    """The engine's memos are empty when the test starts and when it ends."""
    clear_memos()
    yield
    clear_memos()


@pytest.fixture(autouse=True)
def patched_tests_start_empty(request):
    # a memo filled by an earlier test could answer a patched step or
    # surgery and hide its trap; one filled under a patch must not outlive it
    if "monkeypatch" in request.fixturenames:
        request.getfixturevalue("empty_memos")


# ---------------------------------------------------------------------------
# the two rank-4 slide chains

CHAIN_ONE = skew(4, (2, F(), F({1, 2, 3}), 3), (0, F({1, 3}), F({1, 3})), (0, F({2, 4}), F({2})))
CHAIN_TWO = skew(4, (1, F(), F({1, 2, 3, 4}), 2), (0, F({1, 4}), F({1, 3})), (0, F({3, 4}), F()))


def run_chain(state):
    states = [state]
    while True:
        nxt = sjdt_step(states[-1])
        if nxt is None:
            return states
        states.append(nxt)


def test_slide_chain_one_golden():
    start = CHAIN_ONE
    states = run_chain(start)
    assert [s.star for s in states] == [(3, 1), (3, 2), (3, 3)]
    assert states[1] == skew(
        4, (2, F(), F({1, 2, 3, 4})), (0, F({1, 4}), F({1}), 3), (0, F({2, 4}), F({2}))
    )
    assert states[2] == skew(
        4, (2, F(), F({1, 2, 3, 4})), (0, F({1, 4}), F({1, 3})), (0, F({3, 4}), F(), 3)
    )
    assert not any(s.zero_present for s in states)
    assert all(is_semistandard_skew_sp(s) for s in states)
    final = shed(states[-1])
    assert final == skew(
        4, (2, F(), F({1, 2, 3, 4})), (0, F({1, 4}), F({1, 3})), (0, F({3, 4}), F())
    )


def test_slide_chain_two_golden_with_zero():
    start = CHAIN_TWO
    states = run_chain(start)
    assert [s.star for s in states] == [(2, 1), (2, 2), (2, 3)]
    assert states[1] == skew(
        4, (1, F({0}), F({0, 1, 2, 3})), (0, F({1}), F({1, 3}), 2), (0, F({3, 4}), F())
    )
    assert states[2] == skew(
        4, (1, F({0}), F({0, 1, 2, 3})), (0, F({1, 4}), F({1, 3})), (0, F({3}), F(), 2)
    )
    # the extended letter appears, in the first column only, 0 and 0' together
    assert [s.zero_present for s in states] == [False, True, True]
    for s in states[1:]:
        assert s.columns[0].has_zero
        assert not any(c.has_zero for c in s.columns[1:])
        assert 0 in s.columns[0].A and 0 in s.columns[0].D
    assert all(is_semistandard_skew_sp(s) for s in states)


def test_lone_star_sheds():
    state = skew(3, (0, F(), F(), 1))
    rest, path = sjdt_to_rest(state)
    assert path == [(1, 1)]
    assert shed(rest).heights == (0,)


# ---------------------------------------------------------------------------
# reversal


def test_sigma_sp_swaps_content_and_rotates():
    start = skew(4, (0, F({3}), F()))
    out = sigma_sp(start)
    assert out == skew(4, (0, F(), F({3})))
    assert sigma_sp(out) == start


def test_sigma_sp_involution_on_chain_states():
    start = CHAIN_ONE
    for s in run_chain(start):
        assert sigma_sp(sigma_sp(s)) == s


# ---------------------------------------------------------------------------
# reduction passes (the rank-4 worked reduction)

T_EX4 = Tableau.sp(4, [(1, 2, 3, 6), (1, 3, 6), (3, 6)])


def test_reduction_passes_golden():
    expected = [
        (3, Tableau.sp(4, [(1, 2, 5, 6), (1, 4), (3, 6)])),
        (2, Tableau.sp(4, [(1, 2, 6, 7), (1, 5), (4,)])),
        (2, Tableau.sp(4, [(1, 5, 6, 7), (1,), (4,)])),
        (1, Tableau.sp(4, [(1, 5, 6, 7), (4,)])),
        (1, Tableau.sp(4, [(1, 6, 7, 8)])),
    ]
    assert list(phi_passes(T_EX4)) == expected


def test_phi_golden():
    mu, q = phi(T_EX4)
    assert mu == (4,)
    assert q.form() == (0, 0, 0, 1)
    assert tableau_to_json(q)["columns"] == [[1, -3, -2, -1]]


def test_phi_fixes_quasistandard():
    q = Tableau.sp(4, [(1, 6, 7, 8)])
    assert phi(q) == ((4,), q)


def test_phi_trivial_column_to_empty():
    for n, k in ((2, 2), (3, 3), (4, 4), (4, 2)):
        t = Tableau.sp(n, [tuple(range(1, k + 1))])
        mu, q = phi(t)
        assert mu == () and q.columns == ()


def test_psi_golden_inverse_trace():
    record = []
    out = psi((4, 3, 2), (4,), Tableau.sp(4, [(1, 6, 7, 8)]), record)
    assert out == T_EX4
    # the reversed start: the five numbered stars are the vacated cells of
    # the first two columns; the reversal swaps each column's parts
    assert record[0] == skew(
        4,
        (4, F(), F()),
        (4, F(), F()),
        (0, F({1, 2, 3}), F({1})),
        (0, F(), F({1, 2, 3, 4})),
        (0, F(), F({1, 2, 3, 4})),
    )
    # after the first star exits, the rightmost column has shed one cell
    assert record[5].heights == (4, 4, 4, 4, 3)


def test_psi_star_paths_golden():
    # the stars slide in decreasing index, each strictly along its row,
    # exiting at the reversed skew cells, matching the displayed panels
    record = []
    psi((4, 3, 2), (4,), Tableau.sp(4, [(1, 6, 7, 8)]), record)
    stars = [s.star for s in record if s.star is not None]
    assert stars == [
        (4, 2), (4, 3), (4, 4), (4, 5),
        (4, 1), (4, 2), (4, 3), (4, 4),
        (3, 2), (3, 3), (3, 4), (3, 5),
        (3, 1), (3, 2), (3, 3), (3, 4),
        (2, 2), (2, 3), (2, 4), (2, 5),
    ]
    assert record[-1].star is None
    # final reversal carries the to-be-completed trivial tops up front
    assert record[-1].inners == (3, 2, 0, 0, 0)


def test_psi_identity_when_shapes_equal():
    q = Tableau.sp(4, [(1, 6, 7, 8)])
    assert psi((4,), (4,), q) == q


def test_psi_empty_target():
    for n, k in ((2, 2), (3, 2), (4, 3)):
        t = psi((k,), (), Tableau.sp(n, []))
        assert t == Tableau.sp(n, [tuple(range(1, k + 1))])


def test_psi_rejects_bad_inputs():
    q = Tableau.sp(2, [(2,)])
    with pytest.raises(ShapeError):
        psi((1,), (2,), q)  # wrong mu
    with pytest.raises(ShapeError):
        psi((3, 1), (1,), Tableau.sp(2, [(2,)]))  # heights above the rank
    # contained but not below in the weight order: rejected
    with pytest.raises(ShapeError):
        psi((2, 1), (1, 1), Tableau.sp(2, [(2,), (2,)]))


def test_psi_rejects_q_not_quasistandard():
    # [[1,2,3],[1]] is semi-standard but not quasi-standard at row 1, so no
    # tableau reduces to it
    q = Tableau.sp(3, [(1, 2, 3), (1,)])
    with pytest.raises(TableauError):
        psi((3, 1, 1), (3, 1), q)
    with pytest.raises(TableauError):
        psi((3, 1), (3, 1), q)  # also when lambda = mu
    with pytest.raises(TableauError):
        psi((2, 2), (2,), Tableau.sp(2, [(2, 3)]))  # [2, 2'] is not admissible


def test_psi_reads_q_verdicts_and_rejects_an_inadmissible_column(monkeypatch):
    # a tableau keeps its verdicts: phi folds q's rows from the column and
    # pair memos, once, and psi reads them
    folds, unkilled = [], Tableau._unkilled
    monkeypatch.setattr(Tableau, "_unkilled", lambda t, rows: folds.append(t) or unkilled(t, rows))
    mu, q = phi(T_EX4)
    assert psi(T_EX4.shape, mu, q) == T_EX4
    assert psi(mu, mu, q) == q
    assert folds.count(q) == 1
    # [2, 2'] is not admissible: the same error as a q that is not standard,
    # whether or not lambda = mu, and its verdict is worked out once
    bad = Tableau.sp(2, [(2, 3)])
    for lam in ((2,), (2, 2)):
        with pytest.raises(TableauError, match="not semi-standard and quasi-standard"):
            psi(lam, (2,), bad)
    assert bad.__dict__["_semistandard"] is False and bad not in folds


def test_slide_pass_requires_nqs():
    q = Tableau.sp(4, [(1, 6, 7, 8)])
    with pytest.raises(TableauError):
        slide_pass_sp(q, 1)


def test_phi_rejects_a_tableau_that_is_not_semi_standard(tmp_path, capsys):
    # two admissible columns whose double breaks a row: phi once returned
    # most of these unchanged and tripped the slide trap on the rest
    n = 3
    pairs = [
        Tableau.sp(n, (a, b))
        for h in range(1, n + 1)
        for k in range(1, h + 1)
        for a in enum_admissible_columns(n, h)
        for b in enum_admissible_columns(n, k)
    ]
    bad = [t for t in pairs if first_grid_violation(dble_tableau(t)) is not None]
    assert len(bad) == 337 and Tableau.sp(n, ((1, 6), (1,))) in bad
    for t in bad:
        with pytest.raises(TableauError, match="^input tableau is not semi-standard$"):
            phi(t)
    # a plain-letter tableau meets the alphabet check first
    plain = Tableau.sl(4, ((2, 1),))
    with pytest.raises(TableauError, match="^expects a symplectic tableau$"):
        phi(plain)
    with pytest.raises(TableauError, match="^input tableau is not semi-standard$"):
        reduce_sl(plain)
    path = tmp_path / "t.json"
    for t, message in ((bad[0], "input tableau is not semi-standard"), (plain, "expects a symplectic tableau")):
        path.write_text(dumps(tableau_to_json(t)))
        assert main(["phi", "--n", str(t.n), "--file", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_slide_pass_shape_bookkeeping():
    from sptab.enumeration import enum_ss_sp, shapes_up_to
    from sptab.tableaux import nqs_rows, shape_to_multiplicities

    n = 2
    for lam in shapes_up_to(n, 4):
        for t in enum_ss_sp(n, lam):
            rows = nqs_rows(dble_tableau(t))
            if not rows:
                continue
            s = max(rows)
            out = slide_pass_sp(t, s)
            before = list(shape_to_multiplicities(t.shape, n))
            before[s - 1] -= 1
            if s >= 2:
                before[s - 2] += 1
            assert list(shape_to_multiplicities(out.shape, n)) == before


# ---------------------------------------------------------------------------
# serialization


def test_trace_json_compact_and_extended():
    start = skew(4, (1, F(), F({1, 2, 3, 4}), 2), (0, F({1, 4}), F({1, 3})), (0, F({3, 4}), F()))
    record = []
    sjdt_to_rest(start, record)
    js = trace_to_json(record)
    assert js[0]["star"] == [2, 1]
    assert js[0]["zero_present"] is False and js[1]["zero_present"] is True
    # extended letters force the two-field object form throughout the trace
    assert js[0]["columns"][1][0] == {"m": 1, "b": False}
    assert {"m": 0, "b": True} in js[1]["columns"][0]

    plain = state_to_json(shed(sjdt_to_rest(skew(2, (0, F({1}), F(), 1)))[0]))
    assert plain == {"columns": [[1]], "inner": [0], "star": None, "zero_present": False}


def test_skew_double_golden_display():
    # the displayed double of the skew start: vacated cells double to
    # vacated pairs, the star to a star pair, filled bottoms through the
    # column doubles
    start = CHAIN_ONE
    doubled = []
    for c in start.columns:
        left, right = c.grid()
        doubled.extend([c.rows(left), c.rows(right)])
    X = None
    assert doubled == [
        [X, X, X, 6, 7, 8],  # 3' 2' 1' under two vacated cells and the star pair
        [X, X, X, 6, 7, 8],
        [1, 3, 5, 7],  # 1 3 4' 2'
        [2, 4, 6, 8],  # 2 4 3' 1'
        [2, 4, 6],  # 2 4 3'
        [3, 4, 7],  # 3 4 2'
    ]


# ---------------------------------------------------------------------------
# the windowed invariant check, the traps, and the frame checked in place


def moves(record):
    """(column the star left, state after the move) for every slide move
    among consecutive recorded states."""
    for prev, cur in zip(record, record[1:]):
        if prev.star is not None and cur.star is not None and sjdt_step(prev) == cur:
            yield prev.star[1], cur


def test_windowed_check_agrees_with_full():
    from sptab.enumeration import enum_ss_sp, shapes_up_to

    records = [run_chain(CHAIN_ONE), run_chain(CHAIN_TWO)]
    for t in [T_EX4] + [t for lam in shapes_up_to(3, 4) for t in enum_ss_sp(3, lam)]:
        record = []
        mu, q = phi(t, record)
        psi(t.shape, mu, q, record)
        records.append(record)
    checked = 0
    for record in records:
        for j, state in moves(record):
            assert is_semistandard_skew_sp(state, range(j - 1, j + 3)) == is_semistandard_skew_sp(state)
            checked += 1
    assert checked > 1000


def replaced(state, k, *new):
    """The state with columns k, k+1, ... (1-based) replaced by `new`, built
    through the public constructor."""
    cols = state.columns
    return type(state)(state.n, cols[: k - 1] + new + cols[k - 1 + len(new) :])


def refilled(state, k, barred):
    """Column k refilled, in its frame, with the smallest letters 1, 2, ...
    or, barred, with the largest ..., 2', 1'."""
    c = state.columns[k - 1]
    letters = F(range(1, c.size + 1))
    A, D = (F(), letters) if barred else (letters, F())
    return replaced(state, k, SpSkewColumn(state.n, c.inner, A, D, c.star_row))


def corrupt_move(monkeypatch, move, col, barred=False):
    """Patch the slide step so that its `move`-th move also refills column
    `col`; the states after each move are collected in the returned list."""
    step, after = taquin_sp.sjdt_step, []

    def corrupted(state):
        nxt = step(state)
        if nxt is not None:
            after.append(refilled(nxt, col, barred) if len(after) + 1 == move else nxt)
            return after[-1]
        return nxt

    monkeypatch.setattr(taquin_sp, "sjdt_step", corrupted)
    return after


# the second move of phi's first pass on the worked example leaves column 2,
# so its window is columns 1..4; either edge, corrupted, breaks the state
# while the changed columns 2 and 3 alone look fine
@pytest.mark.parametrize("col, barred, narrower", [(4, False, range(1, 4)), (1, True, range(2, 5))])
def test_trap_fires_inside_the_window_on_a_later_move(monkeypatch, tmp_path, capsys, col, barred, narrower):
    after = corrupt_move(monkeypatch, 2, col, barred)
    with pytest.raises(TaquinInvariantError, match="non-semi-standard"):
        phi(T_EX4)
    assert len(after) == 2  # caught on the move that broke the state
    assert not is_semistandard_skew_sp(after[1], range(1, 5))
    assert is_semistandard_skew_sp(after[1], narrower)

    path = tmp_path / "t.json"
    path.write_text(dumps(tableau_to_json(T_EX4)))
    corrupt_move(monkeypatch, 2, col, barred)
    assert main(["phi", "--n", "4", "--file", str(path)]) == 3
    assert capsys.readouterr().err.startswith("invariant violation: slide left a non-semi-standard state")


def test_trap_fires_outside_the_window_on_the_first_move(monkeypatch):
    # the first move leaves column 1; column 4 lies outside its window 0..3,
    # so only the whole check on the first move sees it there
    after = corrupt_move(monkeypatch, 1, 4)
    with pytest.raises(TaquinInvariantError, match="non-semi-standard"):
        phi(T_EX4)
    assert len(after) == 1
    assert not is_semistandard_skew_sp(after[0])
    assert is_semistandard_skew_sp(after[0], range(0, 4))


# ---------------------------------------------------------------------------
# the intern table and the surgery memo


def whole_grid_check(state, cols=None):
    """The semi-standardness check as one generic grid pass over the rows."""
    cols_ = state.columns if cols is None else state.columns[max(cols.start, 1) - 1 : cols.stop - 1]
    return first_grid_violation([c.rows(codes) for c in cols_ for codes in c.grid()]) is None


@st.composite
def frame_valid_states(draw):
    """A skew state of either model with admissible contents or arbitrary
    letters, vacated cells and at most one star; often not semi-standard."""
    n, sp = draw(st.integers(1, 3)), draw(st.booleans())
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        inner = draw(st.integers(0, 3))
        if sp:
            c = draw(st.sampled_from(enum_admissible_columns(n, draw(st.integers(1, n)))))
            cols.append(SpSkewColumn(n, inner, c.A, c.D))
        else:
            cols.append(SlSkewColumn(inner, tuple(draw(st.lists(st.integers(1, n + 1), max_size=3)))))
    cols.sort(key=lambda c: (c.height, c.inner), reverse=True)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(cols) - 1))
        c = cols[k]
        cols[k] = c.reframed(c.inner, c.inner + draw(st.integers(1, c.size + 1)))
    try:
        return (SpSkewTableau if sp else SlSkewTableau)(n, tuple(cols))
    except TableauError:
        reject()


@settings(max_examples=400, deadline=None)
@given(state=frame_valid_states())
def test_pairwise_check_equals_one_grid_pass(state):
    # the check reads the height order and neighbouring rows by offsets;
    # a generic pass over the placed rows gives the same answer in any window
    width = len(state.columns)
    for _ in range(2):  # the second time every pair verdict is read from the memo
        for cols in [None] + [range(a, b) for a in range(width + 2) for b in range(a, width + 3)]:
            assert taquin_sl._is_semistandard_skew(state, cols) == whole_grid_check(state, cols)


def surgery_pull(left, right, row):
    """The horizontal move by the surgeries alone, outside every memo."""
    n, alpha = left.n, right.left_at(row)
    if alpha <= n:
        new, new_right = surgery_add_B(left.content, alpha), surgery_remove_A(right.content, alpha)
    else:
        v = 2 * n + 1 - alpha
        new, new_right = surgery_add_D(left.content, v), surgery_remove_C(right.content, v)
    return SpSkewColumn(n, left.inner, new.A, new.D), SpSkewColumn(n, right.inner, new_right.A, new_right.D, row)


def test_pull_equals_the_surgeries():
    legal = illegal = 0
    for n in (1, 2, 3):
        cols = [SymplecticColumn(n, F(), F())] + [c for k in range(1, n + 1) for c in enum_admissible_columns(n, k)]
        for a in cols:
            for b in cols:
                left, right = SpSkewColumn(n, 0, a.A, a.D), SpSkewColumn(n, 1, b.A, b.D)
                for row in range(2, right.height + 1):
                    try:
                        expected = surgery_pull(left, right, row)
                    except SptabError as exc:
                        illegal += 1
                        with pytest.raises(type(exc), match=re.escape(str(exc))):
                            left.pull(right, row)
                        continue
                    got = left.pull(right, row)
                    assert got == expected
                    assert [c.height for c in got] == [c.height for c in expected]
                    legal += 1
    assert (legal, illegal) == (1818, 988)


def round_trips():
    for t in [t for lam in shapes_up_to(3, 4) for t in enum_ss_sp(3, lam)]:
        mu, q = phi(t)
        assert psi(t.shape, mu, q) == t
    for t in [t for lam in shapes_up_to(3, 4) for t in enum_ss_sl(4, lam)]:
        mu, q = reduce_sl(t)
        assert expand_sl(t.shape, mu, q) == t


def test_interned_columns_equal_the_public_ones(empty_memos):
    round_trips()
    assert {type(c) for c in taquin_sl._COLUMNS.values()} == {SpSkewColumn, SlSkewColumn}
    for fields, col in taquin_sl._COLUMNS.items():
        fresh = type(col)(*fields)
        assert col == fresh
        assert (col.height, col.content) == (fresh.height, fresh.content)
        assert col.reframed(col.inner, col.star_row) is col


def memo_sizes():
    return (
        len(taquin_sl._COLUMNS),
        len(taquin_sl._MOVES),
        len(taquin_sl._PAIRS),
        columns._double.cache_info().currsize,
    )


def test_memos_are_keyed_by_content_not_by_call():
    tabs = [t for lam in shapes_up_to(3, 5) for t in enum_ss_sp(3, lam)]
    sizes = []
    for _ in range(2):
        for t in tabs:
            mu, q = phi(t)
            psi(t.shape, mu, q)
        sizes.append(memo_sizes())
    assert sizes[1] == sizes[0]
    assert all(sizes[0])


# ---------------------------------------------------------------------------
# the step table and the lazy double


def bare_step(state):
    """One slide move by the rule alone: the neighbours, the comparison and
    the horizontal move, outside the step table."""
    i, j = state.star
    below, right = taquin_sl._neighbours(state, i, j)
    if not below and not right:
        return None
    col = state.columns[j - 1]
    if below and (not right or col.right_at(i + 1) <= state.columns[j].left_at(i)):
        return replaced(state, j, col.reframed(col.inner, i + 1))
    pull = surgery_pull if isinstance(col, SpSkewColumn) else SlSkewColumn.pull
    return replaced(state, j, *pull(col, state.columns[j], i))


def slid_states(monkeypatch):
    """Every state phi then psi record at n=3 up to 4 boxes, and every state
    handed to a step by the classical round trips at n=4 up to 4 boxes."""
    states = []
    for t in [t for lam in shapes_up_to(3, 4) for t in enum_ss_sp(3, lam)]:
        mu, q = phi(t, states)
        psi(t.shape, mu, q, states)
    step = taquin_sl.jdt_step
    with monkeypatch.context() as patch:
        patch.setattr(taquin_sl, "jdt_step", lambda state: states.append(state) or step(state))
        for t in [t for lam in shapes_up_to(3, 4) for t in enum_ss_sl(4, lam)]:
            mu, q = reduce_sl(t)
            assert expand_sl(t.shape, mu, q) == t
    assert {type(state) for state in states} == {SpSkewTableau, SlSkewTableau}
    return states


def test_slid_states_pass_the_public_constructor(monkeypatch):
    # steps, sheds and star insertions build their states unchecked; each
    # must be one the constructor accepts, with the star where it finds it
    states = slid_states(monkeypatch)
    for state in states:
        rebuilt = type(state)(state.n, state.columns)
        assert rebuilt == state
        assert rebuilt.star == state.star
    assert sum(state.star is None for state in states) > 0
    assert len(states) > 1000


def taller(col):
    """The column under one more vacated cell: one cell taller."""
    return col.reframed(col.inner + 1, None if col.star_row is None else col.star_row + 1)


def test_a_move_that_changes_the_frame_is_a_trap(monkeypatch, tmp_path, capsys):
    move = taquin_sl._move

    def stretched(state, i, j):
        new = move(state, i, j)
        return new and (taller(new[0]),) + new[1:]

    # phi's first pass on the worked example is at row 3
    monkeypatch.setattr(taquin_sl, "_move", stretched)
    with pytest.raises(TaquinInvariantError, match=re.escape("the move of the star at (3, 1) changed the frame")):
        phi(T_EX4)
    assert not taquin_sl._MOVES

    path = tmp_path / "t.json"
    path.write_text(dumps(tableau_to_json(T_EX4)))
    assert main(["phi", "--n", "4", "--file", str(path)]) == 3
    assert capsys.readouterr().err.startswith("invariant violation: the move of the star")


def test_step_table_equals_the_bare_rule(monkeypatch):
    states = [state for state in slid_states(monkeypatch) if state.star is not None]
    clear_memos()
    for state in states:
        got, expected = taquin_sl._step(state), bare_step(state)
        assert got == expected
        assert got is None or got.star == expected.star
    size = len(taquin_sl._MOVES)
    assert 0 < size < len(states)
    # the same states again, of columns built by the public constructors:
    # equal columns hash alike, so the table answers every move
    def rebuilt(c):
        if isinstance(c, SlSkewColumn):
            return SlSkewColumn(c.inner, c.letters, c.star_row)
        return SpSkewColumn(c.n, c.inner, c.A, c.D, c.star_row)

    for state in states:
        copy = type(state)(state.n, tuple(map(rebuilt, state.columns)))
        assert all(a is not b for a, b in zip(copy.columns, state.columns))
        assert taquin_sl._step(copy) == bare_step(state)
    assert len(taquin_sl._MOVES) == size


def test_a_skew_state_has_one_rank():
    with pytest.raises(TableauError, match="^column rank mismatch$"):
        SpSkewTableau(3, (SpSkewColumn(4, 0, F({1}), F()),))


def test_a_move_that_raises_is_not_stored(empty_memos):
    # the star at (2, 1) pulls the letter 2 across, which column 1 holds already
    state = skew(2, (0, F({2}), F(), 2), (0, F({1, 2}), F()))
    for _ in range(2):
        with pytest.raises(ColumnError, match=re.escape("2 already in B = [2]")):
            sjdt_step(state)
    assert not taquin_sl._MOVES


def test_column_without_a_double_raises_on_every_grid_call():
    # the letters 0, 2, 3', 2' form a column at n=3 but no admissible one
    col = SpSkewColumn(3, 0, F({0, 2}), F({2, 3}))
    for _ in range(2):
        with pytest.raises(InadmissibleColumnError):
            col.grid()
        with pytest.raises(InadmissibleColumnError):
            col.placed


# ---------------------------------------------------------------------------
# every trap of the reduction pass and the inverse, each fired by a fault

# the engine's own move and plan, which the faults below wrap
MOVE, PLAN = taquin_sl._move, taquin_sl._plan


def zeroed(c):
    """Column c, in its frame, holding the letters 0, 1, ... of its size."""
    return SpSkewColumn(c.n, c.inner, F(range(c.size)), F(), c.star_row)


def bar_swapped(c):
    return SpSkewColumn(c.n, c.inner, c.D, c.A, c.star_row)


def shed_changing(last, change):
    """A shed that also applies `change` to the first column, or to the last."""

    def faulty(state):
        out = shed(state)
        k = len(out.columns) if last else 1
        return out._with(k, (change(out.columns[k - 1]),), None)

    return faulty


def downward(state, i, j):
    """A move that takes the star down while it can, then rests."""
    col = state.columns[j - 1]
    return (col.reframed(col.inner, i + 1),) if col.height > i else ()


def leaving_zero(state, i, j):
    """The move, with the column the star leaves sideways refilled with 0, 1, ..."""
    new = MOVE(state, i, j)
    return (zeroed(new[0]),) + new[1:] if len(new) == 2 else new


def star_lowered(lam, mu, hmax):
    d, ((k, row, col), *rest) = PLAN(lam, mu, hmax)
    return d, ((k, row + 1, col), *rest)


def stars_swapped(lam, mu, hmax):
    d, (a, b, c, *rest) = PLAN(lam, mu, hmax)
    return d, (a, c, b, *rest)


# a fault whose states are not semi-standard also turns the slide check off,
# so that the trap under test is the one that fires
UNCHECKED = {"is_semistandard_skew_sp": lambda state, cols=None: True}
# by trap: the command that reaches it, its message and the faults patched
# in; phi's first pass on the worked example is at row 3, and psi rebuilds
# the example from q = [1, 3', 2', 1'] with five stars
SLIDE_TRAPS = {
    "straight-residual": (
        "phi", "residual vacated or star cell beyond the first 1 columns", {"shed": lambda state: state}
    ),
    "straight-zero": ("phi", "extended letter 0 survived the slides", {"shed": shed_changing(True, zeroed)}),
    "pass-row": ("phi", "star left row 3: path [(3, 1), (4, 1)]", {"_move": downward, **UNCHECKED}),
    "pass-zero": (
        "phi", "extended letter 0 appeared during a reduction pass", {"_move": leaving_zero, **UNCHECKED}
    ),
    "pass-first-column": (
        "phi", "first column did not end trivial-with-2-vacated", {"shed": shed_changing(False, zeroed)}
    ),
    "inverse-corner": ("psi", "star 5 at (5,2) is not at an inner corner", {"_plan": star_lowered}),
    "inverse-zero": ("psi", "extended letter 0 appeared during the inverse", {"_move": leaving_zero, **UNCHECKED}),
    "inverse-exits": (
        "psi", "star exit corners not monotone: [(4, 5), (3, 5), (4, 4), (3, 4), (2, 5)]", {"_plan": stars_swapped}
    ),
    "inverse-bottom": (
        "psi", "column 1 is not a trivial bottom", {"shed": shed_changing(True, bar_swapped), **UNCHECKED}
    ),
}


@pytest.mark.parametrize("command, message, faults", SLIDE_TRAPS.values(), ids=SLIDE_TRAPS)
def test_every_slide_trap_fires(monkeypatch, tmp_path, capsys, command, message, faults):
    for name, fault in faults.items():
        monkeypatch.setattr(taquin_sp if name in UNCHECKED else taquin_sl, name, fault)
    q = Tableau.sp(4, [(1, 6, 7, 8)])  # phi(T_EX4) is ((4,), q)
    t, args = (T_EX4, []) if command == "phi" else (q, ["--target-shape", "4,3,2"])
    with pytest.raises(TaquinInvariantError, match=f"^{re.escape(message)}$"):
        phi(T_EX4) if command == "phi" else psi(T_EX4.shape, q.shape, q)
    path = tmp_path / "t.json"
    path.write_text(dumps(tableau_to_json(t)))
    assert main([command, "--n", "4", "--file", str(path), *args]) == 3
    assert capsys.readouterr().err == f"invariant violation: {message}\n"
