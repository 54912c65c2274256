"""The library builds some tableaux and skew states without running their
public constructor's checks, because their parts passed them already: the
generators' tableaux, the tableaux a pass or the inverse strips off, and
the engine's start, turned and rotated states.  Each must be one the public
constructor accepts, and equal to what it builds; the verdicts the
generators record must be those a checked build works out."""

import pytest

from sptab import taquin_sl
from sptab.enumeration import enum_ss_sl, enum_ss_sp, shapes_up_to
from sptab.tableaux import Tableau, dble_tableau, first_grid_violation, nqs_rows
from sptab.taquin_sl import SlSkewTableau, expand_sl, reduce_sl, sigma_sl
from sptab.taquin_sp import phi, phi_passes, psi, sigma_sp

# (rank, most boxes) of each sweep
SP_RANGE = ((1, 5), (2, 5), (3, 5), (4, 4))
SL_RANGE = ((1, 5), (2, 5), (3, 5), (4, 5))
# the wider sweeps whose verdicts are checked
SP_VERDICT_RANGE = ((1, 6), (2, 6), (3, 6), (4, 5))
SL_VERDICT_RANGE = ((1, 6), (2, 6), (3, 6), (4, 6), (5, 6))


def sp_tableaux(sweep=SP_RANGE):
    return [t for n, boxes in sweep for lam in shapes_up_to(n, boxes) for t in enum_ss_sp(n, lam)]


def sl_tableaux(sweep=SL_RANGE):
    return [t for n, boxes in sweep for lam in shapes_up_to(n - 1, boxes) for t in enum_ss_sl(n, lam)]


def sl_passes(t, to_rest=taquin_sl.jdt_to_rest):
    """The tableau after each pass of reduce_sl, each pass sliding with `to_rest`."""

    def slide_pass(t, s):
        return taquin_sl._slide_pass(SlSkewTableau, t, s, to_rest)

    return [q for _, q in taquin_sl._passes(SlSkewTableau, t, slide_pass)]


def assert_checked_build_equal(t):
    rebuilt = Tableau(t.n, t.kind, t.columns)
    assert rebuilt == t
    if t.kind == "sl":
        assert all(type(c) is tuple for c in t.columns)


def test_trusted_tableaux_equal_their_checked_builds():
    sp, sl = sp_tableaux(), sl_tableaux()
    built = list(sp) + list(sl)
    for t in sp:
        built += [q for _, q in phi_passes(t)]
        mu, q = phi(t)
        built.append(psi(t.shape, mu, q))
    for t in sl:
        passes = sl_passes(t)
        q = passes[-1] if passes else t
        assert reduce_sl(t) == (q.shape, q)
        built += passes
        built.append(expand_sl(t.shape, q.shape, q))
    assert len(sp) == 4353 and len(sl) == 585
    for t in built:
        assert_checked_build_equal(t)


def grid_verdicts(t):
    """Both verdicts from a pass over the whole grid: the double, or the letters."""
    grid = dble_tableau(t) if t.kind == "sp" else t.grid()
    return first_grid_violation(grid) is None, nqs_rows(grid)


def test_recorded_verdicts_equal_checked_builds_and_the_grid_rule():
    # the generators record both verdicts of each tableau; a pass result
    # folds its rows from the column and pair memos when phi or reduce_sl
    # reads them; each equals a checked build's and the grid pass's
    sp, sl = sp_tableaux(SP_VERDICT_RANGE), sl_tableaux(SL_VERDICT_RANGE)
    qs = 0
    for t in sp + sl:
        recorded = (t.__dict__["_semistandard"], t.__dict__["_nqs_rows"])
        fresh = Tableau(t.n, t.kind, t.columns)
        assert recorded == (fresh._semistandard, fresh._nqs_rows) == grid_verdicts(t), t
        qs += not recorded[1]
    passes = [q for t in sp for _, q in phi_passes(t)] + [q for t in sl for q in sl_passes(t)]
    for q in passes:
        assert (q._semistandard, q._nqs_rows) == grid_verdicts(q), q
    assert (len(sp), len(sl), len(passes)) == (14820, 4327, 9280 + 4778)
    assert 0 < qs < len(sp) + len(sl)


def sp_states():
    """Every state phi and psi record on the sp sweep: pass start states,
    slid states, the inverse's turned start state and its rotated state."""
    states = []
    for t in sp_tableaux():
        mu, q = phi(t, states)
        psi(t.shape, mu, q, states)
    return states


def sl_states():
    """The same states of the classical engine on the sl sweep."""
    states = []

    def to_rest(state):
        return taquin_sl._to_rest(state, taquin_sl.jdt_step, states)

    for t in sl_tableaux():
        passes = sl_passes(t, to_rest)
        q = passes[-1] if passes else t
        taquin_sl._expand(SlSkewTableau, t.shape, q.shape, q, to_rest, states)
    return states


@pytest.mark.parametrize("states, sigma", [(sp_states, sigma_sp), (sl_states, sigma_sl)])
def test_unchecked_states_keep_a_valid_frame(states, sigma):
    states = states()
    for state in states:
        for s in (state, sigma(state)):
            rebuilt = type(s)(s.n, s.columns)
            assert rebuilt == s and rebuilt.star == s.star
        back = sigma(sigma(state))
        assert back == state and back.star == state.star
    # pass starts hold the star in column 1; turned and rotated states hold none
    assert any(s.star is not None and s.star[1] == 1 for s in states)
    assert any(s.star is None for s in states)
    assert len({type(s) for s in states}) == 1
