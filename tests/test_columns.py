from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from sptab.columns import (
    SymplecticColumn,
    _smallest_dominating,
    dble,
    dble_sets,
    g_from,
    is_admissible,
    surgery_add_B,
    surgery_add_D,
    surgery_remove_A,
    surgery_remove_C,
)
from sptab.errors import ColumnError, GBoundaryError, InadmissibleColumnError

F = frozenset


def col(n, A, D):
    return SymplecticColumn(n, F(A), F(D))


def all_columns(n, k):
    universe = range(1, n + 1)
    for a in range(k + 1):
        for A in combinations(universe, a):
            for D in combinations(universe, k - a):
                yield col(n, A, D)


def admissible_columns(n, max_k=None):
    for k in range(1, (max_k or n) + 1):
        for c in all_columns(n, k):
            if is_admissible(c):
                yield c


# ---------------------------------------------------------------------------
# admissibility and doubling


def test_admissibility_examples():
    assert is_admissible(col(4, {1, 2}, {1}))
    assert not is_admissible(col(2, {2}, {2}))
    for k in (1, 2, 3, 4):
        assert is_admissible(col(4, range(1, k + 1), ()))


def test_dble_golden_sp8():
    d = dble(col(4, {1, 2}, {1}))
    assert (sorted(d.I), sorted(d.J)) == ([1], [3])
    assert sorted(d.B) == [2, 3] and sorted(d.C) == [3]
    # left column 1,2,3' and right column 2,3,1' (codes: 3'->6, 1'->8)
    assert d.left == (1, 2, 6)
    assert d.right == (2, 3, 8)


def test_dble_golden_rank9():
    d = dble(col(9, {1, 2, 3, 7, 8}, {1, 2, 3, 8}))
    assert sorted(d.B) == [4, 5, 6, 7, 9]
    assert sorted(d.C) == [4, 5, 6, 9]


def test_dble_golden_rank3():
    # the double of [1,2,2'] has right column starting 1,3
    d = dble(col(3, {1, 2}, {2}))
    assert (sorted(d.I), sorted(d.J)) == ([2], [3])
    assert sorted(d.B) == [1, 3] and sorted(d.C) == [3]
    assert d.left == (1, 2, 4) and d.right == (1, 3, 5)


def test_dble_rejects_inadmissible():
    with pytest.raises(InadmissibleColumnError):
        dble(col(2, {2}, {2}))


def test_dble_is_semistandard_pair():
    # left and right strictly increase and pair up weakly, for every column
    for n in (2, 3, 4):
        for c in admissible_columns(n):
            d = dble(c)
            left, right = d.left, d.right
            assert list(left) == sorted(set(left))
            assert list(right) == sorted(set(right))
            assert all(a <= b for a, b in zip(left, right))
            # the memoised codes are the columns (A, C) and (B, D) themselves
            _, _, B, C = dble_sets(c)
            assert left == SymplecticColumn(n, c.A, C).codes()
            assert right == SymplecticColumn(n, B, c.D).codes()


def test_admissible_count_formula():
    for n in (2, 3, 4, 5):
        for k in range(2, n + 1):
            count = sum(1 for c in all_columns(n, k) if is_admissible(c))
            assert count == comb(2 * n, k) - comb(2 * n, k - 2)
        assert sum(1 for c in all_columns(n, 1) if is_admissible(c)) == 2 * n


# ---------------------------------------------------------------------------
# recovery


def test_g_from_golden():
    c = g_from({2, 3}, {3}, 4)
    assert (c.A, c.D) == (F({1, 2}), F({1}))
    c = g_from((), (), 4)
    assert (c.A, c.D) == (F(), F())
    c = g_from({2, 4}, {2}, 4)
    assert (c.A, c.D) == (F({1, 4}), F({1}))


def test_g_from_inverts_dble_exhaustively():
    for n in (1, 2, 3, 4, 5):
        for c in admissible_columns(n):
            _, _, B, C = dble_sets(c)
            back = g_from(B, C, n)
            assert (back.A, back.D) == (c.A, c.D)


def test_g_from_reaches_zero_boundary():
    c = g_from({4}, {1, 2, 3, 4}, 4)
    assert 0 in c.A and 0 in c.D


def test_g_from_boundary_error():
    with pytest.raises(GBoundaryError):
        g_from({1, 2}, {1, 2}, 2)


def subsets(universe, max_size=None):
    for k in range(len(universe) + 1 if max_size is None else max_size + 1):
        yield from combinations(universe, k)


def test_witness_searches_against_brute_force():
    # every pool in [0, n] and every J in [0, n+1] with at most three
    # elements: the doubling's search is the lexicographically smallest
    # subset of the pool dominating J element-wise, and g_from's search,
    # the same one in the mirror, the largest one J dominates
    cases = 0
    for n in range(7):
        for pool in subsets(range(n + 1)):
            for J in subsets(range(n + 2), 3):
                cases += 1
                subs = list(combinations(pool, len(J)))
                above = [S for S in subs if all(j < x for j, x in zip(J, S))]
                got = _smallest_dominating(list(J), list(pool))
                assert got == (list(min(above)) if above else None), (J, pool)
                if not n or set(J) & set(pool) or n + 1 in J:
                    continue  # not a (B, C) at a positive rank
                # B holds J and everything outside the pool, C just J, so
                # that J = B cap C and the pool is the rest of [0, n]
                B, C = F(range(n + 1)) - F(pool), F(J)
                below = [S for S in subs if all(x < j for x, j in zip(S, J))]
                if not below:
                    with pytest.raises(GBoundaryError):
                        g_from(B, C, n)
                    continue
                I = F(max(below))
                assert g_from(B, C, n) == SymplecticColumn(n, (B - C) | I, I), (J, pool)
    assert cases == 17920


@given(st.integers(min_value=1, max_value=6), st.data())
def test_g_from_round_trip_random(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    a = data.draw(st.integers(min_value=0, max_value=k))
    A = F(data.draw(st.permutations(range(1, n + 1)))[:a])
    D = F(data.draw(st.permutations(range(1, n + 1)))[: k - a])
    c = SymplecticColumn(n, A, D)
    if is_admissible(c):
        _, _, B, C = dble_sets(c)
        back = g_from(B, C, n)
        assert (back.A, back.D) == (A, D)


# ---------------------------------------------------------------------------
# splitting: cutting (A, D) at `cut` gives a rank-`cut` low part and a
# rank-(n - cut) high part shifted down by `cut` (none when cut = n); at a
# legal window their doubles are the low and high slices of B and C


def split(c, cut):
    low = col(cut, (x for x in c.A if x <= cut), (x for x in c.D if x <= cut))
    if cut == c.n:
        return low, None
    return low, col(c.n - cut, (x - cut for x in c.A if x > cut), (x - cut for x in c.D if x > cut))


def split_doubles(c, cut):
    """(B, C) of the low part's double and of the high part's, shifted back up."""
    low, high = split(c, cut)
    _, _, Blo, Clo = dble_sets(low)
    _, _, Bhi, Chi = dble_sets(high) if high else (None, None, F(), F())
    return (Blo, Clo), (F(x + cut for x in Bhi), F(x + cut for x in Chi))


def slices(c, cut):
    """The low and high slices of B and C at `cut`."""
    _, _, B, C = dble_sets(c)
    low = F(x for x in B if x <= cut), F(x for x in C if x <= cut)
    return low, (B - low[0], C - low[1])


def test_split_golden_rank9():
    c = col(9, {1, 2, 3, 7, 8}, {1, 2, 3, 8})
    low, high = split(c, 6)
    assert low == col(6, {1, 2, 3}, {1, 2, 3})
    assert high == col(3, {1, 2}, {2})  # A = {7, 8}, D = {8} shifted down by 6
    _, _, Bhi, Chi = dble_sets(high)
    assert sorted(Bhi) == [1, 3] and sorted(Chi) == [3]  # [7, 9] and [9]
    assert split_doubles(c, 6) == slices(c, 6)


def test_split_at_n_is_whole_column():
    c = col(4, {1, 2}, {1})
    assert split(c, 4) == (c, None)
    assert split_doubles(c, 4) == slices(c, 4)


def test_split_commutes_on_legal_windows():
    # every window value allowed by the splitting lemma must succeed
    for n in (2, 3, 4):
        for c in admissible_columns(n):
            _, _, B, C = dble_sets(c)
            a_sorted, b_sorted = sorted(c.A), sorted(B)
            for s in range(1, len(a_sorted) + 1):
                b_s = b_sorted[s - 1]
                if s == len(a_sorted):
                    legal = range(b_s, n + 1)
                elif b_s < a_sorted[s]:
                    legal = range(b_s, a_sorted[s])
                else:
                    continue
                for alpha in legal:
                    assert split_doubles(c, alpha) == slices(c, alpha)


def test_split_illegal_window_raises():
    # [1,1'] for rank 2: B = {2}, C = {2}; cutting at 1 separates I from J,
    # so the low part [1,1'] of rank 1 has no witness
    low, _ = split(col(2, {1}, {1}), 1)
    assert not is_admissible(low)
    with pytest.raises(InadmissibleColumnError):
        split_doubles(col(2, {1}, {1}), 1)


def test_split_strict_mode():
    # the "below" mode at alpha = 4 cuts at alpha - 1 = 3
    c = col(4, {1, 2}, {1})  # B = {2,3}, C = {3}
    low, high = split(c, 4 - 1)
    assert low == col(3, {1, 2}, {1}) and high == col(1, (), ())
    assert split_doubles(c, 3) == slices(c, 3)


# ---------------------------------------------------------------------------
# surgery


def test_surgery_golden_remove_C():
    # the column [1,3,3',1'] has B = C = {2,4}; removing 4 from C
    c = col(4, {1, 3}, {1, 3})
    _, _, B, C = dble_sets(c)
    assert sorted(B) == [2, 4] and sorted(C) == [2, 4]
    out = surgery_remove_C(c, 4)
    assert (out.A, out.D) == (F({1, 4}), F({1}))
    with pytest.raises(ColumnError, match=r"^3 not in C = \[2, 4\]$"):
        surgery_remove_C(c, 3)


def test_surgery_golden_add_B_trivial_bottom():
    for n, s in ((4, 2), (5, 3)):
        c = col(n, range(s + 1, n + 1), ())
        out = surgery_add_B(c, s)
        assert (out.A, out.D) == (F(range(s, n + 1)), F())


def test_surgery_add_D_and_remove_A():
    c = col(4, {1, 2}, {1})
    assert surgery_add_D(c, 4) == col(4, {1, 2}, {1, 4})
    assert surgery_remove_A(c, 2) == col(4, {1}, {1})
    with pytest.raises(ColumnError):
        surgery_remove_A(c, 3)
    with pytest.raises(ColumnError):
        surgery_add_D(c, 1)


def test_surgery_round_trips_exhaustive():
    # each surgery, where legal, is undone by the opposite move through the
    # same doubling pipeline
    for n in (2, 3, 4):
        for c in admissible_columns(n):
            _, _, B, C = dble_sets(c)
            for a in sorted(c.A):
                out = surgery_remove_A(c, a)
                assert SymplecticColumn(n, out.A | {a}, out.D) == c
            for u in range(1, n + 1):
                if u in B:
                    continue
                try:
                    out = surgery_add_B(c, u)
                except (GBoundaryError, InadmissibleColumnError):
                    continue
                if 0 in out.A or 0 in out.D:
                    continue
                _, _, B2, C2 = dble_sets(out)
                if (B2, C2) == (B | {u}, C):
                    assert g_from(B, C, n) == c
            for v in range(1, n + 1):
                if v in c.D or len(c.A) + len(c.D) >= n:
                    continue
                out = surgery_add_D(c, v)
                assert SymplecticColumn(n, out.A, out.D - {v}) == c
            for x in sorted(C):
                out = surgery_remove_C(c, x)
                if 0 in out.A or 0 in out.D:
                    continue
                _, _, B2, C2 = dble_sets(out)
                if (B2, C2) == (B, C - {x}):
                    assert g_from(B2 | set(), C2 | {x}, n) == c


def test_lemma_witness_freed_letter():
    # removing the s-th unbarred letter frees its partner b_s entirely
    for n in (2, 3, 4):
        for c in admissible_columns(n):
            _, _, B, C = dble_sets(c)
            a_sorted, b_sorted = sorted(c.A), sorted(B)
            for s in range(1, len(a_sorted) + 1):
                b_s = b_sorted[s - 1]
                if s < len(a_sorted) and b_s >= a_sorted[s]:
                    continue
                reduced = SymplecticColumn(n, c.A - {a_sorted[s - 1]}, c.D)
                if not is_admissible(reduced):
                    continue
                _, _, B2, C2 = dble_sets(reduced)
                assert b_s not in reduced.A | B2 | C2 | reduced.D


def test_lemma_witness_freed_letter_golden_rank9():
    c = col(9, {1, 2, 3, 7, 8}, {1, 2, 3, 8})
    reduced = SymplecticColumn(9, c.A - {3}, c.D)
    _, _, B2, C2 = dble_sets(reduced)
    assert sorted(B2) == [4, 5, 7, 9] and sorted(C2) == [3, 4, 5, 9]
    assert 6 not in reduced.A | B2 | C2 | reduced.D


def test_column_validation():
    with pytest.raises(ColumnError):
        SymplecticColumn(3, F({5}), F())
    with pytest.raises(ColumnError):
        SymplecticColumn(2, F({1, 2}), F({1, 2}))  # five letters cannot fit


def test_column_letters_are_integers():
    # a float letter was accepted and a string one raised a bare TypeError
    with pytest.raises(ColumnError, match=r"^A contains 1\.5, outside \[0, 3\]$"):
        SymplecticColumn(3, {1.5}, set())
    with pytest.raises(ColumnError, match=r"^D contains 'a', outside \[0, 3\]$"):
        SymplecticColumn(3, {1}, {"a"})
    with pytest.raises(ColumnError, match=r" contains True, outside \[0, 3\]$"):
        g_from({True}, set(), 3)


def test_recovery_names_the_sets_it_was_given():
    # its range errors named B and C as A and D
    with pytest.raises(ColumnError, match=r"^B contains True, outside \[0, 3\]$"):
        g_from({True}, set(), 3)
    with pytest.raises(ColumnError, match=r"^C contains 9, outside \[0, 3\]$"):
        g_from(set(), {9}, 3)
