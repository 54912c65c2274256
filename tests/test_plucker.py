import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from sptab.enumeration import enum_admissible_columns
from sptab.errors import ShapeError
from sptab.plucker import (
    contract,
    contraction_matrix,
    exact_rank,
    kernel_dimension,
    relation_rank,
)


def wedge_basis(n, k):
    """The degree-k basis wedges over the rank-n alphabet, lexicographic."""
    return list(combinations(range(1, 2 * n + 1), k))


def omega(a, b, n):
    """The symplectic pairing on basis vectors, written out directly."""
    if a <= n and b == 2 * n + 1 - a:
        return 1
    if a > n and b == 2 * n + 1 - a:
        return -1
    return 0


def contract_oracle(w, n):
    """Literal expansion of the contraction sum over all position pairs."""
    out = {}
    k = len(w)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            om = omega(w[i - 1], w[j - 1], n)
            if not om:
                continue
            sign = (-1) ** (i + j - 1)
            rest = tuple(v for p, v in enumerate(w, start=1) if p not in (i, j))
            out[rest] = out.get(rest, 0) + om * sign
    return {k_: v for k_, v in out.items() if v}


def sparse(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def dense_contraction(n, k):
    """The contraction matrix written out densely from the literal expansion."""
    return [[contract_oracle(w, n).get(e, 0) for w in wedge_basis(n, k)] for e in wedge_basis(n, k - 2)]


def wedge_sort_sign(seq):
    """Sign of sorting a wedge word; 0 on repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0, ()
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def test_contract_examples():
    assert contract((1, 2), 2) == {}
    assert contract((1, 4), 2) == {(): 1}
    assert contract((1, 2, 4), 2) == {(2,): -1}
    with pytest.raises(ShapeError):
        contract((1,), 2)


def test_contract_matches_literal_expansion():
    for n in (2, 3):
        for k in range(2, min(2 * n, 5) + 1):
            for w in wedge_basis(n, k):
                assert contract(w, n) == contract_oracle(w, n)


def test_contract_adjoint_to_wedging_with_form():
    # <contract(w), E> equals <w, E wedge Omega>, with the wedge product
    # expanded independently through sorting signs
    for n in (2, 3):
        for k in (2, 3, 4):
            if k > 2 * n:
                continue
            for E in wedge_basis(n, k - 2):
                expansion = {}
                for m in range(1, n + 1):
                    sign, sorted_w = wedge_sort_sign(E + (m, 2 * n + 1 - m))
                    if sign:
                        expansion[sorted_w] = expansion.get(sorted_w, 0) + sign
                for w in wedge_basis(n, k):
                    assert contract(w, n).get(E, 0) == expansion.get(w, 0)


def internal_relations(n, k):
    """One relation per degree-(k-2) basis wedge: its row of the contraction
    matrix, keyed by the degree-k wedges."""
    wedges = wedge_basis(n, k)
    return [{wedges[c]: v for c, v in row.items()} for row in contraction_matrix(n, k)]


def test_internal_relations_rank2():
    rels = internal_relations(2, 2)
    assert len(rels) == 1
    assert set(rels[0]) == {(1, 4), (2, 3)}
    assert exact_rank(sparse([[rels[0][(1, 4)], rels[0][(2, 3)]]])) == 1


def test_relation_support_contains_bar_pair():
    for n, k in ((2, 2), (3, 2), (3, 3)):
        for rel in internal_relations(n, k):
            for w in rel:
                assert any(a + b == 2 * n + 1 for a, b in combinations(w, 2))


def test_relation_count_and_rank_rank3():
    rels = internal_relations(3, 3)
    assert len(rels) == comb(6, 1) == 6
    assert relation_rank(3, 3) == 6


def test_adjointness_regression():
    # the coefficient of E in contract(w) equals the coefficient of w in
    # the relation generated by E, for every pair
    for n, k in ((2, 2), (3, 3)):
        rels = dict(zip(wedge_basis(n, k - 2), internal_relations(n, k)))
        for w in wedge_basis(n, k):
            for E, c in contract(w, n).items():
                assert rels[E].get(w, 0) == c


def test_kernel_dimensions():
    expected = {
        (2, 2): (5, 1),
        (3, 2): (14, 1),
        (3, 3): (14, 6),
        (4, 2): (27, 1),
        (4, 3): (48, 8),
        (4, 4): (42, 28),
    }
    for (n, k), (kernel, rank) in expected.items():
        assert kernel_dimension(n, k) == kernel == comb(2 * n, k) - comb(2 * n, k - 2)
        assert relation_rank(n, k) == rank == comb(2 * n, k - 2)


def test_contraction_surjective_up_to_rank4():
    for n in (2, 3, 4):
        for k in range(2, n + 1):
            assert relation_rank(n, k) == comb(2 * n, k - 2)


def test_relation_rank_uses_up_its_own_rows_only():
    # relation_rank hands its rows to the elimination one at a time, in
    # order; a caller's list is left as it was
    for n in range(2, 6):
        for k in range(2, n + 1):
            rows = contraction_matrix(n, k)
            kept = [dict(row) for row in rows]
            assert relation_rank(n, k) == exact_rank(rows) == comb(2 * n, k - 2)
            assert rows == kept


def rank_oracle(matrix):
    """Independent rank via Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def test_exact_rank_small_cases():
    assert exact_rank(sparse([])) == 0
    assert exact_rank(sparse([[0, 0], [0, 0]])) == 0
    assert exact_rank(sparse([[1, 2], [2, 4]])) == 1
    assert exact_rank(sparse([[1, 2], [3, 4]])) == 2
    assert exact_rank(sparse([[2, 0, 1], [0, 3, 1], [2, 3, 2]])) == 2


def test_exact_rank_against_fraction_oracle():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert exact_rank(sparse(m)) == rank_oracle(m)
    for n, k in ((3, 3), (4, 4)):
        m = dense_contraction(n, k)
        assert contraction_matrix(n, k) == sparse(m)
        assert exact_rank(sparse(m)) == rank_oracle(m)


def test_exact_rank_random_sparse_rows():
    # rows as the rank sees them: explicit zeros, empty rows, repeats,
    # multiples and sums of earlier rows, large entries
    rng = random.Random(11)
    for _ in range(200):
        ncols = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(0, 10)):
            pick = rng.random()
            if pick < 0.1:
                rows.append({})
            elif pick < 0.2:
                rows.append({rng.randrange(ncols): 0})
            elif pick < 0.4 and rows:
                a, b = rng.choice(rows), rng.choice(rows)
                f, g = rng.randint(-4, 4), rng.randint(-4, 4)
                rows.append({c: f * a.get(c, 0) + g * b.get(c, 0) for c in set(a) | set(b)})
            else:
                cells = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
                rows.append({c: rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 12)) for c in cells})
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        kept = [dict(row) for row in rows]
        assert exact_rank(rows) == rank_oracle(dense)
        assert rows == kept  # the input rows are not modified


def test_kernel_dimension_past_exhaustive_range():
    for n in range(5, 9):
        for k in range(2, n + 1):
            formula = comb(2 * n, k) - comb(2 * n, k - 2)
            assert kernel_dimension(n, k) == len(enum_admissible_columns(n, k)) == formula
