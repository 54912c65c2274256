"""phi's answers themselves, beyond the counts the sweeps check: a digest of
every image over an exhaustive range, the answer under any order of passes,
and the restriction to sl(n).

`restriction` takes no pytest fixture, so a sweep past the tier-1 range can
run it directly:

    PYTHONPATH=src:tests python -c 'from test_phi_answers import restriction; print(restriction(6, 6))'
"""

import hashlib
import random
from functools import lru_cache

from sptab.enumeration import enum_ss_sl, enum_ss_sp, shapes_up_to
from sptab.tableaux import Tableau, is_quasistandard_sl, is_quasistandard_sp, is_semistandard_sp, tableau_to_json
from sptab.taquin_sl import expand_sl, reduce_sl, slide_pass_sl
from sptab.taquin_sp import phi, psi, slide_pass_sp

# (rank, most boxes) of the exhaustive ranges
SP_RANGE = ((2, 7), (3, 6), (4, 5))
SL_RANGE = ((3, 8), (4, 7), (5, 6))


@lru_cache(maxsize=None)
def sp_answers() -> tuple:
    """(n, t, mu, q) with phi(t) = (mu, q) for every semi-standard t of SP_RANGE."""
    shapes = ((n, shape) for n, max_boxes in SP_RANGE for shape in shapes_up_to(n, max_boxes))
    return tuple((n, t, *phi(t)) for n, shape in shapes for t in enum_ss_sp(n, shape))


def test_phi_answers_digest():
    # one line "n t mu q" per tableau, each tableau as its tuple of code columns
    lines = "".join(f"{n} {t.grid()!r} {mu!r} {q.grid()!r}\n" for n, t, mu, q in sp_answers())
    assert (len(sp_answers()), hashlib.sha256(lines.encode()).hexdigest()) == (
        15292,
        "2117bc31904dde17ceee0f6a3c7b705c3d14dc100eb22decc334cfe14f0028a3",
    )


def in_any_order(t: Tableau, slide_pass, rng: random.Random) -> Tableau:
    """Passes at rows drawn by `rng` among the pushable ones, until t is
    quasi-standard.  The paper fixes the largest pushable row for each pass;
    that the answer does not depend on the order is observed here over the
    exhaustive ranges, not claimed by the paper."""
    while t._nqs_rows:
        t = slide_pass(t, rng.choice(t._nqs_rows))
    return t


def test_phi_answer_does_not_depend_on_the_pass_order():
    rng, branching = random.Random(1), 0
    for _, t, _, q in sp_answers():
        branching += len(t._nqs_rows) > 1
        assert in_any_order(t, slide_pass_sp, rng) == q, t
    assert branching == 446


def test_reduce_sl_answer_does_not_depend_on_the_pass_order():
    rng, branching = random.Random(1), 0
    for n, max_boxes in SL_RANGE:
        for shape in shapes_up_to(n - 1, max_boxes):
            for t in enum_ss_sl(n, shape):
                branching += len(t._nqs_rows) > 1
                assert in_any_order(t, slide_pass_sl, rng) == reduce_sl(t)[1], t
    assert branching == 541


def restriction(n: int, max_boxes: int) -> tuple[int, list]:
    """Read every semi-standard plain tableau s of rank n+1 with letters at
    most n and at most `max_boxes` cells as the symplectic tableau t of rank
    n with the same codes, all unbarred.  t must be semi-standard with s's
    quasi-standard verdict, phi(t) must be reduce_sl(s) letter for letter,
    and psi and expand_sl must give t and s back.  Returns how many s were
    read and the columns of those that broke a rule."""
    count, broken = 0, []
    for shape in shapes_up_to(n, max_boxes):
        for s in enum_ss_sl(n + 1, shape):
            if any(x > n for col in s.columns for x in col):
                continue
            count += 1
            t = Tableau.sp(n, s.columns)
            (mu, q), (nu, r) = phi(t), reduce_sl(s)
            if not (
                is_semistandard_sp(t)
                and is_quasistandard_sp(t) == is_quasistandard_sl(s)
                and (mu, tableau_to_json(q)["columns"]) == (nu, tableau_to_json(r)["columns"])
                and psi(shape, mu, q) == t
                and expand_sl(shape, nu, r) == s
            ):
                broken.append(s.columns)
    return count, broken


def test_phi_restricts_to_reduce_sl_on_unbarred_tableaux():
    # on unbarred letters the surgery through the double moves letters as
    # the classical swap does (the Levi gl(n) of sp(2n))
    counts = {}
    for n in (2, 3, 4, 5):
        counts[n], broken = restriction(n, 6)
        assert broken == [], (n, broken[:3])
    assert counts == {2: 50, 3: 259, 4: 1001, 5: 3097}  # 4,407, the empty tableau at each n
