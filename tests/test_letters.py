import pytest
from hypothesis import given, strategies as st

from sptab.errors import LetterError
from sptab.letters import (
    Letter,
    code,
    from_code,
    format_letter,
    letter_from_json,
    letter_to_json,
    parse_letter,
    sigma_letter_sl,
)


def all_letters(n, extended=False):
    lo = 0 if extended else 1
    return [Letter(m, b) for m in range(lo, n + 1) for b in (False, True)]


def test_order_examples():
    # the alphabet order is the order of the codes
    assert code(Letter(2), 3) < code(Letter(2, True), 3)
    assert code(Letter(3, True), 3) < code(Letter(1, True), 3)
    assert code(Letter(2, True), 3) == 5


def test_total_order_exhaustive():
    for n in (1, 2, 3, 4):
        letters = sorted(all_letters(n, extended=True), key=lambda l: code(l, n))
        codes = [code(l, n) for l in letters]
        assert codes == sorted(codes) and len(set(codes)) == len(codes)
        # unbarred ascending, all unbarred below all barred, barred reversed
        expected = [Letter(m) for m in range(0, n + 1)] + [
            Letter(m, True) for m in range(n, -1, -1)
        ]
        assert letters == expected


def test_bar_is_order_reversing_involution():
    # barring maps a code c to 2n+1-c: an involution that reverses the order
    def bar(letter):
        return Letter(letter.magnitude, not letter.barred)

    for n in (2, 3, 4):
        for a in all_letters(n, extended=True):
            assert code(bar(a), n) == 2 * n + 1 - code(a, n)
            assert bar(bar(a)) == a
            for b in all_letters(n, extended=True):
                assert (code(a, n) < code(b, n)) == (code(bar(b), n) < code(bar(a), n))


def test_code_round_trip():
    for n in (1, 3, 5):
        for c in range(0, 2 * n + 2):
            assert code(from_code(c, n), n) == c
    with pytest.raises(LetterError):
        from_code(10, 4)
    with pytest.raises(LetterError):
        code(Letter(5), 4)


def test_sigma_letter_examples():
    assert sigma_letter_sl(4, 7) == 4
    assert sigma_letter_sl(1, 7) == 7
    assert sigma_letter_sl(5, 7) == 3
    with pytest.raises(LetterError):
        sigma_letter_sl(0, 7)
    with pytest.raises(LetterError):
        sigma_letter_sl(8, 7)


@given(st.integers(min_value=1, max_value=50))
def test_sigma_letter_is_order_reversing_involution(n):
    for t in range(1, n + 1):
        assert sigma_letter_sl(sigma_letter_sl(t, n), n) == t
    vals = [sigma_letter_sl(t, n) for t in range(1, n + 1)]
    assert vals == sorted(vals, reverse=True)


def test_text_forms():
    assert format_letter(Letter(3)) == "3"
    assert format_letter(Letter(3, True)) == "3'"
    for text in ("3", "3'", "12'", "0", "0'"):
        assert format_letter(parse_letter(text)) == text
    with pytest.raises(LetterError):
        parse_letter("x")


def test_json_forms():
    assert letter_to_json(Letter(3)) == 3
    assert letter_to_json(Letter(3, True)) == -3
    assert letter_to_json(Letter(0, True)) == "-0"
    assert letter_to_json(Letter(0)) == 0
    for l in all_letters(4, extended=True):
        assert letter_from_json(letter_to_json(l)) == l
        assert letter_from_json({"m": l.magnitude, "b": l.barred}) == l
    with pytest.raises(LetterError):
        letter_from_json("x")
