"""The ordered symplectic alphabet 1 < 2 < ... < n < n' < ... < 1'.

A letter is a magnitude plus a bar flag; barred letters are written in ASCII
with a trailing apostrophe (3' for "3 bar").  Internally a letter is an
integer code: unbarred i -> i and barred i' -> 2n+1-i.  Comparison is then
plain integer comparison and barring is the reflection x -> 2n+1-x.

Magnitude 0 is the extension used inside symplectic slides: 0 (code 0) sits
below every letter and 0' (code 2n+1) above every letter.  User-facing
tableaux never contain it; containers enforce that separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LetterError

__all__ = [
    "Letter",
    "code",
    "from_code",
    "format_letter",
    "letter_from_json",
    "letter_to_json",
    "parse_letter",
    "sigma_letter_sl",
]


@dataclass(frozen=True)
class Letter:
    magnitude: int
    barred: bool = False

    def __post_init__(self) -> None:
        if self.magnitude < 0:
            raise LetterError(f"negative magnitude {self.magnitude}")

    def __str__(self) -> str:
        return format_letter(self)


def code(letter: Letter, n: int) -> int:
    """Integer code of a letter in the rank-n alphabet (0..2n+1)."""
    m = letter.magnitude
    if m > n:
        raise LetterError(f"magnitude {m} exceeds rank {n}")
    return (2 * n + 1 - m) if letter.barred else m


def from_code(c: int, n: int) -> Letter:
    if not 0 <= c <= 2 * n + 1:
        raise LetterError(f"code {c} outside [0, {2 * n + 1}] for rank {n}")
    if c <= n:
        return Letter(c, False)
    return Letter(2 * n + 1 - c, True)


def sigma_letter_sl(t: int, n: int) -> int:
    """The entry map t -> n+1-t used by the classical tableau reversal."""
    if not 1 <= t <= n:
        raise LetterError(f"entry {t} outside [1, {n}]")
    return n + 1 - t


def format_letter(letter: Letter) -> str:
    return f"{letter.magnitude}'" if letter.barred else str(letter.magnitude)


def parse_letter(text: str) -> Letter:
    text = text.strip()
    if text.endswith("'"):
        body, barred = text[:-1], True
    else:
        body, barred = text, False
    try:
        m = int(body)
    except ValueError:
        raise LetterError(f"unreadable letter {text!r}") from None
    if m < 0:
        raise LetterError(f"unreadable letter {text!r}")
    return Letter(m, barred)


def letter_to_json(letter: Letter) -> int | str:
    """Signed-integer JSON form; 0' needs the string token "-0"."""
    if letter.barred:
        return "-0" if letter.magnitude == 0 else -letter.magnitude
    return letter.magnitude


def letter_from_json(value: object) -> Letter:
    if value == "-0":
        return Letter(0, True)
    if isinstance(value, bool) or not isinstance(value, (int, dict)):
        raise LetterError(f"unreadable letter value {value!r}")
    if isinstance(value, dict):
        try:
            return Letter(int(value["m"]), bool(value["b"]))
        except (KeyError, TypeError, ValueError):
            raise LetterError(f"unreadable letter object {value!r}") from None
    return Letter(-value, True) if value < 0 else Letter(value, False)
