"""The value classes are immutable records.  Their repr, equality, hash,
arity and immutability are pinned here: the problem strings of
verify_bijection embed the repr, and the memos key on equality and hash."""

import pytest

from sptab.columns import DoubledColumn, SymplecticColumn
from sptab.letters import Letter
from sptab.tableaux import Tableau
from sptab.taquin_sl import SlSkewColumn, SlSkewTableau
from sptab.taquin_sp import SpSkewColumn, SpSkewTableau

F = frozenset
C2 = SymplecticColumn(2, F({1}), F())

# a class, every field of one record of it (already normalised), its repr
RECORDS = [
    (Letter, (1, True), "Letter(magnitude=1, barred=True)"),
    (SymplecticColumn, (2, F(), F({1})), "SymplecticColumn(n=2, A=frozenset(), D=frozenset({1}))"),
    (
        DoubledColumn,
        (2, F({1}), F({1}), F({1}), F({2}), F({2}), F({2}), (1, 3), (2, 4)),
        "DoubledColumn(n=2, A=frozenset({1}), D=frozenset({1}), I=frozenset({1}), J=frozenset({2}), "
        "B=frozenset({2}), C=frozenset({2}), left=(1, 3), right=(2, 4))",
    ),
    (
        Tableau,
        (2, "sp", (C2,)),
        "Tableau(n=2, kind='sp', columns=(SymplecticColumn(n=2, A=frozenset({1}), D=frozenset()),))",
    ),
    (Tableau, (3, "sl", ((1, 2), (2,))), "Tableau(n=3, kind='sl', columns=((1, 2), (2,)))"),
    (SlSkewColumn, (1, (2, 3), None), "SlSkewColumn(inner=1, letters=(2, 3), star_row=None)"),
    (
        SpSkewColumn,
        (2, 0, F({1}), F(), 1),
        "SpSkewColumn(n=2, inner=0, A=frozenset({1}), D=frozenset(), star_row=1)",
    ),
    (
        SlSkewTableau,
        (3, (SlSkewColumn(0, (1,), 1),)),
        "SlSkewTableau(n=3, columns=(SlSkewColumn(inner=0, letters=(1,), star_row=1),))",
    ),
    (
        SpSkewTableau,
        (2, (SpSkewColumn(2, 0, F({1}), F(), 1),)),
        "SpSkewTableau(n=2, columns=(SpSkewColumn(n=2, inner=0, A=frozenset({1}), D=frozenset(), star_row=1),))",
    ),
]
IDS = [f"{cls.__name__}-{fields[1]}" if cls is Tableau else cls.__name__ for cls, fields, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_record_repr_equality_and_hash(cls, fields, text):
    a, b = cls(*fields), cls(*fields)
    assert repr(a) == text
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    # a record of another class is unequal, whatever its fields
    for other, other_fields, _ in RECORDS:
        if other is not cls:
            assert a != other(*other_fields) and a.__eq__(other(*other_fields)) is NotImplemented
    assert a != fields and a.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_record_is_immutable_and_takes_its_fields_only(cls, fields, text):
    a = cls(*fields)
    with pytest.raises(AttributeError, match="^cannot assign to field"):
        setattr(a, "n" if hasattr(a, "n") else "inner", 0)
    with pytest.raises(AttributeError, match="^cannot assign to field"):
        a.new = 0
    with pytest.raises(AttributeError, match="^cannot delete field"):
        delattr(a, "n" if hasattr(a, "n") else "inner")
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls()
    assert cls(*fields) == a  # nothing above changed it


def test_trailing_fields_default():
    assert Letter(2) == Letter(2, False) and repr(Letter(2)) == "Letter(magnitude=2, barred=False)"
    assert hash(Letter(2)) == hash((2, False))
    assert SlSkewColumn(1, (2, 3)) == SlSkewColumn(1, (2, 3), None)
    assert SpSkewColumn(2, 0, F({1}), F()) == SpSkewColumn(2, 0, F({1}), F(), None)
    with pytest.raises(TypeError):
        SlSkewColumn(1)
