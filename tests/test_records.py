"""Value semantics of the package's records: equality, hashing, read-only
fields, repr and the coercions their constructors apply."""

import copy
import pickle
from fractions import Fraction

import pytest

from dualtriad.dynsys import FitResult, StepMatrix
from dualtriad.misprints import MisprintEntry
from dualtriad.reference import OutputDocument, Triangle
from dualtriad.sequences import RootSequence
from dualtriad.triads import BandedRecurrence, Family, TriadReport


def _make_records():
    """(make, repr) for each record: make() builds a fresh instance."""
    rec = lambda: BandedRecurrence((1, 1), (2, Fraction(1, 2)), (0, 3))
    return {
        "Triangle": (
            lambda: Triangle(((1,), (1, 1)), family="pascal", params=(("q", "2"),)),
            "Triangle(rows=((1,), (1, 1)), family='pascal', params=(('q', '2'),))",
        ),
        "BandedRecurrence": (
            rec,
            "BandedRecurrence(up=(1, 1), stay=(2, Fraction(1, 2)), down=(0, 3))",
        ),
        "TriadReport": (
            lambda: TriadReport(4, True),
            "TriadReport(verified_up_to=4, holds=True, first_failure=None, method='brute')",
        ),
        "Family": (
            lambda: Family("pascal", dual="pascal", route="banded dual recurrence"),
            "Family(name='pascal', dual='pascal', route='banded dual recurrence', param=None, "
            "recurrence=None, rows=None, phi_rows=None, proof=None)",
        ),
        "RootSequence": (
            lambda: RootSequence.geometric(2),
            "RootSequence(rule='geometric', data=(1, 2))",
        ),
        "StepMatrix": (
            lambda: StepMatrix(((1, 1), (0, 2, 1))),
            "StepMatrix(rows=((1, 1), (0, 2, 1)))",
        ),
        "FitResult": (
            lambda: FitResult(None, column=2, witness=((3, 2), (4, 2))),
            "FitResult(recurrence=None, column=2, witness=((3, 2), (4, 2)))",
        ),
        "MisprintEntry": (
            lambda: MisprintEntry("id", "row 6", "3388", "33880"),
            "MisprintEntry(ident='id', location='row 6', published='3388', "
            "computed='33880', note='')",
        ),
        "OutputDocument": (
            lambda: OutputDocument("pascal", rows=[["1"], ["1", "1"]]),
            "OutputDocument(family='pascal', params={}, rows=[['1'], ['1', '1']], report=None)",
        ),
    }


RECORDS = _make_records()
MUTABLE = {"OutputDocument"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_compare_equal(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b
    if name not in MUTABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_different_fields_compare_unequal():
    assert TriadReport(4, True) != TriadReport(4, True, method="certificate")
    assert RootSequence.geometric(2) != RootSequence.geometric(3)
    assert Triangle(((1,),)) != Triangle(((1,),), family="pascal")
    assert OutputDocument("pascal") != OutputDocument("lah")
    assert Triangle(((1,),)) != ((1,),)


def test_output_document_is_unhashable_and_mutable():
    doc = OutputDocument("pascal")
    with pytest.raises(TypeError):
        hash(doc)
    doc.rows = [["1"]]
    doc.params["q"] = "2"
    assert doc == OutputDocument("pascal", params={"q": "2"}, rows=[["1"]])
    # The defaults are fresh per instance.
    assert OutputDocument("pascal").params == {}


@pytest.mark.parametrize("name", sorted(set(RECORDS) - MUTABLE))
def test_frozen_fields_are_read_only(name):
    make, text = RECORDS[name]
    record = make()
    field = text[len(name) + 1:].split("=", 1)[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field(name):
    make, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_and_pickle_keep_the_value(name):
    make, _ = RECORDS[name]
    record = make()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_triangle_rows_pass_through_checked_rows():
    tri = Triangle([[Fraction(1)], [True, Fraction(3, 1)], [1, Fraction(1, 2), 1]])
    assert tri.rows == ((1,), (1, 3), (1, Fraction(1, 2), 1))
    assert isinstance(tri.rows, tuple) and all(isinstance(r, tuple) for r in tri.rows)
    assert [type(v) for v in tri.rows[1]] == [int, int]
    with pytest.raises(ValueError, match=r"^row 1 has 1 entries, expected 2$"):
        Triangle([[1], [1]])
    with pytest.raises(TypeError):
        Triangle([[1.0]])
    assert Triangle(((1,),)).family == "" and Triangle(((1,),)).params == ()


def test_banded_recurrence_values_pass_through_as_exact():
    rec = BandedRecurrence([Fraction(2)], [Fraction(1, 2)], [False])
    assert rec.up == (2,) and type(rec.up[0]) is int
    assert rec.stay == (Fraction(1, 2),)
    assert rec.down == (0,) and type(rec.down[0]) is int
    with pytest.raises(ValueError, match="^up, stay and down must cover the same levels$"):
        BandedRecurrence((1, 1), (1,), (0, 0))
    with pytest.raises(TypeError):
        BandedRecurrence((1.5,), (1,), (0,))


def test_step_matrix_checks_row_length():
    sm = StepMatrix([[Fraction(1), 1], [0, Fraction(4, 2), 1]])
    assert sm.rows == ((1, 1), (0, 2, 1)) and type(sm.rows[1][1]) is int
    with pytest.raises(ValueError, match=r"^row 1 has 2 entries, expected 3$"):
        StepMatrix([[1, 1], [1, 2]])


def test_defaults():
    assert TriadReport(3, False).first_failure is None
    assert FitResult(None).column is None and FitResult(None).witness == ()
    assert not FitResult(None).fits
    assert MisprintEntry("a", "b", "c", "d").note == ""
    assert Family("x", dual=None, route=None).param is None
    assert OutputDocument("x").rows == [] and OutputDocument("x").report is None


@pytest.mark.parametrize("make", [
    lambda: TriadReport(4),  # a missing field
    lambda: TriadReport(4, True, methods="brute"),  # an unknown keyword
    lambda: TriadReport(4, True, None, "brute", None),  # one positional too many
    lambda: TriadReport(4, True, holds=False),  # a field given twice
    lambda: Family(route=None),
    lambda: FitResult(None, wittness=()),
    lambda: MisprintEntry("a", "b", "c", "d", "e", "f"),
    lambda: OutputDocument(),
    lambda: OutputDocument("x", {}, [], None, None),
    lambda: RootSequence(rule="constant", data=(1,), step=2),
])
def test_constructor_refuses_a_missing_unknown_or_extra_field(make):
    with pytest.raises(TypeError):
        make()


def test_fields_by_position_or_by_name():
    assert TriadReport(4, True, None, "certificate") == TriadReport(
        method="certificate", holds=True, verified_up_to=4)
    # A value passed in is stored as given; only a default is made fresh.
    params = {"q": "2"}
    assert OutputDocument("x", params).params is params
    assert OutputDocument("x").rows is not OutputDocument("x").rows
