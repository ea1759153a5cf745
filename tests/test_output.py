"""Lossless JSON/CSV serialization and the display format."""

import json
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtriad import output
from dualtriad.output import format_exact, format_rows, write_document
from dualtriad.polynomial import Polynomial
from dualtriad.reference import OutputDocument, generate_named, lah_from_roots, parse_exact
from dualtriad.sequences import RootSequence


def named_triangles():
    yield generate_named("pascal", 16)
    yield generate_named("q-gaussian", 16, q=2)
    yield generate_named("q-gaussian", 16, q=Fraction(1, 2))
    yield generate_named("catalan-shifted", 16)
    yield generate_named("catalan-triad", 16)
    yield generate_named("fibonomial", 16)
    yield generate_named("stirling1", 16)
    yield generate_named("eulerian", 16)
    yield lah_from_roots(RootSequence.arithmetic(), 16, params=(("roots", "0,1,2,…"),))


class TestExactStrings:
    def test_integers_and_fractions(self):
        assert format_exact(Fraction(40)) == "40"
        assert format_exact(Fraction(-3, 4)) == "-3/4"
        assert format_exact(7) == "7"
        assert parse_exact("40") == 40
        assert parse_exact("-3/4") == Fraction(-3, 4)

    def test_round_trip_is_identity(self):
        for v in (Fraction(0), Fraction(10**40), Fraction(-7, 13), Fraction(255, 256)):
            assert parse_exact(format_exact(v)) == v

    def test_beyond_the_int_string_limit(self):
        # The default limit on int <-> str conversion is 4300 digits; values
        # past it must still format and parse without touching the limit.
        limit = sys.get_int_max_str_digits()
        big = 10**4999 + 12345678901234567890
        for v in (big, -big, Fraction(-7, big), Fraction(big + 1, 3)):
            assert parse_exact(format_exact(v)) == v
        assert format_exact(big) == "1" + "0" * 4979 + "12345678901234567890"
        assert format_exact(Fraction(-7, big)).startswith("-7/1000")
        assert len(format_exact(Fraction(-7, big))) == 3 + 5000
        assert str(Polynomial((0, -big))) == "-" + format_exact(big) + "*x"
        assert generate_named("q-gaussian", 1, q=big).params_dict() == {"q": format_exact(big)}
        assert sys.get_int_max_str_digits() == limit

    def test_rejects_inexact_text(self):
        # Digits outside 0-9 included: format_exact never writes them.
        for bad in ("1.5", "1e3", "", "x", "1/0", "--3", "3 / 4", "\u0661\u0662", "\u0663/\u0664"):
            with pytest.raises(ValueError):
                parse_exact(bad)


class TestJsonDocuments:
    def test_schema_shape(self):
        tri = generate_named("q-gaussian", 2, q=2)
        doc = OutputDocument.from_values(tri.family, tri.params_dict(), tri.rows)
        data = json.loads(doc.to_json())
        assert list(data.keys()) == ["family", "params", "rows", "report"]
        assert data["family"] == "q-gaussian"
        assert data["params"] == {"q": "2"}
        assert data["rows"] == [["1"], ["1", "1"], ["1", "3", "1"]]
        assert data["report"] is None
        # every value is a string, never a native number
        assert all(isinstance(s, str) for row in data["rows"] for s in row)

    def test_round_trip_all_named_families(self):
        for tri in named_triangles():
            doc = OutputDocument.from_values(tri.family, tri.params_dict(), tri.rows)
            back = OutputDocument.from_json(doc.to_json())
            assert back == doc
            assert [tuple(row) for row in back.value_rows()] == list(tri.rows)

    def test_report_preserved(self):
        doc = OutputDocument(
            family="x", params={}, rows=[["1"]], report={"holds": "true"}
        )
        assert OutputDocument.from_json(doc.to_json()) == doc

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            OutputDocument.from_json("[]")
        with pytest.raises(ValueError):
            OutputDocument.from_json('{"family": "f", "params": {}, "rows": [[1]], "report": null}')


class TestCsv:
    def test_round_trip_all_named_families(self):
        for tri in named_triangles():
            doc = OutputDocument.from_values(tri.family, tri.params_dict(), tri.rows)
            back = OutputDocument.rows_from_csv(doc.to_csv())
            assert [tuple(row) for row in back] == list(tri.rows)

    def test_no_padding(self):
        tri = generate_named("pascal", 2)
        doc = OutputDocument.from_values(tri.family, {}, tri.rows)
        assert doc.to_csv() == "1\n1,1\n1,2,1\n"


class TestPretty:
    def test_rows_are_centered(self):
        tri = generate_named("pascal", 3)
        doc = OutputDocument.from_values(tri.family, {}, tri.rows)
        lines = doc.to_pretty().splitlines()
        assert lines[-1] == "1 3 3 1"
        assert lines[0].strip() == "1"
        # centered: leading space on the narrow rows, none on the widest
        assert lines[0].startswith(" ") and not lines[-1].startswith(" ")

    def test_empty(self):
        assert OutputDocument(family="", params={}, rows=[]).to_pretty() == ""


def joined_csv(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def joined_pretty(rows):
    if not rows:
        return ""
    texts = [" ".join(row) for row in rows]
    width = max(len(t) for t in texts)
    return "".join(t.center(width).rstrip() + "\n" for t in texts)


# Past the 4300-digit limit of int <-> str conversion.
BIG = format_exact(7 * 10**4400 + 12345)
texts = st.text(max_size=8) | st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9", "\u2603", "\n", "/"])
entries = texts | st.integers().map(str) | st.sampled_from([BIG, "-" + BIG, "1/" + BIG])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
documents = st.builds(
    OutputDocument,
    family=texts,
    params=st.dictionaries(texts, texts, max_size=3),
    rows=st.lists(st.lists(entries, max_size=4), max_size=5),
    report=st.none() | st.dictionaries(texts, json_values, max_size=3),
)


class TestFormatRows:
    @pytest.mark.parametrize("row", [
        (1, 7, 21, 35, 35, 21, 7, 1),  # palindrome, even length
        (1, 63, 651, 1395, 651, 63, 1),  # palindrome, odd length
        (Fraction(1, 2), -3, Fraction(1, 2)),
        (1, 2, 3, 4, 2, 1),  # differs from its reverse only in the middle pair
        (1, 5, 9, 6, 1),  # differs from its reverse only next to the middle
        (4, 5, 7, 5, 4, 3),
        (-8,),
        (),
    ])
    def test_equals_formatting_every_value(self, row):
        assert list(format_rows([row])) == [[format_exact(v) for v in row]]
        assert list(format_rows([list(row)])) == [[format_exact(v) for v in row]]

    def test_symmetric_rows_format_half(self, monkeypatch):
        import dualtriad.output as output

        calls = []
        monkeypatch.setattr(output, "format_exact", lambda v: calls.append(v) or str(v))
        assert list(format_rows([(1, 4, 6, 4, 1), (1, 3, 3, 1), (1, 2, 3)])) == [
            ["1", "4", "6", "4", "1"], ["1", "3", "3", "1"], ["1", "2", "3"]]
        assert calls == [1, 4, 6, 1, 3, 1, 2, 3]


class TestOneWriter:
    """Every format comes from write_document; its text must be the one that
    json.dumps and plain joins of the whole document give."""

    def assert_renderings(self, doc):
        whole = {"family": doc.family, "params": doc.params, "rows": doc.rows, "report": doc.report}
        assert doc.to_json() == json.dumps(whole, indent=2)
        assert doc.to_csv() == joined_csv(doc.rows)
        assert doc.to_pretty() == joined_pretty(doc.rows)

    def test_edge_documents(self):
        for doc in (
            OutputDocument(family="", params={}, rows=[]),
            OutputDocument(family="x", params={"q": "2"}, rows=[["1"]]),
            OutputDocument(family="x", params={}, rows=[[], ["1"], []]),
            OutputDocument(family="x", params={}, rows=[["1"], ["12"], ["123"]]),
            OutputDocument(family='q"\\\u00e9', params={"roots": "1,2,…"}, rows=[["1"], ["1", BIG]],
                           report={"holds": True, "first_failure": [3, ["-2", "1/3"]], "route": {}}),
        ):
            self.assert_renderings(doc)

    @pytest.mark.parametrize("fmt,extra", [("csv", 0), ("json", 2), ("pretty", 0)])
    def test_one_write_per_row(self, fmt, extra):
        writes = []
        write_document(writes.append, fmt, "x", {}, [["1"], ["1", "1"], ["1", "2", "1"]].__iter__)
        assert len(writes) == 3 + extra

    @pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
    @pytest.mark.parametrize("row", [
        [str(k % 997) for k in range(60_000)],
        ["1", "9" * 100_000, "2"],
    ], ids=["200KiB-of-short-entries", "one-entry-of-100000-digits"])
    def test_long_rows_are_written_in_pieces(self, fmt, row):
        # No write holds more than _PIECE characters and one entry, so that
        # neither a long row's line nor its encoded bytes exist whole.  Over
        # the 200 KiB row, the first row's pretty pad is longer than _PIECE.
        rows = [["1"], row]
        writes = []
        write_document(writes.append, fmt, "x", {}, rows.__iter__)
        whole = {"family": "x", "params": {}, "rows": rows, "report": None}
        expected = {"csv": joined_csv(rows), "json": json.dumps(whole, indent=2) + "\n",
                    "pretty": joined_pretty(rows)}[fmt]
        assert "".join(writes) == expected
        longest = max(map(len, row)) + (2 if fmt == "json" else 0)
        assert max(map(len, writes)) <= output._PIECE + longest
        assert len(writes) >= 3 + (fmt == "json") * 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_written_as_they_arrive(self, fmt):
        events = []

        def rows():
            for n in range(3):
                events.append(f"row {n}")
                yield [str(n)]

        write_document(lambda text: events.append("write"), fmt, "x", {}, rows)
        head = ["write"] if fmt == "json" else []
        tail = ["write"] if fmt == "json" else []
        assert events == head + ["row 0", "write", "row 1", "write", "row 2", "write"] + tail

    def test_pretty_reads_twice_and_holds_one_row(self):
        # The first pass reads every row for the width and writes nothing;
        # the second makes each row again and writes it before the next.
        events = []

        def rows():
            for n in range(3):
                events.append(f"row {n}")
                yield [str(10**n)]

        write_document(events.append, "pretty", "x", {}, rows)
        assert events == ["row 0", "row 1", "row 2",
                          "row 0", " 1\n", "row 1", " 10\n", "row 2", "100\n"]

    @pytest.mark.parametrize("fmt,passes", [("csv", 1), ("json", 1), ("pretty", 2)])
    def test_each_pass_is_one_call_of_make(self, fmt, passes):
        # make() is called once per pass, the first time before anything is
        # written, and every pass reads every row.
        events = []

        def make():
            events.append("make")
            return iter([["1"], ["1", "1"]])

        write_document(lambda text: events.append("write"), fmt, "x", {}, make)
        assert events.count("make") == passes and events[0] == "make"
        assert events.count("write") == 2 + 2 * (fmt == "json")

    def test_json_stream_refused_by_its_make_writes_nothing(self):
        # A stream that checks its arguments when it is made raises before
        # the json header.
        writes = []

        def make():
            raise ValueError("rows must be nonnegative")

        with pytest.raises(ValueError, match="^rows must be nonnegative$"):
            write_document(writes.append, "json", "x", {}, make)
        assert writes == []

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_document(print, "xml", "x", {}, [].__iter__)

    # Last, so that a deterministic test above fails first and fast.
    @settings(max_examples=150, deadline=None)
    @given(documents)
    def test_matches_whole_document_renderings(self, doc):
        self.assert_renderings(doc)
        # Pieces of a few characters split every row, between entries and
        # inside pretty's left pad.
        for piece in (1, 5, 64):
            with mock.patch.object(output, "_PIECE", piece):
                self.assert_renderings(doc)
