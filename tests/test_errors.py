"""errors: the one document reader, its kinds, their Python forms and its
messages."""

import datetime as dt
import re

import pytest

from coastwatch.errors import SchemaError, read_document

KINDS = {"n": "a number", "i": "an integer", "b": "a boolean", "s": "a string",
         "d": "a date", "ln": "a list of numbers", "ls": "a list of strings",
         "lln": "a list of number lists or null", "any": None}


def test_each_value_reads_in_the_python_form_of_its_kind():
    doc = {"n": 3, "i": 3, "b": True, "s": "x", "d": "2024-06-15", "ln": [1, 2.5],
           "ls": ["a"], "lln": [[1, 2], [3, 4.5]], "any": [1, {"k": "2"}]}
    got = read_document(doc, "doc", KINDS)
    assert got == {"n": 3.0, "i": 3, "b": True, "s": "x", "d": dt.date(2024, 6, 15),
                   "ln": (1.0, 2.5), "ls": ("a",), "lln": ((1.0, 2.0), (3.0, 4.5)),
                   "any": [1, {"k": "2"}]}
    assert type(got["n"]) is float and type(got["i"]) is int
    assert all(type(x) is float for x in (*got["ln"], *got["lln"][0]))
    # a value of kind None is the caller's, as parsed
    assert got["any"] is doc["any"]
    assert read_document({"lln": None}, "doc", KINDS) == {"lln": None}
    # the document is left as it was
    assert doc["n"] == 3 and doc["ln"] == [1, 2.5] and doc["d"] == "2024-06-15"


@pytest.mark.parametrize("doc, says", [
    ([], "doc must be a JSON object"),
    ({"n": 1, "m": 1, "a": 2}, "unknown doc keys: a, m"),
    ({"n": True}, "doc n must be a number, got True"),
    ({"n": "1"}, "doc n must be a number, got '1'"),
    ({"i": 2.0}, "doc i must be an integer, got 2.0"),
    ({"d": "June"}, "doc d must be a date, got 'June'"),
    ({"d": 20240615}, "doc d must be a date, got 20240615"),
    ({"ln": [1, "2"]}, "doc ln must be a list of numbers, got [1, '2']"),
    ({"ln": None}, "doc ln must be a list of numbers, got None"),
    ({"lln": [1, 2]}, "doc lln must be a list of number lists or null, got [1, 2]"),
])
def test_a_document_off_its_kinds_is_a_schema_error(doc, says):
    with pytest.raises(SchemaError, match=re.escape(says)):
        read_document(doc, "doc", KINDS)


def test_the_missing_required_keys_are_named_in_their_order():
    with pytest.raises(SchemaError, match="doc lacks keys: s, n"):
        read_document({"i": 1}, "doc", KINDS, required=("s", "n", "i"))
