"""Hypothesis strategies for JSON values off a declared kind, shared by the
file-format and alert-line properties."""

import datetime as dt

from hypothesis import strategies as st

# A value of each JSON kind.
VALUES = {
    "boolean": st.booleans(),
    "string": st.text(max_size=8),
    "number": st.integers(-2**53, 2**53) | st.floats(),
    "list": st.lists(st.integers(-9, 9) | st.text(max_size=3), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-9, 9), max_size=3),
    "null": st.none(),
}
# The JSON kinds a value of each declared kind is written as: the kinds of
# ``errors.read_document`` and, for the objects it leaves to their readers,
# "an object" and "an object or null".
HOLDS = {
    "a boolean": {"boolean"}, "a string": {"string"}, "a date": {"string"},
    "an integer": {"number"}, "a number": {"number"},
    "a list of integers": {"list"}, "a list of numbers": {"list"},
    "a list of strings": {"list"},
    "an object": {"object"}, "an object or null": {"object", "null"},
}


def _is_date(text: str) -> bool:
    try:
        dt.date.fromisoformat(text)
    except ValueError:
        return False
    return True


def another_kind(kind: str):
    """A JSON value that is not of ``kind``: one of each JSON kind ``kind``
    is not written as, a float for an integer, and a string that is no ISO
    date for a date."""
    values = [VALUES[k] for k in VALUES if k not in HOLDS[kind]]
    if kind == "an integer":
        values.append(st.floats())
    if kind == "a date":
        values.append(VALUES["string"].filter(lambda text: not _is_date(text)))
    return st.one_of(*values)
