"""Exception hierarchy for the coastwatch package, and the one reader of
every JSON value it reads.

``read_document`` reads the documents that steer the package (scene spec,
training config, policy, map index), every manifest key a file loader reads
(``_container.load`` passes it the keys its format declares; an undeclared
key is carried as parsed), the georef and normalization objects a manifest
holds, and each alert line."""

import datetime as dt


class CoastwatchError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CoastwatchError, ValueError):
    """Raster or array dimensions violate an operation's preconditions."""


class SchemaError(CoastwatchError, ValueError):
    """Tabular input (CSV, JSON document) does not match the documented schema."""


class FormatError(CoastwatchError, ValueError):
    """A binary file (PAT1, SMP1, MDL1, CNN1) is malformed or truncated."""


class InconsistencyError(CoastwatchError, ValueError):
    """Related inputs disagree, e.g. grid count does not match tile placements."""


class TransferError(CoastwatchError, RuntimeError):
    """Weight transfer cannot proceed, e.g. batch-norm statistics missing."""


class NumericError(CoastwatchError, ArithmeticError):
    """Non-finite values appeared; message carries the layer or epoch index."""


class NonFiniteError(CoastwatchError, ValueError):
    """An input raster holds a NaN or infinite value where reflectances must
    be finite."""


def is_json_kind(value, kind: str) -> bool:
    """Whether a parsed JSON value is of ``kind``, one of "a boolean",
    "a string", "a date" (an ISO date string), "an integer", "a number" or a
    list kind of ``_ITEM_KINDS``, each optionally followed by " or null". A
    boolean is no number."""
    if value is None:
        return kind.endswith(" or null")
    kind = kind.removesuffix(" or null")
    if kind == "a boolean":
        return isinstance(value, bool)
    if kind == "a string":
        return isinstance(value, str)
    if kind == "a date":
        try:
            dt.date.fromisoformat(value)
        except (TypeError, ValueError):
            return False
        return True
    if isinstance(value, bool):
        return False
    if kind == "an integer":
        return isinstance(value, int)
    if kind == "a number":
        return isinstance(value, (int, float))
    return isinstance(value, list) and all(is_json_kind(v, _ITEM_KINDS[kind])
                                           for v in value)


_ITEM_KINDS = {"a list of integers": "an integer", "a list of numbers": "a number",
               "a list of strings": "a string",
               "a list of number lists": "a list of numbers"}


def _python(value, kind: str | None):
    """A value of JSON ``kind`` in Python form: a number as a float, a list as
    a tuple, a date as a ``datetime.date``; a null or a kind of None as is."""
    if value is None or kind is None:
        return value
    kind = kind.removesuffix(" or null")
    if kind == "a number":
        return float(value)
    if kind == "a date":
        return dt.date.fromisoformat(value)
    if kind in _ITEM_KINDS:
        return tuple(_python(v, _ITEM_KINDS[kind]) for v in value)
    return value


def read_document(doc, what: str, kinds: dict, required=()) -> dict:
    """The values of ``doc`` in Python form (``_python``), keyed as in
    ``doc``. Raise ``SchemaError`` unless ``doc`` is a JSON object whose keys
    all lie in ``kinds``, that holds every key of ``required``, and whose
    values are of the JSON kind ``kinds`` maps them to; a kind of None leaves
    the value to the caller, as parsed. ``what`` names the document in the
    message."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise SchemaError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise SchemaError(f"{what} lacks keys: {', '.join(missing)}")
    for key, value in doc.items():
        kind = kinds[key]
        if kind is not None and not is_json_kind(value, kind):
            raise SchemaError(f"{what} {key} must be {kind}, got {value!r}")
    return {key: _python(value, kinds[key]) for key, value in doc.items()}
