"""Exception hierarchy for the coastwatch package."""


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
    "a string", "an integer", "a number" or a list kind of ``_ITEM_KINDS``,
    each optionally followed by " or null". A boolean is no number."""
    if value is None:
        return kind.endswith(" or null")
    kind = kind.removesuffix(" or null")
    if kind == "a boolean":
        return isinstance(value, bool)
    if kind == "a string":
        return isinstance(value, str)
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


def check_document(doc, what: str, kinds: dict, required=()) -> None:
    """Raise ``SchemaError`` unless ``doc`` is a JSON object whose keys all
    lie in ``kinds``, that holds every key of ``required``, and whose values
    are of the JSON kind ``kinds`` maps them to (a kind of None leaves the
    value to the caller); ``what`` names the document in the message."""
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
