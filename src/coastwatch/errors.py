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


class SingularContextError(CoastwatchError, ValueError):
    """A radiometric conversion is not invertible for the given context."""


class TransferError(CoastwatchError, RuntimeError):
    """Weight transfer cannot proceed, e.g. batch-norm statistics missing."""


class NumericError(CoastwatchError, ArithmeticError):
    """Non-finite values appeared; message carries the layer or epoch index."""


def check_document(doc, what: str, keys=None) -> None:
    """Raise ``SchemaError`` unless ``doc`` is a JSON object whose keys all
    lie in ``keys`` (any keys when ``keys`` is None); ``what`` names the
    document in the message."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(keys)) if keys is not None else []
    if unknown:
        raise SchemaError(f"unknown {what} keys: {', '.join(unknown)}")
