"""The magic + manifest + blob framing shared by the MDL1 and CNN1 files.

Layout: 4-byte magic, u32 little-endian manifest length, UTF-8 JSON
manifest, then little-endian arrays back to back in the order and shapes
the manifest declares. The SMP1 sample store has its own 16-byte header
(it carries the record count) and parses its manifest through
``manifest_at``. Every malformed file raises ``FormatError``.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .errors import FormatError

_LENGTH = struct.Struct("<I")
_HEADER_BYTES = 4 + _LENGTH.size


def pack(magic: bytes, manifest: dict, arrays: Iterable[np.ndarray], dtype) -> bytes:
    """Frame ``manifest`` and ``arrays`` (each cast to ``dtype``)."""
    mbytes = json.dumps(manifest).encode()
    return b"".join([magic, _LENGTH.pack(len(mbytes)), mbytes,
                     *(a.astype(dtype).tobytes() for a in arrays)])


def manifest_at(blob: bytes, offset: int, length: int, path: str | Path) -> dict:
    """The JSON object stored in ``blob[offset : offset + length]``."""
    if offset + length > len(blob):
        raise FormatError(
            f"{path}: manifest of {length} bytes runs past the end of the file"
        )
    try:
        manifest = json.loads(bytes(blob[offset : offset + length]).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"{path}: manifest is not UTF-8 JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    return manifest


def read(blob: bytes, magic: bytes, path: str | Path) -> tuple[dict, memoryview]:
    """Check the magic; return the manifest and the payload after it."""
    if blob[:4] != magic:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < _HEADER_BYTES:
        raise FormatError(f"{path}: shorter than a {magic.decode()} header")
    (length,) = _LENGTH.unpack_from(blob, 4)
    manifest = manifest_at(blob, _HEADER_BYTES, length, path)
    return manifest, memoryview(blob)[_HEADER_BYTES + length :]


def split(
    payload: memoryview, shapes: list[tuple[int, ...]], dtype, path: str | Path
) -> list[np.ndarray]:
    """Read-only arrays of ``shapes`` laid back to back in ``payload``.

    The payload must be exactly their size: a cut or a trailing byte raises.
    """
    dtype = np.dtype(dtype)
    sizes = [math.prod(shape) for shape in shapes]
    expected = sum(sizes) * dtype.itemsize
    if len(payload) != expected:
        raise FormatError(
            f"{path}: parameter payload is {len(payload)} bytes, expected {expected}"
        )
    flat = np.frombuffer(payload, dtype=dtype)
    arrays, start = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(flat[start : start + size].reshape(shape))
        start += size
    return arrays
