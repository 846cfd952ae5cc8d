"""The one file framing of the package: PAT1 rasters, SMP1 sample stores,
MDL1 models and CNN1 networks.

Layout: 4-byte magic, u32 little-endian manifest length, UTF-8 JSON
manifest, then the arrays back to back, C order, in the one dtype and the
order and shapes the manifest declares. ``write`` streams each array plane
by plane and a plane a block of rows at a time, so at most ``_WRITE_BLOCK``
bytes are ever cast or made contiguous at once. ``load``
checks the payload size against the declared shapes before it allocates
anything, reads the payload into one writable buffer and returns views of
it. That buffer is a private anonymous memory map of its own, not a heap
block: glibc raises its mmap threshold to the size of each mmapped block
it frees (up to 32 MiB), so after one command frees a 28 MiB scene, payloads
up to that size land on the heap and stay resident once dropped, under a
trim threshold of twice that. A mapping goes back to the system when its
last view is dropped: on the cli_chain benchmark (1024² scene, 16 chips)
peak RSS falls from 163.3 to 135.3 MB, and the chain time stays within its
run-to-run spread. The mapping holds no file descriptor, is page aligned
and writable, and a file cut or replaced after the read cannot fault it,
as a map of the file could. Each format declares the JSON kind of every
manifest key its loader reads, and ``load`` reads those keys with
``errors.read_document``, all of them required, before it lays out the
payload; a key no table declares is carried as parsed. Every malformed
file raises ``FormatError`` naming it, a manifest that lacks a declared key,
holds one of another kind or declares values the model rejects included
(``parsing``).
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import struct
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import FormatError, TransferError, read_document

_LENGTH = struct.Struct("<I")
_HEADER_BYTES = 4 + _LENGTH.size
# the most bytes ``write`` casts or makes contiguous at once
_WRITE_BLOCK = 1 << 18


def write(
    fh: BinaryIO, magic: bytes, manifest: dict, arrays: Iterable[np.ndarray], dtype
) -> None:
    """Frame ``manifest`` and ``arrays`` (each cast to ``dtype``) into ``fh``,
    reading each array only when the one before is written."""
    dtype = np.dtype(dtype)
    mbytes = json.dumps(manifest).encode()
    fh.write(magic + _LENGTH.pack(len(mbytes)) + mbytes)
    for array in arrays:
        # an array of three or more dimensions goes out one plane at a time,
        # a plane in blocks of rows of at most _WRITE_BLOCK bytes once cast
        for plane in array if array.ndim > 2 else (array,):
            row = dtype.itemsize * math.prod(plane.shape[1:])
            rows = max(1, _WRITE_BLOCK // max(row, 1))
            for start in range(0, len(plane), rows):
                fh.write(np.ascontiguousarray(plane[start:start + rows], dtype=dtype).data)


def load(
    path: str | Path,
    magic: bytes,
    kinds: dict,
    layout: Callable[[dict], tuple[list[tuple[int, ...]], object]],
) -> tuple[dict, list[np.ndarray]]:
    """The manifest of the file at ``path`` and views of its payload.

    The manifest keys of ``kinds`` are required and read in Python form
    (``read_document``); any other key keeps its parsed value. ``layout``
    turns the manifest into the payload's array shapes and its dtype. The
    payload must be exactly their size: a cut or a trailing byte raises, and
    nothing is allocated before the size is checked. The payload is read into
    a private anonymous mapping (the module docstring says why), which is
    unmapped when the last returned view is dropped.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_BYTES)
        if head[:4] != magic:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < _HEADER_BYTES:
            raise FormatError(f"{path}: shorter than a {magic.decode()} header")
        (length,) = _LENGTH.unpack_from(head, 4)
        size = os.fstat(fh.fileno()).st_size - _HEADER_BYTES - length
        if size < 0:
            raise FormatError(
                f"{path}: manifest of {length} bytes runs past the end of the file"
            )
        try:
            manifest = json.loads(fh.read(length).decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise FormatError(f"{path}: manifest is not UTF-8 JSON ({exc})") from None
        if not isinstance(manifest, dict):
            raise FormatError(f"{path}: manifest is not a JSON object")
        with parsing(path):
            declared = {key: value for key, value in manifest.items() if key in kinds}
            manifest |= read_document(declared, f"{magic.decode()} manifest", kinds,
                                      required=kinds)
            shapes, dtype = layout(manifest)
            if any(n < 0 for shape in shapes for n in shape):
                raise ValueError(f"negative array dimension in {shapes}")
            count = sum(math.prod(shape) for shape in shapes)
            dtype = np.dtype(dtype)
            if size != count * dtype.itemsize:
                raise FormatError(f"{path}: payload is {size} bytes, "
                                  f"expected {count * dtype.itemsize}")
            # a mapping cannot be empty: a 0-byte payload gets one unused byte
            buffer = mmap.mmap(-1, max(size, 1),
                               flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            flat = np.frombuffer(buffer, dtype, count)
            if fh.readinto(flat) != size:
                raise FormatError(f"{path}: payload shorter than {size} bytes")
            return manifest, views(flat, shapes)


def views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of ``shapes`` laid back to back in the 1-D array ``flat``."""
    arrays, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(flat[start : start + size].reshape(shape))
        start += size
    return arrays


@contextlib.contextmanager
def parsing(path: str | Path):
    """Turn a manifest off its kinds (``SchemaError``), an index past the end
    of a manifest list or a value the model rejects (``TypeError``,
    ``IndexError``, ``ValueError``, ``TransferError``) raised inside the
    block into a ``FormatError`` that names ``path``."""
    try:
        yield
    except FormatError:
        raise
    except (TypeError, IndexError, ValueError, TransferError) as exc:
        raise FormatError(f"{path}: {exc}") from None
