"""Malformed MDL1, CNN1 and SMP1 files all raise FormatError."""

import datetime as dt
import struct

import numpy as np
import pytest

from coastwatch.convnet import fc_to_cnn, load_cnn1, save_cnn1
from coastwatch.dataset import NormStats, Sample, load_samples, save_samples
from coastwatch.errors import FormatError
from coastwatch.mlp import init_mlp, load_mdl1, save_mdl1
from coastwatch.sensor import TURBIDITY


def _model():
    params = init_mlp((7, 8, 1), seed=0)
    params.bn_stats_tracked = True
    return params, NormStats(np.full(7, 0.2), np.full(7, 0.05), 5.0, 2.0)


def _samples():
    return [Sample(features=np.arange(7.0) + i, target=float(i), parameter=TURBIDITY,
                   patch_id=f"p{i}", window=(i, 0), station_id="s",
                   date=dt.date(2024, 6, 15))
            for i in range(3)]


# format -> (writer, loader, header bytes, offset of the u32 manifest length)
FORMATS = {
    "MDL1": (lambda p: save_mdl1(p, *_model(), TURBIDITY), load_mdl1, 8, 4),
    "CNN1": (lambda p: save_cnn1(p, fc_to_cnn(*_model(), TURBIDITY)), load_cnn1, 8, 4),
    "SMP1": (lambda p: save_samples(p, _samples()), load_samples, 16, 8),
}


def _with_length(blob: bytes, at: int, length: int) -> bytes:
    return blob[:at] + struct.pack("<I", length) + blob[at + 4:]


def _manifest_length(blob: bytes, at: int) -> int:
    return struct.unpack_from("<I", blob, at)[0]


DEFECTS = {
    "cut_header": lambda b, header, at: b[:header - 2],
    "cut_manifest": lambda b, header, at: b[:header + _manifest_length(b, at) // 2],
    "oversize_manifest_length": lambda b, header, at: _with_length(b, at, len(b)),
    "cut_payload": lambda b, header, at: b[:-1],
    "trailing_byte": lambda b, header, at: b + b"\x00",
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_malformed_file_raises_format_error(tmp_path, fmt, defect):
    write, load, header, at = FORMATS[fmt]
    path = tmp_path / "file.bin"
    write(path)
    load(path)  # the well-formed file loads
    path.write_bytes(DEFECTS[defect](path.read_bytes(), header, at))
    with pytest.raises(FormatError):
        load(path)
