"""Malformed MDL1, CNN1 and SMP1 files all raise FormatError."""

import datetime as dt
import json
import struct

import numpy as np
import pytest

from coastwatch import _container, dataset
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


def _edit_manifest(blob: bytes, magic: bytes, field: str, value=None) -> bytes:
    """The file with ``field`` set to ``value``, or removed when None."""
    manifest, payload = _container.read(blob, magic, "file")
    if value is None:
        del manifest[field]
    else:
        manifest[field] = value
    mbytes = json.dumps(manifest).encode()
    return magic + struct.pack("<I", len(mbytes)) + mbytes + bytes(payload)


@pytest.mark.parametrize("fmt, field", [
    ("MDL1", "layer_dims"), ("MDL1", "dropout_p"), ("MDL1", "normalization"),
    ("CNN1", "layers"), ("CNN1", "channels"), ("CNN1", "window"),
])
def test_manifest_without_a_field_raises_format_error(tmp_path, fmt, field):
    write, load, _, _ = FORMATS[fmt]
    path = tmp_path / "model.bin"
    write(path)
    path.write_bytes(_edit_manifest(path.read_bytes(), fmt.encode(), field))
    with pytest.raises(FormatError, match=f"{path}: manifest lacks field '{field}'"):
        load(path)


@pytest.mark.parametrize("fmt, field, value", [
    ("MDL1", "layer_dims", "abc"), ("MDL1", "normalization", [1, 2]),
    ("MDL1", "dropout_p", 1.5),
    ("CNN1", "dtype", ["f32"]), ("CNN1", "layers", 3), ("CNN1", "channels", [7, 1]),
])
def test_manifest_field_of_the_wrong_kind_raises_format_error(tmp_path, fmt, field,
                                                              value):
    write, load, _, _ = FORMATS[fmt]
    path = tmp_path / "model.bin"
    write(path)
    path.write_bytes(_edit_manifest(path.read_bytes(), fmt.encode(), field, value))
    with pytest.raises(FormatError, match=str(path)):
        load(path)


@pytest.mark.parametrize("array, value, says", [
    ("weights", np.nan, "finite"), ("bn_mean", np.inf, "finite"),
    ("bn_var", 0.0, "running variance"), ("bn_var", -1.0, "running variance"),
])
def test_mdl1_with_values_mlp_params_rejects_raises_format_error(
        tmp_path, array, value, says):
    params, stats = _model()
    getattr(params, array)[0].flat[3] = value
    path = save_mdl1(tmp_path / "model.mdl1", params, stats, TURBIDITY)
    with pytest.raises(FormatError, match=f"{path}: .*{says}"):
        load_mdl1(path)


# record fields: 7 features, target, parameter code, patch index, window row,
# window column, station index, date ordinal
SMP1_DEFECTS = {
    "no_station_ids": lambda manifest, record: manifest.pop("station_ids"),
    "patch_index_out_of_range": lambda manifest, record: record.__setitem__(9, 3),
    "unknown_parameter_code": lambda manifest, record: record.__setitem__(8, 7),
    "nan_feature": lambda manifest, record: record.__setitem__(2, np.nan),
}


def edit_smp1(blob: bytes, defect: str) -> bytes:
    """The SMP1 file with ``defect`` applied to its manifest or first record."""
    header, record = dataset._SMP1_HEADER, dataset._SMP1_RECORD
    _, count, length, pad = header.unpack_from(blob)
    manifest = json.loads(blob[header.size : header.size + length])
    start = header.size + length
    first = list(record.unpack_from(blob, start))
    SMP1_DEFECTS[defect](manifest, first)
    mbytes = json.dumps(manifest).encode()
    return (header.pack(b"SMP1", count, len(mbytes), pad) + mbytes
            + record.pack(*first) + blob[start + record.size :])


@pytest.mark.parametrize("defect", SMP1_DEFECTS)
def test_malformed_smp1_record_raises_format_error(tmp_path, defect):
    path = save_samples(tmp_path / "samples.smp1", _samples())
    path.write_bytes(edit_smp1(path.read_bytes(), defect))
    with pytest.raises(FormatError, match=str(path)):
        load_samples(path)
