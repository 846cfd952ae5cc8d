"""Malformed PAT1, SMP1, MDL1 and CNN1 files all raise FormatError."""

import datetime as dt
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_kinds import another_kind

from coastwatch import cli, convnet, dataset, mlp, raster
from coastwatch.convnet import fc_to_cnn, load_cnn1, save_cnn1
from coastwatch.dataset import NormStats, Sample, as_table, load_samples, save_samples
from coastwatch.errors import FormatError
from coastwatch.mlp import init_mlp, load_mdl1, save_mdl1
from coastwatch.raster import BandStack, GeoRef, read_pat1, write_pat1
from coastwatch.sensor import TURBIDITY


def _model():
    params = init_mlp((7, 8, 1), seed=0)
    params.bn_stats_tracked = True
    return params, NormStats(np.full(7, 0.2), np.full(7, 0.05), 5.0, 2.0)


def _samples():
    return as_table([Sample(features=np.arange(7.0) + i, target=float(i),
                            parameter=TURBIDITY, patch_id=f"p{i}", window=(i, 0),
                            station_id="s", date=dt.date(2024, 6, 15))
                     for i in range(3)])


def _raster():
    return BandStack.from_array(np.linspace(0, 1, 7 * 6 * 5).reshape(7, 6, 5), 4.75)


# format -> (writer, loader); every format shares the 8-byte header: magic,
# then the u32 little-endian manifest length
FORMATS = {
    "PAT1": (lambda p: write_pat1(p, _raster(), GeoRef(43.5, 9.25,
                                                       dt.date(2024, 7, 1))),
             read_pat1),
    "SMP1": (lambda p: save_samples(p, _samples()), load_samples),
    "MDL1": (lambda p: save_mdl1(p, *_model(), TURBIDITY), load_mdl1),
    "CNN1": (lambda p: save_cnn1(p, fc_to_cnn(*_model(), TURBIDITY)), load_cnn1),
}
HEADER = 8


def _with_length(blob: bytes, length: int) -> bytes:
    return blob[:4] + struct.pack("<I", length) + blob[HEADER:]


def _manifest_length(blob: bytes) -> int:
    return struct.unpack_from("<I", blob, 4)[0]


DEFECTS = {
    "bad_magic": lambda b: b"NOPE" + b[4:],
    "cut_header": lambda b: b[:HEADER - 2],
    "cut_manifest": lambda b: b[:HEADER + _manifest_length(b) // 2],
    "oversize_manifest_length": lambda b: _with_length(b, len(b)),
    "cut_payload": lambda b: b[:-1],
    "trailing_byte": lambda b: b + b"\x00",
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_malformed_file_raises_format_error(tmp_path, fmt, defect):
    write, load = FORMATS[fmt]
    path = tmp_path / "file.bin"
    write(path)
    load(path)  # the well-formed file loads
    path.write_bytes(DEFECTS[defect](path.read_bytes()))
    with pytest.raises(FormatError):
        load(path)


def _split(blob: bytes) -> tuple[dict, bytes]:
    """The manifest and the payload of a file in the shared framing."""
    end = HEADER + _manifest_length(blob)
    return json.loads(blob[HEADER:end]), blob[end:]


def _join(magic: bytes, manifest: dict, payload: bytes) -> bytes:
    mbytes = json.dumps(manifest).encode()
    return magic + struct.pack("<I", len(mbytes)) + mbytes + payload


def _edit_manifest(blob: bytes, field: str, value=None) -> bytes:
    """The file with ``field`` set to ``value``, or removed when None."""
    manifest, payload = _split(blob)
    if value is None:
        del manifest[field]
    else:
        manifest[field] = value
    return _join(blob[:4], manifest, payload)


@pytest.mark.parametrize("fmt, field", [
    ("MDL1", "layer_dims"), ("MDL1", "param_order"), ("MDL1", "normalization"),
    ("CNN1", "dtype"), ("CNN1", "channels"), ("CNN1", "window"),
    ("CNN1", "normalization"),
])
def test_manifest_without_a_field_raises_format_error(tmp_path, fmt, field):
    write, load = FORMATS[fmt]
    path = tmp_path / "model.bin"
    write(path)
    path.write_bytes(_edit_manifest(path.read_bytes(), field))
    with pytest.raises(FormatError, match=f"{path}: {fmt} manifest lacks keys: {field}$"):
        load(path)


@pytest.mark.parametrize("fmt, field, value", [
    ("MDL1", "layer_dims", "abc"), ("MDL1", "normalization", [1, 2]),
    ("MDL1", "param_order", "theta"), ("MDL1", "parameter", "chlorophyll"),
    ("CNN1", "dtype", ["f32"]), ("CNN1", "channels", 3), ("CNN1", "channels", [7, 1]),
])
def test_manifest_field_of_the_wrong_kind_raises_format_error(tmp_path, fmt, field,
                                                              value):
    write, load = FORMATS[fmt]
    path = tmp_path / "model.bin"
    write(path)
    path.write_bytes(_edit_manifest(path.read_bytes(), field, value))
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


SMP1_DEFECTS = {
    "no_station_ids": lambda manifest, first: manifest.pop("station_ids"),
    "patch_index_out_of_range": lambda manifest, first: first.__setitem__("patch", 3),
    "unknown_parameter_code": lambda manifest, first: first.__setitem__("parameter", 7),
    "nan_feature": lambda manifest, first: first["features"].__setitem__(2, np.nan),
}


def edit_smp1(blob: bytes, defect: str) -> bytes:
    """The SMP1 file with ``defect`` applied to its manifest or first record."""
    manifest, payload = _split(blob)
    records = np.frombuffer(payload, dataset._SMP1_RECORD).copy()
    SMP1_DEFECTS[defect](manifest, records[0])
    return _join(b"SMP1", manifest, records.tobytes())


@pytest.mark.parametrize("defect", SMP1_DEFECTS)
def test_malformed_smp1_record_raises_format_error(tmp_path, defect):
    path = save_samples(tmp_path / "samples.smp1", _samples())
    path.write_bytes(edit_smp1(path.read_bytes(), defect))
    with pytest.raises(FormatError, match=str(path)):
        load_samples(path)


def test_old_layouts_raise_format_error(tmp_path):
    """PAT1 with its 32-byte header and SMP1 with its 16-byte header, the
    layouts before the shared framing, are rejected, not misread."""
    pat1 = tmp_path / "old.pat1"
    pat1.write_bytes(struct.pack("<4sIIIfI8s", b"PAT1", 8, 8, 1, 4.75, 0, bytes(8))
                     + np.zeros(64, "<f4").tobytes())
    manifest = json.dumps({"patch_ids": ["p0"], "station_ids": ["s"]}).encode()
    smp1 = tmp_path / "old.smp1"
    smp1.write_bytes(struct.pack("<4sII4s", b"SMP1", 1, len(manifest), bytes(4))
                     + manifest
                     + struct.pack("<8dBIHHIi7x", *[0.1] * 7, 1.0, 0, 0, 0, 0, 0,
                                   739000))
    with pytest.raises(FormatError):
        read_pat1(pat1)
    with pytest.raises(FormatError):
        load_samples(smp1)


def _hidden_biases(params) -> list[np.ndarray]:
    """Per layer the bias it had while hidden layers had one: zero, but the
    output layer's."""
    return [np.zeros(w.shape[0]) for w in params.weights[:-1]] + [params.bias]


def test_mdl1_in_the_per_layer_order_raises_format_error(tmp_path):
    """An MDL1 in the former layout (per layer its weight and bias, then per
    hidden layer its bn_gamma, bn_beta, bn_mean and bn_var) is refused by its
    param_order, not loaded scrambled."""
    params = init_mlp((7, 8, 6, 1), seed=0)
    path = save_mdl1(tmp_path / "old.mdl1", params, _model()[1], TURBIDITY)
    manifest, payload = _split(path.read_bytes())
    named = []
    for k, (w, b) in enumerate(zip(params.weights, _hidden_biases(params))):
        named += [(f"weight[{k}]", w), (f"bias[{k}]", b)]
    for k in range(params.n_hidden):
        named += [(f"{kind}[{k}]", getattr(params, kind)[k])
                  for kind in ("bn_gamma", "bn_beta", "bn_mean", "bn_var")]
    old = b"".join(a.astype("<f8").tobytes() for _, a in named)
    manifest.update(dropout_p=0.25, param_order=[name for name, _ in named])
    path.write_bytes(_join(b"MDL1", manifest, old))
    with pytest.raises(FormatError, match=f"{path}: param_order"):
        load_mdl1(path)


def _former_theta(params) -> np.ndarray:
    """``theta`` in its former layout: every weight, then every layer's
    bias, then the gammas and the betas."""
    return np.concatenate([a.ravel() for a in (
        *params.weights, *_hidden_biases(params), *params.bn_gamma, *params.bn_beta)])


def test_mdl1_with_hidden_layer_biases_raises_format_error(tmp_path):
    """An MDL1 written while hidden layers had a bias holds a longer theta
    (153 values at (7, 8, 6, 1), 139 now); the size check refuses it."""
    params = init_mlp((7, 8, 6, 1), seed=0)
    path = save_mdl1(tmp_path / "old.mdl1", params, _model()[1], TURBIDITY)
    manifest, _ = _split(path.read_bytes())
    theta = _former_theta(params)
    assert (theta.size, params.theta.size) == (153, 139)
    payload = np.concatenate([theta, params.bn_state]).astype("<f8").tobytes()
    path.write_bytes(_join(b"MDL1", manifest, payload))
    with pytest.raises(FormatError, match=f"{path}: payload is"):
        load_mdl1(path)


def test_mdl1_of_a_net_without_hidden_layers_keeps_its_layout(tmp_path):
    """(7, 1) had no hidden bias to drop: it is written as the former layout
    wrote it, and a file in that layout loads to the same arrays."""
    params = init_mlp((7, 1), seed=4)
    params.bias[...] = 0.75
    path = save_mdl1(tmp_path / "m.mdl1", params, _model()[1], TURBIDITY)
    assert _split(path.read_bytes())[1] == _former_theta(params).astype("<f8").tobytes()
    back, _, _ = load_mdl1(path)
    assert back.layer_dims == (7, 1) and back.bn_state.size == 0
    assert back.weights[0].tobytes() == params.weights[0].tobytes()
    assert back.bias.tobytes() == params.bias.tobytes()


# Every manifest key a loader reads, the georef a PAT1 manifest holds and the
# normalization an SMP1 or MDL1 manifest holds, key by key, with the JSON
# kind of its value.
GEOREF_KEYS = [(("georef",), "an object"), (("georef", "center_lat"), "a number"),
               (("georef", "center_lon"), "a number"),
               (("georef", "acquisition_date"), "a date")]
NORMALIZATION_KEYS = [
    (("normalization", "feature_mean"), "a list of numbers"),
    (("normalization", "feature_std"), "a list of numbers"),
    (("normalization", "target_mean"), "a number"),
    (("normalization", "target_std"), "a number")]
DECLARED = {
    "PAT1": [(("width",), "an integer"), (("height",), "an integer"),
             (("bands",), "an integer"), (("gsd",), "a number"),
             (("dtype",), "a string"), (("band_ids",), "a list of strings"),
             *GEOREF_KEYS],
    "SMP1": [(("count",), "an integer"), (("patch_ids",), "a list of strings"),
             (("station_ids",), "a list of strings"),
             (("normalization",), "an object or null"), *NORMALIZATION_KEYS],
    "MDL1": [(("layer_dims",), "a list of integers"), (("parameter",), "a string"),
             (("normalization",), "an object"), (("bn_stats_tracked",), "a boolean"),
             (("param_order",), "a list of strings"), *NORMALIZATION_KEYS],
    "CNN1": [(("window",), "an integer"), (("channels",), "a list of integers"),
             (("dtype",), "a string"), (("parameter",), "a string"),
             (("normalization",), "an object"), *NORMALIZATION_KEYS],
}
# format -> (writer of a file that sets every key above, the CLI's reader)
AS_THE_CLI_READS = {
    "PAT1": (FORMATS["PAT1"][0], lambda p: cli._georef(p, read_pat1(p)[1])),
    "SMP1": (lambda p: save_samples(p, _samples(), _model()[1]), load_samples),
    "MDL1": FORMATS["MDL1"],
    "CNN1": FORMATS["CNN1"],
}


def test_the_declared_keys_are_every_key_the_loaders_read():
    tables = {"PAT1": raster._PAT1_KINDS, "SMP1": dataset._SMP1_KINDS,
              "MDL1": mlp._MDL1_KINDS, "CNN1": convnet._CNN1_KINDS}
    for fmt, table in tables.items():
        top = [path[0] for path, _ in DECLARED[fmt] if len(path) == 1]
        assert top == list(table) + (["georef"] if fmt == "PAT1" else [])
    assert [path[1] for path, _ in GEOREF_KEYS[1:]] == list(raster._GEOREF_KINDS)
    assert [path[1] for path, _ in NORMALIZATION_KEYS] == list(dataset._NORM_KINDS)


def _set(manifest: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        manifest = manifest[key]
    manifest[path[-1]] = value


@pytest.mark.parametrize("fmt, key, kind", [
    (fmt, key, kind) for fmt, keys in DECLARED.items() for key, kind in keys],
    ids=lambda x: ".".join(x) if isinstance(x, tuple) else x.replace(" ", "_"))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_manifest_value_of_another_json_kind_is_refused_naming_the_file(
        fmt, key, kind, data):
    """Any declared key, or any key of the georef or normalization object,
    set to a value of another JSON kind: reading the file the way the CLI
    does raises FormatError naming it, never loads, never raises otherwise."""
    value = data.draw(another_kind(kind), label="value")
    write, read = AS_THE_CLI_READS[fmt]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "file.bin"
        write(path)
        read(path)  # the file as written loads
        manifest, payload = _split(path.read_bytes())
        _set(manifest, key, value)
        path.write_bytes(_join(fmt.encode(), manifest, payload))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            read(path)
