import argparse
import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coastwatch import (_container, alerting, cli, convnet, dataset, mlp, quantbench,
                        raster, sensor)

SIZE = 512
SEED = 3


@pytest.fixture
def inputs(tmp_path):
    """Scene spec, in-situ CSV sampled from the scene's truth fields, cloud
    mask, policy and a small training config."""
    doc = {"width": SIZE, "height": SIZE, "noise_std": 0.002}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    spec = sensor.SceneSpec.from_json(doc)
    _, truth = sensor.generate_synthetic_scene(spec, SEED)
    georef = spec.georef()
    rng = np.random.default_rng(SEED)
    with open(tmp_path / "insitu.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=dataset.CSV_COLUMNS)
        writer.writeheader()
        for i, pix in enumerate(rng.choice(SIZE * SIZE, 400, replace=False)):
            r, c = divmod(int(pix), SIZE)
            lat, lon = georef.offset_latlon((SIZE / 2 - (r + 0.5)) * spec.gsd,
                                            ((c + 0.5) - SIZE / 2) * spec.gsd)
            writer.writerow({
                "station_id": f"st{i}", "municipality": "m",
                "location_name": "l", "distance_from_coast_m": "100",
                "date": spec.date.isoformat(), "depth_m": "0.5",
                "parameter": sensor.TURBIDITY,
                "value": repr(float(truth.fields[sensor.TURBIDITY][r, c])),
                "lat": repr(lat), "lon": repr(lon),
            })
    cloud = np.zeros((SIZE, SIZE), dtype=np.uint8)
    cloud[:256, :256] = 1
    raster.write_pat1(tmp_path / "mask.pat1", raster.BandStack.from_array(
        cloud, spec.gsd, band_ids=("cloud",)))
    (tmp_path / "policy.json").write_text(json.dumps(
        {"parameter": sensor.TURBIDITY, "upper_bound": 10.0}))
    (tmp_path / "train.json").write_text(json.dumps(
        {"epochs": 1, "seed": SEED, "layer_dims": [7, 16, 8, 1]}))
    return tmp_path


def test_seven_command_chain(inputs, capsys):
    d = inputs
    chain = [
        ["simulate", "--spec", d / "spec.json", "--out", d / "sim",
         "--seed", SEED],
        ["build-dataset", "--records", d / "insitu.csv",
         "--patches", d / "sim" / "chips", "--out", d / "samples.smp1"],
        ["train", "--samples", d / "samples.smp1", "--parameter", "turbidity",
         "--config", d / "train.json", "--out", d / "model.mdl1"],
        ["transfer", "--model", d / "model.mdl1", "--out", d / "net.cnn1"],
        ["infer", "--net", d / "net.cnn1", "--scene", d / "sim" / "scene.pat1",
         "--out", d / "maps", "--masks", d / "mask.pat1"],
        ["alert", "--maps", d / "maps", "--policy", d / "policy.json",
         "--out", d / "alerts.jsonl", "--mosaic", d / "alert_mosaic.pat1"],
    ]
    for argv in chain:
        assert cli.main([str(a) for a in argv]) == 0, capsys.readouterr().err
    # the clouded north-west patch is invalid everywhere, the others nowhere
    assert "625 of 2,500 cells cloud-invalidated" in capsys.readouterr().out

    samples, _, manifest = dataset.load_samples(d / "samples.smp1")
    assert len(samples) == 400
    assert manifest["provenance"]["unmatched_records"] == 0
    # dropout is a training setting: its rate is provenance of the model
    assert mlp.load_mdl1(d / "model.mdl1")[2]["training"]["dropout_p"] == 0.25
    net, cnn = convnet.load_cnn1(d / "net.cnn1")
    # the certificate is of the route infer serves, on the check patches
    assert cnn["equivalence"]["passed"]
    assert cnn["equivalence"]["n_patches"] == convnet.EQUIVALENCE_CHECK_PATCHES

    # simulate writes the chips the chain reads, and no ground-truth grids
    assert sorted(p.name for p in (d / "sim" / "chips").iterdir()) == [
        f"chip_000_00{j}.pat1" for j in range(2)] + [
        f"chip_001_00{j}.pat1" for j in range(2)]
    index = json.loads((d / "maps" / "index.json").read_text())
    assert len(index["maps"]) == 4
    maps = [raster.read_pat1(d / "maps" / name)[0].data[0]
            for name in index["maps"]]
    # a map read back from its file is the one served
    scene, _ = raster.read_pat1(d / "sim" / "scene.pat1")
    tiles = raster.tile_scene(scene)
    for values, patch in zip(maps[1:], tiles.patches[1:], strict=True):
        assert values.tobytes() == convnet.infer_patch(net, patch).values.astype(
            np.float32).tobytes()
    # the clouded north-west patch is invalid everywhere, the others nowhere
    assert np.isnan(maps[0]).all()
    assert all(np.isfinite(m).all() for m in maps[1:])

    lines = (d / "alerts.jsonl").read_bytes().splitlines()
    exceed = [int((np.nan_to_num(m, nan=0.0) > 10.0).sum()) for m in maps]
    assert len(lines) == sum(1 for n in exceed if n)
    messages = [alerting.parse_alert(line) for line in lines]
    assert all(len(line) <= alerting.MAX_ALERT_BYTES for line in lines)
    assert [m.exceed_count for m in messages] == [n for n in exceed if n]
    mosaic, _ = raster.read_pat1(d / "alert_mosaic.pat1")
    assert mosaic.data.shape == (1, 50, 50)
    assert int(mosaic.data.sum()) == sum(exceed)

    # quantize's exit code is its fp16 deviation gate
    code = cli.main(["quantize", "--net", str(d / "net.cnn1"),
                     "--out", str(d / "net16.cnn1"), "--report", str(d / "quant.json")])
    quant = json.loads((d / "quant.json").read_text())
    assert code == (0 if quant["passed"] else 1)
    # the report is written as every document the CLI writes
    for doc in ("quant.json", "maps/index.json", "sim/truth.json"):
        text = (d / doc).read_text()
        assert text == json.dumps(json.loads(text), indent=2)
    # the sizes are those of the deployed files, the certificate included
    assert quant["model_bytes_fp32"] == (d / "net.cnn1").stat().st_size
    assert quant["model_bytes_fp16"] == (d / "net16.cnn1").stat().st_size
    assert quant["model_bytes_fp16"] < quant["model_bytes_fp32"]


def heap_peak_of(argv) -> int:
    """The tracemalloc heap peak of one ``cli.main`` call, which must exit 0."""
    tracemalloc.start()
    try:
        assert cli.main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_holds_the_scene_the_product_buffer_and_row_blocks(tmp_path):
    # 300 x 520 px: two chips, and a band plane (16 row blocks) well above
    # the margin
    width, height = 300, 520
    doc = {"width": width, "height": height, "noise_std": 0.002,
           "degrade": {"snr": 100, "mtf": 0.6,
                       "misalign_m": [[0, 0], [2, -1], [-1.5, 2.25], [3, 0],
                                      [0, -2.5], [1.3, 0.7], [-2, -2]]}}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    peak = heap_peak_of(["simulate", "--spec", tmp_path / "spec.json",
                         "--out", tmp_path / "sim", "--seed", 5])
    plane = height * width * 8
    # the product chain runs in the scene's own buffer, after the truth's
    # fields are let go, so the peak is the scene generation's: the scene,
    # its two field planes and a few row blocks; those and the command's own
    # objects (about 6.5 row blocks measured) fit in 8 row blocks
    margin = 8 * sensor._ROW_BLOCK * width * 8
    assert peak <= 7 * plane + 2 * plane + margin
    truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
    assert list(truth) == ["scene", "chips", "margins", "noise_std", "noise_floor",
                           "mixing_offsets", "mixing_matrix", "seed"]
    assert truth["chips"] == 2


def test_simulate_at_10_m_holds_the_input_pitch_radiance_and_the_product_buffer(
        tmp_path):
    # a 10 m scene of 300 x 280 px resamples to 630 x 588 px at 4.75 m: four
    # chips, and a product band plane (over 18 row blocks) well above the margin
    width, height = 300, 280
    doc = {"width": width, "height": height, "gsd": 10, "noise_std": 0.002,
           "degrade": {"snr": 100, "mtf": 0.6,
                       "misalign_m": [[0, 0], [2, -1], [-1.5, 2.25], [3, 0],
                                      [0, -2.5], [1.3, 0.7], [-2, -2]]}}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    peak = heap_peak_of(["simulate", "--spec", tmp_path / "spec.json",
                         "--out", tmp_path / "sim", "--seed", 5])
    plane = height * width * 8
    product_width = 630
    product_plane = 588 * product_width * 8
    # the scene's own buffer becomes the radiance at the input pitch, which
    # resample reads a row block at a time into the product buffer: beside
    # the two, the row blocks and the command's own objects (about 5
    # measured) fit in 8 row blocks of the product's width
    margin = 8 * sensor._ROW_BLOCK * product_width * 8
    assert peak <= 7 * plane + 7 * product_plane + margin
    assert json.loads((tmp_path / "sim" / "truth.json").read_text())["chips"] == 4


# At small dims a check patch (float64, 3.5 MiB) dwarfs the model, the window
# means and the stack's activations. Each check draws a patch only once the
# last is let go: about 0.2 MiB beside the one patch measured.
CHECK_PATCH = raster.N_BANDS * raster.PATCH_SIZE**2 * 8


@pytest.fixture
def small_model(tmp_path):
    params = mlp.init_mlp((7, 16, 8, 1), seed=1)
    params.bn_stats_tracked = True
    stats = dataset.NormStats(np.full(7, 0.3), np.full(7, 0.1), 5.0, 2.0)
    return mlp.save_mdl1(tmp_path / "m.mdl1", params, stats, sensor.TURBIDITY, {})


def test_transfer_holds_one_check_patch_at_a_time(small_model, tmp_path):
    net = tmp_path / "net.cnn1"
    assert heap_peak_of(["transfer", "--model", small_model, "--out", net]) \
        <= CHECK_PATCH + CHECK_PATCH // 4
    _, manifest = convnet.load_cnn1(net)
    assert manifest["equivalence"]["n_patches"] == convnet.EQUIVALENCE_CHECK_PATCHES


def test_quantize_holds_one_check_patch_at_a_time(small_model, tmp_path):
    net, report = tmp_path / "net.cnn1", tmp_path / "quant.json"
    assert cli.main(["transfer", "--model", str(small_model), "--out", str(net)]) == 0
    assert heap_peak_of(["quantize", "--net", net, "--out", tmp_path / "net16.cnn1",
                         "--report", report]) <= CHECK_PATCH + CHECK_PATCH // 4
    # the fp16 gate reads the first of the certificate's check patches
    doc = json.loads(report.read_text())
    net32, _ = convnet.load_cnn1(net)
    want = quantbench.compare_quantized(
        net32, quantbench.quantize_fp16(net32),
        convnet.check_patches(net32.stats, quantbench.FP16_CHECK_PATCHES)).to_json()
    assert {key: doc[key] for key in want} == want
    assert doc["patches_tested"] == quantbench.FP16_CHECK_PATCHES


def smp1_pointing_past_its_patch_list() -> bytes:
    """An SMP1 file whose one record has patch index 1, but whose manifest
    lists one patch."""
    record = np.zeros(1, dataset._SMP1_RECORD)
    record[0] = ([0.1] * 7, 1.0, 0, 1, (0, 0), 0, 739000)
    buffer = io.BytesIO()
    _container.write(buffer, b"SMP1", {"count": 1, "patch_ids": ["p0"],
                                       "station_ids": ["s"], "normalization": None},
                     [record], dataset._SMP1_RECORD)
    return buffer.getvalue()


def smp1(n: int, features=None) -> bytes:
    """An SMP1 store of ``n`` turbidity samples with ``features``, or random
    ones."""
    rng = np.random.default_rng(n)
    samples = [dataset.Sample(features=rng.uniform(0.05, 0.3, 7) if features is None
                              else features, target=float(k),
                              parameter=sensor.TURBIDITY, patch_id=f"p{k}",
                              window=(k, k), station_id=f"s{k}",
                              date=sensor.SceneSpec().date)
               for k in range(n)]
    with tempfile.TemporaryDirectory() as d:
        return dataset.save_samples(Path(d) / "s.smp1",
                                    dataset.as_table(samples)).read_bytes()


def pat1(stack: raster.BandStack, **kwargs) -> bytes:
    """The bytes ``write_pat1`` writes for ``stack``."""
    with tempfile.TemporaryDirectory() as d:
        return raster.write_pat1(Path(d) / "x.pat1", stack, **kwargs).read_bytes()


MAP = raster.BandStack.from_array(np.zeros((1, 25, 25), np.float32), 47.5,
                                  band_ids=(sensor.TURBIDITY,))
MAP_INDEX_DOC = {
    "scene_id": "s", "parameter": sensor.TURBIDITY, "scene_width": 256,
    "scene_height": 256, "gsd": 4.75, "maps": ["map.pat1"]}
MAP_INDEX = json.dumps(MAP_INDEX_DOC).encode()
POLICY = json.dumps({"parameter": sensor.TURBIDITY, "upper_bound": 10.0}).encode()
ALERT = ["alert", "--maps", "maps", "--policy", "policy.json", "--out", "a.jsonl"]
GEOREF = raster.GeoRef(44.0, 9.0, sensor.SceneSpec().date)


def raw_georef(**fields) -> SimpleNamespace:
    """Stands for a georef in ``write_pat1``: GEOREF's document with
    ``fields`` put in, recorded as it is, valid or not."""
    return SimpleNamespace(to_json=lambda: {**GEOREF.to_json(), **fields})


def alert_maps(placements=([0, 0],), **index) -> dict:
    """A readable map directory for ``alert``: one map per placement, each
    recording its own, and an index with ``index``."""
    names = [f"map{k}.pat1" for k in range(len(placements))]
    files = {f"maps/{name}": pat1(MAP, georef=GEOREF, extra={"placement": placement})
             for name, placement in zip(names, placements)}
    doc = {**MAP_INDEX_DOC, "maps": names, **index}
    return {"maps/index.json": json.dumps(doc).encode(), **files, "policy.json": POLICY}


STATS = dataset.NormStats(np.full(7, 0.2), np.full(7, 0.05), 5.0, 2.0)


def cnn1() -> bytes:
    """A small valid CNN1 network."""
    params = mlp.init_mlp((7, 8, 1))
    params.bn_stats_tracked = True
    net = convnet.fc_to_cnn(params, STATS, sensor.TURBIDITY)
    with tempfile.TemporaryDirectory() as d:
        return convnet.save_cnn1(Path(d) / "net.cnn1", net).read_bytes()


def edit_manifest(blob: bytes, drop=(), payload=None, **fields) -> bytes:
    """The file ``blob`` in the ``_container`` framing with the manifest keys
    of ``drop`` removed and ``fields`` set, its payload unchanged or
    replaced by the bytes ``payload``."""
    length = int.from_bytes(blob[4:8], "little")
    manifest = json.loads(blob[8 : 8 + length])
    for key in drop:
        del manifest[key]
    mbytes = json.dumps({**manifest, **fields}).encode()
    if payload is None:
        payload = blob[8 + length :]
    return blob[:4] + len(mbytes).to_bytes(4, "little") + mbytes + payload


def mdl1(dims=(7, 8, 1)) -> bytes:
    """A small MDL1 turbidity model that transfers."""
    params = mlp.init_mlp(dims)
    params.bn_stats_tracked = True
    with tempfile.TemporaryDirectory() as d:
        return mlp.save_mdl1(Path(d) / "m.mdl1", params, STATS,
                             sensor.TURBIDITY).read_bytes()


def cnn1_of_two_outputs() -> bytes:
    """A CNN1 file of one 7 -> 2 layer, which no ``ConvNet`` takes."""
    buffer = io.BytesIO()
    manifest = {"format": "CNN1", "window": raster.WINDOW, "channels": [7, 2],
                "dtype": "f32", "parameter": sensor.TURBIDITY,
                "normalization": STATS.to_json(), "equivalence": None}
    _container.write(buffer, b"CNN1", manifest,
                     [np.ones((2, 7), np.float32), np.zeros(2, np.float32)],
                     np.dtype("<f4"))
    return buffer.getvalue()


TRAIN = ["train", "--samples", "s.smp1", "--parameter", "turbidity", "--out", "m.mdl1"]
SIMULATE = ["simulate", "--spec", "spec.json", "--out", "sim"]
TRANSFER = ["transfer", "--model", "m.mdl1", "--out", "net.cnn1"]
INFER = ["infer", "--net", "net.cnn1", "--scene", "scene.pat1", "--out", "maps"]
# a small scene with a well-conditioned mixing, for rows that break one entry
MIXING_SPEC = json.dumps({"width": 256, "height": 256, "mixing": {
    "offsets": [0.05] * 7, "matrix": [[0.1, 0.2]] + [[0.2, 0.1]] * 6}}).encode()
SCENE = raster.BandStack.from_array(np.full((7, 256, 256), 0.1, np.float32), 4.75)
# two patches, each centred 608 m off the scene centre; at the pole one lies past it
TALL_SCENE = raster.BandStack.from_array(np.full((7, 512, 256), 0.1, np.float32), 4.75)
POLE = raster.GeoRef(90.0, 9.0, sensor.SceneSpec().date)


def with_value(stack: raster.BandStack, value: float) -> raster.BandStack:
    """``stack`` with one reflectance of band 0 set to ``value``."""
    data = stack.data.copy()
    data[0, 5, 5] = value
    return raster.BandStack.from_array(data, stack.gsd)


@pytest.mark.parametrize("files, argv, says", [
    ({"net.cnn1": b"CNN1\x00\x00"},
     ["quantize", "--net", "net.cnn1", "--out", "net16.cnn1"], "CNN1 header"),
    ({"policy.json": b'{"parameter": "turbidity_NTU", "lower_bound": 5, '
                     b'"upper_bound": 1}'},
     ["alert", "--maps", "maps", "--policy", "policy.json", "--out", "a.jsonl"],
     "lower bound"),
    ({"train.json": b'{"epochz": 3}'},
     ["train", "--samples", "s.smp1", "--parameter", "ph", "--config", "train.json",
      "--out", "m.mdl1"], "epochz"),
    ({"s.smp1": smp1_pointing_past_its_patch_list()},
     ["train", "--samples", "s.smp1", "--parameter", "turbidity", "--out", "m.mdl1"],
     "s.smp1"),
    ({}, ["transfer", "--model", "m.mdl1", "--out", "net.cnn1",
          "--check-patches", "0"], "unrecognized arguments: --check-patches 0"),
    ({}, ["quantize", "--net", "net.cnn1", "--out", "net16.cnn1",
          "--check-patches", "0"], "unrecognized arguments: --check-patches 0"),
    ({}, ["bench", "--net", "net.cnn1", "--reps", "0"], "unrecognized arguments: --reps 0"),
    ({"spec.json": b'{"degrade": {"mtf": 2}}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "mtf"),
    ({"maps/index.json": MAP_INDEX,
      "maps/map.pat1": pat1(MAP, extra={"placement": [0, 0]}), "policy.json": POLICY},
     ["alert", "--maps", "maps", "--policy", "policy.json", "--out", "a.jsonl"],
     "georef"),
    ({"net.cnn1": cnn1(), "scene.pat1": pat1(SCENE)},
     ["infer", "--net", "net.cnn1", "--scene", "scene.pat1", "--out", "maps"],
     "georef"),
    ({"spec.json": b"[]"}, ["simulate", "--spec", "spec.json", "--out", "sim"],
     "scene spec must be a JSON object"),
    ({"spec.json": b'{"solar": {"zenit": 30}}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "zenit"),
    ({"spec.json": b'{"degrade": {"mft": 0.5}}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "mft"),
    ({"policy.json": b"[]"},
     ["alert", "--maps", "maps", "--policy", "policy.json", "--out", "a.jsonl"],
     "policy must be a JSON object"),
    ({"policy.json": b'{"parameter": "turbidity_NTU", "upper_bound": 10, '
                     b'"min_exceed_fracton": 0.5}'},
     ["alert", "--maps", "maps", "--policy", "policy.json", "--out", "a.jsonl"],
     "min_exceed_fracton"),
    ({"train.json": b"[]"},
     ["train", "--samples", "s.smp1", "--parameter", "ph", "--config", "train.json",
      "--out", "m.mdl1"], "train config must be a JSON object"),
    ({"train.json": b'{"epochs": "3"}'},
     ["train", "--samples", "s.smp1", "--parameter", "ph", "--config", "train.json",
      "--out", "m.mdl1"], "train config epochs must be an integer"),
    ({"spec.json": b'{"min_coverage": 0.5}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "min_coverage"),
    ({"spec.json": b'{"widht": 256}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "widht"),
    ({"spec.json": b'{"ramp": "no"}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "ramp must be a boolean"),
    ({"spec.json": b'{"width": 300.7}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "width must be an integer"),
    ({"spec.json": b'{"blobs": 2.9}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "blobs must be an integer"),
    ({"spec.json": b'{"width": true}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "width must be an integer"),
    ({"spec.json": b'{"width": 0}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "width and height"),
    ({"spec.json": b'{"gsd": 0}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "gsd"),
    ({"spec.json": b'{"center_lat": 95}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "center_lat"),
    ({"spec.json": b'{"center_lon": -180.5}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "center_lon"),
    ({"spec.json": b'{"noise_std": -1}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "noise_std"),
    ({"spec.json": b'{"blobs": -1}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "blobs"),
    ({"spec.json": b'{"turbidity_range": [5, 1]}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "turbidity_range"),
    ({"spec.json": b'{"ph_range": [6.5, 14.5]}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"], "ph_range"),
    ({"maps/index.json": b"[]", "policy.json": POLICY},
     ["alert", "--maps", "maps", "--policy", "policy.json", "--out", "a.jsonl"],
     "map index maps/index.json must be a JSON object"),
    ({"maps/index.json": b'{"scene_id": "s"}', "policy.json": POLICY},
     ["alert", "--maps", "maps", "--policy", "policy.json", "--out", "a.jsonl"],
     "map index maps/index.json lacks keys: parameter, scene_width"),
    ({"maps/index.json": json.dumps({**MAP_INDEX_DOC, "maps": "oops"}).encode(),
      "policy.json": POLICY},
     ["alert", "--maps", "maps", "--policy", "policy.json", "--out", "a.jsonl"],
     "map index maps/index.json maps must be a list of strings"),
    (alert_maps(placements=[[0]]), ALERT,
     "maps/map0.pat1: placement must be an integer [row, col] pair, got (0,)"),
    (alert_maps(placements=[[9999, 0]]), ALERT,
     "placements [[9999, 0]] are no permutation of the 1 cells"),
    (alert_maps(placements=[[-256, 0]]), ALERT,
     "placements [[-256, 0]] are no permutation of the 1 cells"),
    (alert_maps(scene_width=10), ALERT,
     "placements [[0, 0]] are no permutation of the 0 cells of the 256 px grid "
     "over the 10x256 scene"),
    ({**alert_maps(), "maps/index.json": json.dumps(
        {**MAP_INDEX_DOC, "maps": ["map0.pat1"], "patch_size": 256,
         "placements": [[0, 0]]}).encode()},
     ALERT, "unknown map index maps/index.json keys: patch_size, placements"),
    (alert_maps(gsd=0), ALERT, "gsd must be positive"),
    (alert_maps(placements=[[10, 0]]), ALERT,
     "placements [[10, 0]] are no permutation of the 1 cells"),
    (alert_maps(scene_width=512, placements=[[0, 256], [0, 256]]), ALERT,
     "placements [[0, 256], [0, 256]] are no permutation of the 2 cells"),
    ({"maps/index.json": MAP_INDEX, "maps/map.pat1": pat1(MAP, georef=GEOREF),
      "policy.json": POLICY},
     ALERT, "map maps/map.pat1 extra lacks keys: placement"),
    (alert_maps(placements=[[0, 2.5]]), ALERT,
     "map maps/map0.pat1 extra placement must be a list of integers, got [0, 2.5]"),
    ({"policy.json": b'{"parameter": "turbidity_NTU", "upper_bound": NaN}'},
     ALERT, "upper_bound must be finite, got nan"),
    ({"policy.json": json.dumps({"parameter": sensor.TURBIDITY, "upper_bound": 10,
                                 "cloud_invalid_fraction": 0.3}).encode()},
     ALERT, "unknown policy keys: cloud_invalid_fraction"),
    ({"net.cnn1": cnn1(), "scene.pat1": pat1(SCENE)},
     ["infer", "--net", "net.cnn1", "--scene", "scene.pat1", "--out", "maps",
      "--cloud-fraction", "0.3"], "unrecognized arguments: --cloud-fraction 0.3"),
    ({**alert_maps(scene_width=512, placements=[[0, 0], [0, 256]]),
      "maps/index.json": json.dumps({**MAP_INDEX_DOC, "scene_width": 512,
                                     "maps": ["map0.pat1"]}).encode()},
     ALERT, "placements [[0, 0]] are no permutation of the 2 cells"),
    ({"net.cnn1": cnn1_of_two_outputs(), "scene.pat1": pat1(SCENE, georef=GEOREF)},
     ["infer", "--net", "net.cnn1", "--scene", "scene.pat1", "--out", "maps"],
     "net.cnn1: the last layer emits 2 channels, not 1"),
    ({"net.cnn1": cnn1(), "scene.pat1": pat1(SCENE, georef=GEOREF),
      "mask.pat1": pat1(raster.BandStack.from_array(np.zeros((3, 256, 256), np.uint8),
                                                    4.75))},
     ["infer", "--net", "net.cnn1", "--scene", "scene.pat1", "--out", "maps",
      "--masks", "mask.pat1"], "mask.pat1: a mask raster has 1 (cloud) band, not 3"),
    ({}, ["plot", "--map", "map.pat1", "--out", "map.pgm"], "invalid choice: 'plot'"),
    ({}, ["build-dataset", "--records", "r.csv", "--patches", "chips", "--out",
          "s.smp1", "--tolerance-days", "3"], "unrecognized arguments: --tolerance-days 3"),
    ({}, ["train", "--samples", "s.smp1", "--parameter", "ph", "--out", "m.mdl1",
          "--seed", "1"], "unrecognized arguments: --seed 1"),
    ({}, ["transfer", "--model", "m.mdl1", "--out", "net.cnn1", "--tol", "1e-3"],
     "unrecognized arguments: --tol 1e-3"),
    ({}, ["transfer", "--model", "m.mdl1", "--out", "net.cnn1", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    ({}, ["quantize", "--net", "net.cnn1", "--out", "net16.cnn1", "--threshold", "1"],
     "unrecognized arguments: --threshold 1"),
    ({}, ["quantize", "--net", "net.cnn1", "--out", "net16.cnn1", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    ({}, ["bench", "--net", "net.cnn1", "--warmup", "0"],
     "unrecognized arguments: --warmup 0"),
    ({}, ["bench", "--net", "net.cnn1", "--seed", "1"], "unrecognized arguments: --seed 1"),
    ({"s.smp1": smp1(1)}, TRAIN,
     "1 turbidity_NTU samples in s.smp1 split 1/0/0 (train/test/val); training "
     "needs at least 2/1/1"),
    ({"s.smp1": smp1(2)}, TRAIN, "2 turbidity_NTU samples in s.smp1 split 2/0/0"),
    ({"s.smp1": smp1(3)}, TRAIN, "3 turbidity_NTU samples in s.smp1 split 1/1/1"),
    ({"s.smp1": smp1(4)},
     ["train", "--samples", "s.smp1", "--parameter", "chlorophyll", "--out", "m.mdl1"],
     "unknown parameter 'chlorophyll'"),
    ({"s.smp1": smp1(8, np.full(7, 0.1)),
      "train.json": b'{"epochs": 1, "seed": 0, "layer_dims": [7, 4, 1]}'},
     [*TRAIN, "--config", "train.json"],
     "the 4 train samples of s.smp1 have the same features in every band"),
    ({"net.cnn1": cnn1(), "scene.pat1": pat1(with_value(SCENE, np.nan), georef=GEOREF)},
     ["infer", "--net", "net.cnn1", "--scene", "scene.pat1", "--out", "maps"],
     "patch 'scene_000_000' contains non-finite values"),
    ({"r.csv": ",".join(dataset.CSV_COLUMNS).encode() + b"\n",
      "chips/chip_000_000.pat1": pat1(with_value(SCENE, np.inf), georef=GEOREF)},
     ["build-dataset", "--records", "r.csv", "--patches", "chips", "--out", "s.smp1"],
     "patch 'chip_000_000' contains non-finite values"),
    ({"r.csv": ",".join(dataset.CSV_COLUMNS).encode()
      + f"\nS1,m,l,100,2024-06-15,0.5,{sensor.TURBIDITY},3.2,44.0\n".encode(),
      "chips/chip_000_000.pat1": pat1(SCENE, georef=GEOREF)},
     ["build-dataset", "--records", "r.csv", "--patches", "chips", "--out", "s.smp1"],
     "ingest rejected every row of r.csv (1 rejected); row 1: 9 fields, the header "
     "has 10"),
    ({"r.csv": ",".join(dataset.CSV_COLUMNS).encode()
      + f"\nS1,m,l,100,2024-06-15,0.5,{sensor.TURBIDITY},abc,44.0,9.0".encode()
      + f"\nS2,m,l,100,2024-06-15,0.5,{sensor.TURBIDITY},3.2,44.0\n".encode(),
      "chips/chip_000_000.pat1": pat1(SCENE, georef=GEOREF)},
     ["build-dataset", "--records", "r.csv", "--patches", "chips", "--out", "s.smp1"],
     "ingest rejected every row of r.csv (2 rejected); row 1: could not convert "
     "string to float: 'abc'"),
    ({"net.cnn1": cnn1(),
      "scene.pat1": pat1(SCENE, georef=raw_georef(acquisition_date="June"))},
     ["infer", "--net", "net.cnn1", "--scene", "scene.pat1", "--out", "maps"],
     "scene.pat1: georef acquisition_date must be a date, got 'June'"),
    ({"r.csv": ",".join(dataset.CSV_COLUMNS).encode() + b"\n",
      "chips/chip_000_000.pat1": pat1(SCENE, georef=raw_georef(center_lat=95))},
     ["build-dataset", "--records", "r.csv", "--patches", "chips", "--out", "s.smp1"],
     "chip_000_000.pat1: latitude 95.0 outside [-90, 90]"),
    ({**alert_maps(), "maps/map0.pat1": pat1(MAP, georef=raw_georef(center_lon="x"),
                                              extra={"placement": [0, 0]})},
     ALERT, "map0.pat1: georef center_lon must be a number, got 'x'"),
    ({"spec.json": b'{"degrade": {"snr": NaN}}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"],
     "snr must be positive (use inf for noiseless)"),
    ({"spec.json": b'{"degrade": {"snr": [100, 100, NaN, 100, 100, 100, 100]}}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"],
     "snr must be positive (use inf for noiseless)"),
    ({"spec.json": b'{"degrade": {"misalign_m": [[0, 0], [NaN, 1], [0, 0], [0, 0], '
                   b'[0, 0], [0, 0], [0, 0]]}}'},
     ["simulate", "--spec", "spec.json", "--out", "sim"],
     "misalignment (nan, 1.0) m is not within the 10.0 m registration bound"),
    ({"m.mdl1": edit_manifest(mdl1(), parameter="chlorophyll")},
     ["transfer", "--model", "m.mdl1", "--out", "net.cnn1"],
     "m.mdl1: unknown parameter 'chlorophyll'"),
    ({"m.mdl1": edit_manifest(mdl1(), drop=("parameter",))},
     ["transfer", "--model", "m.mdl1", "--out", "net.cnn1"],
     "m.mdl1: MDL1 manifest lacks keys: parameter"),
    ({"train.json": b'{"learning_rate": NaN}'}, [*TRAIN, "--config", "train.json"],
     "learning_rate must be finite and >= 0"),
    ({"train.json": b'{"early_stop_val_rmse": NaN}'}, [*TRAIN, "--config", "train.json"],
     "early_stop_val_rmse must be finite and >= 0"),
    ({"train.json": b'{"seed": -1}'}, [*TRAIN, "--config", "train.json"],
     "seed must be >= 0"),
    ({"spec.json": b"{}"}, ["simulate", "--spec", "spec.json", "--out", "sim",
                           "--seed", "-5"], "--seed must be >= 0, got -5"),
    ({"spec.json": MIXING_SPEC.replace(b"[0.1, 0.2]", b"[NaN, 0.2]", 1)}, SIMULATE,
     "scene spec: mixing offsets and matrix must be finite"),
    ({"spec.json": MIXING_SPEC.replace(b"0.05", b"NaN", 1)}, SIMULATE,
     "scene spec: mixing offsets and matrix must be finite"),
    ({"spec.json": MIXING_SPEC.replace(b"0.05", b"Infinity", 1)}, SIMULATE,
     "scene spec: mixing offsets and matrix must be finite"),
    ({"spec.json": MIXING_SPEC.replace(b"[0.2, 0.1]", b"[0.1, 0.2]")}, SIMULATE,
     "scene spec: mixing matrix must have rank 2"),
    ({"spec.json": b'{"width": 256, "height": 256, "degrade": {"snr": [100, 100, 100]}}'},
     SIMULATE, "snr must hold 7 entries, one per band, got 3"),
    ({"spec.json": json.dumps({"width": 256, "height": 256,
                               "degrade": {"misalign_m": [[0, 0]] * 8}}).encode()},
     SIMULATE, "misalignment must hold 7 entries, one per band, got 8"),
    ({"spec.json": json.dumps({"mixing": {"offsets": [0.05] * 7}}).encode()}, SIMULATE,
     "scene spec mixing lacks keys: matrix"),
    ({"net.cnn1": cnn1(), "scene.pat1": edit_manifest(pat1(SCENE, georef=GEOREF),
                                                      gsd=True)},
     INFER, "scene.pat1: PAT1 manifest gsd must be a number, got True"),
    ({"r.csv": ",".join(dataset.CSV_COLUMNS).encode() + b"\n",
      "chips/chip_000_000.pat1": edit_manifest(pat1(SCENE, georef=GEOREF),
                                               band_ids="ABCDEFG")},
     ["build-dataset", "--records", "r.csv", "--patches", "chips", "--out", "s.smp1"],
     "chip_000_000.pat1: PAT1 manifest band_ids must be a list of strings, "
     "got 'ABCDEFG'"),
    ({"m.mdl1": edit_manifest(mdl1(), bn_stats_tracked="no")}, TRANSFER,
     "m.mdl1: MDL1 manifest bn_stats_tracked must be a boolean, got 'no'"),
    ({"m.mdl1": edit_manifest(mdl1((7, 4, 1)), layer_dims=[7, 4.9, 1])}, TRANSFER,
     "m.mdl1: MDL1 manifest layer_dims must be a list of integers, got [7, 4.9, 1]"),
    ({"m.mdl1": edit_manifest(mdl1(), normalization={**STATS.to_json(),
                                                     "target_std": -2.0})},
     TRANSFER, "m.mdl1: normalization stds must be finite and > 0"),
    ({"m.mdl1": edit_manifest(mdl1(), normalization={**STATS.to_json(),
                                                     "feature_mean": [0.2] * 3})},
     TRANSFER, "m.mdl1: normalization feature_mean must hold 7 values, one per "
     "band, got shape (3,)"),
    ({"net.cnn1": edit_manifest(cnn1(), parameter="chlorophyll"),
      "scene.pat1": pat1(SCENE, georef=GEOREF)},
     INFER, "net.cnn1: unknown parameter 'chlorophyll'"),
    ({"net.cnn1": edit_manifest(cnn1(), parameter=5),
      "scene.pat1": pat1(SCENE, georef=GEOREF)},
     INFER, "net.cnn1: CNN1 manifest parameter must be a string, got 5"),
    ({"spec.json": b'{"width": 100, "height": 100}'}, SIMULATE,
     "scene 100x100 at 4.75 m is 100x100 at the 4.75 m product pitch, smaller "
     "than one 256 px patch"),
    ({"spec.json": b'{"width": 1, "height": 1, "gsd": 10}'}, SIMULATE,
     "scene 1x1 at 10 m is 1x1 at the 4.75 m product pitch, smaller than one "
     "256 px patch"),
    ({"spec.json": b'{"width": 256, "height": 256, "note": "Sestri Levante \xe9"}'},
     SIMULATE, "spec.json: not a UTF-8 JSON document ('utf-8' codec can't decode"),
    ({"train.json": b'{"epochs": 3, "note": "\xe9t\xe9"}'},
     [*TRAIN, "--config", "train.json"],
     "train.json: not a UTF-8 JSON document ('utf-8' codec can't decode"),
    ({**alert_maps(), "policy.json": b'{"parameter": "turbidity_NTU", "\xb5g": 1}'}, ALERT,
     "policy.json: not a UTF-8 JSON document ('utf-8' codec can't decode"),
    ({**alert_maps(), "maps/index.json": MAP_INDEX.replace(b'"s"', b'"\xe9"')}, ALERT,
     "maps/index.json: not a UTF-8 JSON document ('utf-8' codec can't decode"),
    ({"spec.json": b'{"width": 256, "height": 25'}, SIMULATE,
     "spec.json: not a UTF-8 JSON document (Expecting ',' delimiter"),
    ({**alert_maps(), "maps/index.json": MAP_INDEX[:-9]}, ALERT,
     "maps/index.json: not a UTF-8 JSON document (Unterminated string"),
    ({"r.csv": ",".join(dataset.CSV_COLUMNS).encode()
      + f"\nS1,m,Cala d'Or\xe9,100,2024-06-15,0.5,{sensor.TURBIDITY},3.2,44.0,9.0\n".encode(
          "latin-1"),
      "chips/chip_000_000.pat1": pat1(SCENE, georef=GEOREF)},
     ["build-dataset", "--records", "r.csv", "--patches", "chips", "--out", "s.smp1"],
     "r.csv: not UTF-8 text ('utf-8' codec can't decode"),
    ({"spec.json": b'{"width": 300, "height": 300, "center_lat": 90}'}, SIMULATE,
     "scene spec: the 300x300 px footprint at 4.75 m must not cross a pole or the "
     "antimeridian"),
    ({"spec.json": b'{"width": 600, "height": 300, "center_lon": 179.999}'}, SIMULATE,
     "scene spec: the 600x300 px footprint at 4.75 m must not cross a pole or the "
     "antimeridian"),
    ({"net.cnn1": cnn1(), "scene.pat1": pat1(TALL_SCENE, georef=POLE)}, INFER,
     "patch 'scene_000_000' centre latitude 90.0054"),
    # [7, 0, 1] lays out one value, the output bias
    ({"m.mdl1": edit_manifest(mdl1(), layer_dims=[7, 0, 1],
                              payload=np.ones(1, "<f8").tobytes())},
     TRANSFER, "m.mdl1: every layer width must be >= 1, got [7, 0, 1]"),
    ({"net.cnn1": edit_manifest(cnn1(), channels=[7, 0, 1],
                                payload=np.ones(1, "<f4").tobytes()),
      "scene.pat1": pat1(SCENE, georef=GEOREF)},
     INFER, "net.cnn1: every layer width must be >= 1, got [7, 0, 1]"),
    ({"net.cnn1": edit_manifest(cnn1(), drop=("normalization",)),
      "scene.pat1": pat1(SCENE, georef=GEOREF)},
     INFER, "net.cnn1: CNN1 manifest lacks keys: normalization"),
    ({"net.cnn1": edit_manifest(cnn1(), drop=("normalization",))},
     ["quantize", "--net", "net.cnn1", "--out", "net16.cnn1"],
     "net.cnn1: CNN1 manifest lacks keys: normalization"),
], ids=["malformed_cnn1", "bad_policy", "unknown_config_key", "smp1_index_past_list",
        "transfer_no_check_patches", "quantize_no_check_patches", "bench_no_reps",
        "simulate_bad_degrade",
        "alert_map_without_georef", "infer_scene_without_georef",
        "simulate_spec_not_an_object", "simulate_unknown_solar_key",
        "simulate_unknown_degrade_key", "alert_policy_not_an_object",
        "alert_misspelt_policy_key", "train_config_not_an_object",
        "train_config_value_of_wrong_type", "simulate_min_coverage_key",
        "simulate_misspelt_spec_key", "simulate_ramp_string",
        "simulate_fractional_width", "simulate_fractional_blobs",
        "simulate_boolean_width", "simulate_zero_width", "simulate_zero_gsd",
        "simulate_latitude_past_pole", "simulate_longitude_past_antimeridian",
        "simulate_negative_noise", "simulate_negative_blobs",
        "simulate_reversed_turbidity_range", "simulate_ph_range_past_14",
        "alert_index_not_an_object", "alert_index_missing_keys",
        "alert_index_maps_not_a_list", "alert_index_placement_not_a_pair",
        "alert_index_placement_outside_scene", "alert_index_negative_placement",
        "alert_index_scene_narrower_than_a_patch", "alert_index_parent_layout",
        "alert_index_zero_gsd", "alert_index_placement_off_grid",
        "alert_index_duplicate_placement", "alert_map_without_placement",
        "alert_map_fractional_placement", "alert_policy_nan_bound",
        "alert_policy_cloud_fraction_key", "infer_cloud_fraction_option",
        "alert_index_missing_map", "infer_cnn1_of_two_outputs",
        "infer_three_band_mask", "plot_no_command", "build_dataset_no_tolerance_days",
        "train_no_seed", "transfer_no_tol", "transfer_no_seed", "quantize_no_threshold",
        "quantize_no_seed", "bench_no_warmup", "bench_no_seed",
        "train_one_sample_store", "train_two_sample_store", "train_three_sample_store",
        "train_unknown_parameter", "train_constant_features_store",
        "infer_nonfinite_scene", "build_dataset_nonfinite_chip",
        "build_dataset_short_row", "build_dataset_every_row_rejected",
        "infer_scene_georef_bad_date", "build_dataset_chip_georef_past_pole",
        "alert_map_georef_bad_longitude", "simulate_nan_snr", "simulate_nan_in_snr_list",
        "simulate_nan_misalignment", "transfer_unknown_parameter",
        "transfer_no_parameter", "train_nan_learning_rate", "train_nan_early_stop",
        "train_negative_seed", "simulate_negative_seed", "simulate_nan_mixing_matrix",
        "simulate_nan_mixing_offset", "simulate_infinite_mixing_offset",
        "simulate_singular_mixing", "simulate_three_snr_entries",
        "simulate_eight_misalignments", "simulate_mixing_without_matrix",
        "infer_scene_boolean_gsd", "build_dataset_chip_band_ids_string",
        "transfer_bn_stats_tracked_string", "transfer_fractional_layer_dim",
        "transfer_negative_target_std", "transfer_three_feature_means",
        "infer_cnn1_for_chlorophyll", "infer_cnn1_numeric_parameter",
        "simulate_scene_smaller_than_a_patch", "simulate_one_pixel_scene_at_10_m",
        "simulate_spec_not_utf8", "train_config_not_utf8", "alert_policy_not_utf8",
        "alert_index_not_utf8", "simulate_truncated_spec", "alert_truncated_index",
        "build_dataset_latin1_csv", "simulate_footprint_past_pole",
        "simulate_footprint_past_antimeridian", "infer_scene_past_pole",
        "transfer_zero_width_hidden_layer", "infer_cnn1_zero_width_hidden_layer",
        "infer_former_layout_cnn1", "quantize_former_layout_cnn1"])
def test_invalid_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys,
                                             files, argv, says):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(content)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and says in err
    if "--out" in argv:  # nothing is written
        assert not (tmp_path / argv[argv.index("--out") + 1]).exists()


def test_a_key_error_inside_a_command_is_not_invalid_input(monkeypatch):
    """Every reader turns a missing key into a SchemaError or FormatError, so
    a bare KeyError is a programming error: it propagates, never exit 2."""
    def broken(args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "cmd_bench", broken)
    with pytest.raises(KeyError, match="a bug"):
        cli.main(["bench", "--net", "net.cnn1"])


def test_a_four_sample_store_trains(tmp_path, capsys):
    """Four samples split 2/1/1, the smallest store whose splits all fill."""
    (tmp_path / "s.smp1").write_bytes(smp1(4))
    (tmp_path / "train.json").write_text(json.dumps(
        {"epochs": 1, "seed": 0, "layer_dims": [7, 4, 1]}))
    assert cli.main(["train", "--samples", str(tmp_path / "s.smp1"), "--parameter",
                     "turbidity", "--config", str(tmp_path / "train.json"),
                     "--out", str(tmp_path / "m.mdl1")]) == 0, capsys.readouterr().err
    training = mlp.load_mdl1(tmp_path / "m.mdl1")[2]["training"]
    assert (training["n_train"], training["n_test"], training["n_val"]) == (2, 1, 1)


@pytest.mark.parametrize("name, parameter", [
    ("turbidity", sensor.TURBIDITY), ("TURBIDITY", sensor.TURBIDITY),
    ("turbidity_NTU", sensor.TURBIDITY), ("ph", sensor.PH), ("pH", sensor.PH),
    ("PH", sensor.PH)])
def test_a_parameter_name_is_read_in_any_case(name, parameter):
    assert cli._parameter(name) == parameter


def test_alert_on_a_scene_whose_id_overflows_the_message_exits_2(tmp_path, capsys):
    """The scene id is the scene file's stem; 40 non-ASCII characters take
    240 bytes in the serialized alert, so ``alert`` refuses the message."""
    scene = tmp_path / f"{'é' * 40}.pat1"
    raster.write_pat1(scene, SCENE, georef=GEOREF)
    (tmp_path / "net.cnn1").write_bytes(cnn1())
    (tmp_path / "policy.json").write_text(json.dumps(
        {"parameter": sensor.TURBIDITY, "upper_bound": -1e30}))  # every cell alerts
    assert cli.main(["infer", "--net", str(tmp_path / "net.cnn1"), "--scene",
                     str(scene), "--out", str(tmp_path / "maps")]) == 0
    capsys.readouterr()
    out = tmp_path / "alerts.jsonl"
    assert cli.main(["alert", "--maps", str(tmp_path / "maps"), "--policy",
                     str(tmp_path / "policy.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: scene id is 240 bytes")
    assert not out.exists()


def test_bench_times_the_served_path_on_check_patches(tmp_path, capsys, monkeypatch):
    (tmp_path / "net.cnn1").write_bytes(cnn1())
    out = tmp_path / "bench.json"
    timed, bench = [], quantbench.bench
    monkeypatch.setattr(quantbench, "bench",
                        lambda net, patches: timed.extend(patches) or bench(net, patches))
    assert cli.main(["bench", "--net", str(tmp_path / "net.cnn1"),
                     "--report", str(out)]) == 0
    net, _ = convnet.load_cnn1(tmp_path / "net.cnn1")
    want = convnet.check_patches(net.stats, quantbench.BENCH_PATCHES)
    assert [p.raster.data.tobytes() for p in timed] == [
        p.raster.data.tobytes() for p in want]
    assert capsys.readouterr().out.startswith("bench: median ")
    report = json.loads(out.read_text())
    assert report["fps"] == 1000 / report["ms_per_inference"]
    assert report["ms_p95"] >= report["ms_per_inference"]
    assert (report["reps"], report["warmup"]) == (quantbench.BENCH_REPS,
                                                  quantbench.BENCH_WARMUP)
    assert report["reference"] == quantbench.REFERENCE_VPU
    assert report["patches"] == 4


# Every option of every command. A new knob shows up here as a diff: it
# needs two callers that set different values, or it is a constant.
COMMAND_OPTIONS = {
    "simulate": ["--out", "--seed", "--spec"],
    "build-dataset": ["--out", "--patches", "--records"],
    "train": ["--config", "--out", "--parameter", "--samples"],
    "transfer": ["--model", "--out"],
    "infer": ["--masks", "--net", "--out", "--scene"],
    "alert": ["--maps", "--mosaic", "--out", "--policy"],
    "quantize": ["--net", "--out", "--report"],
    "bench": ["--net", "--patches", "--report"],
}


def test_each_command_takes_exactly_the_options_of_the_table():
    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {name: sorted(option for action in command._actions
                            if action.dest != "help" for option in action.option_strings)
               for name, command in commands.choices.items()}
    assert options == COMMAND_OPTIONS
