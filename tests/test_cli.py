import csv
import json

import numpy as np
import pytest

from coastwatch import alerting, cli, convnet, dataset, raster, sensor

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
        ["transfer", "--model", d / "model.mdl1", "--out", d / "net.cnn1",
         "--check-patches", 2],
        ["infer", "--net", d / "net.cnn1", "--scene", d / "sim" / "scene.pat1",
         "--out", d / "maps", "--masks", d / "mask.pat1"],
        ["alert", "--maps", d / "maps", "--policy", d / "policy.json",
         "--out", d / "alerts.jsonl", "--mosaic", d / "alert_mosaic.pat1"],
    ]
    for argv in chain:
        assert cli.main([str(a) for a in argv]) == 0, capsys.readouterr().err

    samples, _, manifest = dataset.load_samples(d / "samples.smp1")
    assert len(samples) == 400
    assert manifest["provenance"]["unmatched_records"] == 0
    _, cnn = convnet.load_cnn1(d / "net.cnn1")
    assert cnn["equivalence"]["passed"]

    index = json.loads((d / "maps" / "index.json").read_text())
    assert len(index["maps"]) == 4
    maps = [raster.read_pat1(d / "maps" / name)[0].data[0]
            for name in index["maps"]]
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
                     "--out", str(d / "net16.cnn1"),
                     "--report", str(d / "quant.json"), "--check-patches", "2"])
    quant = json.loads((d / "quant.json").read_text())
    assert code == (0 if quant["passed"] else 1)
    assert quant["model_bytes_fp16"] < quant["model_bytes_fp32"]
