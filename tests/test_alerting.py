import datetime as dt
import json
import math
import types

import numpy as np
import pytest

from coastwatch import alerting, cli, raster
from coastwatch.convnet import (ContaminantMap, ConvLayer, ConvNet, infer_patch,
                               save_cnn1)
from coastwatch.errors import SchemaError
from coastwatch.raster import BandStack, GeoRef, tile_scene
from coastwatch.sensor import TURBIDITY, MaskSet

SIZE = 512
GSD = 4.75
GEOREF = GeoRef(44.0, 9.0, GSD, dt.date(2024, 6, 15))
TIMESTAMP = "2024-06-15T10:30:00+00:00"


def tiny_net(seed=0) -> ConvNet:
    """A (7, 8, 1) net holding f32 values, as a CNN1 file stores them."""
    rng = np.random.default_rng(seed)

    def f32(*shape):
        return rng.normal(0, 1, shape).astype(np.float32).astype(np.float64)

    return ConvNet(
        channels=(7, 8, 1),
        layers=[ConvLayer(f32(8, 7), f32(8), True),
                ConvLayer(f32(1, 8), f32(1), False)],
        parameter=TURBIDITY,
    )


def scene_and_cloud(seed=0):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 0.4, (7, SIZE, SIZE)).astype(np.float32)
    cloud = np.zeros((SIZE, SIZE), dtype=bool)
    cloud[:300, :200] = True
    cloud |= rng.random((SIZE, SIZE)) < 0.3
    return BandStack.from_array(data, GSD), cloud


def policy_for(maps) -> alerting.ThresholdPolicy:
    """Bounds inside the maps' range, so some patches alert and some cells not."""
    values = np.concatenate([m.values.ravel() for m in maps])
    lo, hi = np.nanquantile(values, [0.05, 0.9])
    return alerting.ThresholdPolicy(TURBIDITY, lower_bound=float(lo),
                                    upper_bound=float(hi))


def assert_same_result(a: alerting.SceneAlertResult, b: alerting.SceneAlertResult):
    assert all(np.array_equal(x.values, y.values, equal_nan=True)
               for x, y in zip(a.maps, b.maps, strict=True))
    assert all(np.array_equal(x.cells, y.cells) and np.array_equal(x.invalid, y.invalid)
               for x, y in zip(a.alert_maps, b.alert_maps, strict=True))
    assert a.messages == b.messages
    assert np.array_equal(a.mosaic.data, b.mosaic.data)
    assert a.mosaic.band_ids == b.mosaic.band_ids


def test_one_timestamp_per_scene(monkeypatch):
    class TickingClock(dt.datetime):
        calls = 0

        @classmethod
        def now(cls, tz=None):
            cls.calls += 1
            return dt.datetime(2024, 6, 15, 10, 0, cls.calls, tzinfo=tz)

    monkeypatch.setattr(alerting, "dt", types.SimpleNamespace(
        datetime=TickingClock, timezone=dt.timezone, date=dt.date))
    # every cell reads 20 NTU, above the 10 NTU default bound
    net = ConvNet(channels=(7, 1), parameter=TURBIDITY,
                  layers=[ConvLayer(np.zeros((1, 7)), np.array([20.0]), False)])
    scene, _ = scene_and_cloud()
    result = alerting.run_scene(scene, net,
                                alerting.ThresholdPolicy.default_for(TURBIDITY),
                                scene_georef=GEOREF)
    assert len(result.messages) == 4
    assert {m.timestamp for m in result.messages} == {"2024-06-15T10:00:01+00:00"}


def test_run_scene_is_tile_infer_invalidate_alert():
    scene, cloud = scene_and_cloud()
    net = tiny_net()
    tiles = tile_scene(scene, GEOREF, patch_id_prefix="s1")
    maps = [infer_patch(net, p) for p in tiles.patches]
    alerting.invalidate_clouded(maps, tiles.index, cloud, 0.5)
    policy = policy_for(maps)
    steps = alerting.alert_scene(maps, tiles.index, policy, "s1", TIMESTAMP)

    zeros = np.zeros_like(cloud)
    result = alerting.run_scene(scene, net, policy, scene_georef=GEOREF,
                                masks=MaskSet(cloud, zeros, zeros),
                                scene_id="s1", timestamp=TIMESTAMP)
    assert_same_result(result, steps)
    # the steps did something: clouded windows, alerts and quiet cells
    assert np.isnan(steps.maps[0].values).any()
    assert all(np.isfinite(m.values).any() for m in steps.maps)
    assert steps.messages
    assert 0 < steps.mosaic.data.sum() < steps.mosaic.data.size


def test_cli_alerts_and_mosaic_equal_alert_scene_on_the_maps(tmp_path):
    scene, cloud = scene_and_cloud(1)
    net = tiny_net(1)
    raster.write_pat1(tmp_path / "scene.pat1", scene, georef=GEOREF)
    raster.write_pat1(tmp_path / "mask.pat1", BandStack.from_array(
        cloud.astype(np.uint8), GSD, band_ids=("cloud",)))
    save_cnn1(tmp_path / "net.cnn1", net)

    # the maps the CLI writes are the in-memory ones: served in f32, invalidated
    tiles = tile_scene(scene, GEOREF, patch_id_prefix="scene")
    maps = [infer_patch(net, p) for p in tiles.patches]
    alerting.invalidate_clouded(maps, tiles.index, cloud, cli.INVALID_CLOUD_FRACTION)
    policy = policy_for(maps)
    expected = alerting.alert_scene(maps, tiles.index, policy, "scene", "")
    (tmp_path / "policy.json").write_text(json.dumps(
        {"parameter": TURBIDITY, "lower_bound": policy.lower_bound,
         "upper_bound": policy.upper_bound}))

    for argv in (
        ["infer", "--net", tmp_path / "net.cnn1", "--scene", tmp_path / "scene.pat1",
         "--out", tmp_path / "maps", "--masks", tmp_path / "mask.pat1"],
        ["alert", "--maps", tmp_path / "maps", "--policy", tmp_path / "policy.json",
         "--out", tmp_path / "alerts.jsonl", "--mosaic", tmp_path / "mosaic.pat1"],
    ):
        assert cli.main([str(a) for a in argv]) == 0

    messages = [alerting.parse_alert(line)
                for line in (tmp_path / "alerts.jsonl").read_bytes().splitlines()]
    assert len({m.timestamp for m in messages}) == 1
    for m in messages:
        m.timestamp = ""
    assert messages and messages == expected.messages
    mosaic, _ = raster.read_pat1(tmp_path / "mosaic.pat1")
    assert np.array_equal(mosaic.data, expected.mosaic.data)


@pytest.mark.parametrize("fraction", [0.0, -0.25, 1.0 + 1e-9, 1.5, math.nan])
def test_out_of_range_cloud_fraction_rejected(fraction):
    scene, cloud = scene_and_cloud()
    tiles = tile_scene(scene, GEOREF)
    maps = [ContaminantMap(np.zeros((25, 25)), TURBIDITY, p.georef)
            for p in tiles.patches]
    with pytest.raises(SchemaError, match="cloud fraction"):
        alerting.invalidate_clouded(maps, tiles.index, cloud, fraction)
    alerting.invalidate_clouded(maps, tiles.index, cloud, 1.0)
    assert np.isnan(maps[0].values).any()


@pytest.mark.parametrize("doc", [
    {"parameter": TURBIDITY, "lower_bound": 5, "upper_bound": 1},
    {"parameter": TURBIDITY},
    {"parameter": "salinity", "upper_bound": 1},
    {"parameter": TURBIDITY, "upper_bound": 10, "min_exceed_fraction": 2},
    {"parameter": TURBIDITY, "upper_bound": "ten"},
])
def test_invalid_policy_is_a_schema_error(doc):
    with pytest.raises(SchemaError):
        alerting.ThresholdPolicy.from_json(doc)
