import dataclasses
import datetime as dt
import json
import types

import numpy as np
import pytest

from coastwatch import alerting, cli, raster
from coastwatch.convnet import ConvLayer, ConvNet, infer_patch, save_cnn1
from coastwatch.errors import SchemaError
from coastwatch.raster import BandStack, GeoRef, tile_scene, window_fraction
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


def test_infer_scene_is_tile_infer_invalidate():
    scene, cloud = scene_and_cloud()
    net = tiny_net()
    tiles = tile_scene(scene, GEOREF, patch_id_prefix="s1")
    maps = [infer_patch(net, p) for p in tiles.patches]
    for cmap, (r0, c0) in zip(maps, tiles.index.placements):
        frac = window_fraction(cloud[r0 : r0 + 256, c0 : c0 + 256], 10)
        cmap.values = np.where(frac >= 0.5, np.nan, cmap.values)

    got_tiles, got = alerting.infer_scene(scene, net, GEOREF, cloud, "s1")
    assert got_tiles.index == tiles.index
    assert [p.patch_id for p in got_tiles.patches] == [p.patch_id for p in tiles.patches]
    for a, b in zip(got, maps, strict=True):
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert (a.parameter, a.georef) == (b.parameter, b.georef)
    # clouded windows went invalid, the rest kept their values
    assert np.isnan(got[0].values).any()
    assert all(np.isfinite(m.values).any() for m in got)


def test_run_scene_is_tile_infer_invalidate_alert():
    scene, cloud = scene_and_cloud()
    net = tiny_net()
    zeros = np.zeros_like(cloud)
    for masks in (MaskSet(cloud, zeros, zeros), None):
        tiles, maps = alerting.infer_scene(
            scene, net, GEOREF, None if masks is None else cloud, "s1")
        policy = policy_for(maps)
        steps = alerting.alert_scene(maps, tiles.index, policy, "s1", TIMESTAMP)
        result = alerting.run_scene(scene, net, policy, scene_georef=GEOREF,
                                    masks=masks, scene_id="s1", timestamp=TIMESTAMP)
        assert_same_result(result, steps)
        # the steps did something: alerts and quiet cells, clouded windows
        # only with masks
        assert steps.messages
        assert 0 < steps.mosaic.data.sum() < steps.mosaic.data.size
        assert np.isnan(steps.maps[0].values).any() == (masks is not None)


def test_a_window_half_clouded_is_invalid_and_one_pixel_less_is_not():
    scene, _ = scene_and_cloud()
    net = tiny_net()
    cloud = np.zeros((SIZE, SIZE), dtype=bool)
    cloud[:5, :10] = True         # window (0, 0): 50 of its 100 px
    cloud[:5, 10:20] = True
    cloud[4, 19] = False          # window (0, 1): 49 px
    _, clear = alerting.infer_scene(scene, net, GEOREF)
    _, clouded = alerting.infer_scene(scene, net, GEOREF, cloud)
    assert np.isnan(clouded[0].values[0, 0])
    expected = clear[0].values.copy()
    expected[0, 0] = np.nan
    assert np.array_equal(clouded[0].values, expected, equal_nan=True)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(clouded[1:], clear[1:]))
    # one fraction, and no policy field for it
    policy = alerting.ThresholdPolicy.default_for(TURBIDITY)
    assert (policy.cloud_invalid_fraction == cli.INVALID_CLOUD_FRACTION
            == alerting.CLOUD_INVALID_FRACTION == 0.5)
    assert "cloud_invalid_fraction" not in {
        f.name for f in dataclasses.fields(alerting.ThresholdPolicy)}


def test_cli_alerts_and_mosaic_equal_alert_scene_on_the_maps(tmp_path):
    scene, cloud = scene_and_cloud(1)
    net = tiny_net(1)
    raster.write_pat1(tmp_path / "scene.pat1", scene, georef=GEOREF)
    raster.write_pat1(tmp_path / "mask.pat1", BandStack.from_array(
        cloud.astype(np.uint8), GSD, band_ids=("cloud",)))
    save_cnn1(tmp_path / "net.cnn1", net)

    # the maps the CLI writes are the in-memory ones: served in f32, invalidated
    tiles, maps = alerting.infer_scene(scene, net, GEOREF, cloud)
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


@pytest.mark.parametrize("doc", [
    {"parameter": TURBIDITY, "lower_bound": 5, "upper_bound": 1},
    {"parameter": TURBIDITY},
    {"parameter": "salinity", "upper_bound": 1},
    {"parameter": TURBIDITY, "upper_bound": 10, "min_exceed_fraction": 2},
    {"parameter": TURBIDITY, "upper_bound": "ten"},
    {"parameter": TURBIDITY, "upper_bound": True},
    {"parameter": TURBIDITY, "upper_bound": "12"},
    {"upper_bound": 10},
])
def test_invalid_policy_is_a_schema_error(doc):
    with pytest.raises(SchemaError):
        alerting.ThresholdPolicy.from_json(doc)


def _message(scene_id: str) -> alerting.AlertMessage:
    """An alert whose every other field takes about the longest text it can."""
    policy = alerting.ThresholdPolicy(TURBIDITY, lower_bound=-1.2345678e-300,
                                      upper_bound=-1.2345677e-300)
    wide = -1.2345678901234567e-300
    return alerting.AlertMessage(
        scene_id=scene_id, lat=-89.12345678901234, lon=-179.12345678901234,
        acquired=dt.date(2024, 12, 31), parameter=TURBIDITY,
        policy_id=policy.policy_id, exceed_count=625, exceed_fraction=0.123456789012345,
        invalid_count=625, violating_min=wide, violating_max=wide,
        violating_mean=wide, timestamp=TIMESTAMP)


@pytest.mark.parametrize("scene_id", ["a" * 64, "é" * 10, '"' * 32],
                         ids=["ascii_64", "e_acute_10", "quote_32"])
def test_a_scene_id_within_the_bound_fits_the_alert(scene_id):
    line = alerting.serialize_alert(_message(scene_id))
    assert len(line) <= alerting.MAX_ALERT_BYTES
    assert alerting.parse_alert(line) == _message(scene_id)


@pytest.mark.parametrize("scene_id", ["a" * 65, "é" * 11, '"' * 33, "\U0001F30A" * 6],
                         ids=["ascii_65", "e_acute_11", "quote_33", "astral_6"])
def test_a_scene_id_past_the_bound_in_json_bytes_is_a_schema_error(scene_id):
    """The bound counts the bytes the id takes in the serialized alert: six
    per non-ASCII character, twelve past the BMP, two per escaped quote."""
    with pytest.raises(SchemaError, match="scene id"):
        _message(scene_id)
