import dataclasses
import datetime as dt
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_kinds import another_kind

from coastwatch import alerting, cli, convnet, mlp, raster
from coastwatch.convnet import ConvLayer, ConvNet, infer_patch, save_cnn1
from coastwatch.errors import NumericError, SchemaError
from coastwatch.raster import BandStack, GeoRef, tile_scene, window_fraction
from coastwatch.sensor import PARAMETERS, TURBIDITY, MaskSet

SIZE = 512
GSD = 4.75
GEOREF = GeoRef(44.0, 9.0, dt.date(2024, 6, 15))
TIMESTAMP = "2024-06-15T10:30:00+00:00"


def tiny_net(seed=0) -> ConvNet:
    """A (7, 8, 1) net holding f32 values, as a CNN1 file stores them."""
    rng = np.random.default_rng(seed)

    def f32(*shape):
        return rng.normal(0, 1, shape).astype(np.float32).astype(np.float64)

    return ConvNet([ConvLayer(f32(8, 7), f32(8)), ConvLayer(f32(1, 8), f32(1))],
                   parameter=TURBIDITY)


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
    net = ConvNet([ConvLayer(np.zeros((1, 7)), np.array([20.0]))], parameter=TURBIDITY)
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


def paper_net(seed=0) -> ConvNet:
    """Random He-scaled weights at the paper's dimensions."""
    rng = np.random.default_rng(seed)
    dims = mlp.DEFAULT_LAYER_DIMS
    return ConvNet([ConvLayer(rng.normal(0, np.sqrt(2 / i), (o, i)), rng.normal(0, 0.1, o))
                    for i, o in zip(dims[:-1], dims[1:])], parameter=TURBIDITY)


def blocky_cloud(size, cover, seed) -> np.ndarray:
    """Cloud in 16 px blocks, which cut across the 10 px windows, over about
    ``cover`` of the scene."""
    coarse = np.random.default_rng(seed).random((-(-size // 16),) * 2) < cover
    return np.kron(coarse, np.ones((16, 16), dtype=bool))[:size, :size]


def test_infer_scene_is_tile_infer_invalidate_at_paper_dims(monkeypatch):
    """Only kept windows reach the stack, in calls of one patch's shape, and
    every map equals ``infer_patch`` plus the NaN mask bit for bit."""
    size = 768
    scene = BandStack.from_array(np.random.default_rng(3).uniform(
        0.0, 0.4, (7, size, size)).astype(np.float32), GSD)
    net = paper_net()
    tiles = tile_scene(scene, GEOREF, patch_id_prefix="s")
    served = [infer_patch(net, p).values for p in tiles.patches]
    one_patch = np.zeros((size, size), dtype=bool)
    one_patch[256:512, :256] = True
    one_window = np.zeros((size, size), dtype=bool)
    one_window[:10, :10] = True
    planes = {"none": None, "all_clear": np.zeros((size, size), dtype=bool),
              "quarter": blocky_cloud(size, 0.25, 1), "half": blocky_cloud(size, 0.5, 2),
              "one_patch": one_patch, "all_clouded": np.ones((size, size), dtype=bool),
              "one_window": one_window}
    calls = []

    def stack(net, means):
        calls.append(means.shape)
        return stack_on_means(net, means)

    stack_on_means = convnet._stack_on_means
    monkeypatch.setattr(convnet, "_stack_on_means", stack)
    kept_totals, n_calls = {}, {}
    for name, cloud in planes.items():
        calls.clear()
        got_tiles, got = alerting.infer_scene(scene, net, GEOREF, cloud, "s")
        assert got_tiles.index == tiles.index
        kept = []
        for cmap, values, (r0, c0) in zip(got, served, tiles.index.placements,
                                          strict=True):
            if cloud is not None:
                frac = window_fraction(cloud[r0 : r0 + 256, c0 : c0 + 256], 10)
                values = np.where(frac >= 0.5, np.nan, values)
            assert np.array_equal(cmap.values, values, equal_nan=True), name
            kept.append(np.isfinite(values))
        # every call has a patch's shape and holds window j in column j, so
        # there are as many calls as the most patches that keep one window
        assert set(calls) <= {(7, 25, 25)}, name
        assert len(calls) == np.sum(kept, axis=0).max(), name
        kept_totals[name], n_calls[name] = int(np.sum(kept)), len(calls)
    assert kept_totals["none"] == kept_totals["all_clear"] == 9 * 625
    assert kept_totals["one_patch"] == 8 * 625 and kept_totals["all_clouded"] == 0
    assert kept_totals["one_window"] == 9 * 625 - 1
    assert [n_calls[name] for name in ("none", "all_clear", "one_patch",
                                       "all_clouded", "one_window")] == [9, 9, 8, 0, 9]
    # blocky cover invalidates about its share; its kept totals pad a last block
    for name, cover in (("quarter", 0.25), ("half", 0.5)):
        assert abs(1 - kept_totals[name] / (9 * 625) - cover) < 0.1
        assert kept_totals[name] % 625


def test_a_window_under_cloud_is_never_computed():
    """A reflectance that overflows the stack raises ``NumericError`` in a
    kept window and nothing under cloud; a non-finite reflectance is refused
    at tiling, clouded or not."""
    net = ConvNet([ConvLayer(np.ones((1, 7)), np.zeros(1))], parameter=TURBIDITY)
    scene, _ = scene_and_cloud()
    data = scene.data.copy()
    data[:, :10, :10] = 3e38      # finite; 7 bands of it overflow float32
    scene = BandStack.from_array(data, GSD)
    cloud = np.zeros((SIZE, SIZE), dtype=bool)

    def overflow():
        return pytest.warns(RuntimeWarning, match="overflow encountered in matmul")

    with pytest.raises(NumericError, match="conv layer 1"), overflow():
        alerting.infer_scene(scene, net, GEOREF, cloud)
    cloud[:5, :10] = True         # window (0, 0) half clouded: invalid
    _, maps = alerting.infer_scene(scene, net, GEOREF, cloud)
    assert np.isnan(maps[0].values[0, 0])
    assert np.isfinite(maps[0].values).sum() == 624
    cloud[4, 9] = False           # 49 px of cloud: the window is kept
    with pytest.raises(NumericError, match="conv layer 1"), overflow():
        alerting.infer_scene(scene, net, GEOREF, cloud)
    cloud[4, 9] = True
    data[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        alerting.infer_scene(BandStack.from_array(data, GSD), net, GEOREF, cloud)


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


def test_alert_places_each_map_by_the_placement_its_file_records(tmp_path):
    scene, _ = scene_and_cloud(2)
    net = tiny_net(2)
    raster.write_pat1(tmp_path / "scene.pat1", scene, georef=GEOREF)
    save_cnn1(tmp_path / "net.cnn1", net)
    _, maps = alerting.infer_scene(scene, net, GEOREF)
    policy = policy_for(maps)
    (tmp_path / "policy.json").write_text(json.dumps(
        {"parameter": TURBIDITY, "lower_bound": policy.lower_bound,
         "upper_bound": policy.upper_bound}))
    assert cli.main(["infer", "--net", str(tmp_path / "net.cnn1"), "--scene",
                     str(tmp_path / "scene.pat1"), "--out", str(tmp_path / "maps")]) == 0

    def alert(name):
        assert cli.main(["alert", "--maps", str(tmp_path / "maps"), "--policy",
                         str(tmp_path / "policy.json"), "--out",
                         str(tmp_path / f"{name}.jsonl"), "--mosaic",
                         str(tmp_path / f"{name}.pat1")]) == 0
        messages = [alerting.parse_alert(line) for line in
                    (tmp_path / f"{name}.jsonl").read_bytes().splitlines()]
        for m in messages:
            m.timestamp = ""
        return raster.read_pat1(tmp_path / f"{name}.pat1")[0].data, messages

    mosaic, messages = alert("in_order")
    index_path = tmp_path / "maps" / "index.json"
    index = json.loads(index_path.read_text())
    index["maps"][0], index["maps"][3] = index["maps"][3], index["maps"][0]
    index_path.write_text(json.dumps(index))
    swapped_mosaic, swapped = alert("swapped")
    # the maps differ, so a map placed by its position would move cells
    assert not np.array_equal(alerting.threshold(maps[0], policy).cells,
                              alerting.threshold(maps[3], policy).cells)
    assert np.array_equal(swapped_mosaic, mosaic)
    assert len(swapped) == len(messages) > 1
    assert sorted(map(repr, swapped)) == sorted(map(repr, messages))


@pytest.mark.parametrize("doc", [
    {"parameter": TURBIDITY, "lower_bound": 5, "upper_bound": 1},
    {"parameter": TURBIDITY},
    {"parameter": "salinity", "upper_bound": 1},
    {"parameter": TURBIDITY, "upper_bound": 10, "min_exceed_fraction": 2},
    {"parameter": TURBIDITY, "upper_bound": "ten"},
    {"parameter": TURBIDITY, "upper_bound": True},
    {"parameter": TURBIDITY, "upper_bound": "12"},
    {"upper_bound": 10},
    # json.loads reads NaN and Infinity; a NaN bound would silence the policy
    {"parameter": TURBIDITY, "upper_bound": float("nan")},
    {"parameter": TURBIDITY, "lower_bound": float("nan")},
    {"parameter": TURBIDITY, "lower_bound": 1, "upper_bound": float("inf")},
    {"parameter": TURBIDITY, "lower_bound": float("-inf"), "upper_bound": 1},
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


def test_a_message_for_an_unknown_parameter_is_a_schema_error():
    with pytest.raises(SchemaError, match="unknown parameter 'chlorophyll'"):
        dataclasses.replace(_message("s"), parameter="chlorophyll")


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


# The wire format: serialize_alert writes AlertMessage's fields in this order.
ALERT_KEYS = ["scene_id", "lat", "lon", "acquired", "parameter", "policy_id",
              "exceed_count", "exceed_fraction", "invalid_count", "violating_min",
              "violating_max", "violating_mean", "timestamp"]
CELLS = raster.GRID * raster.GRID
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _within_the_scene_id_bound(text: str) -> str:
    """The longest prefix of ``text`` an AlertMessage takes as its scene id."""
    while len(json.dumps(text)) - 2 > alerting.MAX_SCENE_ID_BYTES:
        text = text[:-1]
    return text


@st.composite
def policies(draw, parameter):
    """A valid ThresholdPolicy: one or two finite bounds, lower below upper."""
    lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    bounds = draw(st.sampled_from([{"lower_bound": lo}, {"upper_bound": hi},
                                   {"lower_bound": lo, "upper_bound": hi}]))
    return alerting.ThresholdPolicy(parameter, **bounds)


@st.composite
def messages(draw):
    """An AlertMessage of the values make_message can give: a scene id within
    its bound, a map georef's place and date, a known parameter, a valid
    policy's id, counts within one map, finite violating values and a UTC
    timestamp at second resolution."""
    parameter = draw(st.sampled_from(PARAMETERS))
    exceed = draw(st.integers(1, CELLS))
    return alerting.AlertMessage(
        scene_id=draw(st.text(max_size=80).map(_within_the_scene_id_bound)),
        lat=draw(st.floats(-90.0, 90.0)), lon=draw(st.floats(-180.0, 180.0)),
        acquired=draw(st.dates()), parameter=parameter,
        policy_id=draw(policies(parameter)).policy_id,
        exceed_count=exceed,
        exceed_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        invalid_count=draw(st.integers(0, CELLS - exceed)),
        violating_min=draw(FINITE), violating_max=draw(FINITE),
        violating_mean=draw(FINITE),
        timestamp=draw(st.datetimes(timezones=st.just(dt.timezone.utc))).isoformat(
            timespec="seconds"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(msg=messages())
def test_any_alert_fits_and_round_trips_in_the_pinned_key_order(msg):
    line = alerting.serialize_alert(msg)
    assert len(line) <= alerting.MAX_ALERT_BYTES
    assert b"\n" not in line
    assert list(json.loads(line)) == ALERT_KEYS
    assert alerting.parse_alert(line) == msg


# the JSON kind of each field of an alert line, in its wire order
ALERT_KINDS = dict(zip(ALERT_KEYS, [
    "a string", "a number", "a number", "a date", "a string", "a string",
    "an integer", "a number", "an integer", "a number", "a number", "a number",
    "a string"]))


def test_the_alert_kinds_are_the_message_fields_in_wire_order():
    assert list(alerting._ALERT_KINDS) == ALERT_KEYS == [
        f.name for f in dataclasses.fields(alerting.AlertMessage)]


@pytest.mark.parametrize("field", ALERT_KEYS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_alert_field_of_another_json_kind_is_a_schema_error(field, data):
    """Any field of a well-formed line set to a value of another JSON kind
    is refused as a SchemaError: the line never parses, and nothing else is
    raised."""
    doc = json.loads(alerting.serialize_alert(_message("scene")))
    doc[field] = data.draw(another_kind(ALERT_KINDS[field]), label="value")
    with pytest.raises(SchemaError, match=f"^alert {field} must be "):
        alerting.parse_alert(json.dumps(doc))


@pytest.mark.parametrize("edit, says", [
    (lambda doc: doc.pop("policy_id"), "alert lacks keys: policy_id"),
    (lambda doc: doc.update(cells=[1, 0]), "unknown alert keys: cells"),
], ids=["missing_field", "raster_field"])
def test_an_alert_line_off_its_fields_is_a_schema_error(edit, says):
    doc = json.loads(alerting.serialize_alert(_message("scene")))
    edit(doc)
    with pytest.raises(SchemaError, match=f"^{says}$"):
        alerting.parse_alert(json.dumps(doc))
