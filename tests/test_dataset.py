import datetime as dt
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastwatch.dataset import (
    CSV_COLUMNS,
    InSituRecord,
    NormStats,
    Sample,
    SplitSpec,
    as_arrays,
    ingest_records,
    load_samples,
    locate_window,
    match,
    normalize,
    samples_from_scene,
    save_samples,
    select_surface,
    split,
)
from coastwatch.errors import FormatError, SchemaError
from coastwatch.raster import BandStack, GeoRef, Patch, meters_per_degree, window_average
from coastwatch.sensor import PH, TURBIDITY, SceneSpec, generate_synthetic_scene

RNG = np.random.default_rng(55)
HEADER = ",".join(CSV_COLUMNS)


def write_csv(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def rec(station="S1", date="2024-06-15", depth=0.5, parameter=TURBIDITY,
        value=3.0, lat=44.0, lon=9.0):
    return InSituRecord(
        station_id=station, municipality="Genova", location_name="Punta",
        distance_from_coast=150.0, date=dt.date.fromisoformat(date),
        depth=depth, parameter=parameter, value=value, lat=lat, lon=lon,
    )


def make_patch(lat, lon, date, patch_id, seed=0):
    data = np.random.default_rng(seed).uniform(0, 1, (7, 256, 256))
    georef = GeoRef(lat, lon, dt.date.fromisoformat(date))
    return Patch(BandStack.from_array(data, 4.75), georef, patch_id=patch_id)


def match_reference(records, patch_catalog, tolerance_days):
    """Per-record, per-patch scalar join with the tuple tie order
    (dist, |days|, catalog index); returns (samples, unmatched)."""
    samples, unmatched = [], []
    for r in records:
        best = None
        for idx, p in enumerate(patch_catalog):
            days = abs((p.georef.acquisition_date - r.date).days)
            if days > tolerance_days:
                continue
            north, east = p.georef.latlon_offset_m(r.lat, r.lon)
            half = p.raster.width / 2 * p.raster.gsd
            if abs(north) > half or abs(east) > half:
                continue
            key = (max(abs(north), abs(east)), days, idx)
            if best is None or key < best:
                best = key
        if best is None:
            unmatched.append((r, "no patch within footprint and tolerance"))
            continue
        p = patch_catalog[best[2]]
        wr, wc = locate_window(p.georef, p.raster.gsd, r.lat, r.lon)
        samples.append(Sample(
            features=window_average(p.raster, 10).data[:, wr, wc],
            target=r.value, parameter=r.parameter, patch_id=p.patch_id,
            window=(wr, wc), station_id=r.station_id,
            date=p.georef.acquisition_date))
    return samples, unmatched


class TestIngest:
    def test_well_formed_rows(self, tmp_path):
        csv = write_csv(tmp_path / "in.csv", [
            f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},3.2,44.0,9.0",
            f"S1,Genova,Punta,150,2024-06-15,0.5,pH,8.1,44.0,9.0",
            f"S2,Savona,Molo,80,2024-06-16,1.0,{TURBIDITY},5.0,44.1,8.9",
        ])
        result = ingest_records(csv)
        assert len(result.records) == 3
        assert not result.rejected and result.duplicates_removed == 0

    def test_out_of_range_ph_rejected(self, tmp_path):
        csv = write_csv(tmp_path / "in.csv", [
            "S1,Genova,Punta,150,2024-06-15,0.5,pH,17,44.0,9.0",
            "S2,Genova,Punta,150,2024-06-15,0.5,pH,8.0,44.0,9.0",
        ])
        result = ingest_records(csv)
        assert len(result.records) == 1
        assert len(result.rejected) == 1
        assert result.rejected[0][0] == 1  # first data row

    def test_unparseable_value_rejected_with_row(self, tmp_path):
        csv = write_csv(tmp_path / "in.csv", [
            f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},abc,44.0,9.0",
        ])
        result = ingest_records(csv)
        assert not result.records
        assert result.rejected[0][0] == 1

    def test_duplicates_removed_and_counted(self, tmp_path):
        row = f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},3.2,44.0,9.0"
        csv = write_csv(tmp_path / "in.csv", [row, row, row])
        result = ingest_records(csv)
        assert len(result.records) == 1
        assert result.duplicates_removed == 2

    def test_same_key_different_parameter_kept(self, tmp_path):
        csv = write_csv(tmp_path / "in.csv", [
            f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},3.2,44.0,9.0",
            "S1,Genova,Punta,150,2024-06-15,0.5,pH,8.0,44.0,9.0",
        ])
        result = ingest_records(csv)
        assert len(result.records) == 2

    def test_missing_column_schema_error(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("station_id,date,value\nS1,2024-06-15,3\n")
        with pytest.raises(SchemaError):
            ingest_records(path)

    def test_dedup_against_set_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        rows, keys = [], []
        for _ in range(60):
            st = f"S{rng.integers(3)}"
            day = int(rng.integers(1, 4))
            depth = float(rng.choice([0.5, 1.0]))
            rows.append(f"{st},G,P,10,2024-06-0{day},{depth},pH,8.0,44.0,9.0")
            keys.append((st, f"2024-06-0{day}", depth))
        result = ingest_records(write_csv(tmp_path / "in.csv", rows))
        assert len(result.records) == len(set(keys))
        assert result.duplicates_removed == 60 - len(set(keys))


class TestSelectSurface:
    def test_keeps_minimum_depth(self):
        records = [rec(depth=3.0), rec(depth=0.5), rec(depth=10.0)]
        out = select_surface(records)
        assert len(out) == 1 and out[0].depth == 0.5

    def test_single_record_identity(self):
        records = [rec()]
        assert select_surface(records) == records

    def test_tie_keeps_first_occurrence(self):
        a = rec(depth=0.5, value=1.0)
        b = rec(depth=0.5, value=2.0)
        out = select_surface([a, b])
        assert out == [a]

    def test_against_group_by_oracle(self):
        rng = np.random.default_rng(17)
        records = []
        for _ in range(200):
            records.append(rec(
                station=f"S{rng.integers(5)}",
                date=f"2024-06-{rng.integers(1, 5):02d}",
                depth=float(rng.choice([0.3, 0.5, 1.0, 3.0, 10.0])),
                parameter=TURBIDITY if rng.random() < 0.5 else PH,
                value=float(rng.uniform(1, 9)),
            ))
        expected = {}
        for i, r in enumerate(records):
            key = (r.station_id, r.date, r.parameter)
            if key not in expected or r.depth < records[expected[key]].depth:
                expected[key] = i
        out = select_surface(records)
        assert sorted(id(r) for r in out) == sorted(
            id(records[i]) for i in expected.values()
        )


class TestMatch:
    def test_one_day_apart_colocated_matches(self):
        patch = make_patch(44.0, 9.0, "2024-06-14", "p0")
        result = match([rec(date="2024-06-15")], [patch])
        assert len(result.samples) == 1
        sample = result.samples[0]
        assert sample.patch_id == "p0"
        assert sample.window == (12, 12)  # patch center window
        assert sample.target == 3.0

    def test_four_days_apart_unmatched(self):
        patch = make_patch(44.0, 9.0, "2024-06-11", "p0")
        result = match([rec(date="2024-06-15")], [patch])
        assert not result.samples
        assert len(result.unmatched) == 1

    def test_outside_footprint_unmatched(self):
        # 1 km north of the patch center is outside the 608 m half extent
        m_lat, _ = meters_per_degree(44.0)
        patch = make_patch(44.0, 9.0, "2024-06-15", "p0")
        result = match([rec(lat=44.0 + 1000.0 / m_lat)], [patch])
        assert not result.samples

    def test_features_are_window_average_of_patch(self):
        patch = make_patch(44.0, 9.0, "2024-06-15", "p0", seed=9)
        result = match([rec()], [patch])
        sample = result.samples[0]
        wr, wc = sample.window
        expected = window_average(patch.raster, 10).data[:, wr, wc]
        assert np.array_equal(sample.features, expected)

    def test_nearest_date_wins_distance_tie(self):
        p_far = make_patch(44.0, 9.0, "2024-06-12", "far")
        p_near = make_patch(44.0, 9.0, "2024-06-15", "near")
        result = match([rec(date="2024-06-15")], [p_far, p_near])
        assert result.samples[0].patch_id == "near"

    def test_against_brute_force_join_oracle(self):
        rng = np.random.default_rng(23)
        m_lat, m_lon = meters_per_degree(44.0)
        patches = [
            make_patch(
                44.0 + rng.uniform(-0.01, 0.01),
                9.0 + rng.uniform(-0.01, 0.01),
                f"2024-06-{rng.integers(10, 20):02d}",
                f"p{i}", seed=i,
            )
            for i in range(5)
        ]
        records = [
            rec(
                station=f"S{i}",
                date=f"2024-06-{rng.integers(10, 20):02d}",
                lat=44.0 + rng.uniform(-0.01, 0.01),
                lon=9.0 + rng.uniform(-0.01, 0.01),
                value=float(rng.uniform(0.5, 20)),
            )
            for i in range(50)
        ]
        result = match(records, patches)

        # oracle: exhaustive pairwise check
        expected = {}
        for r in records:
            best = None
            for idx, p in enumerate(patches):
                days = abs((p.georef.acquisition_date - r.date).days)
                if days > 3:
                    continue
                north = (r.lat - p.georef.center_lat) * m_lat
                east = (r.lon - p.georef.center_lon) * meters_per_degree(
                    p.georef.center_lat)[1]
                half = 128 * 4.75
                if abs(north) > half or abs(east) > half:
                    continue
                key = (max(abs(north), abs(east)), days, idx)
                if best is None or key < best:
                    best = key
            if best is not None:
                expected[r.station_id] = patches[best[2]].patch_id
        got = {s.station_id: s.patch_id for s in result.samples}
        assert got == expected
        assert len(result.unmatched) == 50 - len(expected)

    def test_equals_per_record_reference_on_edges(self):
        half = 128 * 4.75
        m_lat, m_lon = meters_per_degree(44.0)
        # same centre on three dates (distance ties), a duplicate of the
        # first patch (full tie: catalog order), and a patch 1.2 km north
        # and 1.2 km east
        patches = [
            make_patch(44.0, 9.0, "2024-06-15", "a", seed=1),
            make_patch(44.0, 9.0, "2024-06-13", "b", seed=2),
            make_patch(44.0, 9.0, "2024-06-17", "c", seed=3),
            make_patch(44.0, 9.0, "2024-06-15", "a2", seed=4),
            make_patch(44.0 + 1200.0 / m_lat, 9.0 + 1200.0 / m_lon, "2024-06-15",
                       "n", seed=5),
        ]

        def steps(x, n):
            out = [x]
            for _ in range(n):
                out = [np.nextafter(out[0], -np.inf), *out,
                       np.nextafter(out[-1], np.inf)]
            return [float(v) for v in out]

        records = []
        for d in range(9, 22):  # every day offset across the +-3 day edge
            records.append(rec(station=f"d{d}", date=f"2024-06-{d:02d}"))
        # a few ulps on both sides of each footprint edge
        for i, lat in enumerate(steps(44.0 + half / m_lat, 3)
                                + steps(44.0 - half / m_lat, 3)):
            records.append(rec(station=f"lat{i}", lat=lat, date="2024-06-16"))
        for i, lon in enumerate(steps(9.0 + half / m_lon, 3)
                                + steps(9.0 - half / m_lon, 3)):
            records.append(rec(station=f"lon{i}", lon=lon, date="2024-06-14"))
        # exactly on the footprint edge of a patch at (0, 0), and one ulp out
        patches.append(make_patch(0.0, 0.0, "2024-06-15", "e", seed=6))
        d = half / meters_per_degree(0.0)[0]
        out = float(np.nextafter(d, np.inf))
        assert patches[-1].georef.latlon_offset_m(d, -d) == (half, -half)
        for i, (lat, lon) in enumerate([(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d),
                                        (out, 0.0), (0.0, -out)]):
            records.append(rec(station=f"edge{i}", lat=lat, lon=lon))
        # halfway between "a" and "n": the distances tie up to rounding
        for i, lat in enumerate(steps(44.0 + 600.0 / m_lat, 3)):
            records.append(rec(station=f"mid{i}", lat=lat, lon=9.0 + 600.0 / m_lon,
                               date="2024-06-15"))

        got = match(records, patches)
        want_samples, want_unmatched = match_reference(records, patches, 3)
        assert got.unmatched == want_unmatched
        assert len(got.samples) == len(want_samples)
        for a, b in zip(got.samples, want_samples):
            assert np.array_equal(a.features, b.features)
            assert (a.target, a.parameter, a.patch_id, a.window, a.station_id,
                    a.date) == (b.target, b.parameter, b.patch_id, b.window,
                                b.station_id, b.date)
        # the edges are really exercised: both outcomes occur at each
        matched = {s.station_id: s.patch_id for s in got.samples}
        unmatched = {r.station_id for r, _ in got.unmatched}
        for prefix, lo in (("lat", 0), ("lat", 7), ("lon", 0), ("lon", 7)):
            group = {f"{prefix}{i}" for i in range(lo, lo + 7)}
            assert group & unmatched and group & matched.keys()
        assert {"d9", "d21", "edge4", "edge5"} <= unmatched
        assert [matched[f"edge{i}"] for i in range(4)] == ["e"] * 4
        assert matched["d12"] == "b" and matched["d20"] == "c"
        assert matched["d15"] == "a" and "a2" not in matched.values()
        assert {matched[f"mid{i}"] for i in range(7)} == {"a", "n"}

    def test_record_order_invariance(self):
        rng = np.random.default_rng(31)
        patches = [make_patch(44.0, 9.0, "2024-06-15", "p0")]
        records = [rec(station=f"S{i}", value=float(i)) for i in range(10)]
        a = match(records, patches).samples
        shuffled = [records[i] for i in rng.permutation(10)]
        b = match(shuffled, patches).samples
        assert {(s.station_id, s.target) for s in a} == {
            (s.station_id, s.target) for s in b
        }


class TestLocateWindow:
    def test_center_maps_to_center_window(self):
        georef = GeoRef(44.0, 9.0, dt.date(2024, 6, 15))
        assert locate_window(georef, 4.75, 44.0, 9.0) == (12, 12)

    def test_margin_clips_to_edge_window(self):
        georef = GeoRef(44.0, 9.0, dt.date(2024, 6, 15))
        m_lat, _ = meters_per_degree(44.0)
        # 600 m south: row pixel 254, inside the dropped 6 px margin
        lat = 44.0 - 600.0 / m_lat
        assert locate_window(georef, 4.75, lat, 9.0) == (24, 12)

    def test_outside_footprint_is_none(self):
        georef = GeoRef(44.0, 9.0, dt.date(2024, 6, 15))
        m_lat, _ = meters_per_degree(44.0)
        assert locate_window(georef, 4.75, 44.0 + 700.0 / m_lat, 9.0) is None


class TestSplit:
    def _samples(self, n):
        return [
            Sample(features=RNG.uniform(0, 1, 7), target=float(i),
                   parameter=TURBIDITY, patch_id="p", window=(0, 0),
                   station_id=f"S{i}", date=dt.date(2024, 6, 15))
            for i in range(n)
        ]

    def test_100_samples_split_55_20_25(self):
        out = split(self._samples(100), SplitSpec(seed=0))
        assert (len(out.train), len(out.test), len(out.val)) == (55, 20, 25)

    def test_single_sample_goes_to_train(self):
        out = split(self._samples(1), SplitSpec(seed=0))
        assert (len(out.train), len(out.test), len(out.val)) == (1, 0, 0)

    def test_same_seed_identical(self):
        samples = self._samples(37)
        a = split(samples, SplitSpec(seed=5))
        b = split(samples, SplitSpec(seed=5))
        assert [s.target for s in a.train] == [s.target for s in b.train]
        assert [s.target for s in a.val] == [s.target for s in b.val]

    def test_partition_exact(self):
        for n in (1, 10, 37, 100, 1001):
            samples = self._samples(n)
            out = split(samples, SplitSpec(seed=3))
            ids = [id(s) for s in out.train + out.test + out.val]
            assert len(ids) == n and len(set(ids)) == n
            assert set(ids) == {id(s) for s in samples}


class TestNormalize:
    def _samples(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return [
            Sample(features=rng.uniform(0, 1, 7) * 10, target=float(rng.uniform(1, 40)),
                   parameter=TURBIDITY, patch_id="p", window=(0, 0),
                   station_id=f"S{i}", date=dt.date(2024, 6, 15))
            for i in range(n)
        ]

    def test_train_stats_standardize(self):
        out, stats = normalize(self._samples(500))
        X, y = as_arrays(out)
        assert np.abs(X.mean(axis=0)).max() < 1e-9
        assert np.abs(X.std(axis=0) - 1).max() < 1e-9
        assert abs(y.mean()) < 1e-9 and abs(y.std() - 1) < 1e-9

    def test_stored_stats_applied_verbatim(self):
        _, stats = normalize(self._samples(100))
        c = Sample(features=np.full(7, 0.5), target=7.0, parameter=TURBIDITY,
                   patch_id="p", window=(0, 0), station_id="S",
                   date=dt.date(2024, 6, 15))
        out, _ = normalize([c], stats)
        expected = (0.5 - stats.feature_mean) / stats.feature_std
        assert np.allclose(out[0].features, expected)
        assert out[0].target == pytest.approx((7.0 - stats.target_mean)
                                              / stats.target_std)

    def test_target_roundtrip(self):
        _, stats = normalize(self._samples(100))
        t = np.linspace(0.1, 40, 50)
        back = stats.denormalize_target(stats.normalize_target(t))
        assert np.abs(back - t).max() < 1e-7

    def test_constant_feature_gets_unit_std(self):
        samples = self._samples(50)
        for s in samples:
            s.features[3] = 2.0
        out, stats = normalize(samples)
        assert stats.feature_std[3] == 1.0
        assert all(s.features[3] == 0.0 for s in out)


class TestSampleStore:
    def test_smp1_roundtrip(self, tmp_path):
        spec = SceneSpec(width=256, height=256)
        scene, truth = generate_synthetic_scene(spec, 6)
        samples = samples_from_scene(scene, truth, TURBIDITY)[:40]
        samples += samples_from_scene(scene, truth, PH)[:10]
        _, stats = normalize(samples[:40])
        path = save_samples(tmp_path / "s.bin", samples, stats,
                            provenance={"source": "test"})
        back, back_stats, manifest = load_samples(path)
        assert len(back) == 50
        for a, b in zip(samples, back):
            assert np.array_equal(a.features, b.features)
            assert a.target == b.target
            assert a.parameter == b.parameter
            assert a.window == b.window
            assert a.date == b.date
        assert np.array_equal(back_stats.feature_mean, stats.feature_mean)
        assert manifest["provenance"]["source"] == "test"

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_store_round_trips_and_every_truncation_is_refused(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        bands = hnp.arrays(np.float64, 7, elements=finite)
        samples = data.draw(st.lists(st.builds(
            Sample, features=bands, target=finite,
            parameter=st.sampled_from([TURBIDITY, PH]), patch_id=st.text(max_size=6),
            window=st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1)),
            station_id=st.text(max_size=6), date=st.dates()), max_size=3),
            label="samples")
        stats = data.draw(st.none() | st.builds(NormStats, bands, bands, finite, finite),
                          label="stats")
        provenance = data.draw(st.dictionaries(
            st.text(max_size=6), st.integers() | st.text(max_size=6), max_size=3),
            label="provenance")
        with tempfile.TemporaryDirectory() as d:
            path = save_samples(Path(d) / "s.smp1", samples, stats, provenance)
            blob = path.read_bytes()
            back, back_stats, manifest = load_samples(path)
            for n in reversed(range(len(blob))):  # every proper prefix
                os.truncate(path, n)
                with pytest.raises(FormatError, match=str(path)):
                    load_samples(path)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            assert b.features.tobytes() == a.features.tobytes()
            assert (b.target, b.parameter, b.patch_id, b.window, b.station_id,
                    b.date) == (a.target, a.parameter, a.patch_id, a.window,
                                a.station_id, a.date)
        if stats is None:
            assert back_stats is None
        else:
            assert back_stats.to_json() == stats.to_json()
        assert manifest["provenance"] == provenance

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_samples(p)

    def test_cross_module_consistency(self):
        # every sample's features equal window_average at its window index
        spec = SceneSpec(width=256, height=256)
        scene, truth = generate_synthetic_scene(spec, 12)
        samples = samples_from_scene(scene, truth, PH)
        avg = window_average(scene, 10).data
        for s in samples[::37]:
            r, c = s.window
            assert np.array_equal(s.features, avg[:, r, c])
