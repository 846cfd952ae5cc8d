import datetime as dt
import json
import math
import os
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coastwatch.dataset import (
    CONSTANT_STD,
    CSV_COLUMNS,
    InSituRecord,
    NormStats,
    Sample,
    SampleTable,
    SplitSpec,
    as_table,
    ingest_records,
    load_samples,
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
DATE = dt.date(2024, 6, 15)
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
        # the pixel holding the record, the 6 px margin clipped to the edge window
        north, east = p.georef.latlon_offset_m(r.lat, r.lon)
        row_px = p.raster.height / 2 - north / p.raster.gsd
        col_px = p.raster.width / 2 + east / p.raster.gsd
        wr, wc = (min(max(int(px // 10), 0), 24) for px in (row_px, col_px))
        samples.append(Sample(
            features=window_average(p.raster.data, 10)[:, wr, wc],
            target=r.value, parameter=r.parameter, patch_id=p.patch_id,
            window=(wr, wc), station_id=r.station_id,
            date=p.georef.acquisition_date))
    return samples, unmatched


def eager_samples_from_scene(scene, truth, parameter, date=DATE, scene_id="synthetic"):
    """One ``Sample`` per scene window, built as it is read off the grids."""
    feats = window_average(scene.data, 10)
    grid = truth.window_grids[parameter]
    return [Sample(features=feats[:, r, c], target=float(grid[r, c]),
                   parameter=parameter, patch_id=scene_id, window=(r, c),
                   station_id=scene_id, date=date)
            for r in range(grid.shape[0]) for c in range(grid.shape[1])]


def normalize_per_sample(samples, stats=None):
    """``normalize`` one ``Sample`` at a time, each with its own formula."""
    X = np.stack([s.features for s in samples])
    y = np.asarray([s.target for s in samples], dtype=np.float64)
    if stats is None:
        f_std, t_std = X.std(axis=0), float(y.std())
        stats = NormStats(feature_mean=X.mean(axis=0),
                          feature_std=np.where(f_std < CONSTANT_STD, 1.0, f_std),
                          target_mean=float(y.mean()),
                          target_std=t_std if t_std >= CONSTANT_STD else 1.0)
    return [replace(s, features=(s.features - stats.feature_mean) / stats.feature_std,
                    target=float(stats.normalize_target(s.target)))
            for s in samples], stats


def assert_same_sample(got, want):
    """Field for field equal, features to the bit, each field of one type."""
    assert isinstance(got, Sample)
    assert got.features.dtype == np.float64
    assert got.features.tobytes() == want.features.tobytes()
    for f in fields(Sample)[1:]:
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b) and a == b, f.name
    assert all(type(i) is int for i in got.window)


def assert_same_table(got, want):
    """Both tables, column for column of one dtype, the floats to the bit."""
    assert isinstance(got, SampleTable) and isinstance(want, SampleTable)
    for f in fields(SampleTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        same = a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
        assert same, f.name
        assert a.flags.c_contiguous and not a.flags.writeable, f.name


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

    @pytest.mark.parametrize("row", [
        f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},nan,44.0,9.0",
        f"S1,Genova,Punta,150,2024-06-15,nan,{TURBIDITY},99.0,44.0,9.0",
        f"S1,Genova,Punta,150,2024-06-15,inf,{TURBIDITY},99.0,44.0,9.0",
        f"S1,Genova,Punta,nan,2024-06-15,0.5,{TURBIDITY},99.0,44.0,9.0",
        f"S1,Genova,Punta,-inf,2024-06-15,0.5,{TURBIDITY},99.0,44.0,9.0",
    ], ids=["value_nan", "depth_nan", "depth_inf", "distance_nan", "distance_minus_inf"])
    def test_non_finite_number_rejected(self, tmp_path, row):
        """A NaN depth would win no depth comparison and lose none, so
        ``select_surface`` could keep it as the surface value."""
        good = f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},3.0,44.0,9.0"
        result = ingest_records(write_csv(tmp_path / "in.csv", [row, good]))
        assert [r.value for r in select_surface(result.records)] == [3.0]
        assert [i for i, _ in result.rejected] == [1]

    def test_unparseable_value_rejected_with_row(self, tmp_path):
        csv = write_csv(tmp_path / "in.csv", [
            f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},abc,44.0,9.0",
        ])
        result = ingest_records(csv)
        assert not result.records
        assert result.rejected[0][0] == 1

    @pytest.mark.parametrize("row, fields", [
        (f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY}", 7),
        (f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},3.2,44.0", 9),
        (f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},3.2,44.0,9.0,x", 11),
        (f"S1,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},3.2,44.0,9.0,,", 12),
    ], ids=["seven_fields", "no_lon", "one_extra", "two_empty_extra"])
    def test_row_of_another_width_than_the_header_rejected(self, tmp_path, row,
                                                            fields):
        """A short row would reach float(None), and a long row's surplus
        would pass unseen; both are rejected with their field count."""
        good = f"S2,Genova,Punta,150,2024-06-15,0.5,{TURBIDITY},3.2,44.0,9.0"
        result = ingest_records(write_csv(tmp_path / "in.csv", [good, row, good]))
        assert [r.station_id for r in result.records] == ["S2"]
        assert result.rejected == [(2, f"{fields} fields, the header has 10")]
        assert result.duplicates_removed == 1

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

    def test_the_file_is_read_as_utf8(self, tmp_path):
        row = f"S1,Citt\u00e0,Cala d\u2019Or,150,2024-06-15,0.5,{TURBIDITY},3.2,44.0,9.0"
        path = tmp_path / "in.csv"
        path.write_bytes(f"{HEADER}\n{row}\n".encode("utf-8"))
        (record,) = ingest_records(path).records
        assert (record.municipality, record.location_name) == ("Citt\u00e0",
                                                               "Cala d\u2019Or")
        latin1 = row.replace("\u2019", "'")
        path.write_bytes(f"{HEADER}\n{latin1}\n".encode("latin-1"))
        with pytest.raises(SchemaError, match=f"{path}: not UTF-8 text"):
            ingest_records(path)

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

    def test_center_record_takes_the_center_window(self):
        patch = make_patch(44.0, 9.0, "2024-06-15", "p0")
        assert match([rec(lat=44.0, lon=9.0)], [patch]).samples[0].window == (12, 12)

    def test_margin_record_takes_the_edge_window(self):
        m_lat, m_lon = meters_per_degree(44.0)
        patch = make_patch(44.0, 9.0, "2024-06-15", "p0")
        # 600 m south or east: pixel 254, inside the dropped 6 px margin
        records = [rec(lat=44.0 - 600.0 / m_lat),
                   rec(station="S2", lon=9.0 + 600.0 / m_lon)]
        assert match(records, [patch]).samples.window.tolist() == [[24, 12], [12, 24]]

    def test_record_just_outside_footprint_unmatched(self):
        # 700 m north is past the 608 m half extent
        m_lat, _ = meters_per_degree(44.0)
        patch = make_patch(44.0, 9.0, "2024-06-15", "p0")
        result = match([rec(lat=44.0 + 700.0 / m_lat)], [patch])
        assert not result.samples and len(result.unmatched) == 1

    def test_features_are_window_average_of_patch(self):
        patch = make_patch(44.0, 9.0, "2024-06-15", "p0", seed=9)
        result = match([rec()], [patch])
        sample = result.samples[0]
        wr, wc = sample.window
        expected = window_average(patch.raster.data, 10)[:, wr, wc]
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


class TestSampleTable:
    SPEC = SceneSpec(width=256, height=256)

    def test_samples_from_scene_builds_no_sample_until_one_is_read(self, monkeypatch):
        scene, truth = generate_synthetic_scene(self.SPEC, 4)
        built = []
        post_init = Sample.__post_init__

        def counted(sample):
            built.append(sample.window)
            post_init(sample)

        monkeypatch.setattr(Sample, "__post_init__", counted)
        table = samples_from_scene(scene, truth, TURBIDITY)
        n = len(table)
        assert n == 25 * 25 and table and built == []
        assert len(table.take(np.arange(5))) == 5 and built == []
        assert table[np.int64(30)].window == (1, 5) and built == [(1, 5)]
        assert table[-1].window == (24, 24) and len(built) == 2
        listed = []
        listed += table[:3]
        assert [s.window for s in listed] == [(0, 0), (0, 1), (0, 2)]
        assert len(built) == 5
        assert sum(1 for _ in table) == n and len(built) == 5 + n

    def test_every_use_reads_what_the_eager_list_holds(self):
        scene, truth = generate_synthetic_scene(self.SPEC, 5)
        date = dt.date(2023, 9, 1)
        table = samples_from_scene(scene, truth, PH, date=date, scene_id="s5")
        eager = eager_samples_from_scene(scene, truth, PH, date=date, scene_id="s5")
        assert len(table) == len(eager) and bool(table)
        for got, want in zip(table, eager):
            assert_same_sample(got, want)
        for i in (np.int32(7), np.int64(-3), 600):
            assert_same_sample(table[i], eager[i])
        for got, want in zip(table[10:40:7], eager[10:40:7], strict=True):
            assert_same_sample(got, want)
        for got, want in zip(table.take([3, 0, 3]), [eager[3], eager[0], eager[3]],
                             strict=True):
            assert_same_sample(got, want)
        for got, want in zip(as_table(eager), eager, strict=True):
            assert_same_sample(got, want)
        with pytest.raises(IndexError):
            table[len(table)]
        assert not table[:0] and not table.take([]) and not as_table([])

    def test_a_slice_is_the_table_take_gives_of_its_positions(self):
        scene, truth = generate_synthetic_scene(self.SPEC, 8)
        table = samples_from_scene(scene, truth, PH)
        n = len(table)
        for s in (slice(None), slice(10, 40, 7), slice(-5, None), slice(None, None, -3),
                  slice(n, n + 5), slice(3, 3)):
            assert_same_table(table[s], table.take(np.arange(n)[s]))
        assert len(table[10:40:7]) == 5 and len(table[n:]) == 0

    def test_columns_are_read_only_and_a_read_sample_is_its_own(self):
        scene, truth = generate_synthetic_scene(self.SPEC, 6)
        table = samples_from_scene(scene, truth, TURBIDITY)
        for f in fields(SampleTable):
            with pytest.raises(ValueError):
                getattr(table, f.name)[0] = getattr(table, f.name)[1]
        sample = table[0]
        sample.features[0] = -1.0
        assert table.features[0, 0] != -1.0

    def test_non_finite_input_raises_value_error(self):
        scene, truth = generate_synthetic_scene(self.SPEC, 7)
        good = samples_from_scene(scene, truth, TURBIDITY)
        huge = NormStats(np.zeros(7), np.full(7, 1e-320), 0.0, 1.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            normalize(good, huge)
        scene.data[2, 15, 33] = np.nan
        with pytest.raises(ValueError, match="finite"):
            samples_from_scene(scene, truth, TURBIDITY)
        with pytest.raises(ValueError, match="finite"):
            Sample(features=np.full(7, np.inf), target=0.0, parameter=TURBIDITY,
                   patch_id="p", window=(0, 0), station_id="s", date=DATE)

    def test_samples_from_scene_refuses_a_name_outside_the_parameters(self):
        scene, truth = generate_synthetic_scene(self.SPEC, 7)
        with pytest.raises(SchemaError, match="unknown parameter 'chlorophyll'"):
            samples_from_scene(scene, truth, "chlorophyll")

    def test_match_and_load_give_tables(self, tmp_path):
        patch = make_patch(44.0, 9.0, "2024-06-15", "p0", seed=3)
        records = [rec(station=f"S{i}", value=float(i + 1)) for i in range(4)]
        matched = match(records, [patch]).samples
        assert isinstance(matched, SampleTable) and len(matched) == 4
        back, _, _ = load_samples(save_samples(tmp_path / "m.smp1", matched))
        assert isinstance(back, SampleTable)
        for got, want in zip(back, matched, strict=True):
            assert_same_sample(got, want)
        parts = split(back, SplitSpec(seed=1))
        assert all(isinstance(p, SampleTable) for p in
                   (parts.train, parts.test, parts.val))
        assert sorted(s.station_id for p in (parts.train, parts.test, parts.val)
                      for s in p) == [f"S{i}" for i in range(4)]


GOOD_STATS = dict(feature_mean=np.full(7, 0.2), feature_std=np.full(7, 0.05),
                  target_mean=5.0, target_std=2.0)


@pytest.mark.parametrize("field, value, says", [
    ("feature_mean", np.full(3, 0.2), "feature_mean must hold 7 values"),
    ("feature_std", np.full(8, 0.05), "feature_std must hold 7 values"),
    ("feature_mean", np.full((7, 1), 0.2), "feature_mean must hold 7 values"),
    ("feature_mean", np.r_[np.nan, np.full(6, 0.2)], "means must be finite"),
    ("target_mean", math.inf, "means must be finite"),
    ("feature_std", np.r_[np.full(6, 0.05), 0.0], "stds must be finite and > 0"),
    ("feature_std", np.r_[np.full(6, 0.05), np.inf], "stds must be finite and > 0"),
    ("target_std", -2.0, "stds must be finite and > 0"),
    ("target_std", 0.0, "stds must be finite and > 0"),
    ("target_std", math.nan, "stds must be finite and > 0"),
])
def test_norm_stats_hold_a_finite_mean_and_positive_std_per_band_and_target(
        field, value, says):
    with pytest.raises(ValueError, match=f"normalization {says}"):
        NormStats(**{**GOOD_STATS, field: value})


def test_norm_stats_read_from_json_are_the_stats_written():
    stats = NormStats(**GOOD_STATS)
    back = NormStats.from_json(json.loads(json.dumps(stats.to_json())))
    assert back.to_json() == stats.to_json()
    assert back.feature_mean.dtype == back.feature_std.dtype == np.float64


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_normalize_over_the_columns_is_each_samples_formula(data):
    """Reflectance-like features and turbidity-like targets, where every
    result is finite: bit for bit, with computed and with given stats."""
    n = data.draw(st.integers(1, 40), label="n")
    X = data.draw(hnp.arrays(np.float64, (n, 7), elements=st.floats(0.0, 1.2)),
                  label="X")
    y = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 60.0)), label="y")
    samples = [Sample(features=x, target=float(t), parameter=TURBIDITY, patch_id="p",
                      window=(i, 0), station_id=f"S{i}", date=DATE)
               for i, (x, t) in enumerate(zip(X, y))]
    want, stats = normalize_per_sample(samples)
    given_stats = NormStats(stats.feature_mean + 0.01, stats.feature_std * 1.5,
                            stats.target_mean - 1.0, stats.target_std * 0.7)
    want_given, _ = normalize_per_sample(samples, given_stats)
    table = as_table(samples)
    got, got_stats = normalize(table)
    assert got_stats.to_json() == stats.to_json()
    for a, b in zip(got, want, strict=True):
        assert_same_sample(a, b)
    got, _ = normalize(table, given_stats)
    for a, b in zip(got, want_given, strict=True):
        assert_same_sample(a, b)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_standardizing_commutes_with_the_window_mean(data):
    """(window_average(P) - mu) / sigma against window_average((P - mu) / sigma).

    Equal in exact arithmetic. Each standardized pixel carries a few ulp of
    rounding and a window mean sums 100 of them, so the two sides differ by
    at most ~1e-13 of the scale (max|P| + |mu|) / sigma: the test allows a
    relative tolerance of 1e-12 of that scale.
    """
    h, w = data.draw(st.integers(10, 34), label="h"), data.draw(st.integers(10, 34),
                                                                label="w")
    P = data.draw(hnp.arrays(np.float64, (7, h, w),
                             elements=st.floats(-1e3, 1e3)), label="P")
    mu = data.draw(hnp.arrays(np.float64, (7, 1, 1), elements=st.floats(-1e3, 1e3)),
                   label="mu")
    sigma = data.draw(hnp.arrays(np.float64, (7, 1, 1), elements=st.floats(1e-3, 1e3)),
                      label="sigma")
    means_then = (window_average(P, 10) - mu) / sigma
    then_means = window_average((P - mu) / sigma, 10)
    scale = (np.abs(P).max(axis=(1, 2), keepdims=True) + np.abs(mu)) / sigma
    assert np.all(np.abs(means_then - then_means) <= 1e-12 * scale)


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

    def test_a_list_splits_as_its_table_does(self):
        """A list of ``Sample`` enters at ``split``, the one gatherer."""
        samples = self._samples(37)
        for seed in (0, 5):
            a = split(samples, SplitSpec(seed=seed))
            b = split(as_table(samples), SplitSpec(seed=seed))
            for got, want in zip((a.train, a.test, a.val), (b.train, b.test, b.val)):
                assert_same_table(got, want)

    def test_same_seed_identical(self):
        samples = self._samples(37)
        a = split(samples, SplitSpec(seed=5))
        b = split(samples, SplitSpec(seed=5))
        assert [s.target for s in a.train] == [s.target for s in b.train]
        assert [s.target for s in a.val] == [s.target for s in b.val]

    def test_partition_exact(self):
        # each sample's target is its position, so the targets name the rows
        for n in (1, 10, 37, 100, 1001):
            samples = self._samples(n)
            out = split(samples, SplitSpec(seed=3))
            rows = np.concatenate([p.target for p in (out.train, out.test, out.val)])
            assert sorted(rows) == list(range(n))
            for part in (out.train, out.test, out.val):
                assert isinstance(part, SampleTable)
                for got in part:
                    want = samples[int(got.target)]
                    assert np.array_equal(got.features, want.features)
                    assert got.station_id == want.station_id


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
        out, stats = normalize(as_table(self._samples(500)))
        X, y = out.features, out.target
        assert np.abs(X.mean(axis=0)).max() < 1e-9
        assert np.abs(X.std(axis=0) - 1).max() < 1e-9
        assert abs(y.mean()) < 1e-9 and abs(y.std() - 1) < 1e-9

    def test_stored_stats_applied_verbatim(self):
        _, stats = normalize(as_table(self._samples(100)))
        c = Sample(features=np.full(7, 0.5), target=7.0, parameter=TURBIDITY,
                   patch_id="p", window=(0, 0), station_id="S",
                   date=dt.date(2024, 6, 15))
        out, _ = normalize(as_table([c]), stats)
        expected = (0.5 - stats.feature_mean) / stats.feature_std
        assert np.allclose(out[0].features, expected)
        assert out[0].target == pytest.approx((7.0 - stats.target_mean)
                                              / stats.target_std)

    def test_target_roundtrip(self):
        _, stats = normalize(as_table(self._samples(100)))
        t = np.linspace(0.1, 40, 50)
        back = stats.denormalize_target(stats.normalize_target(t))
        assert np.abs(back - t).max() < 1e-7

    def test_constant_feature_gets_unit_std(self):
        samples = self._samples(50)
        for s in samples:
            s.features[3] = 2.0
        out, stats = normalize(as_table(samples))
        assert stats.feature_std[3] == 1.0
        assert all(s.features[3] == 0.0 for s in out)


class TestSampleStore:
    def test_smp1_roundtrip(self, tmp_path):
        spec = SceneSpec(width=256, height=256)
        scene, truth = generate_synthetic_scene(spec, 6)
        samples = as_table([*samples_from_scene(scene, truth, TURBIDITY)[:40],
                            *samples_from_scene(scene, truth, PH)[:10]])
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
        # NormStats takes a finite mean and a finite std > 0 only
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        stds = hnp.arrays(np.float64, 7, elements=positive)
        stats = data.draw(st.none() | st.builds(NormStats, bands, stds, finite, positive),
                          label="stats")
        provenance = data.draw(st.dictionaries(
            st.text(max_size=6), st.integers() | st.text(max_size=6), max_size=3),
            label="provenance")
        with tempfile.TemporaryDirectory() as d:
            path = save_samples(Path(d) / "s.smp1", as_table(samples), stats,
                                provenance)
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
        # every row read off either table is the eagerly built sample
        for table in (back, as_table(samples)):
            for got, want in zip(table, samples, strict=True):
                assert_same_sample(got, want)
        # normalize over the columns is each sample's own formula, bit for bit
        with np.errstate(all="ignore"):
            try:
                want, want_stats = normalize_per_sample(samples, stats)
            except ValueError:  # no samples, or a non-finite result
                with pytest.raises(ValueError):
                    normalize(back, stats)
            else:
                got, got_stats = normalize(back, stats)
                assert got_stats.to_json() == want_stats.to_json()
                for a, b in zip(got, want, strict=True):
                    assert_same_sample(a, b)

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
        avg = window_average(scene.data, 10)
        for s in samples[::37]:
            r, c = s.window
            assert np.array_equal(s.features, avg[:, r, c])
