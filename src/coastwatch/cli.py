"""Batch command-line surface for the monitoring pipeline.

Commands compose through the documented file formats (PAT1 rasters, SMP1
sample stores, MDL1/CNN1 models, JSON-lines alerts) and never mutate their
inputs; every command exits nonzero on error, and invalid input (a malformed
file, policy, config, command line or option value) exits 2 with a one-line
message. The commands that draw random numbers (simulate, train, transfer,
quantize, bench) take ``--seed``. Each binary format is described in the
module that writes it; all four share the ``_container`` framing.

``infer`` and ``alert`` are the library's scene path split at the map
files: ``infer`` runs ``alerting.infer_scene`` and writes its maps and their
index; ``alert`` reads them back and runs ``alerting.alert_scene``, the two
steps ``alerting.run_scene`` composes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import alerting, convnet, dataset, mlp, quantbench, raster, sensor
from .errors import CoastwatchError, SchemaError, check_document

# not an option: the benchmark reads the fraction here
INVALID_CLOUD_FRACTION = alerting.CLOUD_INVALID_FRACTION
PARAM_ALIASES = {
    "turbidity": sensor.TURBIDITY, "turbidity_ntu": sensor.TURBIDITY,
    sensor.TURBIDITY: sensor.TURBIDITY,
    "ph": sensor.PH, sensor.PH: sensor.PH,
}


def _parameter(name: str) -> str:
    try:
        return PARAM_ALIASES[name.lower() if name != "pH" else name]
    except KeyError:
        raise CoastwatchError(f"unknown parameter {name!r}") from None


def _at_least_one(value: int, flag: str) -> int:
    if value < 1:
        raise CoastwatchError(f"{flag} must be >= 1, got {value}")
    return value


def _georef(path: Path, manifest: dict) -> raster.GeoRef:
    georef = raster.sidecar_georef(manifest)
    if georef is None:
        raise CoastwatchError(f"{path}: PAT1 manifest lacks a georef")
    return georef


def _chip_paths(directory: Path, stem: str) -> list[Path]:
    paths = sorted(directory.glob(f"{stem}_*.pat1"))
    if not paths:
        raise CoastwatchError(f"no {stem}_*.pat1 files in {directory}")
    return paths


def _load_patches(directory: Path) -> list[raster.Patch]:
    patches = []
    for path in _chip_paths(directory, "chip"):
        stack, manifest = raster.read_pat1(path)
        patches.append(raster.Patch(stack, _georef(path, manifest), patch_id=path.stem))
    return patches


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    spec_doc = json.loads(Path(args.spec).read_text())
    spec = sensor.SceneSpec.from_json(spec_doc)
    ctx = sensor.SolarContext.from_json(spec_doc.get("solar", {}))
    cfg = sensor.DegradeConfig.from_json(spec_doc.get("degrade", {}))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scene, truth = sensor.generate_synthetic_scene(spec, args.seed)
    georef = spec.georef()
    raster.write_pat1(out / "scene.pat1", scene, georef=georef)

    tiles = sensor.simulate_l1c(scene, ctx, cfg, seed=args.seed + 1,
                                scene_georef=georef)

    chips_dir = out / "chips"
    chips_dir.mkdir(exist_ok=True)
    for patch, placement in zip(tiles.patches, tiles.index.placements):
        extra = {
            "patch_id": patch.patch_id,
            "placement": list(placement),
            "flagged_values": patch.flagged_values,
        }
        raster.write_pat1(chips_dir / f"{patch.patch_id}.pat1", patch.raster,
                          georef=patch.georef, extra=extra)

    manifest = {
        "scene": "scene.pat1",
        "chips": len(tiles.patches),
        "margins": [tiles.margin_rows, tiles.margin_cols],
        "noise_std": truth.noise_std,
        "noise_floor": truth.noise_floor,
        "mixing_offsets": truth.mixing_offsets.tolist(),
        "mixing_matrix": truth.mixing_matrix.tolist(),
        "seed": args.seed,
    }
    (out / "truth.json").write_text(json.dumps(manifest, indent=2))
    print(f"simulate: {len(tiles.patches)} chips -> {chips_dir} "
          f"(margins {tiles.margin_rows}x{tiles.margin_cols} px)")
    return 0


def cmd_build_dataset(args) -> int:
    ingest = dataset.ingest_records(args.records)
    surface = dataset.select_surface(ingest.records)
    patches = _load_patches(Path(args.patches))
    result = dataset.match(surface, patches, tolerance_days=args.tolerance_days)
    if not result.samples:
        raise CoastwatchError("no record matched any patch")
    dataset.save_samples(
        args.out, result.samples,
        provenance={
            "records": str(args.records),
            "patches": str(args.patches),
            "tolerance_days": args.tolerance_days,
            "rejected_rows": len(ingest.rejected),
            "duplicates_removed": ingest.duplicates_removed,
            "unmatched_records": len(result.unmatched),
        },
    )
    print(f"build-dataset: {len(result.samples)} samples "
          f"({len(result.unmatched)} unmatched, {len(ingest.rejected)} rejected "
          f"rows, {ingest.duplicates_removed} duplicates) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    config = mlp.TrainConfig.from_json(doc)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    samples, _, _ = dataset.load_samples(args.samples)
    parameter = _parameter(args.parameter)
    samples = [s for s in samples if s.parameter == parameter]
    if not samples:
        raise CoastwatchError(f"no {parameter} samples in {args.samples}")

    splits = dataset.split(samples, dataset.SplitSpec(seed=config.seed))
    train_n, stats = dataset.normalize(splits.train)
    val_n, _ = dataset.normalize(splits.val, stats)
    test_n, _ = dataset.normalize(splits.test, stats)
    params, history = mlp.train(train_n, config, val_n)
    val_report = mlp.evaluate(params, val_n, stats, split="val")
    test_report = mlp.evaluate(params, test_n, stats, split="test")

    training_meta = {
        "samples": str(args.samples),
        "n_train": len(train_n), "n_test": len(test_n), "n_val": len(val_n),
        "epochs_run": history["epochs_run"],
        "stopped_early": history["stopped_early"],
        "val_rmse": val_report.rmse, "val_mae": val_report.mae,
        "test_rmse": test_report.rmse, "test_mae": test_report.mae,
        "seed": config.seed, "dropout_p": config.dropout_p,
    }
    mlp.save_mdl1(args.out, params, stats, parameter, training_meta)
    Path(args.out).with_suffix(".history.json").write_text(
        json.dumps(history, indent=2)
    )
    print(f"train: {parameter} {history['epochs_run']} epochs, "
          f"val RMSE {val_report.rmse:.4f} MAE {val_report.mae:.4f}, "
          f"test RMSE {test_report.rmse:.4f} MAE {test_report.mae:.4f} -> {args.out}")
    return 0


def cmd_transfer(args) -> int:
    # a certificate over no patch certifies nothing
    n_check = _at_least_one(args.check_patches, "--check-patches")
    params, stats, manifest = mlp.load_mdl1(args.model)
    net = convnet.fc_to_cnn(params, stats, manifest["parameter"])
    patches = raster.random_patches(n_check, seed=args.seed)
    report = convnet.verify_equivalence(params, stats, net, patches, tol=args.tol)
    if not report.passed:
        raise CoastwatchError(
            f"transfer equivalence failed: max deviation "
            f"{report.max_abs_deviation:.3e} > tol {report.tol:.1e} at "
            f"patch {report.worst[0]} cell {report.worst[1:]}; refusing to emit"
        )
    convnet.save_cnn1(args.out, net, report)
    print(f"transfer: equivalence max {report.max_abs_deviation:.3e} "
          f"(served f32 {report.served_max_abs_deviation:.3e}) over "
          f"{report.n_patches} patches -> {args.out}")
    return 0


def cmd_infer(args) -> int:
    net, _ = convnet.load_cnn1(args.net)
    scene, manifest = raster.read_pat1(args.scene)
    georef = _georef(Path(args.scene), manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scene_id = Path(args.scene).stem

    cloud = _load_cloud_plane(Path(args.masks)) if args.masks else None
    tiles, maps = alerting.infer_scene(scene, net, georef, cloud, scene_id)

    grids = []
    for patch, placement, cmap in zip(tiles.patches, tiles.index.placements, maps):
        grids.append(cmap.values.astype(np.float32))
        raster.write_pat1(
            out / f"map_{patch.patch_id}.pat1",
            raster.BandStack.from_array(
                grids[-1][None], gsd=cmap.window_gsd, band_ids=(net.parameter,),
            ),
            georef=raster.GeoRef(cmap.georef.center_lat, cmap.georef.center_lon,
                                 cmap.window_gsd, cmap.georef.acquisition_date),
            extra={"patch_id": patch.patch_id, "placement": list(placement)},
        )
    mosaic = raster.mosaic(grids, tiles.index, band_ids=(net.parameter,))
    raster.write_pat1(out / "mosaic.pat1", mosaic, georef=georef)
    index_doc = {
        "scene_id": scene_id,
        "parameter": net.parameter,
        "scene_width": tiles.index.scene_width,
        "scene_height": tiles.index.scene_height,
        "patch_size": tiles.index.patch_size,
        "gsd": tiles.index.gsd,
        "placements": [list(p) for p in tiles.index.placements],
        "maps": [f"map_{p.patch_id}.pat1" for p in tiles.patches],
    }
    (out / "index.json").write_text(json.dumps(index_doc, indent=2))
    print(f"infer: {len(tiles.patches)} maps + mosaic "
          f"{mosaic.height}x{mosaic.width} -> {out}")
    return 0


def _load_cloud_plane(path: Path) -> np.ndarray:
    """The cloud plane (band 0) of a 1-band (cloud) or 3-band mask PAT1."""
    stack, _ = raster.read_pat1(path)
    if stack.bands not in (1, 3):
        raise CoastwatchError("mask raster must have 1 (cloud) or 3 bands")
    return stack.data[0].astype(bool)


# the map index infer writes and alert reads
_MAP_INDEX_KINDS = {
    "scene_id": "a string", "parameter": "a string", "scene_width": "an integer",
    "scene_height": "an integer", "patch_size": "an integer", "gsd": "a number",
    "placements": "a list of integer lists", "maps": "a list of strings",
}


def _load_map_index(path: Path) -> dict:
    doc = json.loads(path.read_text())
    what = f"map index {path}"
    check_document(doc, what, _MAP_INDEX_KINDS, _MAP_INDEX_KINDS)
    if any(len(p) != 2 for p in doc["placements"]):
        raise SchemaError(f"{what} placements must be [row, col] pairs")
    return doc


def cmd_alert(args) -> int:
    policy = alerting.ThresholdPolicy.load(args.policy)
    maps_dir = Path(args.maps)
    index_doc = _load_map_index(maps_dir / "index.json")
    if policy.parameter != index_doc["parameter"]:
        raise CoastwatchError(
            f"maps are {index_doc['parameter']!r}, policy is "
            f"{policy.parameter!r}"
        )
    index = raster.TileIndex(
        scene_width=index_doc["scene_width"],
        scene_height=index_doc["scene_height"],
        placements=tuple(tuple(p) for p in index_doc["placements"]),
        patch_size=index_doc["patch_size"],
        gsd=index_doc["gsd"],
    )
    maps = []
    for name in index_doc["maps"]:
        stack, manifest = raster.read_pat1(maps_dir / name)
        georef = _georef(maps_dir / name, manifest)
        maps.append(convnet.ContaminantMap(
            values=stack.data[0],
            parameter=index_doc["parameter"],
            georef=raster.GeoRef(georef.center_lat, georef.center_lon,
                                 index.gsd, georef.acquisition_date),
        ))
    result = alerting.alert_scene(maps, index, policy, index_doc["scene_id"])

    with open(args.out, "wb") as fh:
        for msg in result.messages:
            fh.write(alerting.serialize_alert(msg) + b"\n")
    if args.mosaic:
        raster.write_pat1(args.mosaic, result.mosaic)
    cells = sum(a.exceed_count for a in result.alert_maps)
    print(f"alert: {len(result.messages)} messages ({cells} "
          f"alerting cells) -> {args.out}")
    return 0


def cmd_quantize(args) -> int:
    n_check = _at_least_one(args.check_patches, "--check-patches")
    net, _ = convnet.load_cnn1(args.net)
    net16 = quantbench.quantize_fp16(net)
    patches = raster.random_patches(n_check, seed=args.seed)
    report = quantbench.compare_quantized(net, net16, patches,
                                          threshold=args.threshold)
    convnet.save_cnn1(args.out, net16)
    if args.report:
        quantbench.write_report(args.report, report)
    status = "ok" if report.passed else "DEVIATION ABOVE THRESHOLD"
    print(f"quantize: {report.model_bytes_fp32} -> {report.model_bytes_fp16} "
          f"bytes, max map deviation {report.max_map_deviation:.3e} ({status}) "
          f"-> {args.out}")
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    reps = _at_least_one(args.reps, "--reps")
    net, _ = convnet.load_cnn1(args.net)
    if args.patches:
        patches = _load_patches(Path(args.patches))
    else:
        patches = raster.random_patches(4, seed=args.seed)
    report = quantbench.bench(net, patches, warmup=args.warmup, reps=reps)
    if args.report:
        quantbench.write_report(args.report, report)
    print(f"bench: median {report.ms_per_inference:.1f} ms/inference "
          f"(p95 {report.ms_p95:.1f} ms, {report.fps:.1f} FPS) on "
          f"{report.hardware_descriptor}; mission reference "
          f"{report.reference['ms_per_inference']} ms / {report.reference['fps']} FPS")
    return 0


def cmd_plot(args) -> int:
    stack, _ = raster.read_pat1(args.map)
    if not 0 <= args.band < stack.bands:
        raise CoastwatchError(
            f"--band {args.band} outside the {stack.bands} bands of {args.map}")
    plane = stack.data[args.band].astype(np.float64)
    if stack.data.dtype == np.uint8:
        img = np.where(plane > 0, 255, 0).astype(np.uint8)
    else:
        finite = np.isfinite(plane)
        lo = plane[finite].min() if finite.any() else 0.0
        hi = plane[finite].max() if finite.any() else 0.0
        span = hi - lo
        scaled = (plane - lo) / span * 255.0 if span > 0 else np.zeros_like(plane)
        img = np.where(finite, scaled, 0.0).round().astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    Path(args.out).write_bytes(header + img.tobytes())
    print(f"plot: {img.shape[1]}x{img.shape[0]} PGM -> {args.out}")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A bad command line is invalid input too: one line, exit 2."""

    def error(self, message):
        raise CoastwatchError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coastwatch",
        description="Coastal water-contaminant monitoring pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthetic scene + simulated product chips")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("build-dataset", help="match in-situ records to chips")
    p.add_argument("--records", required=True, help="in-situ CSV")
    p.add_argument("--patches", required=True, help="chip directory")
    p.add_argument("--tolerance-days", type=int, default=3)
    p.add_argument("--out", required=True, help="output SMP1 sample store")
    p.set_defaults(fn=cmd_build_dataset)

    p = sub.add_parser("train", help="train the regression network")
    p.add_argument("--samples", required=True, help="SMP1 sample store")
    p.add_argument("--parameter", required=True, help="ph or turbidity")
    p.add_argument("--config", help="TrainConfig JSON")
    p.add_argument("--out", required=True, help="output MDL1 model")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("transfer", help="convert MDL1 into a deployed CNN1")
    p.add_argument("--model", required=True, help="MDL1 model")
    p.add_argument("--out", required=True, help="output CNN1 network")
    p.add_argument("--check-patches", type=int, default=20,
                   help="random patches for the equivalence check")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("infer", help="dense maps for a scene")
    p.add_argument("--net", required=True, help="CNN1 network")
    p.add_argument("--scene", required=True, help="scene PAT1")
    p.add_argument("--out", required=True, help="output map directory")
    p.add_argument("--masks", help="optional mask PAT1 (u8; 1 or 3 bands)")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("alert", help="threshold maps into alert messages")
    p.add_argument("--maps", required=True, help="map directory from infer")
    p.add_argument("--policy", required=True, help="policy JSON")
    p.add_argument("--out", required=True, help="output JSON-lines alerts")
    p.add_argument("--mosaic", help="output u8 mosaic PAT1")
    p.set_defaults(fn=cmd_alert)

    p = sub.add_parser("quantize", help="fp16-quantize a CNN1 network")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="output QuantReport JSON")
    p.add_argument("--check-patches", type=int, default=8)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("bench", help="inference latency benchmark")
    p.add_argument("--net", required=True)
    p.add_argument("--patches", help="chip directory (random patches if omitted)")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--report", help="output BenchReport JSON")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("plot", help="render a map PAT1 as a grayscale PGM")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band", type=int, default=0)
    p.set_defaults(fn=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CoastwatchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
