"""Batch command-line surface for the monitoring pipeline.

Commands compose through the documented file formats (PAT1 rasters, SMP1
sample stores, MDL1/CNN1 models, JSON-lines alerts) and never mutate their
inputs; every command exits nonzero on error, and invalid input (a malformed
file, policy, config, command line or option value) exits 2 with a one-line
message. Only ``simulate`` takes ``--seed``; ``train`` reads its seed from
the ``--config`` document. ``transfer``, ``quantize`` and ``bench`` without
``--patches`` all read the first patches of one stream,
``convnet.check_patches`` (drawn from ``convnet.CHECK_SEED`` in the model's
own distribution, from the normalization its MDL1 or CNN1 records); a check
draws its patches one at a time as it reads them. ``transfer`` certifies the
one route ``infer`` serves (float64 standardization, float32 1x1 stack,
float64 de-standardization to a float32 map) against the FC route, and
``quantize`` the fp16 network's served route against it. Each gate and check
size is one library constant: the station match's window is
``dataset.MATCH_TOLERANCE_DAYS``, the transfer certificate's
``convnet.EQUIVALENCE_TOL`` over ``convnet.EQUIVALENCE_CHECK_PATCHES``
patches, the fp16 gate's ``quantbench.FP16_THRESHOLD`` over
``quantbench.FP16_CHECK_PATCHES`` patches, and ``bench`` times
``quantbench.BENCH_REPS`` runs after ``quantbench.BENCH_WARMUP``, cycling
``quantbench.BENCH_PATCHES`` check patches without ``--patches``.
``quantize`` writes its network and report either way, then exits 1 when the
fp16 gate fails. Each binary format is described in the module that writes
it; all four share the ``_container`` framing, whose ``load`` checks every
manifest key a loader reads with ``errors.read_document`` and carries any
undeclared key as parsed. One function, ``_read_json``, reads every JSON
document file (spec, train config, policy, map index) as UTF-8, and a file it
cannot decode or parse is invalid input named in the message. So every JSON
value a command reads is read by its declared kind; only the in-situ CSV,
UTF-8 too, is parsed by hand. Every document a command writes, its two
reports included, is ``_write_json``'s.

``simulate`` writes, byte for byte, what ``raster.write_pat1`` writes of
``sensor.generate_synthetic_scene``'s scene and of ``sensor.simulate_l1c``'s
chips, but runs the chain band by band: ``sensor.SceneSource`` makes each
scene band in one float64 plane, ``raster.write_pat1_bands`` writes it into
``scene.pat1`` and hands it on, ``sensor.product_bands`` runs the chain in
that plane, and the band is rounded into the float32 product the chips are
cut from. So it holds the two truth field planes until the last band is
mixed, one float64 band (two at another pitch) and the float32 product,
never the float64 scene; each chip's ``flagged_values`` is counted on the
float64 band. ``simulate`` owns
the ``chips`` directory of its ``--out``: before it writes a chip it removes
every ``chip_*.pat1`` there, so a run into an earlier run's directory leaves
only the chips its own ``truth.json`` counts, and ``build-dataset`` reads
one scene. Other files there are left as they are.

``infer`` and ``alert`` are the library's scene path split at the map
files: ``infer`` runs ``alerting.infer_scene`` and writes its maps and their
index; ``alert`` reads them back and runs ``alerting.alert_scene``, the two
steps ``alerting.run_scene`` composes. Each map PAT1 carries its own
placement: its manifest holds the patch's georef and, in ``extra``, its
``patch_id`` and ``placement`` (the patch's ``[row, col]`` pixel origin in
the scene); the map raster's pitch is the window's. ``maps/index.json``
holds what the maps share: ``scene_id``, ``parameter``, ``scene_width``,
``scene_height``, the scene's ``gsd`` and the ``maps`` file names, in the
order ``alert`` reports their messages. ``alert`` places each map by the
placement its file records, so the order of ``maps`` moves no cell.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import _container, alerting, convnet, dataset, mlp, quantbench, raster, sensor
from .errors import CoastwatchError, NonFiniteError, SchemaError, read_document

# not an option: the benchmark reads the fraction here
INVALID_CLOUD_FRACTION = alerting.CLOUD_INVALID_FRACTION
# keyed by the lowercased name, so any case of a name is accepted
PARAM_ALIASES = {
    "turbidity": sensor.TURBIDITY, "turbidity_ntu": sensor.TURBIDITY,
    "ph": sensor.PH,
}
# the chip files simulate writes and build-dataset and bench read
CHIP_GLOB = "chip_*.pat1"


def _parameter(name: str) -> str:
    try:
        return PARAM_ALIASES[name.lower()]
    except KeyError:
        raise CoastwatchError(f"unknown parameter {name!r}") from None


def _read_json(path) -> object:
    """The JSON value of the document file at ``path``, decoded as UTF-8; a
    file that is no UTF-8 JSON is a ``SchemaError`` that names it."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise SchemaError(f"{path}: not a UTF-8 JSON document ({exc})") from None


def _write_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2))


def _georef(path: Path, manifest: dict) -> raster.GeoRef:
    with _container.parsing(path):
        georef = raster.sidecar_georef(manifest)
    if georef is None:
        raise CoastwatchError(f"{path}: PAT1 manifest lacks a georef")
    return georef


def _load_patches(directory: Path) -> list[raster.Patch]:
    paths = sorted(directory.glob(CHIP_GLOB))
    if not paths:
        raise CoastwatchError(f"no {CHIP_GLOB} files in {directory}")
    patches = []
    for path in paths:
        stack, manifest = raster.read_pat1(path)
        patches.append(raster.Patch(stack, _georef(path, manifest), patch_id=path.stem))
    return patches


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if not args.seed >= 0:
        raise CoastwatchError(f"--seed must be >= 0, got {args.seed}")
    spec_doc = _read_json(args.spec)
    spec = sensor.SceneSpec.from_json(spec_doc)
    ctx = sensor.SolarContext.from_json(spec_doc.get("solar", {}))
    cfg = sensor.DegradeConfig.from_json(spec_doc.get("degrade", {}))
    height, width = sensor.resampled_shape(spec.height, spec.width, spec.gsd,
                                           raster.PRODUCT_GSD)
    if height < raster.PATCH_SIZE or width < raster.PATCH_SIZE:
        raise CoastwatchError(
            f"scene {spec.width}x{spec.height} at {spec.gsd:g} m is {width}x{height} "
            f"at the {raster.PRODUCT_GSD:g} m product pitch, smaller than one "
            f"{raster.PATCH_SIZE} px patch")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    source = sensor.SceneSource(spec, args.seed)
    georef = spec.georef()
    size = raster.PATCH_SIZE
    chips = list(raster.patch_grid(height, width, raster.PRODUCT_GSD, georef, "chip"))
    # Each chip's count of the values a Patch flags (None: one is not finite)
    # is taken on the float64 band. The product is one float32 block per
    # band, none larger than a float64 plane: glibc raises its mmap threshold
    # to the size of a freed mapped block, and after one 28 MiB product block
    # (1024^2) the next chain's planes stayed resident on the heap, which
    # raised cli_chain's peak RSS by 4 MB.
    scene = raster.write_pat1_bands(out / "scene.pat1",
                                    source.bands([np.empty((spec.height, spec.width))]),
                                    spec.gsd, raster.MS_BAND_IDS, georef=georef)
    product, flagged = [], [0] * len(chips)
    for band in sensor.product_bands(scene, spec.gsd, ctx, cfg, args.seed + 1):
        product.append(band.astype(np.float32))
        for k, (_, (r0, c0), _) in enumerate(chips):
            n = raster.count_flagged(band[r0:r0 + size, c0:c0 + size])
            flagged[k] = None if n is None or flagged[k] is None else flagged[k] + n
    del band  # at another pitch the chain's own plane, not needed for the chips
    # every chip is checked, as tile_scene checks them, before one is written
    for (patch_id, _, _), n in zip(chips, flagged):
        if n is None:
            raise NonFiniteError(f"patch {patch_id!r} contains non-finite values")

    chips_dir = out / "chips"
    chips_dir.mkdir(exist_ok=True)
    # an earlier run's chips in this --out would be read beside this scene's
    for stale in chips_dir.glob(CHIP_GLOB):
        stale.unlink()
    for (patch_id, (r0, c0), chip_georef), n in zip(chips, flagged):
        extra = {"patch_id": patch_id, "placement": [r0, c0], "flagged_values": n}
        chip = np.stack([p[r0:r0 + size, c0:c0 + size] for p in product])
        raster.write_pat1(chips_dir / f"{patch_id}.pat1",
                          raster.BandStack(chip, raster.PRODUCT_GSD, raster.MS_BAND_IDS),
                          georef=chip_georef, extra=extra)

    margins = [height % size, width % size]  # rows south, columns east
    manifest = {
        "scene": "scene.pat1",
        "chips": len(chips),
        "margins": margins,
        "noise_std": spec.noise_std,
        "noise_floor": source.noise_floor(),
        "mixing_offsets": source.offsets.tolist(),
        "mixing_matrix": source.mix.tolist(),
        "seed": args.seed,
    }
    _write_json(out / "truth.json", manifest)
    print(f"simulate: {len(chips)} chips -> {chips_dir} "
          f"(margins {margins[0]}x{margins[1]} px)")
    return 0


def cmd_build_dataset(args) -> int:
    ingest = dataset.ingest_records(args.records)
    surface = dataset.select_surface(ingest.records)
    patches = _load_patches(Path(args.patches))
    if not ingest.records and ingest.rejected:
        row, reason = ingest.rejected[0]
        raise CoastwatchError(f"ingest rejected every row of {args.records} "
                              f"({len(ingest.rejected)} rejected); row {row}: {reason}")
    result = dataset.match(surface, patches)
    if not result.samples:
        raise CoastwatchError("no record matched any patch")
    dataset.save_samples(
        args.out, result.samples,
        provenance={
            "records": str(args.records),
            "patches": str(args.patches),
            "tolerance_days": dataset.MATCH_TOLERANCE_DAYS,
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
    config = mlp.TrainConfig.from_json(_read_json(args.config) if args.config else {})
    samples, _, _ = dataset.load_samples(args.samples)
    parameter = _parameter(args.parameter)
    samples = samples.take(samples.parameter == parameter)
    if not samples:
        raise CoastwatchError(f"no {parameter} samples in {args.samples}")

    splits = dataset.split(samples, dataset.SplitSpec(seed=config.seed))
    # every split is used, and batch-norm needs two train samples for a
    # positive variance
    n_train, n_test, n_val = map(len, (splits.train, splits.test, splits.val))
    if n_train < 2 or not n_test or not n_val:
        raise CoastwatchError(
            f"{len(samples)} {parameter} samples in {args.samples} split "
            f"{n_train}/{n_test}/{n_val} (train/test/val); training needs at "
            f"least 2/1/1")
    if (splits.train.features.std(axis=0) < dataset.CONSTANT_STD).all():
        raise CoastwatchError(
            f"the {n_train} train samples of {args.samples} have the same "
            f"features in every band; batch-norm needs a band that varies")
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
    _write_json(Path(args.out).with_suffix(".history.json"), history)
    print(f"train: {parameter} {history['epochs_run']} epochs, "
          f"val RMSE {val_report.rmse:.4f} MAE {val_report.mae:.4f}, "
          f"test RMSE {test_report.rmse:.4f} MAE {test_report.mae:.4f} -> {args.out}")
    return 0


def cmd_transfer(args) -> int:
    params, stats, manifest = mlp.load_mdl1(args.model)
    net = convnet.fc_to_cnn(params, stats, manifest["parameter"])
    patches = convnet.check_patches(stats, convnet.EQUIVALENCE_CHECK_PATCHES)
    report = convnet.verify_equivalence(params, stats, net, patches)
    if not report.passed:
        raise CoastwatchError(
            f"transfer equivalence failed: max deviation "
            f"{report.max_abs_deviation:.3e} > tol {report.tol:.1e} at "
            f"patch {report.worst[0]} cell {report.worst[1:]}; refusing to emit"
        )
    convnet.save_cnn1(args.out, net, report)
    print(f"transfer: equivalence max {report.max_abs_deviation:.3e} over "
          f"{report.n_patches} patches -> {args.out}")
    return 0


def cmd_infer(args) -> int:
    net, _ = convnet.load_cnn1(args.net)
    scene, manifest = raster.read_pat1(args.scene)
    georef = _georef(Path(args.scene), manifest)
    cloud = _load_cloud_plane(Path(args.masks)) if args.masks else None
    scene_id = Path(args.scene).stem

    tiles, maps = alerting.infer_scene(scene, net, georef, cloud, scene_id)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    grids = []
    for patch, placement, cmap in zip(tiles.patches, tiles.index.placements, maps):
        grids.append(cmap.values.astype(np.float32))
        raster.write_pat1(
            out / f"map_{patch.patch_id}.pat1",
            raster.BandStack.from_array(grids[-1][None],
                                        gsd=patch.raster.gsd * raster.WINDOW,
                                        band_ids=(net.parameter,)),
            georef=cmap.georef,
            extra={"patch_id": patch.patch_id, "placement": list(placement)},
        )
    mosaic = raster.mosaic(grids, tiles.index, band_ids=(net.parameter,))
    raster.write_pat1(out / "mosaic.pat1", mosaic, georef=georef)
    index_doc = {
        "scene_id": scene_id,
        "parameter": net.parameter,
        "scene_width": tiles.index.scene_width,
        "scene_height": tiles.index.scene_height,
        "gsd": tiles.index.gsd,
        "maps": [f"map_{p.patch_id}.pat1" for p in tiles.patches],
    }
    _write_json(out / "index.json", index_doc)
    invalid = sum(int(np.isnan(g).sum()) for g in grids)
    print(f"infer: {len(tiles.patches)} maps + mosaic "
          f"{mosaic.height}x{mosaic.width} -> {out}, {invalid:,} of "
          f"{sum(g.size for g in grids):,} cells cloud-invalidated")
    return 0


def _load_cloud_plane(path: Path) -> np.ndarray:
    """The cloud plane of a 1-band (cloud) mask PAT1."""
    stack, _ = raster.read_pat1(path)
    if stack.bands != 1:
        raise CoastwatchError(f"{path}: a mask raster has 1 (cloud) band, "
                              f"not {stack.bands}")
    return stack.data[0].astype(bool)


# the map index infer writes and alert reads
_MAP_INDEX_KINDS = {
    "scene_id": "a string", "parameter": "a string", "scene_width": "an integer",
    "scene_height": "an integer", "gsd": "a number", "maps": "a list of strings",
}


# the ``extra`` infer writes into each map PAT1
_MAP_EXTRA_KINDS = {"patch_id": "a string", "placement": "a list of integers"}


def _placement(path: Path, manifest: dict) -> tuple[int, int]:
    """The ``[row, col]`` placement a map PAT1 records in its ``extra``."""
    placement = read_document(manifest.get("extra", {}), f"map {path} extra",
                              _MAP_EXTRA_KINDS, required=("placement",))["placement"]
    if len(placement) != 2:
        raise SchemaError(f"{path}: placement must be an integer [row, col] "
                          f"pair, got {placement}")
    return placement


def cmd_alert(args) -> int:
    policy = alerting.ThresholdPolicy.from_json(_read_json(args.policy))
    index_path = Path(args.maps) / "index.json"
    index_doc = read_document(_read_json(index_path), f"map index {index_path}",
                              _MAP_INDEX_KINDS, required=_MAP_INDEX_KINDS)
    if policy.parameter != index_doc["parameter"]:
        raise CoastwatchError(
            f"maps are {index_doc['parameter']!r}, policy is "
            f"{policy.parameter!r}"
        )
    maps, placements = [], []
    for name in index_doc["maps"]:
        path = index_path.parent / name
        stack, manifest = raster.read_pat1(path)
        placements.append(_placement(path, manifest))
        maps.append(convnet.ContaminantMap(values=stack.data[0],
                                           parameter=index_doc["parameter"],
                                           georef=_georef(path, manifest)))
    index = raster.TileIndex(
        scene_width=index_doc["scene_width"],
        scene_height=index_doc["scene_height"],
        placements=tuple(placements),
        gsd=index_doc["gsd"],
    )
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
    net, _ = convnet.load_cnn1(args.net)
    # model sizes are those of the files read and written, certificate included;
    # the input's is taken before the write, which may replace it (--out = --net)
    fp32_bytes = Path(args.net).stat().st_size
    net16 = quantbench.quantize_fp16(net)
    patches = convnet.check_patches(net.stats, quantbench.FP16_CHECK_PATCHES)
    report = quantbench.compare_quantized(net, net16, patches)
    convnet.save_cnn1(args.out, net16)
    sizes = {"model_bytes_fp32": fp32_bytes,
             "model_bytes_fp16": Path(args.out).stat().st_size}
    if args.report:
        _write_json(args.report, {**sizes, **report.to_json()})
    status = "ok" if report.passed else "DEVIATION ABOVE THRESHOLD"
    print(f"quantize: {sizes['model_bytes_fp32']} -> {sizes['model_bytes_fp16']} "
          f"bytes, max map deviation {report.max_map_deviation:.3e} ({status}) "
          f"-> {args.out}")
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    net, _ = convnet.load_cnn1(args.net)
    if args.patches:
        patches = _load_patches(Path(args.patches))
    else:
        patches = list(convnet.check_patches(net.stats, quantbench.BENCH_PATCHES))
    report = quantbench.bench(net, patches)
    if args.report:
        _write_json(args.report, report.to_json())
    print(f"bench: median {report.ms_per_inference:.1f} ms/inference "
          f"(p95 {report.ms_p95:.1f} ms, {report.fps:.1f} FPS) on "
          f"{report.hardware_descriptor}; mission reference "
          f"{report.reference['ms_per_inference']} ms / {report.reference['fps']} FPS")
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
    p.add_argument("--out", required=True, help="output SMP1 sample store")
    p.set_defaults(fn=cmd_build_dataset)

    p = sub.add_parser("train", help="train the regression network")
    p.add_argument("--samples", required=True, help="SMP1 sample store")
    p.add_argument("--parameter", required=True, help="ph or turbidity")
    p.add_argument("--config", help="TrainConfig JSON")
    p.add_argument("--out", required=True, help="output MDL1 model")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("transfer", help="convert MDL1 into a deployed CNN1")
    p.add_argument("--model", required=True, help="MDL1 model")
    p.add_argument("--out", required=True, help="output CNN1 network")
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("infer", help="dense maps for a scene")
    p.add_argument("--net", required=True, help="CNN1 network")
    p.add_argument("--scene", required=True, help="scene PAT1")
    p.add_argument("--out", required=True, help="output map directory")
    p.add_argument("--masks", help="optional cloud mask PAT1 (u8, 1 band)")
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
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("bench", help="inference latency benchmark")
    p.add_argument("--net", required=True)
    p.add_argument("--patches", help="chip directory (the model's check patches "
                   "if omitted)")
    p.add_argument("--report", help="output BenchReport JSON")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CoastwatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
