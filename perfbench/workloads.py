"""The three workloads: inputs made from the seed, the timed operation and
the output checks.

Each workload builds ``SETUP_REPS`` distinct input units in set-up (one per
repetition, so set-up is timed several times) and then cycles through them.
An operation's outputs are checked after its clock stops. A check that
fails marks the operation failed; the fp16 deployment gate is reported on
its own, because the program is known to fail it (see ``Outcome``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stations
from coastwatch import (alerting, cli, convnet, dataset, mlp, quantbench,
                        raster, sensor)

SETUP_REPS = 3
NOISE_STD = 0.002
# A fixed, well-conditioned band mixing (singular values 0.26 and 0.15), so
# the seed changes the contaminant fields and noise but not the physics.
MIXING = {
    "offsets": [0.14, 0.13, 0.09, 0.11, 0.13, 0.14, 0.15],
    "matrix": [[0.02, -0.10], [0.05, -0.06], [0.12, 0.02], [0.10, 0.05],
               [0.08, 0.09], [0.06, 0.11], [0.04, 0.12]],
}
DEGRADE = {"snr": 150, "mtf": 0.6,
           "misalign_m": [[0, 0], [2, -1], [-1.5, 2], [3, 0], [0, -2.5],
                          [1, 1], [-2, -2]]}
SOLAR = {"zenith": 35.0, "distance_au": 1.0}
TIMESTAMP = "2024-06-15T10:30:00+00:00"
POLICY = alerting.ThresholdPolicy.default_for(sensor.TURBIDITY)
PAPER_DIMS = mlp.DEFAULT_LAYER_DIMS


def unit_seed(seed: int, rep: int) -> int:
    return seed * 10 + rep


def scene_doc(size: int) -> dict:
    return {"width": size, "height": size, "noise_std": NOISE_STD,
            "mixing": MIXING, "degrade": DEGRADE, "solar": SOLAR}


def cloud_mask(height: int, width: int, cover: float, seed: int) -> np.ndarray:
    """Blocky cloud field covering about ``cover`` of the scene."""
    if cover <= 0.0:
        return np.zeros((height, width), dtype=bool)
    coarse = np.random.default_rng(seed).random((height // 64 + 1, width // 64 + 1))
    full = np.repeat(np.repeat(coarse, 64, axis=0), 64, axis=1)[:height, :width]
    return full < np.quantile(coarse, cover)


def mosaic_matches(mosaic: np.ndarray, cells: list, index) -> bool:
    """The mosaic holds each patch's cells at its placement, and nothing else."""
    n = cells[0].shape[0]
    if mosaic.shape != (n * index.tiles_down, n * index.tiles_across):
        return False
    for grid, (r0, c0) in zip(cells, index.placements):
        gr, gc = r0 // index.patch_size * n, c0 // index.patch_size * n
        if not np.array_equal(mosaic[gr:gr + n, gc:gc + n], grid):
            return False
    return True


def alerts_round_trip(lines: list[bytes], messages) -> bool:
    return len(lines) == len(messages) and all(
        len(line) <= alerting.MAX_ALERT_BYTES and alerting.parse_alert(line) == msg
        for line, msg in zip(lines, messages))


@dataclass
class Outcome:
    """What an operation's checks found.

    ``fp16_gate_passed`` is quantize's own 0.05 deviation gate. The program
    fails it on its own models (an open defect), so it is counted in
    ``ops.fp16_gate_failed_frac`` rather than in ``failed``.
    """

    checks: dict[str, bool]
    acc: dict[str, float] = field(default_factory=dict)
    fp16_gate_passed: bool | None = None

    @property
    def failed(self) -> bool:
        return not all(self.checks.values())


def _train_model(samples, epochs: int, seed: int, dims=PAPER_DIMS):
    splits = dataset.split(samples, dataset.SplitSpec(seed=seed))
    train_n, stats = dataset.normalize(splits.train)
    val_n, _ = dataset.normalize(splits.val, stats)
    test_n, _ = dataset.normalize(splits.test, stats)
    config = mlp.TrainConfig(layer_dims=tuple(dims), epochs=epochs, seed=seed)
    params, _ = mlp.train(train_n, config, val_n)
    test = mlp.evaluate(params, test_n, stats, split="test")
    return params, stats, test


# ---------------------------------------------------------------------------
# deploy_scene: the onboard path
# ---------------------------------------------------------------------------


class DeployScene:
    """One ``alerting.run_scene`` call on a 2048^2 scene (64 patches) plus
    ``serialize_alert`` of its messages. The model is trained and
    transferred in set-up; cloud cover differs per input unit."""

    size = 2048
    covers = (0.0, 0.25, 0.5)
    train_samples = 2000
    epochs = 2

    def __init__(self, work: Path, dims=PAPER_DIMS):
        self.dims = dims

    def setup(self, seed: int, rep: int) -> dict:
        s = unit_seed(seed, rep)
        spec = sensor.SceneSpec.from_json(scene_doc(self.size))
        scene, truth = sensor.generate_synthetic_scene(spec, s)
        pool = dataset.samples_from_scene(scene, truth, sensor.TURBIDITY,
                                          date=spec.date)
        pick = np.random.default_rng(s).choice(len(pool), self.train_samples,
                                               replace=False)
        params, stats, test = _train_model([pool[i] for i in pick],
                                           self.epochs, s, self.dims)
        net = convnet.fc_to_cnn(params, stats, sensor.TURBIDITY)
        corner = raster.BandStack.from_array(scene.data[:, :512, :512], spec.gsd)
        eq = convnet.verify_equivalence(params, stats, net,
                                        raster.tile_scene(corner).patches)
        cloud = cloud_mask(self.size, self.size, self.covers[rep % 3], s)
        zeros = np.zeros_like(cloud)
        return {
            "scene": raster.BandStack.from_array(scene.data.astype(np.float32),
                                                 spec.gsd),
            "georef": spec.georef(),
            "masks": sensor.MaskSet(cloud, zeros, zeros),
            "net": net,
            "scene_id": f"scene{s}",
            "checks": {"equivalence_within_tol": eq.passed and not eq.vacuous,
                       "test_rmse_finite": math.isfinite(test.rmse)},
            "acc": {"test_rmse_over_floor":
                    test.rmse / truth.noise_floor[sensor.TURBIDITY],
                    "equiv_max_dev": eq.max_abs_deviation},
        }

    def op(self, u: dict, tracer=None):
        res = alerting.run_scene(u["scene"], u["net"], POLICY,
                                 scene_georef=u["georef"], masks=u["masks"],
                                 scene_id=u["scene_id"], timestamp=TIMESTAMP)
        return res, [alerting.serialize_alert(m) for m in res.messages]

    def traced_op(self, u: dict, tracer):
        """The public calls ``run_scene`` makes, one by one."""
        tiles = raster.tile_scene(u["scene"], u["georef"],
                                  patch_id_prefix=u["scene_id"])
        maps = [convnet.infer_patch(u["net"], p) for p in tiles.patches]
        ps = tiles.index.patch_size
        for cmap, (r0, c0) in zip(maps, tiles.index.placements):
            frac = raster.window_fraction(
                u["masks"].cloud[r0:r0 + ps, c0:c0 + ps], raster.WINDOW)
            cmap.values = np.where(frac >= POLICY.cloud_invalid_fraction,
                                   np.nan, cmap.values)
        alert_maps = [alerting.threshold(m, POLICY) for m in maps]
        messages = []
        for cmap, amap in zip(maps, alert_maps):
            msg = alerting.make_message(u["scene_id"], cmap, amap, POLICY,
                                        TIMESTAMP)
            if msg is not None:
                messages.append(msg)
        mosaic = raster.mosaic([a.cells for a in alert_maps], tiles.index,
                               band_ids=(POLICY.policy_id,))
        lines = [alerting.serialize_alert(m) for m in messages]
        return maps, alert_maps, messages, mosaic, lines

    def check(self, u: dict, out, traced=None) -> Outcome:
        res, lines = out
        checks = dict(u["checks"])
        checks["alerts_fit_and_round_trip"] = alerts_round_trip(lines, res.messages)
        checks["mosaic_matches_cells"] = mosaic_matches(
            res.mosaic.data[0], [a.cells for a in res.alert_maps], res.index)
        if traced is not None:
            maps, alert_maps, messages, mosaic, t_lines = traced
            checks["decomposition_bit_exact"] = (
                all(np.array_equal(a.values, b.values, equal_nan=True)
                    for a, b in zip(maps, res.maps))
                and all(np.array_equal(a.cells, b.cells)
                        for a, b in zip(alert_maps, res.alert_maps))
                and messages == res.messages and t_lines == lines
                and np.array_equal(mosaic.data, res.mosaic.data))
        acc = dict(u["acc"], alert_max_bytes=max(map(len, lines), default=0))
        return Outcome(checks, acc)


# ---------------------------------------------------------------------------
# ground_train: one certified model from a simulated product
# ---------------------------------------------------------------------------


class GroundTrain:
    """simulate_l1c -> match stations -> split/normalize -> train the paper
    MLP -> evaluate -> fc_to_cnn + verify_equivalence -> quantize_fp16 +
    compare_quantized. Scene and in-situ records are made in set-up, the
    records by coastwatch's own CSV ingest of the generated stations."""

    size = 1024
    n_stations = 6000
    epochs = 3
    random_patches = 4

    def __init__(self, work: Path, dims=PAPER_DIMS):
        self.work = work
        self.dims = dims

    def setup(self, seed: int, rep: int) -> dict:
        s = unit_seed(seed, rep)
        doc = scene_doc(self.size)
        spec = sensor.SceneSpec.from_json(doc)
        scene, truth = sensor.generate_synthetic_scene(spec, s)
        st = stations.generate(spec, truth, s, self.n_stations)
        ingest = dataset.ingest_records(st.write_csv(self.work / f"insitu{rep}.csv"))
        records = dataset.select_surface(ingest.records)
        exp = st.expected
        return {
            "seed": s, "scene": scene, "georef": spec.georef(), "truth": truth,
            "records": records, "expected": exp,
            "ingest_counts": (len(ingest.rejected) == exp.rejected
                              and ingest.duplicates_removed == exp.duplicates
                              and len(records) == exp.surface),
            "ctx": sensor.SolarContext(solar_zenith=SOLAR["zenith"]),
            "degrade": sensor.DegradeConfig.from_json(DEGRADE),
        }

    def op(self, u: dict, tracer=None) -> dict:
        s = u["seed"]
        product = sensor.simulate_l1c(u["scene"], u["ctx"], u["degrade"],
                                      seed=s + 1, scene_georef=u["georef"])
        matched = dataset.match(u["records"], product.patches)
        turbidity = [x for x in matched.samples
                     if x.parameter == sensor.TURBIDITY]
        params, stats, test = _train_model(turbidity, self.epochs, s, self.dims)
        net = convnet.fc_to_cnn(params, stats, sensor.TURBIDITY)
        eq = convnet.verify_equivalence(params, stats, net, product.patches)
        net16 = quantbench.quantize_fp16(net)
        q_chips = quantbench.compare_quantized(net, net16, product.patches)
        q_random = quantbench.compare_quantized(
            net, net16, raster.random_patches(self.random_patches, seed=s))
        return {"matched": matched, "turbidity": len(turbidity), "test": test,
                "eq": eq, "q_chips": q_chips, "q_random": q_random}

    traced_op = op

    def check(self, u: dict, out: dict, traced=None) -> Outcome:
        exp = u["expected"]
        eq, test = out["eq"], out["test"]
        acc = {
            "test_rmse_over_floor":
                test.rmse / u["truth"].noise_floor[sensor.TURBIDITY],
            "equiv_max_dev": eq.max_abs_deviation,
            "fp16_max_dev_chips": out["q_chips"].max_map_deviation,
            "fp16_max_dev_random": out["q_random"].max_map_deviation,
        }
        checks = {
            "ingest_counts": u["ingest_counts"],
            "match_counts": (len(out["matched"].samples) == exp.matched
                             and out["turbidity"] == exp.matched_turbidity
                             and len(out["matched"].unmatched)
                             == exp.surface - exp.matched),
            "equivalence_within_tol": eq.passed and not eq.vacuous,
            "test_rmse_finite": math.isfinite(test.rmse),
        }
        if traced is not None:
            checks["traced_equals_untraced"] = (
                self.check(u, traced).acc == acc)
        return Outcome(checks, acc, fp16_gate_passed=out["q_chips"].passed
                       and out["q_random"].passed)


# ---------------------------------------------------------------------------
# cli_chain: the seven commands through the on-disk formats
# ---------------------------------------------------------------------------


class CliChain:
    """simulate -> build-dataset -> train -> transfer -> infer (masks) ->
    alert (mosaic) -> quantize, each through ``cli.main`` in this process,
    in a fresh directory. Spec, in-situ CSV, mask, policy and train config
    are written in set-up."""

    size = 1024
    n_stations = 4000
    epochs = 1
    covers = (0.1, 0.25, 0.4)

    def __init__(self, work: Path, dims=PAPER_DIMS):
        self.work = work
        self.dims = dims

    def setup(self, seed: int, rep: int) -> dict:
        s = unit_seed(seed, rep)
        d = self.work / f"unit{rep}"
        d.mkdir(parents=True, exist_ok=True)
        doc = scene_doc(self.size)
        spec = sensor.SceneSpec.from_json(doc)
        _, truth = sensor.generate_synthetic_scene(spec, s)
        st = stations.generate(spec, truth, s, self.n_stations)
        st.write_csv(d / "insitu.csv")
        (d / "spec.json").write_text(json.dumps(doc))
        (d / "policy.json").write_text(json.dumps(
            {"parameter": POLICY.parameter, "upper_bound": POLICY.upper_bound}))
        (d / "train.json").write_text(json.dumps(
            {"epochs": self.epochs, "seed": s, "layer_dims": list(self.dims)}))
        cloud = cloud_mask(self.size, self.size, self.covers[rep % 3], s)
        raster.write_pat1(d / "mask.pat1", raster.BandStack.from_array(
            cloud.astype(np.uint8), spec.gsd, band_ids=("cloud",)))
        return {"seed": s, "dir": d, "expected": st.expected,
                "cloud": cloud}

    def op(self, u: dict, tracer=None) -> dict:
        d = u["dir"]
        out = Path(tempfile.mkdtemp(dir=self.work))
        chain = [
            ["simulate", "--spec", d / "spec.json", "--out", out / "sim",
             "--seed", u["seed"]],
            ["build-dataset", "--records", d / "insitu.csv",
             "--patches", out / "sim" / "chips", "--out", out / "samples.smp1"],
            ["train", "--samples", out / "samples.smp1",
             "--parameter", "turbidity", "--config", d / "train.json",
             "--out", out / "model.mdl1"],
            ["transfer", "--model", out / "model.mdl1", "--out", out / "net.cnn1"],
            ["infer", "--net", out / "net.cnn1", "--scene",
             out / "sim" / "scene.pat1", "--out", out / "maps",
             "--masks", d / "mask.pat1"],
            ["alert", "--maps", out / "maps", "--policy", d / "policy.json",
             "--out", out / "alerts.jsonl", "--mosaic", out / "alert_mosaic.pat1"],
            ["quantize", "--net", out / "net.cnn1", "--out", out / "net16.cnn1",
             "--report", out / "quant.json"],
        ]
        exits, log = {}, io.StringIO()
        for argv in chain:
            name = argv[0]
            span = (tracer.span(f"cli.{name}") if tracer is not None
                    else contextlib.nullcontext())
            with span as sp, contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                try:
                    exits[name] = cli.main([str(a) for a in argv])
                except SystemExit as exc:  # argparse rejects the arguments
                    exits[name] = exc.code if isinstance(exc.code, int) else 1
            if sp is not None:
                sp.counts["exit"] = exits[name]
            if exits[name] != 0:
                break
        return {"dir": out, "exits": exits, "log": log.getvalue()}

    traced_op = op

    def check(self, u: dict, out: dict, traced=None) -> Outcome:
        try:
            outcome = self._check(u, out)
            if traced is not None:
                other = self._check(u, traced)
                outcome.checks["traced_equals_untraced"] = other.acc == outcome.acc
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)
            if traced is not None:
                shutil.rmtree(traced["dir"], ignore_errors=True)
        return outcome

    def _check(self, u: dict, out: dict) -> Outcome:
        exits, o = out["exits"], out["dir"]
        checks = {f"exit_{c}": exits.get(c) == 0 for c in
                  ("simulate", "build-dataset", "train", "transfer", "infer",
                   "alert")}
        checks["quantize_ran"] = exits.get("quantize") in (0, 1)
        if not all(checks.values()):
            print(out["log"], file=sys.stderr)
            return Outcome(checks)

        exp = u["expected"]
        samples, _, manifest = dataset.load_samples(o / "samples.smp1")
        prov = manifest["provenance"]
        checks["ingest_and_match_counts"] = (
            prov["rejected_rows"] == exp.rejected
            and prov["duplicates_removed"] == exp.duplicates
            and prov["unmatched_records"] == exp.surface - exp.matched
            and len(samples) == exp.matched)

        _, _, mdl = mlp.load_mdl1(o / "model.mdl1")
        net, cnn = convnet.load_cnn1(o / "net.cnn1")
        equivalence = cnn["equivalence"]
        checks["equivalence_within_tol"] = bool(equivalence["passed"])

        # infer maps against in-memory inference on the same f32 scene
        scene, sidecar = raster.read_pat1(o / "sim" / "scene.pat1")
        tiles = raster.tile_scene(scene, raster.sidecar_georef(sidecar),
                                  patch_id_prefix="scene")
        index = json.loads((o / "maps" / "index.json").read_text())
        ps = tiles.index.patch_size
        maps_ok, cmaps = len(index["maps"]) == len(tiles.patches), []
        for patch, (r0, c0), name in zip(tiles.patches, tiles.index.placements,
                                         index["maps"]):
            cmap = convnet.infer_patch(net, patch)
            frac = raster.window_fraction(u["cloud"][r0:r0 + ps, c0:c0 + ps])
            cmap.values = np.where(frac >= cli.INVALID_CLOUD_FRACTION, np.nan,
                                   cmap.values)
            on_disk = raster.read_pat1(o / "maps" / name)[0].data[0]
            maps_ok &= bool(np.allclose(on_disk, cmap.values, rtol=2.0**-23,
                                        atol=0.0, equal_nan=True))
            cmap.values = on_disk.astype(np.float64)
            cmaps.append(cmap)
        checks["infer_maps_match_in_memory"] = maps_ok

        # alerts recomputed from the maps, wall-clock timestamp ignored
        lines = (o / "alerts.jsonl").read_bytes().splitlines()
        alert_maps = [alerting.threshold(m, POLICY) for m in cmaps]
        expected = [m for m in (alerting.make_message("scene", c, a, POLICY, "")
                                for c, a in zip(cmaps, alert_maps)) if m]
        parsed = [alerting.parse_alert(line) for line in lines]
        for m in parsed:
            m.timestamp = ""
        checks["alerts_match_in_memory"] = parsed == expected
        checks["alerts_fit"] = all(len(x) <= alerting.MAX_ALERT_BYTES for x in lines)
        mosaic, _ = raster.read_pat1(o / "alert_mosaic.pat1")
        checks["mosaic_matches_cells"] = mosaic_matches(
            mosaic.data[0], [a.cells for a in alert_maps], tiles.index)

        truth = json.loads((o / "sim" / "truth.json").read_text())
        quant = json.loads((o / "quant.json").read_text())
        acc = {
            "test_rmse_over_floor": mdl["training"]["test_rmse"]
            / truth["noise_floor"][sensor.TURBIDITY],
            "equiv_max_dev": equivalence["max_abs_deviation"],
            "fp16_max_dev_random": quant["max_map_deviation"],
            "alert_max_bytes": max(map(len, lines), default=0),
        }
        return Outcome(checks, acc, fp16_gate_passed=exits["quantize"] == 0)


WORKLOADS = {"deploy_scene": DeployScene, "ground_train": GroundTrain,
             "cli_chain": CliChain}
