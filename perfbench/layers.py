"""What the traced run wraps, and the per-layer metrics it derives.

Operation counts labelled "computed" come from the network dimensions, not
from hardware counters:

* 1x1 stack, per 25x25-cell patch: cells * sum(2*in*out + 2*out) FLOP
  (multiply-add, bias, ReLU/identity); bytes = the patch read by the front
  end + the f32 parameters + each layer's f64 input and output activations.
  This is a lower bound on traffic; no roofline is claimed on a desk CPU.
* training, per sample-epoch: 6 * sum(in*out) FLOP for forward + backward,
  plus 2 * sum(in*out) per train and validation sample for the per-epoch
  full-set eval; batch-norm and Adam element-wise work is left out.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from spans import MODULES, Tracer, median, ratio


def mlp_macs(dims) -> int:
    return sum(i * o for i, o in zip(dims[:-1], dims[1:]))


def stack_flops_per_cell(dims) -> int:
    return sum(2 * i * o + 2 * o for i, o in zip(dims[:-1], dims[1:]))


def stack_bytes(dims, cells: int, patch_bytes: int) -> int:
    params = sum(i * o + o for i, o in zip(dims[:-1], dims[1:])) * 4
    acts = sum(cells * (i + o) * 8 for i, o in zip(dims[:-1], dims[1:]))
    return patch_bytes + params + acts


def train_flops(dims, n_train: int, n_val: int, epochs: int) -> int:
    return epochs * mlp_macs(dims) * (6 * n_train + 2 * (n_train + n_val))


def _train(a, k, r):
    config, history = a[1], r[1]
    n_val = len(a[2]) if len(a) > 2 and a[2] else 0
    epochs = history["epochs_run"]
    return {"epochs": epochs, "sample_epochs": len(a[0]) * epochs,
            "flops": train_flops(config.layer_dims, len(a[0]), n_val, epochs)}


def _forward(a, k, r):
    mode = a[2] if len(a) > 2 else k.get("mode", "eval")
    return {"rows": 1 if np.ndim(a[1]) == 1 else len(a[1]),
            "eval": mode == "eval"}


def _stack(a, k, r):
    dims = a[0].channels
    return {"flops": r.size * stack_flops_per_cell(dims)}


def _patches(index):
    return lambda a, k, r: {"patches": len(a[index])}


TARGETS = {
    "sensor.generate_synthetic_scene": None,
    "sensor.simulate_l1c": lambda a, k, r: {"mpx": a[0].width * a[0].height / 1e6},
    "raster.window_average": None,
    "raster.window_fraction": None,
    "raster.tile_scene": None,
    "raster.mosaic": None,
    "raster.random_patches": None,
    "raster.write_pat1": lambda a, k, r: {"bytes": Path(r).stat().st_size},
    "raster.read_pat1": lambda a, k, r: {"bytes": r[0].data.nbytes},
    "dataset.ingest_records": lambda a, k, r: {
        "rows": len(r.records) + len(r.rejected) + r.duplicates_removed,
        "rejected": len(r.rejected)},
    "dataset.select_surface": None,
    "dataset.match": lambda a, k, r: {"records": len(a[0]),
                                      "matched": len(r.samples)},
    "dataset.split": None,
    "dataset.normalize": None,
    "dataset.samples_from_scene": None,
    "dataset.save_samples": None,
    "dataset.load_samples": None,
    "mlp.train": _train,
    "mlp.forward": _forward,
    "mlp.evaluate": None,
    "mlp.save_mdl1": None,
    "mlp.load_mdl1": None,
    "convnet.fc_to_cnn": None,
    "convnet.infer_patch": None,
    "convnet.infer_raster": _stack,
    "convnet.verify_equivalence": _patches(3),
    "convnet.save_cnn1": None,
    "convnet.load_cnn1": None,
    "alerting.threshold": None,
    "alerting.make_message": lambda a, k, r: {"messages": int(r is not None)},
    "alerting.serialize_alert": None,
    "quantbench.quantize_fp16": None,
    "quantbench.compare_quantized": _patches(2),
}

CLI_COMMANDS = ("simulate", "build-dataset", "train", "transfer", "infer",
                "alert", "quantize")

# Per-layer metric: (name, unit, better, the end-to-end metric and workload
# it should move). op_s_p50 is the scene time on deploy_scene, the model
# build time on ground_train and the chain time on cli_chain.
PER_LAYER = [
    *[(f"layer.{m}.self_s", "s", "lower", "op_s_p50 (every workload)")
      for m in MODULES],
    ("trace.uncovered_s", "s", "lower", "op_s_p50 (every workload)"),
    ("trace.uncovered_frac", "ratio", "lower", "none: trace coverage"),
    ("trace.op_s_p50", "s", "lower", "op_s_p50 (every workload)"),
    ("trace.untraced_op_s_p50", "s", "lower", "op_s_p50 (every workload)"),
    ("trace.overhead_frac", "ratio", "lower", "none: tracing cost"),
    ("sensor.simulate_l1c.s", "s", "lower", "op_s_p50 (ground_train, cli_chain)"),
    ("sensor.simulate_l1c.mpx_per_s", "Mpx/s", "higher",
     "op_s_p50 (ground_train, cli_chain)"),
    ("sensor.generate_synthetic_scene.s", "s", "lower",
     "setup_s (every workload), op_s_p50 (cli_chain)"),
    ("raster.window_average.ms_per_patch", "ms", "lower", "op_s_p50 (deploy_scene)"),
    ("raster.tile_scene.ms", "ms", "lower", "op_s_p50 (deploy_scene)"),
    ("raster.mosaic.ms", "ms", "lower", "op_s_p50 (deploy_scene)"),
    ("raster.write_pat1.mb_per_s", "MB/s", "higher", "op_s_p50 (cli_chain)"),
    ("raster.read_pat1.mb_per_s", "MB/s", "higher", "op_s_p50 (cli_chain)"),
    ("raster.pat1_bytes", "bytes", "lower", "op_s_p50 (cli_chain)"),
    ("dataset.ingest_records.rows_per_s", "rows/s", "higher", "op_s_p50 (cli_chain)"),
    ("dataset.ingest_records.rejected_frac", "ratio", "lower", "op_s_p50 (cli_chain)"),
    ("dataset.match.records_per_s", "records/s", "higher",
     "op_s_p50 (ground_train, cli_chain)"),
    ("dataset.match.matched_frac", "ratio", "higher",
     "op_s_p50 (ground_train, cli_chain)"),
    ("dataset.save_samples.ms", "ms", "lower", "op_s_p50 (cli_chain)"),
    ("dataset.load_samples.ms", "ms", "lower", "op_s_p50 (cli_chain)"),
    ("mlp.train.s_per_epoch", "s", "lower", "op_s_p50 (ground_train, cli_chain)"),
    ("mlp.train.sample_epochs_per_s", "sample/s", "higher",
     "op_s_p50 (ground_train, cli_chain)"),
    ("mlp.train.gflops_computed", "GFLOP", "lower", "op_s_p50 (ground_train)"),
    ("mlp.train.gflop_per_s", "GFLOP/s", "higher", "op_s_p50 (ground_train)"),
    ("mlp.forward.eval_ms_per_10k", "ms", "lower", "op_s_p50 (ground_train)"),
    ("mlp.evaluate.ms", "ms", "lower", "op_s_p50 (ground_train, cli_chain)"),
    ("mlp.save_mdl1.ms", "ms", "lower", "op_s_p50 (cli_chain)"),
    ("mlp.load_mdl1.ms", "ms", "lower", "op_s_p50 (cli_chain)"),
    ("convnet.infer_patch.ms_p50", "ms", "lower", "op_s_p50 (deploy_scene)"),
    ("convnet.stack.ms_per_patch", "ms", "lower", "op_s_p50 (deploy_scene)"),
    ("convnet.stack.gflops_computed", "GFLOP", "lower", "op_s_p50 (deploy_scene)"),
    ("convnet.stack.gflop_per_s", "GFLOP/s", "higher", "op_s_p50 (deploy_scene)"),
    ("convnet.verify_equivalence.ms_per_patch", "ms", "lower",
     "op_s_p50 (ground_train, cli_chain)"),
    ("convnet.fc_to_cnn.ms", "ms", "lower", "op_s_p50 (ground_train)"),
    ("convnet.save_cnn1.ms", "ms", "lower", "op_s_p50 (cli_chain)"),
    ("convnet.load_cnn1.ms", "ms", "lower", "op_s_p50 (cli_chain)"),
    ("alerting.threshold.us_per_patch", "us", "lower", "op_s_p50 (deploy_scene)"),
    ("alerting.make_message.us", "us", "lower", "op_s_p50 (deploy_scene)"),
    ("alerting.serialize_alert.us", "us", "lower", "op_s_p50 (deploy_scene)"),
    ("alerting.messages_per_patch", "ratio", "higher",
     "acc.alert_max_bytes (deploy_scene, cli_chain)"),
    ("quantbench.quantize_fp16.ms", "ms", "lower", "op_s_p50 (ground_train, cli_chain)"),
    ("quantbench.compare_quantized.ms_per_patch", "ms", "lower",
     "op_s_p50 (ground_train, cli_chain)"),
    *[m for c in CLI_COMMANDS for m in (
        (f"cli.{c}.s", "s", "lower", "op_s_p50 (cli_chain)"),
        (f"cli.{c}.exit", "code", "lower", "ops.failed_frac (cli_chain)"))],
    ("acc.test_rmse_over_floor", "ratio", "lower", "accuracy beside op_s_p50"),
    ("acc.equiv_max_dev", "NTU", "lower", "accuracy beside op_s_p50"),
    ("acc.fp16_max_dev_chips", "NTU", "lower", "accuracy beside op_s_p50"),
    ("acc.fp16_max_dev_random", "NTU", "lower", "accuracy beside op_s_p50"),
    ("acc.alert_max_bytes", "bytes", "lower", "accuracy beside op_s_p50"),
    ("ops.failed_frac", "ratio", "lower", "correct / failed (every workload)"),
    ("ops.fp16_gate_failed_frac", "ratio", "lower", "none: known fp16 defect"),
]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of traced operations (op >= 0)."""
    op_spans = [s for s in tr.spans if s.name == "op"]
    n_ops = len(op_spans) or 1
    selfs = tr.self_times()
    busy = {m: 0.0 for m in MODULES}
    uncovered = 0.0
    for s, own in zip(tr.spans, selfs):
        if s.op < 0:
            continue
        if s.name == "op":
            uncovered += own
        else:
            busy[s.name.split(".")[0]] += own

    def durs(name, **kw):
        return [s.duration for s in tr.named(name, **kw)]

    def total(name, key, **kw):
        return sum(s.counts.get(key, 0) for s in tr.named(name, **kw))

    def rate(name, key, scale=1.0):
        return ratio(total(name, key) * scale, sum(durs(name)))

    m = {f"layer.{mod}.self_s": busy[mod] / n_ops for mod in MODULES}
    op_time = sum(s.duration for s in op_spans)
    m["trace.uncovered_s"] = uncovered / n_ops
    m["trace.uncovered_frac"] = ratio(uncovered, op_time)

    m["sensor.simulate_l1c.s"] = median(durs("sensor.simulate_l1c"))
    m["sensor.simulate_l1c.mpx_per_s"] = rate("sensor.simulate_l1c", "mpx")
    m["sensor.generate_synthetic_scene.s"] = median(
        durs("sensor.generate_synthetic_scene", ops_only=False))

    wavg = tr.named("raster.window_average", parent="convnet.infer_raster")
    m["raster.window_average.ms_per_patch"] = 1e3 * median(s.duration for s in wavg)
    m["raster.tile_scene.ms"] = 1e3 * median(durs("raster.tile_scene"))
    m["raster.mosaic.ms"] = 1e3 * median(durs("raster.mosaic"))
    m["raster.write_pat1.mb_per_s"] = rate("raster.write_pat1", "bytes", 1e-6)
    m["raster.read_pat1.mb_per_s"] = rate("raster.read_pat1", "bytes", 1e-6)
    m["raster.pat1_bytes"] = total("raster.write_pat1", "bytes") / n_ops

    m["dataset.ingest_records.rows_per_s"] = rate("dataset.ingest_records", "rows")
    m["dataset.ingest_records.rejected_frac"] = ratio(
        total("dataset.ingest_records", "rejected"),
        total("dataset.ingest_records", "rows"))
    m["dataset.match.records_per_s"] = rate("dataset.match", "records")
    m["dataset.match.matched_frac"] = ratio(total("dataset.match", "matched"),
                                            total("dataset.match", "records"))
    m["dataset.save_samples.ms"] = 1e3 * median(durs("dataset.save_samples"))
    m["dataset.load_samples.ms"] = 1e3 * median(durs("dataset.load_samples"))

    train_s = sum(durs("mlp.train"))
    m["mlp.train.s_per_epoch"] = ratio(train_s, total("mlp.train", "epochs"))
    m["mlp.train.sample_epochs_per_s"] = rate("mlp.train", "sample_epochs")
    m["mlp.train.gflops_computed"] = total("mlp.train", "flops") / n_ops / 1e9
    m["mlp.train.gflop_per_s"] = rate("mlp.train", "flops", 1e-9)
    evals = [s for s in tr.named("mlp.forward") if s.counts.get("eval")]
    m["mlp.forward.eval_ms_per_10k"] = 1e7 * ratio(
        sum(s.duration for s in evals), sum(s.counts["rows"] for s in evals))
    m["mlp.evaluate.ms"] = 1e3 * median(durs("mlp.evaluate"))
    m["mlp.save_mdl1.ms"] = 1e3 * median(durs("mlp.save_mdl1"))
    m["mlp.load_mdl1.ms"] = 1e3 * median(durs("mlp.load_mdl1"))

    kids = tr.children()
    stacks, stack_flops = [], 0
    for i, s in enumerate(tr.spans):
        if s.name == "convnet.infer_raster" and s.op >= 0:
            front = sum(tr.spans[k].duration for k in kids.get(i, ())
                        if tr.spans[k].name == "raster.window_average")
            stacks.append(s.duration - front)
            stack_flops += s.counts.get("flops", 0)
    m["convnet.infer_patch.ms_p50"] = 1e3 * median(durs("convnet.infer_patch"))
    m["convnet.stack.ms_per_patch"] = 1e3 * median(stacks)
    m["convnet.stack.gflops_computed"] = stack_flops / n_ops / 1e9
    m["convnet.stack.gflop_per_s"] = ratio(stack_flops / 1e9, sum(stacks))
    m["convnet.verify_equivalence.ms_per_patch"] = 1e3 * ratio(
        sum(durs("convnet.verify_equivalence")),
        total("convnet.verify_equivalence", "patches"))
    m["convnet.fc_to_cnn.ms"] = 1e3 * median(durs("convnet.fc_to_cnn"))
    m["convnet.save_cnn1.ms"] = 1e3 * median(durs("convnet.save_cnn1"))
    m["convnet.load_cnn1.ms"] = 1e3 * median(durs("convnet.load_cnn1"))

    m["alerting.threshold.us_per_patch"] = 1e6 * median(durs("alerting.threshold"))
    m["alerting.make_message.us"] = 1e6 * median(durs("alerting.make_message"))
    m["alerting.serialize_alert.us"] = 1e6 * median(durs("alerting.serialize_alert"))
    m["alerting.messages_per_patch"] = ratio(
        total("alerting.make_message", "messages"),
        len(tr.named("alerting.make_message")))

    m["quantbench.quantize_fp16.ms"] = 1e3 * median(durs("quantbench.quantize_fp16"))
    m["quantbench.compare_quantized.ms_per_patch"] = 1e3 * ratio(
        sum(durs("quantbench.compare_quantized")),
        total("quantbench.compare_quantized", "patches"))

    for c in CLI_COMMANDS:
        spans = tr.named(f"cli.{c}")
        m[f"cli.{c}.s"] = median(s.duration for s in spans)
        m[f"cli.{c}.exit"] = max((s.counts.get("exit", 0) for s in spans), default=0)
    return m
