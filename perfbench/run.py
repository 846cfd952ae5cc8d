"""coastwatch benchmark: one process, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deploy_scene --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The workload builds its inputs from --seed in set-up (timed several times),
then runs operations back to back for --seconds, at least one per input
unit, and checks every operation's outputs. With --trace 0 it prints the
end-to-end metrics; with --trace 1 each operation runs once traced (spans
around every public coastwatch call, written to perfbench/out/) and once
untraced, and it prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 150.0   # stop starting operations after this much wall time

# BLAS threads: at most the CPUs this process may use, and at most 2, set
# before numpy loads.
BLAS_THREADS = str(min(len(os.sched_getaffinity(0)), 2))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# (name, unit, better, bound). Every workload reports each of these, so
# they are defined for all three: op_s_p50 is one scene on deploy_scene, one
# certified model on ground_train and one 7-command chain on cli_chain. The
# accuracy figures vary with the seed by more than any allowed bound, so
# they are printed beside the timings and gated by the checks instead. On a
# shared 2-core host the ten-seed IQR/median of op_s_p50 reaches 0.1-0.2
# (measured values in CHANGES.md), hence the largest bound allowed.
# peak_rss_mb is the whole process's peak, set-up included; op_heap_peak_mb
# is what one operation allocates at its peak, whichever phase sets the
# process peak.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("op_heap_peak_mb", "MB", "lower", 0.15),
]


def _import_library():
    if not (SRC / "coastwatch" / "__init__.py").is_file():
        sys.exit(f"error: no coastwatch source tree at {SRC.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    from coastwatch import quantbench

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "reference_vpu": quantbench.REFERENCE_VPU}


def computed_counts() -> dict:
    """Operation counts from the paper network's dimensions (layers.py)."""
    from layers import mlp_macs, stack_bytes, stack_flops_per_cell
    from workloads import PAPER_DIMS

    cells, patch_bytes = 25 * 25, 7 * 256 * 256 * 4
    return {
        "label": "computed",
        "stack_gflop_per_patch": cells * stack_flops_per_cell(PAPER_DIMS) / 1e9,
        "stack_mb_per_patch": stack_bytes(PAPER_DIMS, cells, patch_bytes) / 1e6,
        "train_mflop_per_sample_epoch_fwd_bwd": 6 * mlp_macs(PAPER_DIMS) / 1e6,
    }


def tail(times: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return {"n": n, "percentile": None, "value_s": None}
    return {"n": n, "percentile": round(100.0 * (n - 10) / n, 1),
            "value_s": sorted(times)[n - 11]}


def max_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def heap_peak_mb(op, unit):
    """One operation under tracemalloc, which follows numpy's buffers and
    Python's objects: the peak it allocates above what was held when it
    began, and its output. tracemalloc slows the operation, so it is not
    timed."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = op(unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2.0**20, out


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import shutil
    import tempfile

    from layers import TARGETS, layer_metrics
    from spans import Tracer, median
    from workloads import SETUP_REPS, WORKLOADS

    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    wl = WORKLOADS[workload](work)
    tracer = Tracer() if traced else None
    try:
        units, setup_times = [], []
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.install(TARGETS)
            t0 = time.perf_counter()
            units.append(wl.setup(seed, rep))
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()

        setup_peak_rss_mb = max_rss_mb()
        op_times, traced_times, outcomes, errors = [], [], [], 0
        peak_rss_mb = op_heap_peak_mb = 0.0
        loop_start = time.perf_counter()
        i = 0
        while i < len(units) or (time.perf_counter() - loop_start < seconds
                                 and time.perf_counter() - start < RUN_LIMIT_S):
            unit = units[i % len(units)]
            try:
                traced_out = None
                if tracer:
                    tracer.op = i
                    tracer.install(TARGETS)
                    t0 = time.perf_counter()
                    with tracer.span("op"):
                        traced_out = wl.traced_op(unit, tracer)
                    traced_times.append(time.perf_counter() - t0)
                    tracer.uninstall()
                    tracer.op = -1
                t0 = time.perf_counter()
                out = wl.op(unit)
                op_times.append(time.perf_counter() - t0)
                outcomes.append(wl.check(unit, out, traced_out))
                if i == len(units) - 1:
                    # heap growth over later operations depends on how many
                    # fit in the run, so the peak is read after one cycle
                    peak_rss_mb = max_rss_mb()
                    if not tracer:
                        op_heap_peak_mb, out = heap_peak_mb(wl.op, units[0])
                        outcomes.append(wl.check(units[0], out))
            except Exception:  # the loop reports a broken operation and goes on
                traceback.print_exc()
                if tracer:
                    tracer.uninstall()
                    tracer.op = -1
                errors += 1
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not peak_rss_mb:
        peak_rss_mb = max_rss_mb()
    failed = errors + sum(o.failed for o in outcomes)
    attempted = len(outcomes) + errors
    first = outcomes[0] if outcomes else None
    report = {
        "workload": workload, "seed": seed, "attempted": attempted,
        "failed": failed, "setup_times_s": setup_times,
        "setup_peak_rss_mb": setup_peak_rss_mb,
        "peak_rss_set_by": "set-up" if peak_rss_mb <= setup_peak_rss_mb else "ops",
        "op_tail": tail(op_times),
        "failed_checks": sorted({k for o in outcomes
                                 for k, ok in o.checks.items() if not ok}),
        "fp16_gate_failed": sum(o.fp16_gate_passed is False for o in outcomes),
        "first_op_acc": first.acc if first else {},
        "op_times_s": op_times,
    }
    if tracer:
        tracer.write_jsonl(OUT / f"trace-{workload}-{seed}.jsonl")
        metrics = layer_metrics(tracer)
        t_tr, t_un = median(traced_times), median(op_times)
        metrics["trace.op_s_p50"] = t_tr
        metrics["trace.untraced_op_s_p50"] = t_un
        metrics["trace.overhead_frac"] = t_tr / t_un - 1.0 if t_un else 0.0
        acc = first.acc if first else {}
        for key in ("test_rmse_over_floor", "equiv_max_dev", "fp16_max_dev_chips",
                    "fp16_max_dev_random", "alert_max_bytes"):
            metrics[f"acc.{key}"] = float(acc.get(key, 0.0))
        metrics["ops.failed_frac"] = failed / attempted
        metrics["ops.fp16_gate_failed_frac"] = report["fp16_gate_failed"] / attempted
    else:
        metrics = {
            "setup_s": median(setup_times),
            "op_s_p50": median(op_times),
            "peak_rss_mb": peak_rss_mb,
            "op_heap_peak_mb": op_heap_peak_mb,
        }
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    _import_library()

    import json

    import selftest
    from coastwatch.quantbench import REFERENCE_VPU
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if args.self_test:
        return selftest.main(END_TO_END, PER_LAYER)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    selftest.check_declaration(END_TO_END, PER_LAYER)
    selftest.check_checks()

    specs = {n: u for n, u, *_ in (PER_LAYER if args.trace else END_TO_END)}
    moves = {n: m for n, _, _, m in PER_LAYER}
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report.pop("metrics")
    if set(metrics) != set(specs):
        sys.exit(f"error: metric names {sorted(set(metrics) ^ set(specs))} "
                 "differ from the declared list")
    print(json.dumps({"env": environment(), "computed": computed_counts(),
                      **report}))
    for name, unit in specs.items():
        why = f"  -> {moves[name]}" if name in moves else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{why}")
    if not args.trace:
        print(f"peak_rss_mb is set by {report['peak_rss_set_by']} (peak before the "
              f"first operation: {report['setup_peak_rss_mb']:.1f} MB)")
    if args.trace:
        print("reference, not a gate: Myriad-2 VPU "
              f"{REFERENCE_VPU['ms_per_inference']} ms/inference, "
              f"{REFERENCE_VPU['fps']} FPS beside convnet.infer_patch.ms_p50 = "
              f"{metrics['convnet.infer_patch.ms_p50']:.2f} ms")
    print("accuracy of the first operation: " + ", ".join(
        f"{k} = {v:.6g}" for k, v in report["first_op_acc"].items()))
    print(f"checks: {report['attempted']} operations, {report['failed']} failed "
          f"(failed checks: {', '.join(report['failed_checks']) or 'none'}); "
          f"fp16 gate failed on {report['fp16_gate_failed']} (known defect)")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": float(metrics[n]), "unit": u}
                    for n, u in specs.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
