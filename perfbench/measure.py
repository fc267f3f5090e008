"""One benchmark run: set-up, the timed or traced command, checks, and
the metrics. ``run.py`` configures the process and calls ``run``."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from corpora import spec_of
from spans import Tracer, instrument, recompose
from workloads import WORKLOADS, Outcome, run_cli


def emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _timed(wl, ctx: dict, out: Path, span=None):
    """Run the workload's command once into ``out`` and inspect it."""
    out.mkdir(parents=True)
    cmd = run_cli(wl.argv(ctx, out), span)
    attempted = wl.attempted(ctx)
    if cmd.code != 0:
        return Outcome(cmd.wall, 0, attempted, attempted, [f"exit {cmd.code}: {cmd.stderr.strip()}"])
    try:
        return wl.inspect(ctx, out, cmd)
    except Exception as exc:  # a malformed artifact is a failed operation
        return Outcome(cmd.wall, 0, attempted, attempted, [f"artifacts: {type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(setup_times: list[float], outcomes: list) -> dict:
    quality = next((o.quality for o in outcomes if o.quality), {})
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "items_per_s": _metric(statistics.median(o.items / o.wall for o in outcomes), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
        "vertex_kept_pct": _metric(quality.get("vertex_kept_pct", 0.0), "%"),
        "layout_area_mean": _metric(quality.get("layout_area_mean", 0.0), "cells"),
    }


def _tail(samples: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the highest whole
    percentile with at least ten samples beyond it (0 below 11 samples)."""
    if not samples:
        return 0.0, 0.0, 0.0
    pct = max(0, (100 * (len(samples) - 10)) // len(samples))
    return float(np.median(samples)), float(np.percentile(samples, pct)), float(pct)


def _per_layer(tracer, plain, traced, mismatches: int) -> tuple[dict, dict]:
    """The per-layer metrics and the counts, labelled exact or computed."""
    t, c = tracer.total, tracer.counts
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "command")
    root_s = tracer.spans[root].end - tracer.spans[root].start
    p50, tail, tail_pct = _tail(tracer.durations("layout.call"))
    recomposed = t("recompose")
    exact = {
        "graph.apsp_calls": c["graph.apsp_calls"],
        "layout.kk_iterations": c["layout.kk_iterations"],
        "layout.gpgl_iterations": c["layout.gpgl_iterations"],
        "layout.lost_vertices": c["layout.lost_vertices"],
        "augment.layouts": c["augment.layouts"],
        "augment.retries": c["augment.retries"],
        "augment.failed": c["augment.failed"],
        "grid.tensors": c["grid.tensors"],
        "tensor_io.bytes": c["tensor_io.bytes"],
        "nn.train.steps": c["nn.train.steps"],
        "nn.train.epochs": traced.epochs,
        "trace.recompose_mismatches": mismatches,
    }
    computed = {
        "nn.ops.conv_gflop": c["conv_flop"] / 1e9,
        "nn.ops.im2col_peak_mb": c["im2col_peak_bytes"] / 2**20,
    }
    units = {"tensor_io.bytes": "bytes", "nn.ops.conv_gflop": "GFLOP", "nn.ops.im2col_peak_mb": "MB"}
    metrics = {
        "datasets.load_s": _metric(t("datasets.load"), "s"),
        "datasets.featurize_s": _metric(t("datasets.featurize"), "s"),
        "graph.apsp_s": _metric(t("graph.apsp"), "s"),
        "layout.stress_s": _metric(t("layout.stress"), "s"),
        "layout.penalized_s": _metric(t("layout.penalized"), "s"),
        "layout.penalized_share": _metric(t("layout.penalized") / recomposed if recomposed else 0.0, "ratio"),
        "layout.call_s_p50": _metric(p50, "s"),
        "layout.call_s_tail": _metric(tail, "s"),
        "layout.call_tail_pct": _metric(tail_pct, "%"),
        "grid.build_s": _metric(t("grid.build"), "s"),
        "tensor_io.write_s": _metric(t("tensor_io.write"), "s"),
        "tensor_io.read_s": _metric(t("tensor_io.read"), "s"),
        "nn.ops.conv_fwd_s": _metric(t("nn.ops.conv_fwd"), "s"),
        "nn.ops.conv_bwd_s": _metric(t("nn.ops.conv_bwd"), "s"),
        "nn.ops.maxout_s": _metric(t("nn.ops.maxout"), "s"),
        "nn.ops.pool_s": _metric(t("nn.ops.pool"), "s"),
        "nn.ops.dense_s": _metric(t("nn.ops.dense"), "s"),
        "nn.network.loss_and_grad_s": _metric(t("nn.network.loss_and_grad"), "s"),
        "nn.train.adam_s": _metric(t("nn.train.adam"), "s"),
        "nn.train.evaluate_s": _metric(t("nn.train.evaluate"), "s"),
        "nn.train.loss_final": _metric(traced.loss_final or 0.0, "nats"),
        "trace.overhead_pct": _metric(100.0 * (traced.wall - plain.wall) / plain.wall, "%"),
        "trace.uncovered_share": _metric(tracer.self_time(root) / root_s, "ratio"),
    }
    for name, value in {**exact, **computed}.items():
        metrics[name] = _metric(value, units.get(name, "count"))
    return metrics, {"exact": exact, "computed": computed}


def _count_problems(tracer, traced) -> list[str]:
    """Counts seen twice, by the tracer and in the artifacts, must agree."""
    return [
        f"count {key}: traced {tracer.counts.get(key, 0)}, artifacts {value}"
        for key, value in traced.counts.items()
        if tracer.counts.get(key, 0) != value
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float, work: Path) -> dict:
    wl = WORKLOADS[workload]
    setup_times = []
    for i in range(1 if trace else wl.setup_repeats):
        start = time.perf_counter()
        ctx = wl.setup(work / f"setup{i}", seed, scale)
        setup_times.append(time.perf_counter() - start)
    emit({"corpus": spec_of(ctx["corpus"]), "stats": ctx["stats"], "setup_s": setup_times})

    if trace:
        # Plain, traced, plain: the overhead compares the traced command
        # with the second plain one, both after the first has warmed up.
        warm = _timed(wl, ctx, work / "warm")
        tracer, calls = Tracer(), []
        with instrument(tracer, calls):
            traced = _timed(wl, ctx, work / "traced", tracer.span("command"))
        plain = _timed(wl, ctx, work / "plain")
        mismatches = recompose(tracer, calls)
        outcomes = [warm, traced, plain]
        metrics, counts = _per_layer(tracer, plain, traced, mismatches)
        emit({"counts": counts})
        problems = _count_problems(tracer, traced)
        if mismatches:
            problems.append(f"{mismatches} recomposed layouts differ from layout_graph's")
    else:
        outcomes = []
        start = time.perf_counter()
        while True:
            outcomes.append(_timed(wl, ctx, work / f"run{len(outcomes)}"))
            if time.perf_counter() - start + outcomes[-1].wall > seconds:
                break
        metrics = _end_to_end(setup_times, outcomes)
        problems = []
    digests = {o.digest for o in outcomes if o.digest}
    if len(digests) > 1:
        problems.append(f"artifacts differ between repetitions: {sorted(digests)}")
    problems += [p for o in outcomes for p in o.problems]
    if problems:
        emit({"problems": problems})
    emit({"repetitions": [{"wall_s": o.wall, "items": o.items, "digest": o.digest} for o in outcomes]})
    return {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }
