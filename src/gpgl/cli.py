"""Command-line interface.

Subcommands cover the full pipeline: augment computes k grid layouts per
graph of a dataset (layout is augment with k = 1), export packs them
into a tensor container, stats summarises a corpus, render draws each
graph's k = 1 augment layout as SVG, train runs the cross-validated CNN.

Artifact files are deterministic for fixed flags and inputs; run
summaries that include wall time go to stdout only. Failures print one
JSON object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from .augment import AugmentedSet, augment
from .datasets import GraphDataset, dataset_stats, export_tensors, featurize, load_tudataset
from .errors import GpglError
from .grid import DEFAULT_WINDOW
from .layout import LayoutParams
from .nn.network import NetworkConfig
from .nn.train import load_container_training_set, train
from .render import render_svg
from .tensor_io import atomic_open, manifest_path_for, write_json

__all__ = ["main", "build_parser"]


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _from_args(cls, args: argparse.Namespace):
    # Each flag's dest is the field of ``cls`` it sets.
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _augment_dataset(
    ds: GraphDataset, p: LayoutParams, k: int, jobs: int
) -> list[AugmentedSet]:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(g, p, k, i) for i, g in enumerate(ds.graphs)]
    if jobs == 1:
        return list(itertools.starmap(augment, tasks))
    with multiprocessing.Pool(jobs) as pool:
        return pool.starmap(augment, tasks, chunksize=8)


def _write_run_files(
    out_dir: Path, sets: list[AugmentedSet], p: LayoutParams, k: int
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    graphs_doc = []
    diag_lines = []
    for s in sets:
        runs = []
        for lay in s.layouts:
            if lay.failed:
                cells = diagnostics = {"error": lay.error}
            else:
                cells = {"cells": lay.grid.cells.tolist()}
                diagnostics = lay.diagnostics.to_dict()
            runs.append({"seed": lay.seed, **cells})
            diag_lines.append(_json_line({"graph_id": s.graph_id, "seed": lay.seed, **diagnostics}))
        graphs_doc.append({"graph_id": s.graph_id, "k": s.k, "layouts": runs})
    params = asdict(p)
    params["lambda"] = params.pop("lam")
    write_json(out_dir / "layouts.json", {"params": params, "k": k, "graphs": graphs_doc})
    with atomic_open(out_dir / "diagnostics.jsonl") as fh:
        fh.write(("\n".join(diag_lines) + "\n").encode())


def _summary(sets: list[AugmentedSet], ds: GraphDataset, elapsed: float) -> dict:
    ok = [(s.graph_id, lay) for s in sets for lay in s.successful()]
    lost = sum(lay.diagnostics.lost_vertices for _, lay in ok)
    total = sum(ds.graphs[graph_id].num_vertices for graph_id, _ in ok)
    return {
        "graphs": len(sets),
        "layouts": len(ok),
        "failed": sum(s.k for s in sets) - len(ok),
        "vertex_loss_percent": (100.0 * lost / total) if total else 0.0,
        "wall_time_s": elapsed,
    }


def _cmd_augment(args: argparse.Namespace) -> int:
    ds = load_tudataset(args.dataset)
    p = _from_args(LayoutParams, args)
    start = time.perf_counter()
    sets = _augment_dataset(ds, p, args.k, args.jobs)
    elapsed = time.perf_counter() - start
    _write_run_files(Path(args.out), sets, p, args.k)
    print(_json_line(_summary(sets, ds, elapsed)))
    return 0


def _parse_window(text: str) -> tuple[int, int]:
    if "x" in text:
        h, w = text.split("x", 1)
        return int(h), int(w)
    side = int(text)
    return side, side


def _cmd_export(args: argparse.Namespace) -> int:
    ds = featurize(load_tudataset(args.dataset), mode=args.features)
    p = _from_args(LayoutParams, args)
    start = time.perf_counter()
    window = _parse_window(args.window)
    sets = _augment_dataset(ds, p, args.k, args.jobs)
    sets, entries = export_tensors(sets, ds, args.out, window=window)
    elapsed = time.perf_counter() - start
    summary = _summary(sets, ds, elapsed)
    summary["tensors"] = len(entries)
    summary["container"] = str(args.out)
    summary["manifest"] = str(manifest_path_for(args.out))
    print(_json_line(summary))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    ds = load_tudataset(args.dataset)
    stats = dataset_stats(ds)
    if args.json:
        print(_json_line(stats.to_dict()))
        return 0
    print(f"dataset       {stats.name}")
    print(f"graphs        {stats.num_graphs}")
    print(f"classes       {stats.num_classes}")
    print(f"avg nodes     {stats.avg_nodes:.2f}")
    print(f"avg edges     {stats.avg_edges:.2f}")
    print(f"avg degree    {stats.avg_degree:.2f}")
    print(f"max degree    {stats.max_degree}")
    print(f"feature dim   {stats.feature_dim}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    ds = load_tudataset(args.dataset)
    p = _from_args(LayoutParams, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    indices = range(len(ds.graphs)) if args.graph is None else [args.graph]
    failed = 0
    for i in indices:
        if not 0 <= i < len(ds.graphs):
            raise IndexError(f"graph index {i} out of range 0..{len(ds.graphs) - 1}")
        (lay,) = augment(ds.graphs[i], p, 1, graph_id=i).layouts
        if lay.failed:
            failed += 1
            continue
        svg = render_svg(ds.graphs[i], lay.grid, cell_size=args.cell_size)
        with atomic_open(out_dir / f"graph_{i}.svg") as fh:
            fh.write(svg.encode())
    summary = {"rendered": len(indices) - failed, "failed": failed, "out": str(out_dir)}
    print(_json_line(summary))
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _cmd_train(args: argparse.Namespace) -> int:
    tensors, labels, graph_ids = load_container_training_set(args.tensors)
    config = _from_args(NetworkConfig, args)
    start = time.perf_counter()
    result = train(
        tensors,
        labels,
        graph_ids,
        config,
        n_folds=args.folds,
        checkpoint_dir=args.checkpoint_dir,
    )
    elapsed = time.perf_counter() - start
    if args.out:
        write_json(args.out, result.to_dict())
    print(
        _json_line(
            {
                "layout_accuracy": result.layout_accuracy,
                "graph_accuracy": result.graph_accuracy,
                "folds": args.folds,
                "wall_time_s": elapsed,
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpgl",
        description="Grid layouts of graphs and CNN classification on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = LayoutParams()
    layout_flags = argparse.ArgumentParser(add_help=False)
    layout_flags.add_argument("--dataset", required=True, help="dataset directory")
    layout_flags.add_argument(
        "--out", required=True, help="output directory, or container file for export"
    )
    group = layout_flags.add_argument_group("layout")
    group.add_argument("--alpha", type=float, default=d.alpha, help="separation radius")
    group.add_argument(
        "--lambda", dest="lam", type=float, default=d.lam, help="final penalty weight"
    )
    group.add_argument("--gamma", type=float, default=d.gamma, help="rescale floor")
    group.add_argument(
        "--rescale",
        dest="enable_rescale",
        action="store_true",
        default=d.enable_rescale,
        help="rescale between the two stages",
    )
    group.add_argument("--max-iters", type=int, default=d.max_iters)
    group.add_argument("--grad-tol", type=float, default=d.grad_tol)
    group.add_argument("--seed", type=int, default=d.seed)
    jobs_flag = argparse.ArgumentParser(add_help=False)
    jobs_flag.add_argument("--jobs", type=int, default=1, help="worker processes")

    p_layout = sub.add_parser(
        "layout", parents=[layout_flags, jobs_flag], help="one grid layout per graph"
    )
    p_layout.set_defaults(func=_cmd_augment, k=1)

    p_aug = sub.add_parser("augment", parents=[layout_flags, jobs_flag], help="k layouts per graph")
    p_aug.add_argument("-k", type=int, default=5, help="layouts per graph")
    p_aug.set_defaults(func=_cmd_augment)

    p_exp = sub.add_parser(
        "export", parents=[layout_flags, jobs_flag], help="augment and pack tensors"
    )
    p_exp.add_argument("-k", type=int, default=5)
    p_exp.add_argument(
        "--features",
        choices=("auto", "one_hot_label", "one_hot_degree"),
        default="auto",
    )
    p_exp.add_argument("--window", default="%dx%d" % DEFAULT_WINDOW, help="window size, N or HxW")
    p_exp.set_defaults(func=_cmd_export)

    p_stats = sub.add_parser("stats", help="corpus summary statistics")
    p_stats.add_argument("--dataset", required=True)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    p_render = sub.add_parser("render", parents=[layout_flags], help="draw layouts as SVG")
    p_render.add_argument("--graph", type=int, default=None, help="single graph index")
    p_render.add_argument("--cell-size", type=int, default=40)
    p_render.set_defaults(func=_cmd_render)

    p_train = sub.add_parser("train", help="cross-validated CNN training")
    p_train.add_argument("--tensors", required=True, help="container file")
    p_train.add_argument("--out", default=None, help="results JSON path")
    p_train.add_argument("--checkpoint-dir", default=None)
    p_train.add_argument("--folds", type=int, default=10)
    net = NetworkConfig()
    p_train.add_argument(
        "--channels", dest="conv_channels", type=_parse_int_list, default=net.conv_channels
    )
    p_train.add_argument("--fc", dest="fc_sizes", type=_parse_int_list, default=net.fc_sizes)
    p_train.add_argument("--scales", type=int, default=net.scales)
    p_train.add_argument(
        "--global-pool", choices=("max", "mean"), default=net.global_pool
    )
    p_train.add_argument("--dropout", type=float, default=net.dropout)
    p_train.add_argument("--lr", dest="learning_rate", type=float, default=net.learning_rate)
    p_train.add_argument("--batch-size", type=int, default=net.batch_size)
    p_train.add_argument("--epochs", type=int, default=net.epochs)
    p_train.add_argument("--patience", type=int, default=net.patience)
    p_train.add_argument("--seed", type=int, default=net.seed)
    p_train.set_defaults(func=_cmd_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GpglError, OSError, ValueError, IndexError, KeyError) as exc:
        sys.stderr.write(
            _json_line({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
