"""The three workloads: corpus set-up, the timed ``gpgl`` command, and
the checks and figures read back from its artifacts.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpora
from gpgl import cli
from gpgl.nn.train import make_graph_folds
from gpgl.tensor_io import manifest_path_for, read_container, read_manifest


@dataclass
class Command:
    """One in-process ``gpgl`` invocation."""

    code: int
    wall: float
    stdout: str
    stderr: str

    def summary(self) -> dict:
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def run_cli(argv: list[str], span=None) -> Command:
    """Call ``gpgl.cli.main`` inside ``span`` with stdout and stderr
    captured. An exception the CLI does not turn into exit 1 is recorded
    as exit 1, so one bad command costs the run one failed operation and
    never ends it."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span or contextlib.nullcontext():
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return Command(code, time.perf_counter() - start, out.getvalue(), err.getvalue())


@dataclass
class Outcome:
    """What one timed command did, read back from its artifacts."""

    wall: float
    items: int  # layouts or training samples the command completed
    attempted: int
    failed: int
    problems: list[str]
    digest: str = ""  # sha256 over the artifact files
    quality: dict = field(default_factory=dict)  # vertex_kept_pct, layout_area_mean
    counts: dict = field(default_factory=dict)  # second source for traced counts
    epochs: int = 0  # epochs run over all folds
    loss_final: float | None = None  # fold-mean last-epoch training loss


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _occupied(cells: np.ndarray) -> int:
    return len({(int(r), int(c)) for r, c in cells})


def _grid_quality(cells_per_layout, sizes) -> dict:
    """Vertex kept % and mean bounding-box cells over laid-out graphs."""
    kept = sum(_occupied(cells) for cells in cells_per_layout)
    areas = [
        (int(np.max(cells[:, 0])) + 1) * (int(np.max(cells[:, 1])) + 1)
        for cells in cells_per_layout
    ]
    return {
        "vertex_kept_pct": 100.0 * kept / sum(sizes),
        "layout_area_mean": float(np.mean(areas)),
    }


def container_quality(container: Path, corpus) -> tuple[dict, list[str], dict]:
    """Read a container and its manifest back: the quality figures (an
    occupied cell is one with any nonzero feature, exact for one-hot
    features), the problems found, and facts for the checks."""
    tensors, header = read_container(container)
    entries = read_manifest(manifest_path_for(container))
    problems = []
    if header["count"] != len(entries):
        problems.append(f"container holds {header['count']} tensors, manifest {len(entries)}")
    cells = [np.argwhere(t.any(axis=2)) for t in tensors]
    sizes = [corpus[e.graph_id][0] for e in entries]
    facts = {"count": header["count"], "graph_ids": [e.graph_id for e in entries]}
    return _grid_quality(cells, sizes), problems, facts


def _stats(dataset: Path) -> dict:
    cmd = run_cli(["stats", "--dataset", str(dataset), "--json"])
    if cmd.code != 0:
        raise RuntimeError(f"gpgl stats failed: {cmd.stderr.strip()}")
    return cmd.summary()


class MolExport:
    """MUTAG-like molecules through ``gpgl export``: the paper's path."""

    name = "mol-export"
    graphs = 24
    k = 5
    setup_repeats = 15

    def setup(self, work: Path, seed: int, scale: float) -> dict:
        corpus = corpora.molecules(seed, max(2, round(self.graphs * scale)))
        dataset = corpora.write_tu(work, "MOLS", corpus)
        return {"corpus": corpus, "dataset": dataset, "stats": _stats(dataset)}

    def attempted(self, ctx: dict) -> int:
        return len(ctx["corpus"]) * self.k

    def argv(self, ctx: dict, out: Path) -> list[str]:
        return [
            "export", "--dataset", str(ctx["dataset"]), "--out", str(out / "mols.gt"),
            "-k", str(self.k), "--window", "64", "--features", "one_hot_label",
        ]

    def inspect(self, ctx: dict, out: Path, cmd: Command) -> Outcome:
        attempted = self.attempted(ctx)
        summary = cmd.summary()
        container = out / "mols.gt"
        quality, problems, facts = container_quality(container, ctx["corpus"])
        if summary["tensors"] != summary["layouts"]:
            problems.append(f"summary tensors {summary['tensors']} != layouts {summary['layouts']}")
        if facts["count"] != summary["tensors"]:
            problems.append(f"container holds {facts['count']}, summary says {summary['tensors']}")
        if summary["layouts"] + summary["failed"] != attempted:
            problems.append(f"{summary['layouts']} + {summary['failed']} layouts != {attempted} attempted")
        loss_pct = 100.0 - quality["vertex_kept_pct"]
        if not math.isclose(loss_pct, summary["vertex_loss_percent"], abs_tol=1e-9):
            problems.append(f"container loses {loss_pct}% vertices, summary {summary['vertex_loss_percent']}%")
        return Outcome(
            wall=cmd.wall,
            items=summary["layouts"],
            attempted=attempted,
            failed=attempted if problems else summary["failed"],
            problems=problems,
            digest=_digest(container, manifest_path_for(container)),
            quality=quality,
            counts={"grid.tensors": facts["count"], "augment.layouts": summary["layouts"],
                    "augment.failed": summary["failed"],
                    "tensor_io.bytes": container.stat().st_size
                    + manifest_path_for(container).stat().st_size},
        )


class DenseLayout:
    """IMDB-like ego graphs and cliques through ``gpgl layout`` (k=1)."""

    name = "dense-layout"
    graphs = 26
    cliques = 2
    setup_repeats = 15

    def setup(self, work: Path, seed: int, scale: float) -> dict:
        corpus = corpora.ego_networks(seed, max(2, round(self.graphs * scale)), cliques=self.cliques)
        dataset = corpora.write_tu(work, "EGOS", corpus)
        return {"corpus": corpus, "dataset": dataset, "stats": _stats(dataset)}

    def attempted(self, ctx: dict) -> int:
        return len(ctx["corpus"])

    def argv(self, ctx: dict, out: Path) -> list[str]:
        return ["layout", "--dataset", str(ctx["dataset"]), "--out", str(out)]

    def inspect(self, ctx: dict, out: Path, cmd: Command) -> Outcome:
        corpus = ctx["corpus"]
        attempted = self.attempted(ctx)
        summary = cmd.summary()
        doc = json.loads((out / "layouts.json").read_text())
        diags = [json.loads(line) for line in (out / "diagnostics.jsonl").read_text().splitlines()]
        problems = []
        cells, sizes = [], []
        for entry in doc["graphs"]:
            n = corpus[entry["graph_id"]][0]
            for run in entry["layouts"]:
                if "cells" in run:
                    arr = np.asarray(run["cells"], dtype=np.int64)
                    if arr.shape != (n, 2) or arr.min() != 0:
                        problems.append(f"graph {entry['graph_id']}: cells of shape {arr.shape}")
                        continue
                    cells.append(arr)
                    sizes.append(n)
        if len(doc["graphs"]) != attempted or len(diags) != attempted:
            problems.append(f"{len(doc['graphs'])} graphs, {len(diags)} diagnostics for {attempted}")
        if summary["layouts"] != len(cells) or summary["layouts"] + summary["failed"] != attempted:
            problems.append(f"summary layouts {summary['layouts']} failed {summary['failed']}, found {len(cells)}")
        quality = _grid_quality(cells, sizes) if cells else {}
        ok = [d for d in diags if "error" not in d]
        lost = sum(d["lost_vertices"] for d in ok)
        if lost != sum(n - _occupied(c) for n, c in zip(sizes, cells)):
            problems.append(f"diagnostics lose {lost} vertices, cells disagree")
        return Outcome(
            wall=cmd.wall,
            items=summary["layouts"],
            attempted=attempted,
            failed=attempted if problems else summary["failed"],
            problems=problems,
            digest=_digest(out / "layouts.json", out / "diagnostics.jsonl"),
            quality=quality,
            counts={"layout.kk_iterations": sum(d["kk_iterations"] for d in ok),
                    "layout.gpgl_iterations": sum(d["gpgl_iterations"] for d in ok),
                    "layout.lost_vertices": lost,
                    "augment.layouts": summary["layouts"], "augment.failed": summary["failed"]},
        )


class TrainCv:
    """``gpgl train`` on a container exported during set-up."""

    name = "train-cv"
    graphs = 32
    k = 2
    folds = 2
    epochs = 5
    # 32x32, not the 64x64 default: at 64x64 the evaluate batch of 32
    # took the process past 4.8 GB RSS (2-core, 8 GB host).
    window = 32
    setup_repeats = 3

    def setup(self, work: Path, seed: int, scale: float) -> dict:
        corpus = corpora.molecules(seed + 1_000, max(4, round(self.graphs * scale)), lo=7, hi=12)
        dataset = corpora.write_tu(work, "TRAIN", corpus)
        stats = _stats(dataset)
        container = work / "train.gt"
        cmd = run_cli([
            "export", "--dataset", str(dataset), "--out", str(container),
            "-k", str(self.k), "--window", str(self.window),
        ])
        if cmd.code != 0:
            raise RuntimeError(f"set-up export failed: {cmd.stderr.strip()}")
        quality, problems, facts = container_quality(container, corpus)
        if problems:
            raise RuntimeError(f"set-up export: {problems}")
        # The training set of each fold, as train() draws the folds.
        graph_ids = np.asarray(facts["graph_ids"])
        folds = make_graph_folds(graph_ids, self.folds, seed=0)
        train_sizes = [int(np.sum(~np.isin(graph_ids, test))) for test in folds]
        return {"corpus": corpus, "dataset": dataset, "stats": stats, "container": container,
                "quality": quality, "train_sizes": train_sizes}

    def attempted(self, ctx: dict) -> int:
        return self.folds

    def argv(self, ctx: dict, out: Path) -> list[str]:
        # Patience above the epoch count: early stopping cannot change
        # the amount of work.
        return [
            "train", "--tensors", str(ctx["container"]), "--out", str(out / "results.json"),
            "--folds", str(self.folds), "--epochs", str(self.epochs),
            "--patience", str(self.epochs + 1),
        ]

    def inspect(self, ctx: dict, out: Path, cmd: Command) -> Outcome:
        attempted = self.attempted(ctx)
        results = json.loads((out / "results.json").read_text())
        problems = []
        folds = results["folds"]
        if len(folds) != self.folds:
            problems.append(f"{len(folds)} fold results for {self.folds} folds")
        items = 0
        finals = []
        for fold in folds:
            losses = fold["train_losses"] + fold["val_losses"]
            if len(fold["train_losses"]) != self.epochs or not all(map(math.isfinite, losses)):
                problems.append(f"fold {fold['fold']}: losses {losses}")
                continue
            items += len(fold["train_losses"]) * ctx["train_sizes"][fold["fold"]]
            finals.append(fold["train_losses"][-1])
        for key in ("layout_accuracy", "graph_accuracy"):
            if not 0.0 <= results[key] <= 1.0:
                problems.append(f"{key} {results[key]}")
        return Outcome(
            wall=cmd.wall,
            items=items,
            attempted=attempted,
            failed=attempted if problems else 0,
            problems=problems,
            digest=_digest(out / "results.json"),
            quality=ctx["quality"],
            # Batches of the CLI's default size 10.
            counts={"nn.train.steps": sum(
                len(f["train_losses"]) * -(-ctx["train_sizes"][f["fold"]] // 10) for f in folds)},
            epochs=sum(len(f["train_losses"]) for f in folds),
            loss_final=float(np.mean(finals)) if finals else None,
        )


WORKLOADS = {w.name: w for w in (MolExport(), DenseLayout(), TrainCv())}
