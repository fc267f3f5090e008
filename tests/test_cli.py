"""End-to-end CLI tests, run in-process through main()."""

import contextlib
import io
import json
import re
import shlex
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpgl.augment
from conftest import complete_graph, cycle_graph, path_graph, write_tu_dataset
from gpgl.cli import _from_args, _parse_window, build_parser, main
from gpgl.datasets import load_tudataset
from gpgl.errors import NonFiniteLossError
from gpgl.grid import DEFAULT_WINDOW
from gpgl.layout import LayoutParams, layout_graph
from gpgl.render import render_svg
from gpgl.nn.network import NetworkConfig
from gpgl.tensor_io import (
    ManifestEntry,
    manifest_path_for,
    read_container,
    read_manifest,
    write_container,
    write_manifest,
)


def write_cli_dataset(directory):
    graphs = [cycle_graph(5), path_graph(4), cycle_graph(6), path_graph(5)]
    labels = [1, -1, 1, -1]
    node_labels = [[v % 2 for v in range(g.num_vertices)] for g in graphs]
    return write_tu_dataset(directory, "CLI", graphs, labels, node_labels)


@pytest.fixture
def cli_dataset(tmp_path):
    return write_cli_dataset(tmp_path)


@pytest.fixture
def ten_graph_dataset(tmp_path):
    """Ten graphs: two chunks of work for a pool of two workers."""
    graphs = [cycle_graph(3 + i % 4) if i % 2 else path_graph(2 + i % 5) for i in range(10)]
    node_labels = [[v % 2 for v in range(g.num_vertices)] for g in graphs]
    return write_tu_dataset(tmp_path, "TEN", graphs, [i % 2 for i in range(10)], node_labels)


def run_jobs_1_and_2(capsys, argv, out_of):
    """Run ``argv`` with ``--jobs 1`` and ``--jobs 2``, writing to
    ``out_of("1")`` and ``out_of("2")``."""
    for jobs in ("1", "2"):
        code, _, stderr = run(capsys, argv + ["--out", str(out_of(jobs)), "--jobs", jobs] + FAST)
        assert code == 0, stderr


FAST = ["--max-iters", "60"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDefaults:
    """Flags left out take the library's defaults."""

    @pytest.mark.parametrize("command", ["layout", "augment", "export", "render"])
    def test_layout_flags(self, command):
        args = build_parser().parse_args([command, "--dataset", "d", "--out", "o"])
        assert _from_args(LayoutParams, args) == LayoutParams()

    def test_train_flags(self):
        args = build_parser().parse_args(["train", "--tensors", "t"])
        assert _from_args(NetworkConfig, args) == NetworkConfig()

    def test_export_window(self):
        args = build_parser().parse_args(["export", "--dataset", "d", "--out", "o"])
        assert _parse_window(args.window) == DEFAULT_WINDOW

    def test_export_has_no_merge_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["export", "--dataset", "d", "--out", "o", "--merge", "max"]
            )
        assert exc.value.code == 2
        assert "--merge" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_commands() -> list[list[str]]:
    """The arguments after ``gpgl`` of every command line in the shell
    blocks of the README's CLI section, backslash continuations joined."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if "gpgl" in tokens:
                commands.append(tokens[tokens.index("gpgl") + 1 :])
    return commands


def test_readme_covers_every_subcommand():
    assert {argv[0] for argv in _readme_cli_commands()} == {
        "stats", "layout", "augment", "export", "train", "render"
    }


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)


class TestLayoutCommand:
    def test_writes_artifacts_and_summary(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, stderr = run(
            capsys,
            ["layout", "--dataset", str(cli_dataset), "--out", str(out)] + FAST,
        )
        assert code == 0
        assert stderr == ""
        summary = json.loads(stdout)
        assert summary["graphs"] == 4
        assert summary["layouts"] == 4
        assert summary["failed"] == 0
        assert "wall_time_s" in summary
        doc = json.loads((out / "layouts.json").read_text())
        assert doc["k"] == 1
        assert doc["params"]["alpha"] == 1.25
        assert doc["params"]["lambda"] == 1000.0
        assert len(doc["graphs"]) == 4
        lines = (out / "diagnostics.jsonl").read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert "total_loss" in record

    def test_artifacts_byte_identical_across_runs(self, cli_dataset, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(
                capsys,
                ["layout", "--dataset", str(cli_dataset), "--out", str(out)] + FAST,
            )
            assert code == 0
            outs.append(out)
        for fname in ("layouts.json", "diagnostics.jsonl"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_same_artifacts_as_augment_k1(self, cli_dataset, tmp_path, capsys):
        flags = ["--dataset", str(cli_dataset), "--seed", "3"] + FAST
        code, _, _ = run(capsys, ["layout", "--out", str(tmp_path / "l")] + flags)
        assert code == 0
        code, _, _ = run(capsys, ["augment", "-k", "1", "--out", str(tmp_path / "a")] + flags)
        assert code == 0
        for fname in ("layouts.json", "diagnostics.jsonl"):
            assert (tmp_path / "l" / fname).read_bytes() == (tmp_path / "a" / fname).read_bytes()

    def test_parallel_jobs(self, ten_graph_dataset, tmp_path, capsys):
        argv = ["layout", "--dataset", str(ten_graph_dataset)]
        run_jobs_1_and_2(capsys, argv, lambda jobs: tmp_path / jobs)
        for fname in ("layouts.json", "diagnostics.jsonl"):
            assert (tmp_path / "2" / fname).read_bytes() == (tmp_path / "1" / fname).read_bytes()

    def test_jobs_zero_rejected(self, cli_dataset, tmp_path, capsys):
        code, stdout, stderr = run(
            capsys,
            ["layout", "--dataset", str(cli_dataset), "--out", str(tmp_path / "x"), "--jobs", "0"]
            + FAST,
        )
        assert code == 1
        assert stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "ValueError"


class TestAugmentCommand:
    def test_k_layouts_per_graph(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "aug"
        code, stdout, _ = run(
            capsys,
            ["augment", "--dataset", str(cli_dataset), "--out", str(out), "-k", "3"]
            + FAST,
        )
        assert code == 0
        assert json.loads(stdout)["layouts"] == 12
        doc = json.loads((out / "layouts.json").read_text())
        assert doc["k"] == 3
        assert all(len(g["layouts"]) == 3 for g in doc["graphs"])
        lines = (out / "diagnostics.jsonl").read_text().splitlines()
        assert len(lines) == 12


def fail_layouts(monkeypatch, num_vertices, seeds):
    """Make ``layout_graph`` raise for graphs of ``num_vertices`` vertices
    under ``seeds``."""
    real = gpgl.augment.layout_graph

    def layout_graph(g, p):
        if g.num_vertices == num_vertices and p.seed in seeds:
            raise NonFiniteLossError("forced")
        return real(g, p)

    monkeypatch.setattr(gpgl.augment, "layout_graph", layout_graph)


class TestFailedRuns:
    """Graph 2 of the CLI corpus is the only one with 6 vertices."""

    def run_files(self, capsys, cli_dataset, out):
        code, stdout, _ = run(
            capsys, ["layout", "--dataset", str(cli_dataset), "--out", str(out)] + FAST
        )
        assert code == 0
        doc = json.loads((out / "layouts.json").read_text())
        lines = [json.loads(line) for line in (out / "diagnostics.jsonl").read_text().splitlines()]
        return json.loads(stdout), doc["graphs"], lines

    def test_one_failure_records_the_retry_seed(self, cli_dataset, tmp_path, capsys, monkeypatch):
        fail_layouts(monkeypatch, 6, {0})
        summary, graphs, lines = self.run_files(capsys, cli_dataset, tmp_path / "r")
        assert summary["failed"] == 0 and summary["layouts"] == 4
        assert [g["layouts"][0]["seed"] for g in graphs] == [0, 0, 1_000_003, 0]
        assert [line["seed"] for line in lines] == [0, 0, 1_000_003, 0]
        assert "cells" in graphs[2]["layouts"][0]
        assert "total_loss" in lines[2]

    def test_two_failures_write_a_failed_slot(self, cli_dataset, tmp_path, capsys, monkeypatch):
        fail_layouts(monkeypatch, 6, {0, 1_000_003})
        summary, graphs, lines = self.run_files(capsys, cli_dataset, tmp_path / "f")
        assert summary["failed"] == 1 and summary["layouts"] == 3
        error = "NonFiniteLossError: forced"
        assert graphs[2] == {"graph_id": 2, "k": 1, "layouts": [{"seed": 0, "error": error}]}
        assert lines[2] == {"graph_id": 2, "seed": 0, "error": error}
        assert [len(g["layouts"]) for g in graphs] == [1, 1, 1, 1]
        assert all("cells" in graphs[i]["layouts"][0] for i in (0, 1, 3))
        assert all("total_loss" in lines[i] for i in (0, 1, 3))


class TestExportCommand:
    def test_container_and_manifest(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "cli.gt"
        code, stdout, _ = run(
            capsys,
            [
                "export",
                "--dataset",
                str(cli_dataset),
                "--out",
                str(out),
                "-k",
                "2",
                "--window",
                "16",
            ]
            + FAST,
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["tensors"] == 8
        tensors, header = read_container(out)
        assert tensors.shape == (8, 16, 16, 2)
        entries = read_manifest(f"{out}.manifest.json")
        assert len(entries) == 8
        assert {e.graph_id for e in entries} == {0, 1, 2, 3}

    def test_parallel_jobs(self, ten_graph_dataset, tmp_path, capsys):
        argv = ["export", "--dataset", str(ten_graph_dataset), "-k", "2", "--window", "16"]
        run_jobs_1_and_2(capsys, argv, lambda jobs: tmp_path / f"{jobs}.gt")
        containers = [tmp_path / "1.gt", tmp_path / "2.gt"]
        for one, two in (containers, [manifest_path_for(c) for c in containers]):
            assert two.read_bytes() == one.read_bytes()

    def test_rectangular_window_and_degree_features(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "cli2.gt"
        code, stdout, _ = run(
            capsys,
            [
                "export",
                "--dataset",
                str(cli_dataset),
                "--out",
                str(out),
                "-k",
                "1",
                "--window",
                "12x16",
                "--features",
                "one_hot_degree",
            ]
            + FAST,
        )
        assert code == 0
        tensors, _ = read_container(out)
        # Corpus max degree 2 -> one-hot dimension 3.
        assert tensors.shape == (4, 12, 16, 3)

    def test_overflowing_layout_is_one_failed_run(self, tmp_path, capsys):
        # K20 needs more than 16 cells; the small graphs fit a 4x4 window.
        graphs = [path_graph(3), complete_graph(20), cycle_graph(4), path_graph(2)]
        dataset = write_tu_dataset(tmp_path, "BIG", graphs, [1, -1, 1, -1])
        out = tmp_path / "big.gt"
        argv = ["export", "--dataset", str(dataset), "--out", str(out), "-k", "2", "--window", "4"]
        code, stdout, _ = run(capsys, argv + FAST)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["failed"] == 2
        assert summary["layouts"] == summary["tensors"] == 6
        assert summary["layouts"] + summary["failed"] == 2 * len(graphs)
        tensors, _ = read_container(out)
        assert tensors.shape[:3] == (6, 4, 4)
        assert sorted(e.graph_id for e in read_manifest(manifest_path_for(out))) == [0, 0, 2, 2, 3, 3]

    @pytest.mark.parametrize("window", ["1", "0", "-3"])
    def test_no_layout_fits_is_json_error(self, cli_dataset, tmp_path, capsys, window):
        out = tmp_path / "none.gt"
        argv = ["export", "--dataset", str(cli_dataset), "--out", str(out), "--window", window]
        code, stdout, stderr = run(capsys, argv + FAST)
        assert code == 1 and stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "WindowOverflowError"
        assert err["message"].startswith("graph 0: ")
        assert err["message"].endswith(f"window is {window}x{window}")
        assert not out.exists()


class TestStatsCommand:
    def test_json_output(self, cli_dataset, capsys):
        code, stdout, _ = run(capsys, ["stats", "--dataset", str(cli_dataset), "--json"])
        assert code == 0
        doc = json.loads(stdout)
        assert doc["num_graphs"] == 4
        assert doc["num_classes"] == 2
        assert doc["feature_dim"] == 2

    def test_human_output(self, cli_dataset, capsys):
        code, stdout, _ = run(capsys, ["stats", "--dataset", str(cli_dataset)])
        assert code == 0
        assert "graphs        4" in stdout


class TestRenderCommand:
    def test_single_graph(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "svg"
        code, stdout, _ = run(
            capsys,
            ["render", "--dataset", str(cli_dataset), "--out", str(out), "--graph", "0"]
            + FAST,
        )
        assert code == 0
        assert json.loads(stdout)["rendered"] == 1
        svg = (out / "graph_0.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_out_of_range_graph(self, cli_dataset, tmp_path, capsys):
        code, _, stderr = run(
            capsys,
            ["render", "--dataset", str(cli_dataset), "--out", str(tmp_path / "s"), "--graph", "99"]
            + FAST,
        )
        assert code == 1
        assert json.loads(stderr)["error"] == "IndexError"

    def test_failed_layout_is_skipped_and_counted(self, cli_dataset, tmp_path, capsys, monkeypatch):
        fail_layouts(monkeypatch, 6, {0, 1_000_003})
        out = tmp_path / "svg"
        code, stdout, _ = run(
            capsys, ["render", "--dataset", str(cli_dataset), "--out", str(out)] + FAST
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["rendered"] == 3 and summary["failed"] == 1
        assert sorted(f.name for f in out.iterdir()) == ["graph_0.svg", "graph_1.svg", "graph_3.svg"]
        # A drawn graph shows its seed-0 layout, as layout_graph gives it.
        g = load_tudataset(cli_dataset).graphs[3]
        grid, _ = layout_graph(g, LayoutParams(max_iters=60))
        assert (out / "graph_3.svg").read_text() == render_svg(g, grid, cell_size=40)


class TestTrainCommand:
    def test_train_on_exported_tensors(self, cli_dataset, tmp_path, capsys):
        container = tmp_path / "t.gt"
        code, _, _ = run(
            capsys,
            [
                "export",
                "--dataset",
                str(cli_dataset),
                "--out",
                str(container),
                "-k",
                "3",
                "--window",
                "16",
            ]
            + FAST,
        )
        assert code == 0
        results = tmp_path / "results.json"
        ckpts = tmp_path / "ckpts"
        code, stdout, stderr = run(
            capsys,
            [
                "train",
                "--tensors",
                str(container),
                "--out",
                str(results),
                "--checkpoint-dir",
                str(ckpts),
                "--folds",
                "2",
                "--channels",
                "3",
                "--fc",
                "8",
                "--scales",
                "2",
                "--dropout",
                "0.0",
                "--lr",
                "0.01",
                "--batch-size",
                "6",
                "--epochs",
                "3",
                "--patience",
                "3",
            ],
        )
        assert code == 0, stderr
        summary = json.loads(stdout)
        assert 0.0 <= summary["layout_accuracy"] <= 1.0
        assert 0.0 <= summary["graph_accuracy"] <= 1.0
        doc = json.loads(results.read_text())
        assert len(doc["folds"]) == 2
        assert (ckpts / "fold0.ckpt").is_file()
        assert (ckpts / "fold1.ckpt").is_file()


class TestErrorHandling:
    def test_missing_dataset_is_json_error(self, tmp_path, capsys):
        code, stdout, stderr = run(
            capsys,
            ["stats", "--dataset", str(tmp_path / "nope")],
        )
        assert code == 1
        assert stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "DatasetParseError"
        assert "message" in err

    def test_bad_window_argument(self, cli_dataset, tmp_path, capsys):
        code, _, stderr = run(
            capsys,
            [
                "export",
                "--dataset",
                str(cli_dataset),
                "--out",
                str(tmp_path / "x.gt"),
                "--window",
                "axb",
            ]
            + FAST,
        )
        assert code == 1
        assert json.loads(stderr)["error"] == "ValueError"

    @pytest.mark.parametrize("name", ["alpha", "gamma", "grad_tol"])
    def test_non_finite_layout_parameter(self, cli_dataset, tmp_path, capsys, name):
        out = tmp_path / "x"
        flag = "--" + name.replace("_", "-")
        argv = ["layout", "--dataset", str(cli_dataset), "--out", str(out), flag, "nan"]
        code, stdout, stderr = run(capsys, argv + FAST)
        assert code == 1 and stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{name} must be finite")
        assert not out.exists()

    def test_negative_seed(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["layout", "--dataset", str(cli_dataset), "--out", str(out), "--seed", "-1"]
        code, stdout, stderr = run(capsys, argv + FAST)
        assert code == 1 and stdout == ""
        assert json.loads(stderr) == {"error": "ValueError", "message": "seed must be >= 0"}
        assert not out.exists()

    @pytest.mark.parametrize(
        "header",
        [
            b"5",
            b'{"channels":1,"count":-1,"dtype":"f32","height":2,"order":"","width":2}',
            b'{"channels":1,"count":2,"dtype":"f32","height":"2","order":"","width":2}',
            b'{"channels":true,"count":2,"dtype":"f32","height":2,"order":"","width":2}',
        ],
        ids=["int", "negative-count", "string-height", "bool-channels"],
    )
    def test_train_malformed_container_header(self, tmp_path, capsys, header):
        path = tmp_path / "bad.gt"
        path.write_bytes(header + b"\n" + bytes(32))
        write_manifest(manifest_path_for(path), [ManifestEntry(i, 0, i % 2) for i in range(2)])
        code, stdout, stderr = run(capsys, ["train", "--tensors", str(path), "--folds", "2"])
        assert code == 1
        assert stdout == ""
        assert json.loads(stderr)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "entry",
        [
            {"graph_id": 0, "layout_seed": 0, "label": 0, "x": 1},
            {"graph_id": 0, "layout_seed": 0},
            {"graph_id": 0, "layout_seed": 0, "label": "0"},
            {"graph_id": 0, "layout_seed": 0, "label": 0.5},
            [0, 0, 0],
            {"graph_id": 0, "layout_seed": 0, "label": 2**70},
            {"graph_id": 2**63, "layout_seed": 0, "label": 0},
        ],
        ids=[
            "extra-key",
            "missing-key",
            "string-label",
            "float-label",
            "list",
            "huge-label",
            "huge-graph-id",
        ],
    )
    def test_train_malformed_manifest_entry(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.gt"
        write_container(path, np.zeros((2, 2, 2, 1), dtype=np.float32))
        good = {"graph_id": 1, "layout_seed": 0, "label": 1}
        manifest_path_for(path).write_text(json.dumps({"entries": [entry, good]}))
        code, stdout, stderr = run(capsys, ["train", "--tensors", str(path), "--folds", "2"])
        assert code == 1
        assert stdout == ""
        assert json.loads(stderr)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "suffix, text",
        [
            ("graph_indicator", "1\n100000000000000000000\n"),
            ("graph_indicator", "1\n9223372036854775807\n"),
            ("node_labels", "0\n1\n" + str(2**70) + "\n"),
            ("A", "1, 2\n2, 9999\n"),
        ],
        ids=["huge-graph-id", "int64-max-graph-id", "huge-node-label", "edge-endpoint-out-of-range"],
    )
    def test_stats_malformed_dataset_file(self, tmp_path, capsys, suffix, text):
        d = write_tu_dataset(tmp_path, "BAD", [path_graph(3)], [0], [[0, 1, 0]])
        (d / f"BAD_{suffix}.txt").write_text(text)
        code, stdout, stderr = run(capsys, ["stats", "--dataset", str(d), "--json"])
        assert code == 1
        assert stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "DatasetParseError"
        assert f"BAD_{suffix}.txt:" in err["message"]


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    suffix=st.sampled_from(["graph_indicator", "A", "graph_labels", "node_labels"]),
    line=st.integers(0, 10**6),
    token=st.none()
    | st.integers(-(2**70), 2**70).map(str)
    | st.text(st.characters(codec="utf-8"), max_size=6).filter(lambda t: not _is_int(t)),
)
def test_stats_survives_one_bad_line(suffix, line, token):
    """Replacing (with an integer of any size or a non-integer token) or
    deleting one line of a valid dataset file ends ``gpgl stats --json``
    in its output or in the JSON error contract, never in a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        d = write_cli_dataset(Path(tmp))
        path = d / f"CLI_{suffix}.txt"
        lines = path.read_text().splitlines()
        i = line % len(lines)
        if token is None:
            del lines[i]
        elif suffix == "A":
            lines[i] = f"{token},{lines[i].split(',')[1]}"
        else:
            lines[i] = token
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stats", "--dataset", str(d), "--json"])
    if code == 0:
        assert json.loads(out.getvalue())["num_graphs"] >= 1
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert set(json.loads(err.getvalue())) == {"error", "message"}
