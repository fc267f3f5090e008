"""Tests for the tensor container format and its sidecar manifest."""

import contextlib
import errno
import functools
import io
import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gpgl.tensor_io
from conftest import path_graph
from gpgl.augment import AugmentedLayout, AugmentedSet
from gpgl.cli import main
from gpgl.datasets import GraphDataset, export_tensors
from gpgl.layout import GridLayout
from gpgl.nn.network import MsmCnn, NetworkConfig
from gpgl.tensor_io import (
    ManifestEntry,
    atomic_open,
    manifest_path_for,
    read_container,
    read_manifest,
    write_container,
    write_json,
    write_manifest,
)


class TestContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(5, 8, 8, 3)).astype(np.float32)
        path = tmp_path / "batch.gt"
        write_container(path, batch)
        loaded, header = read_container(path)
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, batch)
        assert header["count"] == 5
        assert header["height"] == 8
        assert header["width"] == 8
        assert header["channels"] == 3
        assert header["dtype"] == "f32"

    def test_empty_container_round_trip(self, tmp_path):
        write_container(tmp_path / "z.gt", np.zeros((0, 3, 4, 2), dtype=np.float32))
        loaded, header = read_container(tmp_path / "z.gt")
        assert loaded.shape == (0, 3, 4, 2)
        assert header["count"] == 0

    def test_write_deterministic_bytes(self, tmp_path):
        batch = np.arange(2 * 3 * 3 * 2, dtype=np.float32).reshape(2, 3, 3, 2)
        a, b = tmp_path / "a.gt", tmp_path / "b.gt"
        write_container(a, batch)
        write_container(b, batch)
        assert a.read_bytes() == b.read_bytes()

    def test_header_is_first_line_json(self, tmp_path):
        path = tmp_path / "c.gt"
        write_container(path, np.zeros((1, 2, 2, 1), dtype=np.float32))
        first = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(first)
        assert header["order"] == "row-major, channel-last"

    def test_payload_is_little_endian_row_major(self, tmp_path):
        batch = np.zeros((1, 2, 2, 1), dtype=np.float32)
        batch[0, 0, 0, 0] = 1.0
        batch[0, 1, 1, 0] = 4.0
        path = tmp_path / "d.gt"
        write_container(path, batch)
        payload = path.read_bytes().split(b"\n", 1)[1]
        vals = np.frombuffer(payload, dtype="<f4")
        assert np.array_equal(vals, [1.0, 0.0, 0.0, 4.0])

    def test_write_streams_without_copy(self, tmp_path):
        batch = np.ones((8, 256, 256, 4), dtype=np.float32)  # 8 MiB
        tracemalloc.start()
        try:
            write_container(tmp_path / "big.gt", batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_read_holds_payload_once(self, tmp_path):
        batch = np.ones((8, 256, 256, 4), dtype=np.float32)  # 8 MiB
        write_container(tmp_path / "big.gt", batch)
        (loaded, _), peak = _traced(read_container, tmp_path / "big.gt")
        assert np.array_equal(loaded, batch)
        assert peak <= batch.nbytes + 2**20

    def test_checkpoint_load_holds_weights_once(self, tmp_path):
        # A built network holds its weights and their gradients; loading
        # may add no more than 1 MiB to that, so the payload (2.2 MiB
        # here) is never held beside the weights.
        config = NetworkConfig(conv_channels=(32, 128), fc_sizes=())
        model, built = _traced(MsmCnn, 2, 2, config)
        model.save(tmp_path / "m.ckpt")
        assert model.num_params * 4 > 2 * 2**20
        (loaded, _), peak = _traced(MsmCnn.load, tmp_path / "m.ckpt")
        assert np.array_equal(loaded.get_flat_params(), model.get_flat_params())
        assert peak <= built + 2**20

    def test_export_holds_one_tensor(self, tmp_path):
        # 64 tensors of 64 x 64 x 8 float32: an 8 MiB container.
        n, f = 64, 8
        graphs = tuple(path_graph(8) for _ in range(n))
        ds = GraphDataset(
            name="paths",
            graphs=graphs,
            labels=np.arange(n) % 2,
            class_count=2,
            features=tuple(np.eye(8, f) for _ in graphs),
        )
        cells = np.stack([np.zeros(8, dtype=np.int64), np.arange(8)], axis=1)
        sets = [
            AugmentedSet(i, (AugmentedLayout(0, GridLayout(cells), None),)) for i in range(n)
        ]
        (_, entries), peak = _traced(export_tensors, sets, ds, tmp_path / "e.gt")
        assert len(entries) == n
        assert (tmp_path / "e.gt").stat().st_size >= 8 * 2**20
        assert peak <= 2**20

    def test_rejects_wrong_rank(self, tmp_path):
        with pytest.raises(ValueError):
            write_container(tmp_path / "e.gt", np.zeros((4, 4, 1), dtype=np.float32))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "f.gt"
        write_container(path, np.ones((2, 4, 4, 2), dtype=np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_container(path)

    def test_missing_header_key_rejected(self, tmp_path):
        path = tmp_path / "g.gt"
        header = {"height": 2, "width": 2, "count": 1, "dtype": "f32"}
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="channels"):
            read_container(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        path = tmp_path / "h.gt"
        header = {
            "height": 1,
            "width": 1,
            "channels": 1,
            "count": 1,
            "dtype": "f64",
            "order": "row-major, channel-last",
        }
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="dtype"):
            read_container(path)


class TestStreamedWrite:
    def test_same_bytes_as_the_batch(self, tmp_path):
        batch = np.arange(3 * 2 * 2 * 2, dtype=np.float32).reshape(3, 2, 2, 2)
        write_container(tmp_path / "a.gt", batch)
        write_container(tmp_path / "b.gt", iter(list(batch)), count=3)
        assert (tmp_path / "a.gt").read_bytes() == (tmp_path / "b.gt").read_bytes()

    @pytest.mark.parametrize(
        "tensors, count",
        [
            ([], 1),
            ([np.zeros((2, 2, 1))] * 2, 3),
            ([np.zeros((2, 2, 1))] * 3, 2),
            ([np.zeros((2, 2, 1)), np.zeros((2, 2, 2))], 2),
            ([np.zeros((2, 2))], 1),
        ],
    )
    def test_wrong_count_or_shape_leaves_no_file(self, tmp_path, tensors, count):
        with pytest.raises(ValueError, match="expected"):
            write_container(tmp_path / "s.gt", iter(tensors), count=count)
        assert list(tmp_path.iterdir()) == []


def _traced(fn, *args):
    """``(fn(*args), peak bytes allocated during the call)``."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@functools.cache
def _valid_files() -> dict[str, bytes]:
    """A valid container and a valid checkpoint, each over 1 MiB."""
    with tempfile.TemporaryDirectory() as d:
        write_container(Path(d) / "c", np.ones((4, 64, 64, 32), dtype=np.float32))
        MsmCnn(2, 2, NetworkConfig(conv_channels=(32, 128), fc_sizes=())).save(Path(d) / "k")
        return {".gt": (Path(d) / "c").read_bytes(), ".ckpt": (Path(d) / "k").read_bytes()}


def _mutate(data: bytes, kind: str, at: int, tail: bytes) -> bytes:
    header_end = data.index(b"\n")
    i = at % header_end
    if kind == "truncate":
        return data[: at % len(data)]
    if kind == "extend":
        return data + tail
    if kind == "high-bit":
        return data[:i] + bytes([data[i] | 0x80]) + data[i + 1 :]
    return data[:i] + b"\n" + data[i + 1 :]  # split the header line


def _read_error(read, path: Path) -> str:
    """The message of the ValueError that ``read(path)`` raises."""
    with pytest.raises(ValueError) as info:
        read(path)
    return str(info.value)


def _cli_error(path: Path) -> tuple[int, dict]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--tensors", str(path)])
    return code, json.loads(stderr.getvalue())


class TestFramedReadErrors:
    """A damaged container or checkpoint ends in a ValueError that names
    the file, and allocates no more than the file's size (plus 1 MiB)."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        suffix=st.sampled_from([".gt", ".ckpt"]),
        kind=st.sampled_from(["truncate", "extend", "high-bit", "newline"]),
        at=st.integers(min_value=0, max_value=2**31),
        tail=st.binary(min_size=1, max_size=64),
    )
    @example(suffix=".gt", kind="truncate", at=0, tail=b"x")
    @example(suffix=".ckpt", kind="extend", at=0, tail=b"x")
    def test_damaged_file_named_in_value_error(self, suffix, kind, at, tail):
        data = _mutate(_valid_files()[suffix], kind, at, tail)
        read = read_container if suffix == ".gt" else MsmCnn.load
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / f"damaged{suffix}"
            path.write_bytes(data)
            message, peak = _traced(_read_error, read, path)
            assert message.startswith(f"damaged{suffix}: ")
            assert peak <= len(data) + 2**20
            if suffix == ".gt":  # the CLI reads containers, not checkpoints
                code, err = _cli_error(path)
                assert code == 1
                assert err["error"] == "ValueError"
                assert err["message"].startswith(f"damaged{suffix}: ")

    def test_header_claiming_a_trillion_tensors_allocates_nothing(self, tmp_path):
        header = {
            "channels": 1,
            "count": 10**12,
            "dtype": "f32",
            "height": 64,
            "order": "row-major, channel-last",
            "width": 64,
        }
        path = tmp_path / "huge.gt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
        message, peak = _traced(_read_error, read_container, path)
        assert message.startswith("huge.gt: payload is 16 bytes")
        assert peak < 2**20

    def test_header_line_is_capped(self, tmp_path):
        path = tmp_path / "flat.gt"
        path.write_bytes(b"{" + b" " * 2**20)
        with pytest.raises(ValueError, match="^flat.gt: no header line in the first 65536 bytes"):
            read_container(path)


class TestManifest:
    def test_sidecar_path(self):
        assert str(manifest_path_for("/x/run.gt")).endswith("run.gt.manifest.json")

    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry(graph_id=0, layout_seed=0, label=1),
            ManifestEntry(graph_id=0, layout_seed=1, label=1),
            ManifestEntry(graph_id=3, layout_seed=0, label=0),
        ]
        path = tmp_path / "run.gt.manifest.json"
        write_manifest(path, entries)
        assert read_manifest(path) == entries

    def test_write_deterministic(self, tmp_path):
        entries = [ManifestEntry(graph_id=1, layout_seed=2, label=0)]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(a, entries)
        write_manifest(b, entries)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("field", ["graph_id", "layout_seed", "label"])
    def test_values_limited_to_int64(self, tmp_path, field):
        path = tmp_path / "run.gt.manifest.json"
        lo, hi = -(2**63), 2**63 - 1
        for value in (lo, hi, lo - 1, hi + 1):
            entry = replace(ManifestEntry(graph_id=0, layout_seed=0, label=0), **{field: value})
            write_manifest(path, [entry])
            if lo <= value <= hi:
                assert read_manifest(path) == [entry]
            else:
                with pytest.raises(ValueError, match="int64"):
                    read_manifest(path)


class _DiskFullFile:
    """A binary file that stores half of its first write, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data: bytes) -> int:
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _write_container(path, value):
    write_container(path, np.full((2, 3, 3, 2), value, dtype=np.float32))


def _write_manifest(path, value):
    write_manifest(path, [ManifestEntry(graph_id=value, layout_seed=0, label=1)])


def _write_json(path, value):
    write_json(path, {"value": value})


def _save_checkpoint(path, value):
    model = MsmCnn(2, 2, NetworkConfig(conv_channels=(2,), fc_sizes=(), seed=value))
    model.save(path, epoch=value)


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "write", [_write_container, _write_manifest, _write_json, _save_checkpoint]
    )
    def test_failed_write_leaves_earlier_file_intact(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact"
        write(path, 1)
        before = path.read_bytes()
        monkeypatch.setattr(
            gpgl.tensor_io, "open", lambda *a, **k: _DiskFullFile(open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="No space"):
            write(path, 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_completed_block_replaces_file(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(b"old")
        with atomic_open(path) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
