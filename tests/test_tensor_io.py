"""Tests for the tensor container format and its sidecar manifest."""

import errno
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import gpgl.tensor_io
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
