"""On-disk container for batches of grid tensors.

Format: one line of compact JSON metadata, a newline, then the raw
little-endian float32 payload of all tensors concatenated in index
order, row-major with the channel axis last. Checkpoints share that
header-plus-payload framing (``write_framed`` / ``read_framed``). A
sidecar JSON manifest maps tensor index to graph id, layout seed and
class label so the training stage can group layouts by source graph.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "ManifestEntry",
    "atomic_open",
    "write_json",
    "write_framed",
    "read_framed",
    "write_container",
    "read_container",
    "manifest_path_for",
    "write_manifest",
    "read_manifest",
]

_ORDER = "row-major, channel-last"
_INT64 = np.iinfo(np.int64)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ManifestEntry:
    """Provenance of one tensor slot in a container."""

    graph_id: int
    layout_seed: int
    label: int


_MANIFEST_FIELDS = {f.name for f in fields(ManifestEntry)}


@contextlib.contextmanager
def atomic_open(path: str | Path):
    """Open ``path`` for binary writing, all or nothing.

    The block writes a temporary file in the same directory, which
    replaces ``path`` only when the block completes; if the block raises,
    the temporary file is removed and any earlier ``path`` is left as it
    was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc: object) -> None:
    """Write ``doc`` as JSON (sorted keys, indent 2, trailing newline)
    through ``atomic_open``."""
    with atomic_open(path) as fh:
        fh.write((json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii"))


def write_framed(path: str | Path, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write ``header`` as one line of compact sorted-key JSON, then each
    array as raw little-endian float32, through ``atomic_open``. An array
    that is already contiguous ``<f4`` is written from its own buffer,
    without a copy."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii"))
        fh.write(b"\n")
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))


def read_framed(path: str | Path) -> tuple[dict, bytes]:
    """Read a ``write_framed`` file back as ``(header, payload bytes)``;
    the header must be a JSON object."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    header = json.loads(line.decode("ascii"))
    if not isinstance(header, dict):
        raise ValueError(f"{Path(path).name}: header must be a JSON object")
    return header, payload


def write_container(path: str | Path, tensors: np.ndarray) -> None:
    """Write an ``(N, H, W, F)`` float32 batch to ``path``."""
    arr = np.ascontiguousarray(tensors, dtype=np.float32)
    if arr.ndim != 4:
        raise ValueError(f"tensors must be (N, H, W, F), got {arr.shape}")
    n, h, w, f = arr.shape
    header = {
        "height": h,
        "width": w,
        "channels": f,
        "count": n,
        "dtype": "f32",
        "order": _ORDER,
    }
    write_framed(path, header, [arr])


def read_container(path: str | Path) -> tuple[np.ndarray, dict]:
    """Read a container back as ``((N, H, W, F) float32, header)``."""
    header, payload = read_framed(path)
    for key in ("height", "width", "channels", "count", "dtype", "order"):
        if key not in header:
            raise ValueError(f"container header missing {key!r}")
    for key in ("height", "width", "channels", "count"):
        if not _is_int(header[key]) or header[key] < 0:
            raise ValueError(f"container {key} must be a non-negative integer")
    if header["dtype"] != "f32":
        raise ValueError(f"unsupported dtype {header['dtype']!r}")
    shape = (header["count"], header["height"], header["width"], header["channels"])
    expected = math.prod(shape) * 4
    if len(payload) != expected:
        raise ValueError(
            f"payload is {len(payload)} bytes, header implies {expected}"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
    return arr.astype(np.float32, copy=False), header


def manifest_path_for(container_path: str | Path) -> Path:
    return Path(f"{container_path}.manifest.json")


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> None:
    write_json(path, {"entries": [asdict(e) for e in entries]})


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a manifest; each entry must hold exactly the three integer
    fields of ``ManifestEntry``, each within the int64 range."""
    doc = json.loads(Path(path).read_text())
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError("manifest must be a JSON object with an 'entries' list")
    for i, e in enumerate(entries):
        if (
            not isinstance(e, dict)
            or e.keys() != _MANIFEST_FIELDS
            or not all(_is_int(v) and _INT64.min <= v <= _INT64.max for v in e.values())
        ):
            raise ValueError(
                f"manifest entry {i} must have exactly the int64 fields "
                f"{sorted(_MANIFEST_FIELDS)}"
            )
    return [ManifestEntry(**e) for e in entries]
