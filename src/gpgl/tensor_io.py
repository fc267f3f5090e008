"""On-disk container for batches of grid tensors.

Format: one line of compact JSON metadata, a newline, then the raw
little-endian float32 payload of all tensors concatenated in index
order, row-major with the channel axis last. Checkpoints share that
header-plus-payload framing (``write_framed`` / ``open_framed``). A
sidecar JSON manifest maps tensor index to graph id, layout seed and
class label so the training stage can group layouts by source graph.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "ManifestEntry",
    "atomic_open",
    "write_json",
    "write_framed",
    "open_framed",
    "write_container",
    "read_container",
    "manifest_path_for",
    "write_manifest",
    "read_manifest",
]

_ORDER = "row-major, channel-last"
# Longest header line ``open_framed`` reads, newline included.
_HEADER_LIMIT = 64 * 1024
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


@contextlib.contextmanager
def open_framed(path: str | Path):
    """Open a ``write_framed`` file with its payload still unread.

    Yields ``(header, nbytes, read_into)``. ``header`` is the JSON object
    on the first line, which may be at most 64 KiB long. ``nbytes`` is
    the payload's size, taken from the file, never from the header, so
    the caller can check it before it allocates anything.
    ``read_into(arr)`` fills the contiguous float32 array ``arr`` with
    the next ``arr.nbytes`` bytes of the little-endian payload, straight
    from the file. Every error is a ValueError that names the file.
    """
    name = Path(path).name
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise ValueError(f"{name}: no header line in the first {_HEADER_LIMIT} bytes")
        try:
            header = json.loads(line.decode("ascii"))
        except ValueError as exc:
            raise ValueError(f"{name}: header is not ASCII JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{name}: header must be a JSON object")

        def read_into(arr: np.ndarray) -> None:
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{name}: file ended inside its payload")
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)

        yield header, os.fstat(fh.fileno()).st_size - len(line), read_into


def write_container(
    path: str | Path, tensors: np.ndarray | Iterable[np.ndarray], count: int | None = None
) -> None:
    """Write ``N`` float32 tensors of one shape ``(H, W, F)`` to ``path``.

    ``tensors`` is an ``(N, H, W, F)`` batch or, with ``count`` given,
    an iterable of ``count`` tensors, each written as it is yielded, so
    no more than one is held at a time. The header is written from
    ``count`` and the first tensor's shape. A tensor of another shape,
    or a count that does not match, raises ValueError before the file
    replaces ``path``.
    """
    if count is None:
        batch = np.ascontiguousarray(tensors, dtype=np.float32)
        if batch.ndim != 4:
            raise ValueError(f"tensors must be (N, H, W, F), got {batch.shape}")
        count, shape, tensors = len(batch), batch.shape[1:], [batch]
    else:
        tensors = iter(tensors)
        first = next(tensors, None)
        if first is None or np.ndim(first) != 3:
            raise ValueError(f"expected {count} tensors of shape (H, W, F)")
        shape = np.shape(first)
        tensors = _counted(itertools.chain([first], tensors), count, shape)
    h, w, f = shape
    header = {
        "height": h,
        "width": w,
        "channels": f,
        "count": count,
        "dtype": "f32",
        "order": _ORDER,
    }
    write_framed(path, header, tensors)


def _counted(tensors: Iterable[np.ndarray], count: int, shape: tuple) -> Iterable[np.ndarray]:
    """Yield ``tensors``, raising unless there are ``count`` of them,
    each of ``shape``."""
    n = 0
    for tensor in tensors:
        n += 1
        if n > count or np.shape(tensor) != shape:
            raise ValueError(f"expected {count} tensors of shape {shape}, tensor {n - 1} is not one")
        yield tensor
    if n != count:
        raise ValueError(f"expected {count} tensors of shape {shape}, got {n}")


def read_container(path: str | Path) -> tuple[np.ndarray, dict]:
    """Read a container back as ``((N, H, W, F) float32, header)``.

    The header and the file's size are checked first; the payload is
    then read straight into the array returned. Every error is a
    ValueError that names the file.
    """
    with open_framed(path) as (header, nbytes, read_into):
        try:
            shape = _container_shape(header)
            expected = math.prod(shape) * 4
            if nbytes != expected:
                raise ValueError(f"payload is {nbytes} bytes, header implies {expected}")
        except ValueError as exc:
            raise ValueError(f"{Path(path).name}: {exc}") from None
        tensors = np.empty(shape, dtype=np.float32)
        read_into(tensors)
    return tensors, header


def _container_shape(header: dict) -> tuple[int, int, int, int]:
    for key in ("height", "width", "channels", "count", "dtype", "order"):
        if key not in header:
            raise ValueError(f"container header missing {key!r}")
    for key in ("height", "width", "channels", "count"):
        if not _is_int(header[key]) or header[key] < 0:
            raise ValueError(f"container {key} must be a non-negative integer")
    if header["dtype"] != "f32":
        raise ValueError(f"unsupported dtype {header['dtype']!r}")
    return (header["count"], header["height"], header["width"], header["channels"])


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
