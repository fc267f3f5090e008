"""Exception types shared across the package."""

from __future__ import annotations


class GpglError(Exception):
    """Base class for all errors raised by this package."""


class DisconnectedGraphError(GpglError):
    """Graph has more than one connected component where one is required.

    Shortest-path distances are undefined across components; callers are
    expected to split the graph with ``connected_components`` and lay out
    each component separately.
    """


class CoincidentVerticesError(GpglError):
    """Two vertices occupy the same continuous position.

    The separation penalty and the layout gradients diverge at zero
    pairwise distance.
    """


class NonFiniteLossError(GpglError):
    """Layout optimization produced a NaN or infinite loss value."""


class WindowOverflowError(GpglError):
    """A grid layout does not fit inside the requested tensor window."""


class DatasetParseError(GpglError):
    """A dataset file is malformed; carries the offending line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = path or ""
        if line is not None:
            where = f"{where}:{line}"
        if where:
            message = f"{message} ({where})"
        super().__init__(message)
        self.path = path
        self.line = line


class MissingNodeLabelsError(GpglError):
    """Label-based featurization requested on a dataset without node labels."""
