"""SVG rendering of grid layouts.

Produces plain SVG 1.1: one unit square per vertex cell, straight edge
lines between cell centres, and the vertex index as a centred label.
Geometry uses integer pixel coordinates so the output is byte-stable and
tests can parse vertex positions back exactly.
"""

from __future__ import annotations

from .graph import Graph
from .layout import GridLayout

__all__ = ["render_svg"]

# Blank border around the drawing, in cells.
_MARGIN = 1

_STYLE = (
    "rect{fill:#4c78a8;stroke:#1d3557;stroke-width:1}"
    "line{stroke:#9aa5b1;stroke-width:2}"
    "text{font-family:monospace;text-anchor:middle;dominant-baseline:central;"
    "fill:#ffffff}"
)


def render_svg(graph: Graph, grid: GridLayout, cell_size: int = 40) -> str:
    """Render a graph's grid layout, with its edges, to an SVG document
    string.

    Cell (row, col) maps to pixel x = (col + 1) * cell_size,
    y = (row + 1) * cell_size, leaving a one-cell margin on every side.
    """
    if graph.num_vertices != grid.n:
        raise ValueError("graph and layout disagree on vertex count")
    if cell_size < 1:
        raise ValueError("cell_size must be >= 1")
    rows, cols = grid.extent()
    width = (cols + 2 * _MARGIN) * cell_size
    height = (rows + 2 * _MARGIN) * cell_size

    def corner(v: int) -> tuple[int, int]:
        r, c = grid.cells[v]
        return (int(c) + _MARGIN) * cell_size, (int(r) + _MARGIN) * cell_size

    half = cell_size // 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
        '<g id="edges">',
    ]
    for u, v in graph.edge_array():
        ux, uy = corner(int(u))
        vx, vy = corner(int(v))
        parts.append(
            f'<line x1="{ux + half}" y1="{uy + half}" '
            f'x2="{vx + half}" y2="{vy + half}"/>'
        )
    parts.append("</g>")
    parts.append('<g id="vertices">')
    for v in range(grid.n):
        x, y = corner(v)
        parts.append(f'<g id="vertex-{v}">')
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell_size}" height="{cell_size}"/>'
        )
        parts.append(
            f'<text x="{x + half}" y="{y + half}" '
            f'font-size="{max(cell_size * 2 // 5, 1)}">{v}</text>'
        )
        parts.append("</g>")
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

