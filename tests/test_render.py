"""Tests for SVG rendering, parsed back with the stdlib XML parser."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import cycle_graph
from gpgl.graph import Graph
from gpgl.layout import GridLayout
from gpgl.render import render_svg

_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def _group(root: ET.Element, gid: str) -> ET.Element:
    for g in root.iter(f"{_NS}g"):
        if g.get("id") == gid:
            return g
    raise AssertionError(f"no group {gid!r}")


class TestRenderSvg:
    def test_well_formed_with_size(self):
        grid = GridLayout(np.array([[0, 0], [1, 2]]))
        root = _parse(render_svg(Graph.from_edges(2, []), grid, cell_size=10))
        assert root.tag == f"{_NS}svg"
        # extent 2 rows x 3 cols plus a 1-cell margin on each side.
        assert root.get("width") == "50"
        assert root.get("height") == "40"
        assert root.get("viewBox") == "0 0 50 40"

    def test_vertex_rect_positions_exact(self):
        grid = GridLayout(np.array([[0, 0], [2, 3]]))
        root = _parse(render_svg(Graph.from_edges(2, []), grid, cell_size=10))
        for v, (row, col) in enumerate([(0, 0), (2, 3)]):
            vertex = _group(root, f"vertex-{v}")
            rect = vertex.find(f"{_NS}rect")
            assert int(rect.get("x")) == (col + 1) * 10
            assert int(rect.get("y")) == (row + 1) * 10
            assert rect.get("width") == "10"
            assert rect.get("height") == "10"

    def test_vertex_labels(self):
        grid = GridLayout(np.array([[0, 0], [0, 1], [1, 0]]))
        root = _parse(render_svg(Graph.from_edges(3, []), grid))
        for v in range(3):
            text = _group(root, f"vertex-{v}").find(f"{_NS}text")
            assert text.text == str(v)

    def test_edges_connect_cell_centres(self):
        grid = GridLayout(np.array([[0, 0], [0, 2]]))
        root = _parse(render_svg(Graph.from_edges(2, [(0, 1)]), grid, cell_size=10))
        lines = list(_group(root, "edges").iter(f"{_NS}line"))
        assert len(lines) == 1
        line = lines[0]
        # Cell centres shifted by the one-cell margin.
        assert (line.get("x1"), line.get("y1")) == ("15", "15")
        assert (line.get("x2"), line.get("y2")) == ("35", "15")

    def test_edge_count(self):
        grid = GridLayout(np.array([[0, 0], [0, 1], [1, 1]]))
        svg = render_svg(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), grid)
        lines = list(_group(_parse(svg), "edges").iter(f"{_NS}line"))
        assert len(lines) == 3

    def test_deterministic(self):
        grid = GridLayout(np.array([[0, 0], [3, 1]]))
        g = Graph.from_edges(2, [(0, 1)])
        assert render_svg(g, grid) == render_svg(g, grid)

    def test_rejects_bad_geometry(self):
        grid = GridLayout(np.array([[0, 0]]))
        with pytest.raises(ValueError):
            render_svg(Graph.from_edges(1, []), grid, cell_size=0)


class TestRenderGraphSvg:
    def test_uses_graph_edges(self):
        g = cycle_graph(4)
        grid = GridLayout(np.array([[0, 0], [0, 1], [1, 1], [1, 0]]))
        root = _parse(render_svg(g, grid))
        lines = list(_group(root, "edges").iter(f"{_NS}line"))
        assert len(lines) == g.num_edges

    def test_vertex_count_checked(self):
        g = cycle_graph(4)
        grid = GridLayout(np.array([[0, 0], [0, 1]]))
        with pytest.raises(ValueError):
            render_svg(g, grid)
