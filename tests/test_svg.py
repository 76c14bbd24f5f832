"""SVG rendering and marching-squares contour extraction."""

import numpy as np
import pytest

from addspline import svg
from addspline.svg import contour_loops, write_svg
from addspline.sim import ScenarioConfig, kde2d, run_sim1, run_sim3


def circle_grid(half_width=3.2, size=161):
    """The standard bivariate normal density on the square grid `ax` x `ax`."""
    ax = np.linspace(-half_width, half_width, size)
    Z = np.exp(-0.5 * (ax[:, None] ** 2 + ax[None, :] ** 2)) / (2.0 * np.pi)
    return ax, Z


class TestContourLoops:
    def test_normal_density_gives_one_closed_loop_per_level(self):
        ax, Z = circle_grid()
        for level in (0.02, 0.04, 0.06, 0.08, 0.10):
            loops = contour_loops(ax, ax, Z, level)
            assert len(loops) == 1
            points, closed = loops[0]
            assert closed
            assert len(points) > 40

    def test_loop_points_lie_on_the_level_set(self):
        # the level set of the standard normal density at level c is the
        # circle of radius sqrt(-2 log(2 pi c))
        ax, Z = circle_grid()
        for level in (0.02, 0.10):
            radius = np.sqrt(-2.0 * np.log(2.0 * np.pi * level))
            (points, _), = contour_loops(ax, ax, Z, level)
            r = np.hypot(*np.asarray(points).T)
            assert np.abs(r - radius).max() < 0.05

    def test_level_outside_range_gives_no_loops(self):
        ax, Z = circle_grid()
        assert contour_loops(ax, ax, Z, 2.0) == []

    def test_open_chain_when_contour_exits_the_grid(self):
        # a tilted plane's level line crosses the grid border: open chain
        ax = np.linspace(0.0, 1.0, 21)
        Z = ax[:, None] + ax[None, :]
        loops = contour_loops(ax, ax, Z, 1.0)
        assert len(loops) == 1
        points, closed = loops[0]
        assert not closed
        for px, py in points:
            assert px + py == pytest.approx(1.0, abs=1e-12)

    def test_saddle_grid_chains_without_crossing(self):
        ax = np.linspace(-1.0, 1.0, 41)
        Z = ax[:, None] * ax[None, :]
        loops = contour_loops(ax, ax, Z, 0.2)
        # the hyperbola x*y = 0.2 has two branches inside the window
        assert len(loops) == 2
        for points, closed in loops:
            assert not closed
            for px, py in points:
                assert px * py == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_crossed_edge_joins_once(self, seed):
        # random grids of few distinct values, so many saddle cells and no
        # value on the level: the chains hold each grid-edge crossing of the
        # level exactly once
        rng = np.random.default_rng(seed)
        x, y = np.sort(rng.random(23)), np.sort(rng.random(17))
        Z = np.round(rng.random((23, 17)) * 4) / 4
        level = 0.4
        above = Z > level
        want = set()
        for i, j in zip(*np.nonzero(above[:-1] != above[1:])):
            t = (level - Z[i, j]) / (Z[i + 1, j] - Z[i, j])
            want.add((x[i] + t * (x[i + 1] - x[i]), y[j]))
        for i, j in zip(*np.nonzero(above[:, :-1] != above[:, 1:])):
            t = (level - Z[i, j]) / (Z[i, j + 1] - Z[i, j])
            want.add((x[i], y[j] + t * (y[j + 1] - y[j])))
        got = [pt for points, _ in contour_loops(x, y, Z, level) for pt in points]
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_nodes_on_the_level_join_once(self, seed):
        # quarter values at level 0.5: many nodes lie on the level, where the
        # crossings of all edges meeting at the node are the node itself
        rng = np.random.default_rng(seed)
        x, y = np.sort(rng.random(23)), np.sort(rng.random(17))
        Z = np.round(rng.random((23, 17)) * 4) / 4
        level = 0.5
        above = Z > level
        nodes = {(x[i], y[j]) for i, j in zip(*np.nonzero(Z == level))}
        want = set()
        for i, j in zip(*np.nonzero(above[:-1] != above[1:])):
            if Z[i, j] == level or Z[i + 1, j] == level:
                continue
            t = (level - Z[i, j]) / (Z[i + 1, j] - Z[i, j])
            want.add((x[i] + t * (x[i + 1] - x[i]), y[j]))
        for i, j in zip(*np.nonzero(above[:, :-1] != above[:, 1:])):
            if Z[i, j] == level or Z[i, j + 1] == level:
                continue
            t = (level - Z[i, j]) / (Z[i, j + 1] - Z[i, j])
            want.add((x[i], y[j] + t * (y[j + 1] - y[j])))
        chains = contour_loops(x, y, Z, level)
        got = [pt for points, _ in chains for pt in points]
        for points, closed in chains:
            assert len(points) >= 2
            assert all(a != b for a, b in zip(points, points[1:]))
            assert not closed or points[0] != points[-1]
        # every crossing inside an edge once; every other point a node on the
        # level, met at most twice (where two arcs of the contour touch)
        off_node = [pt for pt in got if pt not in nodes]
        assert len(off_node) == len(set(off_node)) and set(off_node) == want
        assert all(got.count(pt) <= 2 for pt in set(got) & nodes)
        if seed == 0:
            assert (len(got), len(set(got))) == (319, 306)  # were 372 and 308

    def test_grid_shape_validation(self):
        ax = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            contour_loops(ax, ax, np.zeros((5, 6)), 0.5)


class TestWriteSvg:
    def test_one_path_per_curve(self, tmp_path):
        g = np.linspace(0.0, 1.0, 201)
        p = tmp_path / "curves.svg"
        write_svg(
            p,
            curves=[(g, np.sin(2 * np.pi * g)), (g, np.cos(np.pi * g))],
            labels=["first", "second"],
            title="two curves",
        )
        text = p.read_text()
        assert text.count("<path") == 2
        assert "first" in text and "second" in text
        assert "two curves" in text
        assert text.startswith("<svg") or text.startswith("<?xml")

    def test_one_path_per_contour_loop(self, tmp_path):
        ax, Z = circle_grid()
        p = tmp_path / "contours.svg"
        levels = [0.02, 0.04, 0.06, 0.08, 0.10]
        write_svg(p, contour=(ax, ax, Z), levels=levels)
        text = p.read_text()
        assert text.count("<path") == 5
        # closed loops render as closed path commands
        assert text.count('"Z"') == 0  # Z is inside the d attribute, not alone
        assert text.count("Z") >= 5

    def test_empty_curves_refused_and_no_file(self, tmp_path):
        p = tmp_path / "nothing.svg"
        with pytest.raises(ValueError):
            write_svg(p, curves=[])
        assert not p.exists()

    def test_contour_without_levels_refused(self, tmp_path):
        ax, Z = circle_grid(size=31)
        with pytest.raises(ValueError):
            write_svg(tmp_path / "c.svg", contour=(ax, ax, Z))

    def test_contour_without_lines_refused(self, tmp_path):
        ax, Z = circle_grid(size=31)
        with pytest.raises(ValueError):
            write_svg(tmp_path / "c.svg", contour=(ax, ax, Z), levels=[5.0])

    def test_both_or_neither_mode_refused(self, tmp_path):
        g = np.linspace(0, 1, 10)
        ax, Z = circle_grid(size=11)
        with pytest.raises(ValueError):
            write_svg(tmp_path / "b.svg", curves=[(g, g)], contour=(ax, ax, Z))
        with pytest.raises(ValueError):
            write_svg(tmp_path / "n.svg")

    def test_mismatched_curve_lengths_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg(tmp_path / "m.svg", curves=[(np.arange(5), np.arange(4))])


def _per_point_path_element(xs, ys, mapper, color, closed=False, dashed=False):
    """The path writer point by point: each point mapped and f-string formatted."""
    coords = " L ".join(
        f"{px:.2f} {py:.2f}" for px, py in (mapper.pt(x, y) for x, y in zip(xs, ys))
    )
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    tail = " Z" if closed else ""
    return (
        f'<path d="M {coords}{tail}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"{dash}/>'
    )


class TestWholeArrayPaths:
    """The array path writer gives the bytes of the per-point reference."""

    def assert_same_bytes(self, tmp_path, monkeypatch, **kwargs):
        write_svg(tmp_path / "arrays.svg", **kwargs)
        with monkeypatch.context() as m:
            m.setattr(svg, "_path_element", _per_point_path_element)
            write_svg(tmp_path / "points.svg", **kwargs)
        got = (tmp_path / "arrays.svg").read_bytes()
        assert got == (tmp_path / "points.svg").read_bytes()
        return got

    def test_sim3_contours(self, tmp_path, monkeypatch):
        sample, _ = run_sim3(ScenarioConfig(n=200, replications=60))
        kde = kde2d(sample.values)
        text = self.assert_same_bytes(
            tmp_path, monkeypatch, contour=(kde.x, kde.y, kde.density),
            levels=[0.02, 0.04, 0.06, 0.08, 0.1], title="sim3",
        )
        assert text.count(b"<path") >= 3

    def test_sim1_curves(self, tmp_path, monkeypatch):
        res = run_sim1(ScenarioConfig(n=200))
        curves = [(res.grid, res.fit1), (res.grid, res.true1), (res.grid, res.fit2),
                  (res.grid, res.true2)]
        self.assert_same_bytes(tmp_path, monkeypatch, curves=curves,
                               labels=["fit1", "true1", "fit2", "true2"])

    def test_extreme_coordinates(self, tmp_path, monkeypatch):
        x = np.array([-0.0, 5e-324, 1.0, 2.0, 3.0])
        curves = [(x, np.array([0.0, -0.0, 1e300, -1e300, 5e-324])),
                  (x, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))]
        self.assert_same_bytes(tmp_path, monkeypatch, curves=curves)
