"""Minimal SVG plotting: polyline curves and contour loops.

Purely presentational.  Every curve and every contour loop becomes exactly one
<path> element; the frame and ticks use <rect>/<line>/<text>, so counting
<path> elements counts the drawn data objects.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["svg_document", "write_svg", "contour_loops"]

_WIDTH, _HEIGHT, _MARGIN = 640, 480, 50


def _interp(a: float, b: float, va: float, vb: float, level: float) -> float:
    t = (level - va) / (vb - va)
    return a + t * (b - a)


# The cell (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1) and
# d = (i, j+1), and its case is a + 2b + 4c + 8d over the corners above the
# level.  Its edges S, N, W and E are the grid edges ("x", i, j),
# ("x", i, j+1), ("y", i, j) and ("y", i+1, j), written here as (kind, di, dj).
_S, _N, _W, _E = ("x", 0, 0), ("x", 0, 1), ("y", 0, 0), ("y", 1, 0)
# The edge pairs each case joins; saddles 5 and 10 list the pairs for a
# cell-centre mean above the level, then for one at or below it.
_CASE_PAIRS = {
    1: [(_W, _S)],
    2: [(_S, _E)],
    3: [(_W, _E)],
    4: [(_E, _N)],
    6: [(_S, _N)],
    7: [(_W, _N)],
    8: [(_N, _W)],
    9: [(_S, _N)],
    11: [(_E, _N)],
    12: [(_E, _W)],
    13: [(_S, _E)],
    14: [(_W, _S)],
}
_SADDLE_PAIRS = {
    5: ([(_S, _E), (_N, _W)], [(_W, _S), (_E, _N)]),
    10: ([(_W, _S), (_E, _N)], [(_S, _E), (_N, _W)]),
}


def contour_loops(
    x: np.ndarray, y: np.ndarray, Z: np.ndarray, level: float
) -> list[tuple[list[tuple[float, float]], bool]]:
    """Marching-squares contours of Z (indexed [i, j] over x[i], y[j]).

    Returns (points, closed) chains; saddle cells are disambiguated with the
    cell-center mean.  Crossing points are computed once per grid edge, or
    once per grid node where a node lies on the level, so chains join
    exactly and no chain repeats a point in a row; a point recurs only where
    the contour passes one grid node twice.  The cases of all cells come from
    array operations; only the cells the level crosses are visited, in
    row-major order.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    Z = np.asarray(Z, float)
    nx, ny = Z.shape
    if nx != x.size or ny != y.size:
        raise ValueError("grid shape mismatch")
    above = (Z > level).astype(np.int8)
    cases = above[:-1, :-1] + 2 * above[1:, :-1] + 4 * above[1:, 1:] + 8 * above[:-1, 1:]
    crossed = (cases != 0) & (cases != 15)

    points: dict[tuple, tuple[float, float]] = {}

    def edge_point(kind: str, i: int, j: int) -> tuple:
        i2, j2 = (i + 1, j) if kind == "x" else (i, j + 1)
        # a crossing at a grid node on the level is that node, whichever of
        # the node's edges it is found on
        for a, b in ((i, j), (i2, j2)):
            if Z[a, b] == level:
                points[("node", a, b)] = (x[a], y[b])
                return ("node", a, b)
        key = (kind, i, j)
        if key not in points:
            if kind == "x":  # edge (i,j)-(i+1,j)
                px = _interp(x[i], x[i + 1], Z[i, j], Z[i + 1, j], level)
                points[key] = (px, y[j])
            else:  # edge (i,j)-(i,j+1)
                py = _interp(y[j], y[j + 1], Z[i, j], Z[i, j + 1], level)
                points[key] = (x[i], py)
        return key

    segments: list[tuple[tuple, tuple]] = []
    for i, j, case in zip(*np.nonzero(crossed), cases[crossed]):
        i, j, case = int(i), int(j), int(case)
        if case in _SADDLE_PAIRS:
            center = 0.25 * (Z[i, j] + Z[i + 1, j] + Z[i + 1, j + 1] + Z[i, j + 1])
            pairs = _SADDLE_PAIRS[case][0 if center > level else 1]
        else:
            pairs = _CASE_PAIRS[case]
        for (k1, di1, dj1), (k2, di2, dj2) in pairs:
            e1, e2 = edge_point(k1, i + di1, j + dj1), edge_point(k2, i + di2, j + dj2)
            if e1 != e2:  # both ends on one node: a segment of length zero
                segments.append((e1, e2))

    # Chain segments into loops/arcs via shared edge keys.
    adjacency: dict[tuple, list[int]] = {}
    for idx, (e1, e2) in enumerate(segments):
        adjacency.setdefault(e1, []).append(idx)
        adjacency.setdefault(e2, []).append(idx)
    used = [False] * len(segments)
    chains: list[tuple[list[tuple[float, float]], bool]] = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = list(segments[start])
        # extend forward from chain[-1], then backward from chain[0]
        for endpoint, append in ((chain[-1], True), (chain[0], False)):
            current = endpoint
            while True:
                nxt = None
                for idx in adjacency.get(current, ()):
                    if not used[idx]:
                        nxt = idx
                        break
                if nxt is None:
                    break
                used[nxt] = True
                e1, e2 = segments[nxt]
                current = e2 if e1 == current else e1
                if append:
                    chain.append(current)
                else:
                    chain.insert(0, current)
                if current == (chain[-1] if not append else chain[0]):
                    break
            if chain[0] == chain[-1]:
                break
        closed = chain[0] == chain[-1]
        if closed:
            chain = chain[:-1]
        chains.append(([points[key] for key in chain], closed))
    return chains


def _bounds(xs: list[np.ndarray], ys: list[np.ndarray]):
    x_all = np.concatenate([np.asarray(v, float).ravel() for v in xs])
    y_all = np.concatenate([np.asarray(v, float).ravel() for v in ys])
    x0, x1 = float(x_all.min()), float(x_all.max())
    y0, y1 = float(y_all.min()), float(y_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    return x0, x1, y0, y1


class _Mapper:
    def __init__(self, x0, x1, y0, y1):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1

    def pt(self, x, y):
        """Page coordinates of data points: scalars, or arrays elementwise."""
        px = _MARGIN + (x - self.x0) / (self.x1 - self.x0) * (_WIDTH - 2 * _MARGIN)
        py = _HEIGHT - _MARGIN - (y - self.y0) / (self.y1 - self.y0) * (
            _HEIGHT - 2 * _MARGIN
        )
        return px, py


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _path_element(xs, ys, mapper, color, closed=False, dashed=False):
    """One <path> through the points (xs[k], ys[k]), mapped and formatted
    as whole arrays: the same float operations as point by point."""
    px, py = mapper.pt(np.asarray(xs, float), np.asarray(ys, float))
    coords = " L ".join(["%.2f %.2f"] * px.size) % tuple(
        np.column_stack([px, py]).ravel().tolist()
    )
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    tail = " Z" if closed else ""
    return (
        f'<path d="M {coords}{tail}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"{dash}/>'
    )


def _frame(mapper):
    x0, y0 = mapper.pt(mapper.x0, mapper.y0)
    x1, y1 = mapper.pt(mapper.x1, mapper.y1)
    parts = [
        f'<rect x="{min(x0, x1):.2f}" y="{min(y0, y1):.2f}" '
        f'width="{abs(x1 - x0):.2f}" height="{abs(y0 - y1):.2f}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = mapper.x0 + frac * (mapper.x1 - mapper.x0)
        yv = mapper.y0 + frac * (mapper.y1 - mapper.y0)
        px, _ = mapper.pt(xv, mapper.y0)
        _, py = mapper.pt(mapper.x0, yv)
        parts.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN + 18:.2f}" '
            f'font-size="11" text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 6:.2f}" y="{py + 4:.2f}" '
            f'font-size="11" text-anchor="end">{yv:.3g}</text>'
        )
    return parts


def write_svg(
    path,
    curves=None,
    contour=None,
    levels=None,
    labels=None,
    title: str | None = None,
) -> None:
    """Write `svg_document` of the other arguments to `path`."""
    Path(path).write_text(svg_document(curves, contour, levels, labels, title))


def svg_document(
    curves=None,
    contour=None,
    levels=None,
    labels=None,
    title: str | None = None,
) -> str:
    """Curves or contour loops as the text of a standalone SVG file.

    curves: sequence of (x, y) arrays, each drawn as one <path>.
    contour: (x_axis, y_axis, Z) grid, drawn as one <path> per loop of each
    level in `levels`.

    Exactly one of `curves` and `contour` must be given and non-empty.
    """
    if (curves is None) == (contour is None):
        raise ValueError("pass exactly one of curves= or contour=")
    body = []
    if curves is not None:
        curves = [
            (np.asarray(cx, float).ravel(), np.asarray(cy, float).ravel())
            for cx, cy in curves
        ]
        if not curves:
            raise ValueError("no curves to draw")
        for cx, cy in curves:
            if cx.size != cy.size or cx.size < 2:
                raise ValueError("each curve needs matching x/y of length >= 2")
        mapper = _Mapper(*_bounds([c[0] for c in curves], [c[1] for c in curves]))
        body.extend(_frame(mapper))
        for idx, (cx, cy) in enumerate(curves):
            color = _PALETTE[idx % len(_PALETTE)]
            body.append(_path_element(cx, cy, mapper, color, dashed=idx % 2 == 1))
            if labels and idx < len(labels):
                px, py = mapper.pt(cx[-1], cy[-1])
                body.append(
                    f'<text x="{px + 4:.2f}" y="{py:.2f}" font-size="11" '
                    f'fill="{color}">{labels[idx]}</text>'
                )
    else:
        gx, gy, Z = contour
        if levels is None or len(levels) == 0:
            raise ValueError("contour mode needs levels")
        gx = np.asarray(gx, float)
        gy = np.asarray(gy, float)
        mapper = _Mapper(float(gx.min()), float(gx.max()), float(gy.min()), float(gy.max()))
        body.extend(_frame(mapper))
        drew = False
        for idx, level in enumerate(levels):
            color = _PALETTE[idx % len(_PALETTE)]
            for pts, closed in contour_loops(gx, gy, Z, float(level)):
                if len(pts) < 2:
                    continue
                xs, ys = zip(*pts)
                body.append(_path_element(xs, ys, mapper, color, closed=closed))
                drew = True
        if not drew:
            raise ValueError("no contour lines at the requested levels")
    if title:
        body.append(
            f'<text x="{_WIDTH / 2:.2f}" y="20" font-size="13" '
            f'text-anchor="middle">{title}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
