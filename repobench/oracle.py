"""Independent answers for every benchmark operation.

Nothing here imports ``repro``: the predicates are written from scratch on
the plain coordinate tuples of :mod:`inputs`, and every answer is found by
brute force (a full scan with an MBR pre-check, then the exact test).

* :func:`window_hits` — keys of the polygons a rectangle intersects;
* :func:`join_pairs` — nested-loop join of two layers under "intersects";
* :class:`LiveModel` — the live-record model of a mutated store: record ids
  are allocated the way the store documents it (positional at bulk load,
  then consecutive from the id ceiling on every append), deletes tombstone.

Intersection is closed (touching counts), matching the program's
semantics; the generated coordinates are continuous random doubles, so
exactly-touching pairs do not arise in practice.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from inputs import Poly, Rect


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_cross(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """Closed segment intersection test (shared endpoints and collinear
    overlaps count)."""
    d1 = _orient(cx, cy, dx, dy, ax, ay)
    d2 = _orient(cx, cy, dx, dy, bx, by)
    d3 = _orient(ax, ay, bx, by, cx, cy)
    d4 = _orient(ax, ay, bx, by, dx, dy)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    return (
        (d1 == 0 and _on_segment(cx, cy, dx, dy, ax, ay))
        or (d2 == 0 and _on_segment(cx, cy, dx, dy, bx, by))
        or (d3 == 0 and _on_segment(ax, ay, bx, by, cx, cy))
        or (d4 == 0 and _on_segment(ax, ay, bx, by, dx, dy))
    )


def point_in_ring(px: float, py: float, xs: Sequence[float], ys: Sequence[float]) -> bool:
    """Even-odd ray cast (boundary points are caught by the edge tests of
    the callers, so the boundary convention here does not matter)."""
    inside = False
    n = len(xs)
    j = n - 1
    for i in range(n):
        yi, yj = ys[i], ys[j]
        if (yi > py) != (yj > py):
            xcross = xs[i] + (py - yi) * (xs[j] - xs[i]) / (yj - yi)
            if px < xcross:
                inside = not inside
        j = i
    return inside


def _bbox_overlap(a: Rect, b: Rect) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _edges(xs: Sequence[float], ys: Sequence[float]):
    n = len(xs)
    for i in range(n):
        j = (i + 1) % n
        yield xs[i], ys[i], xs[j], ys[j]


def polys_intersect(a: Poly, b: Poly) -> bool:
    if not _bbox_overlap(a.bbox, b.bbox):
        return False
    b_edges = [
        (x0, y0, x1, y1, min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
        for x0, y0, x1, y1 in _edges(b.xs, b.ys)
    ]
    for ax0, ay0, ax1, ay1 in _edges(a.xs, a.ys):
        lox, hix = min(ax0, ax1), max(ax0, ax1)
        loy, hiy = min(ay0, ay1), max(ay0, ay1)
        for bx0, by0, bx1, by1, blox, bhix, bloy, bhiy in b_edges:
            if lox > bhix or blox > hix or loy > bhiy or bloy > hiy:
                continue
            if segments_cross(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1):
                return True
    return point_in_ring(a.xs[0], a.ys[0], b.xs, b.ys) or point_in_ring(
        b.xs[0], b.ys[0], a.xs, a.ys
    )


def rect_intersects(poly: Poly, rect: Rect) -> bool:
    x0, y0, x1, y1 = rect
    if not _bbox_overlap(poly.bbox, rect):
        return False
    for px, py in zip(poly.xs, poly.ys):
        if x0 <= px <= x1 and y0 <= py <= y1:
            return True
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    for ex0, ey0, ex1, ey1 in _edges(poly.xs, poly.ys):
        for k in range(4):
            cx, cy = corners[k]
            dx, dy = corners[(k + 1) % 4]
            if segments_cross(ex0, ey0, ex1, ey1, cx, cy, dx, dy):
                return True
    return point_in_ring(x0, y0, poly.xs, poly.ys)


def window_hits(polys: Iterable[Tuple[int, Poly]], rect: Rect) -> List[int]:
    """Sorted ids of the ``(id, polygon)`` pairs that *rect* intersects."""
    return sorted(rid for rid, p in polys if rect_intersects(p, rect))


def join_pairs(left: Sequence[Poly], right: Sequence[Poly]) -> List[Tuple[str, str]]:
    """Sorted ``(left key, right key)`` pairs that intersect."""
    out = []
    for a in left:
        for b in right:
            if polys_intersect(a, b):
                out.append((a.key, b.key))
    out.sort()
    return out


class LiveModel:
    """The live records of a store under appends and deletes."""

    def __init__(self, base: Sequence[Poly]) -> None:
        self.live: Dict[int, Poly] = dict(enumerate(base))
        self.ceiling = len(base)

    def append(self, polys: Sequence[Poly], deletes: Iterable[int]) -> List[int]:
        dead: Set[int] = set(deletes)
        for rid in dead:
            self.live.pop(rid, None)
        ids = list(range(self.ceiling, self.ceiling + len(polys)))
        self.live.update(zip(ids, polys))
        self.ceiling += len(polys)
        return ids

    def hits(self, rect: Rect) -> List[int]:
        return window_hits(self.live.items(), rect)

    def live_bytes(self) -> int:
        return sum(p.wkb_size() for p in self.live.values())
