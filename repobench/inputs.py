"""Seed-only input generation for the repository benchmark.

Every input is a pure function of the workload seed: the generators below
use their own ``random.Random(seed)`` streams and never touch
``repro.datasets`` (whose ``generate_dataset`` default seeds from the
per-process string hash).  The distribution is deliberately light-tailed so
that the work per operation barely moves with the seed: cluster centres sit
on a jittered grid, clusters hold equal numbers of polygons, and polygon
radii and vertex counts are uniform on narrow ranges.  Window sizes come from
a fixed ladder; only window positions are drawn from the seed.

Polygons are kept as plain coordinate tuples (the oracle works on these),
and written as WKT with ``repr`` floats so that parsing round-trips every
coordinate exactly.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: side length of the square data extent
EXTENT = 1000.0

Rect = Tuple[float, float, float, float]


@dataclass(frozen=True)
class Poly:
    """One simple (star-shaped) polygon: open vertex ring plus its MBR."""

    key: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    bbox: Rect

    def wkt(self) -> str:
        ring = ", ".join(f"{x!r} {y!r}" for x, y in zip(self.xs, self.ys))
        return f"POLYGON (({ring}, {self.xs[0]!r} {self.ys[0]!r}))\t{self.key}"

    def wkb_size(self) -> int:
        """Bytes of the record's WKB body (byte order, type, ring count,
        point count, closed ring of 2-D doubles): the user-visible payload
        that write and space amplification are measured against."""
        return 1 + 4 + 4 + 4 + 16 * (len(self.xs) + 1)


@dataclass(frozen=True)
class LayerSpec:
    """Shape of one generated polygon layer."""

    count: int
    clusters: int
    radius: Tuple[float, float]
    vertices: Tuple[int, int]


def _star(rng: random.Random, key: str, cx: float, cy: float, radius: float, nv: int) -> Poly:
    xs: List[float] = []
    ys: List[float] = []
    for i in range(nv):
        angle = 2.0 * math.pi * (i + rng.uniform(-0.3, 0.3)) / nv
        r = radius * rng.uniform(0.6, 1.0)
        xs.append(cx + r * math.cos(angle))
        ys.append(cy + r * math.sin(angle))
    return Poly(key, tuple(xs), tuple(ys), (min(xs), min(ys), max(xs), max(ys)))


def polygon_layer(seed: int, spec: LayerSpec, prefix: str, start: int = 0) -> List[Poly]:
    """*spec.count* polygons keyed ``<prefix><i>`` (``i`` from *start*).

    Cluster centres lie on a ``g x g`` grid jittered by a quarter cell;
    polygons are dealt round-robin over the clusters so every cluster holds
    the same number, each placed uniformly within 40% of a cell of its
    centre.  Everything stays inside ``[0, EXTENT]^2``.
    """
    rng = random.Random(seed)
    g = max(1, math.ceil(math.sqrt(spec.clusters)))
    cell = EXTENT / g
    centres = []
    for k in range(spec.clusters):
        row, col = divmod(k, g)
        centres.append(
            (
                (col + 0.5 + rng.uniform(-0.25, 0.25)) * cell,
                (row + 0.5 + rng.uniform(-0.25, 0.25)) * cell,
            )
        )
    rmax = spec.radius[1]
    out: List[Poly] = []
    for i in range(spec.count):
        cx0, cy0 = centres[i % spec.clusters]
        cx = min(max(cx0 + rng.uniform(-0.4, 0.4) * cell, rmax), EXTENT - rmax)
        cy = min(max(cy0 + rng.uniform(-0.4, 0.4) * cell, rmax), EXTENT - rmax)
        radius = rng.uniform(*spec.radius)
        nv = rng.randint(*spec.vertices)
        out.append(_star(rng, f"{prefix}{start + i}", cx, cy, radius, nv))
    return out


def layer_text(polys: Sequence[Poly]) -> bytes:
    """Newline-delimited WKT file body (tab-separated key as userdata)."""
    return ("\n".join(p.wkt() for p in polys) + "\n").encode("ascii")


def ladder_windows(rng: random.Random, ladder: Sequence[float], per_size: int) -> List[Rect]:
    """One batch: *per_size* square windows of each side in *ladder*
    (fractions of the extent side), at seed-drawn positions."""
    out: List[Rect] = []
    for frac in ladder:
        side = frac * EXTENT
        for _ in range(per_size):
            x = rng.uniform(0.0, EXTENT - side)
            y = rng.uniform(0.0, EXTENT - side)
            out.append((x, y, x + side, y + side))
    return out


class ZipfWindows:
    """Small windows around seed-chosen hot spots.

    The rank-frequency law is fixed (``p_k ~ 1 / k^s`` over *hotspots*
    ranks) and so are the window sizes; the seed chooses which data points
    are hot (hot spots sit on the centres of seed-drawn *anchors*, so every
    hot spot lies in the data at about the same density) and which rank
    each draw hits.
    """

    def __init__(self, seed: int, anchors: Sequence[Tuple[float, float]], hotspots: int,
                 exponent: float, ladder: Sequence[float], spread: float) -> None:
        self.rng = random.Random(seed)
        self.spots = self.rng.sample(list(anchors), hotspots)
        weights = [1.0 / (k + 1) ** exponent for k in range(hotspots)]
        total = sum(weights)
        self.cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cum.append(acc)
        self.ladder = list(ladder)
        self.spread = spread * EXTENT

    def batch(self, per_size: int) -> List[Rect]:
        out: List[Rect] = []
        for frac in self.ladder:
            side = frac * EXTENT
            for _ in range(per_size):
                k = bisect.bisect_left(self.cum, self.rng.random())
                sx, sy = self.spots[min(k, len(self.spots) - 1)]
                x = sx + self.rng.uniform(-self.spread, self.spread) - side / 2
                y = sy + self.rng.uniform(-self.spread, self.spread) - side / 2
                out.append((x, y, x + side, y + side))
        return out
