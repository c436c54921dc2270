"""Procedural test clouds: planes, cubes, shells, folded sheets, random fills.

Every generator is a pure function of (kind, params, seed). The folded
sheet stacks several layers over part of its footprint, so orthographic
depth along Z is multi-valued there by construction; the rest is a gently
rippled single-layer skirt. That makes it the standard stress shape for
occlusion analysis.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .cloud import KEY_FIELD_BITS, MAX_BIT_DEPTH, PointCloud, first_occurrences, voxel_keys

KINDS = ("plane", "cube", "sphere-shell", "folded-sheet", "uniform-random")

# Kinds whose output depends on the seed; the CLI requires --seed for these.
SEEDED_KINDS = ("folded-sheet", "uniform-random")


def gen_synthetic(kind: str, params: Mapping[str, int], seed: int = 0) -> PointCloud:
    """Build a synthetic cloud. Deterministic for a given (kind, params, seed)."""
    if kind not in KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r} (choose from {KINDS})")
    extent = int(params.get("extent", 0))
    if not (0 < extent <= 1 << MAX_BIT_DEPTH):  # checked before any array is made
        raise ValueError(f"extent must be an integer in 1..{1 << MAX_BIT_DEPTH}")
    if seed < 0:  # numpy's own message would name no parameter
        raise ValueError(f"seed must be a non-negative integer, got {seed}")

    size = f"extent {extent}"
    if kind == "uniform-random":
        count = params.get("count")
        if count is None:
            density = params.get("density")
            if density is None:
                raise ValueError("uniform-random needs 'count' or 'density'")
            expected = float(density) * extent**3
            if not math.isfinite(expected):
                raise ValueError(f"density {density} gives no finite point count")
            count = int(round(expected))
            if count <= 0:  # else _uniform_random would blame a count never given
                raise ValueError(f"density {density} gives no points at extent {extent}")
        size += f" and count {count}"
    try:
        if kind == "plane":
            return _plane(extent, int(params.get("offset", extent // 2)))
        if kind == "cube":
            return _cube(extent)
        if kind == "sphere-shell":
            return _sphere_shell(extent)
        if kind == "folded-sheet":
            amplitude = int(params.get("amplitude", 8))
            period = int(params.get("period", max(2, extent // 2)))
            return _folded_sheet(extent, amplitude, period, seed)
        return _uniform_random(extent, int(count), seed)
    except MemoryError:  # a size within the bounds can still outgrow the machine
        raise ValueError(f"{kind} of {size} does not fit in memory") from None


def _plane(extent: int, offset: int) -> PointCloud:
    if offset < 0:
        raise ValueError("plane offset must be non-negative")
    xs, ys = np.meshgrid(np.arange(extent), np.arange(extent), indexing="ij")
    coords = np.stack(
        [xs.ravel(), ys.ravel(), np.full(extent * extent, offset)], axis=1
    )
    return PointCloud(coords)


def _cube(extent: int) -> PointCloud:
    r = np.arange(extent)
    xs, ys, zs = np.meshgrid(r, r, r, indexing="ij")
    coords = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    return PointCloud(coords)


def _sphere_shell(extent: int) -> PointCloud:
    radius = (extent - 1) / 2.0  # the center sits at (radius, radius, radius)
    r = (np.arange(extent) - radius) ** 2
    step = max(1, (1 << 20) // extent**2)  # x-planes per block: temporaries of ~2^20 values
    blocks = []
    for x in range(0, extent, step):
        dist = np.sqrt(r[x : x + step, None, None] + r[None, :, None] + r[None, None, :])
        blocks.append(np.argwhere(np.abs(dist - radius) <= 0.5) + (x, 0, 0))
    return PointCloud(np.concatenate(blocks))


def _folded_sheet(extent: int, amplitude: int, period: int, seed: int) -> PointCloud:
    """Multi-layer fold over x < period, rippled single layer over the rest.

    Layers sit at z = 0, 2, ..., amplitude and are joined by one-voxel
    connector columns at alternating ends, so the sheet is a single
    26-connected component.
    """
    if amplitude < 2 or amplitude % 2 != 0:
        raise ValueError("amplitude must be an even integer >= 2")
    if not (2 <= period <= extent):
        raise ValueError("period must satisfy 2 <= period <= extent")

    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    wavelength_x = int(rng.integers(8, 17))
    wavelength_y = int(rng.integers(8, 17))

    levels = np.arange(0, amplitude + 1, 2)
    ys = np.arange(extent)

    rows = []
    # Stacked layer sweeps: every (x < period, y) column holds len(levels) points.
    fold_x = np.arange(period)
    fx, fy, fz = np.meshgrid(fold_x, ys, levels, indexing="ij")
    rows.append(np.stack([fx.ravel(), fy.ravel(), fz.ravel()], axis=1))

    # Connector columns between consecutive layers (odd z at alternating ends).
    for li in range(len(levels) - 1):
        xconn = period - 1 if li % 2 == 0 else 0
        zconn = int(levels[li]) + 1
        conn = np.stack(
            [np.full(extent, xconn), ys, np.full(extent, zconn)], axis=1
        )
        rows.append(conn)

    # Skirt: single layer with a smooth seeded ripple, flat where it meets the
    # fold (x == period) so the sheet stays connected.
    if period < extent:
        sx = np.arange(period, extent)
        gx, gy = np.meshgrid(sx, ys, indexing="ij")
        wave = (1.0 - np.cos(2.0 * math.pi * (gx - period) / wavelength_x)) * 0.5
        envelope = (1.0 + np.cos(2.0 * math.pi * gy / wavelength_y + phase)) * 0.5
        sz = np.floor(2.0 * wave * envelope + 0.5).astype(np.int64)
        rows.append(np.stack([gx.ravel(), gy.ravel(), sz.ravel()], axis=1))

    coords = np.concatenate(rows, axis=0)
    return PointCloud(coords)


def _uniform_random(extent: int, count: int, seed: int) -> PointCloud:
    if count <= 0:
        raise ValueError("count must be a positive integer")
    if count > extent**3:  # before oversampling count * 2 rows
        raise ValueError(f"cannot place {count} unique points in a {extent}^3 volume")
    rng = np.random.default_rng(seed)

    def draw(rows: int) -> np.ndarray:  # the voxel keys of `rows` random points
        return voxel_keys(*rng.integers(0, extent, size=(rows, 3), dtype=np.int64).T)

    # Oversample, then keep each key's first occurrence; coordinates stay unique.
    keys = draw(count * 2 + 16)
    keys = keys[first_occurrences(keys)]
    attempts = 0
    while keys.shape[0] < count and attempts < 32:
        keys = np.concatenate([keys, draw(count)])
        keys = keys[first_occurrences(keys)]
        attempts += 1
    if keys.shape[0] < count:
        raise ValueError(f"cannot place {count} unique points in a {extent}^3 volume")
    fields = keys[:count, None] >> np.array([2 * KEY_FIELD_BITS, KEY_FIELD_BITS, 0])
    fields &= (1 << KEY_FIELD_BITS) - 1  # the (x, y, z) of each key
    return PointCloud(fields)
