import hashlib

import numpy as np
import pytest

from sliceseg import label_components, synthetic
from sliceseg.cloud import Axis
from sliceseg.synthetic import gen_synthetic

from conftest import brute_pixels, meshgrid_sphere_shell, point_set


def test_plane_construction():
    cloud = gen_synthetic("plane", {"extent": 10})
    assert len(cloud) == 100
    assert set(cloud.coords[:, 2].tolist()) == {5}


def test_cube_construction():
    cloud = gen_synthetic("cube", {"extent": 2})
    assert point_set(cloud) == {(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)}


def test_sphere_shell_is_hollow():
    cloud = gen_synthetic("sphere-shell", {"extent": 9})
    assert len(cloud) > 0
    center = np.array([4.0, 4.0, 4.0])
    dist = np.linalg.norm(cloud.coords - center, axis=1)
    assert dist.min() > 2.0  # no interior fill


@pytest.mark.parametrize("extent", [*range(1, 13), 20, 33, 64, 100, 128])
def test_sphere_shell_matches_meshgrid_oracle(extent):
    """Plan pins and benchmark inputs rest on these exact coordinates, in this order."""
    cloud = gen_synthetic("sphere-shell", {"extent": extent})
    assert np.array_equal(cloud.coords, meshgrid_sphere_shell(extent))


def test_folded_sheet_determinism():
    params = {"extent": 32, "amplitude": 8, "period": 16}
    a = gen_synthetic("folded-sheet", params, seed=7)
    b = gen_synthetic("folded-sheet", params, seed=7)
    assert a.same_points(b)
    c = gen_synthetic("folded-sheet", params, seed=8)
    assert not a.same_points(c)


@pytest.mark.parametrize(
    "extent, count, seed, digest",
    [
        (48, 1000, 1, "79c9ee77c441edb9a80b072dd8ddf8f687beef9646770d22fdb7483049f2212b"),
        # 1016 draws over 512 cells leave fewer than 500 unique: runs the retry loop
        (8, 500, 3, "345c1eeee7a7c81898df5180f7fe6d31c137e3c06745db31dd0a240a73c0cf05"),
        # the benchmark's 200,000-point frame
        (256, 200_000, 1, "58d40c276dc9e1008c5797884256072c87f3328400971ac2df4d02dbc7ae688f"),
    ],
)
def test_uniform_random_points_pinned(extent, count, seed, digest):
    cloud = gen_synthetic("uniform-random", {"extent": extent, "count": count}, seed=seed)
    assert hashlib.sha256(cloud.coords.tobytes()).hexdigest() == digest


def test_folded_sheet_is_connected_and_multivalued():
    cloud = gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=1)
    assert label_components(cloud).count == 1
    # occluded under Z: strictly fewer pixels than points
    pixels = brute_pixels(cloud.coords.tolist(), Axis.Z)
    assert len(pixels) < len(cloud)


def test_folded_sheet_param_validation():
    with pytest.raises(ValueError):
        gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 3, "period": 8}, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 40}, seed=0)


def test_uniform_random_deterministic_and_unique():
    a = gen_synthetic("uniform-random", {"extent": 50, "count": 300}, seed=11)
    b = gen_synthetic("uniform-random", {"extent": 50, "count": 300}, seed=11)
    assert len(a) == 300
    assert a.same_points(b)
    assert len(point_set(a)) == 300
    c = gen_synthetic("uniform-random", {"extent": 50, "count": 300}, seed=12)
    assert not a.same_points(c)


def test_uniform_random_density_param():
    cloud = gen_synthetic("uniform-random", {"extent": 10, "density": 0.1}, seed=2)
    assert len(cloud) == 100


def test_unknown_kind_and_bad_extent():
    with pytest.raises(ValueError, match="unknown synthetic kind"):
        gen_synthetic("torus", {"extent": 8})
    with pytest.raises(ValueError, match="extent"):
        gen_synthetic("cube", {"extent": 0})
    with pytest.raises(ValueError):
        gen_synthetic("uniform-random", {"extent": 2, "count": 1000}, seed=1)


def test_uniform_random_needs_a_size():
    with pytest.raises(ValueError, match="^uniform-random needs 'count' or 'density'$"):
        gen_synthetic("uniform-random", {"extent": 8})


def test_memory_error_becomes_a_size_error(monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(synthetic, "_cube", exhausted)
    with pytest.raises(ValueError, match="^cube of extent 8 does not fit in memory$"):
        gen_synthetic("cube", {"extent": 8})


def test_extent_and_density_bounds():
    edge = gen_synthetic("uniform-random", {"extent": 1 << 16, "count": 5}, seed=1)
    assert len(edge) == 5 and edge.bit_depth <= 16
    with pytest.raises(ValueError, match="extent must be an integer in 1..65536"):
        gen_synthetic("uniform-random", {"extent": (1 << 16) + 1, "count": 5}, seed=1)
    for density in (float("nan"), float("-inf"), 1e308):
        with pytest.raises(ValueError, match="gives no finite point count"):
            gen_synthetic("uniform-random", {"extent": 8, "density": density}, seed=1)


@pytest.mark.parametrize("kind", ["uniform-random", "folded-sheet", "cube"])
def test_negative_seed_names_the_seed(kind):
    params = {"extent": 10, "count": 5}
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        gen_synthetic(kind, params, seed=-1)


@pytest.mark.parametrize("density", [-1.0, 0.0, 1e-4])
def test_density_without_points_names_the_density(density):
    # 1e-4 of a 10^3 volume rounds to 0 points; no count was given to blame
    with pytest.raises(ValueError, match=f"^density {density} gives no points at extent 10$"):
        gen_synthetic("uniform-random", {"extent": 10, "density": density}, seed=1)
