import numpy as np
import pytest

from sliceseg import PlyParseError, read_ply, write_ply
from sliceseg.synthetic import gen_synthetic

from conftest import cube_cloud, make_cloud, random_cloud


def ascii_ply(vertices, props=("x", "y", "z"), types=None, count=None):
    types = types or ["float"] * len(props)
    lines = ["ply", "format ascii 1.0", f"element vertex {count if count is not None else len(vertices)}"]
    lines += [f"property {t} {p}" for t, p in zip(types, props)]
    lines.append("end_header")
    lines += [" ".join(str(v) for v in vert) for vert in vertices]
    return ("\n".join(lines) + "\n").encode()


def test_single_vertex():
    cloud = read_ply(ascii_ply([(1, 2, 3)]))
    assert cloud.point_set() == {(1, 2, 3)}
    assert cloud.bit_depth == 10
    assert cloud.duplicates_merged == 0


def test_duplicate_vertices_merge():
    cloud = read_ply(ascii_ply([(1, 2, 3), (1, 2, 3)]))
    assert len(cloud) == 1
    assert cloud.duplicates_merged == 1


def test_truncated_body():
    with pytest.raises(PlyParseError, match="truncated body"):
        read_ply(ascii_ply([(0, 0, 0), (1, 1, 1), (2, 2, 2)], count=5))


def test_float_coordinates_floored():
    cloud = read_ply(ascii_ply([(1.9, 2.2, 3.7)]))
    assert cloud.point_set() == {(1, 2, 3)}


def test_negative_coordinate_rejected():
    with pytest.raises(PlyParseError, match="negative"):
        read_ply(ascii_ply([(-1, 0, 0)]))


def test_coordinate_too_large_rejected():
    with pytest.raises(PlyParseError, match="16-bit"):
        read_ply(ascii_ply([(70000, 0, 0)]))


def test_color_round_trip():
    colors = np.array([[255, 0, 10], [1, 2, 3]], dtype=np.uint8)
    cloud = make_cloud([(0, 0, 0), (5, 5, 5)], colors=colors)
    for fmt in ("ascii", "binary"):
        again = read_ply(write_ply(cloud, fmt))
        assert again.same_points(cloud)
        assert np.array_equal(again.colors, cloud.colors)


def test_round_trip_identity_both_formats(rng):
    clouds = [
        cube_cloud(),
        make_cloud([(1, 2, 3)]),
        gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=3),
    ]
    clouds += [random_cloud(rng, max_points=150) for _ in range(5)]
    for cloud in clouds:
        for fmt in ("ascii", "binary"):
            again = read_ply(write_ply(cloud, fmt))
            assert again.same_points(cloud), fmt


def test_empty_cloud_round_trip():
    empty = make_cloud([])
    data = write_ply(empty, "ascii")
    assert b"element vertex 0" in data
    assert len(read_ply(data)) == 0
    assert len(read_ply(write_ply(empty, "binary"))) == 0


def test_integer_property_types():
    data = ascii_ply([(3, 4, 5)], types=["int32", "uint16", "int32"])
    assert read_ply(data).point_set() == {(3, 4, 5)}


def test_colors_parsed_from_ascii():
    data = ascii_ply(
        [(1, 1, 1, 200, 100, 50)],
        props=("x", "y", "z", "red", "green", "blue"),
        types=["float", "float", "float", "uchar", "uchar", "uchar"],
    )
    cloud = read_ply(data)
    assert cloud.colors[0].tolist() == [200, 100, 50]


def test_binary_round_trip_bytes_stable():
    cloud = cube_cloud()
    assert write_ply(cloud, "binary") == write_ply(cloud, "binary")


def test_binary_truncated_and_trailing():
    good = write_ply(cube_cloud(), "binary")
    with pytest.raises(PlyParseError, match="truncated body"):
        read_ply(good[:-3])
    with pytest.raises(PlyParseError, match="trailing"):
        read_ply(good + b"\x00")


def test_header_errors():
    with pytest.raises(PlyParseError, match="magic"):
        read_ply(b"not a ply file")
    with pytest.raises(PlyParseError, match="format"):
        read_ply(b"ply\nformat binary_big_endian 1.0\nelement vertex 0\nproperty float x\nproperty float y\nproperty float z\nend_header\n")
    with pytest.raises(PlyParseError, match="lacks property"):
        read_ply(b"ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\nend_header\n")
    with pytest.raises(PlyParseError, match="unsupported element"):
        read_ply(b"ply\nformat ascii 1.0\nelement face 1\nproperty float x\nend_header\n")
    with pytest.raises(PlyParseError, match="list"):
        read_ply(b"ply\nformat ascii 1.0\nelement vertex 1\nproperty list uchar int vertex_indices\nend_header\n")


def test_error_names_line_number():
    # header occupies lines 1-7; the bad second vertex sits on line 9
    data = ascii_ply([(0, 0, 0), ("oops", 1, 1)])
    with pytest.raises(PlyParseError, match="line 9"):
        read_ply(data)


COLOR_PROPS = ("x", "y", "z", "red", "green", "blue")


@pytest.mark.parametrize("bad", [300, -1, 256, "nan"])
def test_ascii_color_out_of_range_rejected(bad):
    data = ascii_ply([(0, 0, 0, 1, 2, 3), (1, 1, 1, 10, bad, 20)], props=COLOR_PROPS,
                     types=["float"] * 3 + ["uchar"] * 3)
    with pytest.raises(PlyParseError, match="color outside 0..255 at vertex 1"):
        read_ply(data)


def test_binary_color_out_of_range_rejected():
    header = ascii_ply([], props=COLOR_PROPS, types=["float"] * 3 + ["int"] * 3, count=2)
    header = header.replace(b"format ascii 1.0", b"format binary_little_endian 1.0")
    rec = np.array([(0, 0, 0, 0, 255, 7), (1, 1, 1, 300, 0, 0)],
                   dtype=[(n, "<f4") for n in "xyz"] + [(n, "<i4") for n in COLOR_PROPS[3:]])
    with pytest.raises(PlyParseError, match="at vertex 1"):
        read_ply(header + rec.tobytes())


def test_colors_at_range_ends_accepted():
    data = ascii_ply([(0, 0, 0, 0, 255, 0)], props=COLOR_PROPS,
                     types=["float"] * 3 + ["uchar"] * 3)
    assert read_ply(data).colors[0].tolist() == [0, 255, 0]


def test_comment_mentioning_end_header_does_not_end_it():
    data = ascii_ply([(1, 2, 3)]).replace(
        b"ply\n", b"ply\ncomment see end_header below\n", 1
    )
    assert read_ply(data).point_set() == {(1, 2, 3)}
    binary = write_ply(cube_cloud(), "binary").replace(
        b"ply\n", b"ply\ncomment end_header\n", 1
    )
    assert read_ply(binary).same_points(cube_cloud())
