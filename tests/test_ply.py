import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import PlyParseError, read_ply, write_ply
from sliceseg.ply import _read_ascii_body
from sliceseg.synthetic import gen_synthetic

from conftest import (
    cube_cloud,
    make_cloud,
    oracle_ascii_body,
    oracle_read_ascii_body,
    point_set,
    random_cloud,
)


def ascii_ply(vertices, props=("x", "y", "z"), types=None, count=None):
    types = types or ["float"] * len(props)
    lines = ["ply", "format ascii 1.0", f"element vertex {count if count is not None else len(vertices)}"]
    lines += [f"property {t} {p}" for t, p in zip(types, props)]
    lines.append("end_header")
    lines += [" ".join(str(v) for v in vert) for vert in vertices]
    return ("\n".join(lines) + "\n").encode()


def test_single_vertex():
    cloud = read_ply(ascii_ply([(1, 2, 3)]))
    assert point_set(cloud) == {(1, 2, 3)}
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
    assert point_set(cloud) == {(1, 2, 3)}


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
    assert point_set(read_ply(data)) == {(3, 4, 5)}


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


@pytest.mark.parametrize(
    "name, ptype, token, limits",
    [
        ("x", "int", "1.5", "-2147483648..2147483647"),
        ("x", "short", "40000", "-32768..32767"),
        ("x", "uchar", "300", "0..255"),
        ("red", "uchar", "10.7", "0..255"),
        ("intensity", "int", "2.5", "-2147483648..2147483647"),
    ],
    ids=["int-fraction", "short-range", "uchar-range", "color-fraction", "extra-fraction"],
)
def test_ascii_integer_property_rejects_other_values(name, ptype, token, limits):
    props = ("x", "y", "z", "red", "green", "blue", "intensity")
    types = ["float"] * 3 + ["uchar"] * 3 + ["int"]
    types[props.index(name)] = ptype
    rows = [[0, 0, 0, 1, 2, 3, 4], [1, 1, 1, 10, 20, 30, 40]]
    rows[1][props.index(name)] = token
    with pytest.raises(PlyParseError, match=f"^{name} at vertex 1 is not an integer in {limits}$"):
        read_ply(ascii_ply(rows, props=props, types=types))


def test_ascii_integer_property_accepts_integral_tokens():
    data = ascii_ply([("32767", "+12", "1e3", "7.0")], props=("x", "y", "z", "red"),
                     types=["short", "int", "int", "uchar"])
    assert point_set(read_ply(data)) == {(32767, 12, 1000)}


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
    assert point_set(read_ply(data)) == {(1, 2, 3)}
    binary = write_ply(cube_cloud(), "binary").replace(
        b"ply\n", b"ply\ncomment end_header\n", 1
    )
    assert read_ply(binary).same_points(cube_cloud())


NUMBERS = [b"0", b"7", b"-3", b"+12", b"2.5", b".5", b"5.", b"1e3", b"1_0", b"nan", b"-inf",
           b"1e400", b"255"]
JUNK = [b"abc", b"1__0", b"_1", b"0x1", b"\xff", b"\xc3\xa9", b"1\x00", b"\xa0", b"\x85"]
SEPARATORS = [b" ", b"  ", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f"]
_SEPARATORS_AS_SPACE = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")


@st.composite
def token_soups(draw):
    """An ASCII body around `width`-value rows, with odd rows, bytes and counts mixed in."""
    width = draw(st.sampled_from([1, 3, 6]))
    token = st.sampled_from(NUMBERS * 6 + JUNK)
    line = st.tuples(
        st.lists(token, min_size=width, max_size=width)
        | st.lists(token, max_size=width + 2),
        st.lists(st.sampled_from(SEPARATORS), min_size=width + 3, max_size=width + 3),
    ).map(lambda ts: ts[1][-1] + b"".join(t + sep for t, sep in zip(*ts)))
    lines = draw(st.lists(line | st.sampled_from([b"", b" ", b"\t\r"]), max_size=10))
    body = b"".join(ln + draw(st.sampled_from([b"\n", b"\r\n"])) for ln in lines)
    body += draw(st.sampled_from([b"", b"\n", b" ", b"7 7 7", b"\x1c"]))
    rows = sum(1 for ln in lines if ln.translate(_SEPARATORS_AS_SPACE).split())
    count = max(0, rows + draw(st.integers(-2, 2)))
    return body, count, [(f"p{i}", "<f4") for i in range(width)], draw(st.integers(1, 12))


def _outcome(read, body, count, props, header_lines):
    try:
        table = read(body, count, props, header_lines)
    except Exception as err:
        return type(err), str(err)
    return {name: (col.dtype.str, col.tobytes()) for name, col in table.items()}


@given(token_soups())
@settings(max_examples=600, deadline=None)
def test_ascii_body_matches_line_by_line_oracle(soup):
    """Same arrays, or the same exception type and message, as the per-line reader."""
    assert _outcome(_read_ascii_body, *soup) == _outcome(oracle_read_ascii_body, *soup)


@pytest.mark.parametrize("colored", [False, True])
@pytest.mark.parametrize("points", [0, 1, 300])
def test_ascii_write_matches_per_vertex_oracle(colored, points):
    rng = np.random.default_rng(points)
    coords = rng.integers(0, 1 << 16, size=(points, 3), dtype=np.int64)
    colors = rng.integers(0, 256, size=(points, 3), dtype=np.uint8) if colored else None
    cloud = make_cloud(coords, colors=colors)
    header, body = write_ply(cloud, "ascii").split(b"end_header\n")
    assert header.startswith(b"ply\nformat ascii 1.0\n")
    assert body == oracle_ascii_body(cloud)
