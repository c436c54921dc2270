import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import PlyParseError, PointCloud, ply, read_ply, write_ply
from sliceseg.ply import _read_ascii_body
from sliceseg.synthetic import gen_synthetic

from conftest import (
    cube_cloud,
    make_cloud,
    oracle_ascii_body,
    oracle_read_ascii_body,
    percent_ascii_body,
    ply_like_bytes,
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


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("props", [("x", "y", "z"), ("x", "y", "z", "red", "green", "blue")])
def test_shortest_ascii_body_fills_the_row_table(count, props):
    """One-character values and one-byte separators: 2 * len(props) bytes a vertex, the last
    one's newline missing, so the row table's size bound holds with no byte to spare."""
    data = ascii_ply([range(len(props))] * count, props, ["uchar"] * len(props))
    cloud = read_ply(data.rstrip(b"\n"))
    assert len(cloud) == 1 and cloud.duplicates_merged == count - 1


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


@pytest.mark.parametrize(
    "value, message",
    [
        ("1e30", "coordinate at vertex 0 exceeds 16-bit grid"),
        ("3e9", "coordinate at vertex 0 exceeds 16-bit grid"),
        ("-1e30", "negative coordinate at vertex 0"),
    ],
)
def test_huge_float_coordinate_is_range_checked_before_the_cast(value, message):
    # casting 1e30 to int64 first wraps it (with a RuntimeWarning) to a negative value
    with pytest.raises(PlyParseError, match=f"^{message}$"):
        read_ply(ascii_ply([(value, 0, 0)]))


@pytest.mark.parametrize("fmt", ["ascii 1.0", "binary_little_endian 1.0"])
def test_duplicate_property_is_a_header_error(fmt):
    header = (
        f"ply\nformat {fmt}\nelement vertex 0\nproperty float x\n"
        "property float y\nproperty float x\nproperty float z\nend_header\n"
    )
    with pytest.raises(PlyParseError, match=r"^duplicate property 'x' \(line 6\)$"):
        read_ply(header.encode())


def test_color_round_trip():
    colors = np.array([[255, 0, 10], [1, 2, 3]], dtype=np.uint8)
    cloud = make_cloud([(0, 0, 0), (5, 5, 5)], colors=colors)
    for fmt in ("ascii", "binary"):
        again = read_ply(write_ply(cloud, fmt))
        assert again.same_points(cloud)
        assert np.array_equal(again.colors, cloud.colors)


def test_ascii_round_trip_at_grid_edges():
    edges = [0, 9, 10, 99, 100, 65535]
    coords = np.array([(x, y, z) for x in edges for y in edges for z in edges[::-1]])
    colors = (coords[:, [2, 0, 1]] % 256).astype(np.uint8)
    cloud = make_cloud(coords, colors=colors)
    data = write_ply(cloud, "ascii")
    assert b"property uchar red" in data and b"65535 65535 0 " in data
    again = read_ply(data)
    assert again.bit_depth == 16
    assert np.array_equal(again.coords, cloud.coords)
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
    # the binary layout, written out: packed little-endian f4 x/y/z records,
    # then u1 red/green/blue when coloured
    coords = np.array([[0, 1, 65535], [7, 300, 2]])
    colors = np.array([[255, 0, 9], [1, 128, 200]], dtype=np.uint8)
    xyz = b"property float x\nproperty float y\nproperty float z\n"
    rgb = b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
    xyz_fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    rgb_fields = [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    for cloud, props, fields, vertex_bytes in (
        (PointCloud(coords, colors), xyz + rgb, xyz_fields + rgb_fields, 15),
        (PointCloud(coords), xyz, xyz_fields, 12),
    ):
        header = b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n" + props + b"end_header\n"
        data = write_ply(cloud, "binary")
        assert data[: len(header)] == header
        body = data[len(header) :]
        assert len(body) == 2 * vertex_bytes
        rec = np.frombuffer(body, dtype=np.dtype(fields))
        assert np.column_stack([rec[n] for n in ("x", "y", "z")]).tolist() == coords.tolist()
        if cloud.colors is not None:
            rgb_values = np.column_stack([rec[n] for n in ("red", "green", "blue")])
            assert rgb_values.tolist() == colors.tolist()


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


HEADER = "ply\nformat ascii 1.0\n"
XYZ = "property float x\nproperty float y\nproperty float z\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("plyx\nformat ascii 1.0\nend_header\n", "first line must be 'ply' (line 1)"),
        (HEADER + "element vertex abc\n" + XYZ + "end_header\n",
         "bad vertex count 'abc' (line 3)"),
        (HEADER + "element vertex -1\n" + XYZ + "end_header\n", "negative vertex count (line 3)"),
        (HEADER + "element vertex 1\nproperty float\nend_header\n",
         "malformed property line (line 4)"),
        (HEADER + "element vertex 0\n" + XYZ + "camera 1\nend_header\n",
         "unknown header keyword 'camera' (line 7)"),
        (HEADER + "element vertex 0\nend_header\n", "vertex element declares no properties"),
        (HEADER + "element vertex 1\n" + XYZ + "end_header\nnan 0 0\n",
         "non-finite coordinate in vertex body"),
    ],
    ids=["magic-suffix", "count-not-integer", "count-negative", "property-without-name",
         "unknown-keyword", "no-properties", "nan-coordinate"],
)
def test_reader_error_names_the_fault(text, message):
    with pytest.raises(PlyParseError) as e:
        read_ply(text.encode())
    assert str(e.value) == message


def test_write_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="format must be 'ascii' or 'binary', got 'xml'"):
        write_ply(cube_cloud(), "xml")


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
           b"1e400", b"255", b"007", b"9007199254740993", b"999999999999999999",
           b"9223372036854775809", b"18446744073709551617",  # 2^53+1, 18, 19 and 20 digits
           # 7-9, 15-17 digits: each side of the 8-digit words the reader sums
           b"1234567", b"0000007", b"00000000", b"99999999", b"000000001", b"100000000",
           b"123456789012345", b"9999999999999999", b"0000000000000001", b"10000000000000000",
           b"00000000000000009", b"12345678901234567"]
DIGIT_STRINGS = [t for t in NUMBERS if t.isdigit()]
JUNK = [b"abc", b"1__0", b"_1", b"0x1", b"\xff", b"\xc3\xa9", b"1\x00", b"\xa0", b"\x85"]
SEPARATORS = [b" ", b"  ", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f"]
WHITESPACE = SEPARATORS[:6]  # both readers split on these; \x1c-\x1f only str.split() does
_SEPARATORS_AS_SPACE = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")


@st.composite
def token_soups(draw):
    """An ASCII body of `width`-value rows, its vertex count, properties and header lines.

    Two soups in three are well formed, so the readers' values are compared; the
    third mixes in odd rows, bytes, separators and counts, so their errors are.
    """
    width = draw(st.sampled_from([1, 3, 6]))
    wild = draw(st.integers(0, 2)) == 2
    token = st.sampled_from(
        draw(st.sampled_from([NUMBERS * 6 + JUNK if wild else NUMBERS, DIGIT_STRINGS]))
    )
    row = st.lists(token, min_size=width, max_size=width)
    if wild:
        row |= st.lists(token, max_size=width + 2)
    line = st.tuples(
        row,
        st.lists(
            st.sampled_from(SEPARATORS if wild else WHITESPACE),
            min_size=width + 3,
            max_size=width + 3,
        ),
    ).map(lambda ts: ts[1][-1] + b"".join(t + sep for t, sep in zip(*ts)))
    lines = draw(st.lists(line | st.sampled_from([b"", b" ", b"\t\r"]), max_size=10))
    body = b"".join(ln + draw(st.sampled_from([b"\n", b"\r\n"])) for ln in lines)
    last = b" ".join([b"7"] * width)  # a last vertex line, separators after it and no newline
    endings = [b"", b"\n", b" ", last + b" ", last + b"\t", last + b"\r", b"  " + last + b"  "]
    ending = draw(st.sampled_from(endings + ([b"7 7 7", b"\x1c"] if wild else [])))
    body += ending
    rows = sum(1 for ln in lines + [ending] if ln.translate(_SEPARATORS_AS_SPACE).split())
    count = max(0, rows + (draw(st.integers(-2, 2)) if wild else 0))
    return body, count, [(f"p{i}", "<f4") for i in range(width)], draw(st.integers(1, 12))


def read_ascii_body(body, count, props, header_lines):
    """The reader's chunks of a bare body, joined into one float64 column per property."""
    chunks = list(_read_ascii_body(body, 0, count, props, header_lines))
    return {name: np.concatenate([np.zeros(0)] + [c[name] for c in chunks]) for name, _ in props}


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
    assert _outcome(read_ascii_body, *soup) == _outcome(oracle_read_ascii_body, *soup)


@pytest.mark.parametrize("token", DIGIT_STRINGS + [b"1:0", b"/1", b"12a", b"0" * 18 + b"1"])
def test_ascii_token_next_to_digits_matches_oracle(token):
    """Each token in a valid three-row body: the values of float() or its error, bit for bit."""
    body = b"1 2 3\n4 %s 6\n%s 00 9\n" % (token, token)
    props = [(name, "<f4") for name in "xyz"]
    outcome = _outcome(read_ascii_body, body, 3, props, 5)
    assert outcome == _outcome(oracle_read_ascii_body, body, 3, props, 5)
    assert isinstance(outcome, dict) == token.isdigit()


# a few bytes a chunk: every chunk is one line, or the part of a line past a boundary
TINY_CHUNK = 3


@given(token_soups())
@settings(max_examples=600, deadline=None)
def test_ascii_body_in_tiny_chunks_matches_line_by_line_oracle(soup):
    with mock.patch.object(ply, "_CHUNK_BYTES", TINY_CHUNK):
        assert _outcome(read_ascii_body, *soup) == _outcome(oracle_read_ascii_body, *soup)


@pytest.mark.parametrize("token", DIGIT_STRINGS + [b"1:0", b"/1", b"12a", b"0" * 18 + b"1"])
def test_ascii_token_next_to_digits_in_tiny_chunks_matches_oracle(monkeypatch, token):
    monkeypatch.setattr(ply, "_CHUNK_BYTES", TINY_CHUNK)
    test_ascii_token_next_to_digits_matches_oracle(token)


def record_digit_values(monkeypatch) -> list:
    """What each `_digit_values` call returns from now on: its values, or None."""
    original, returned = ply._digit_values, []

    def digit_values(*args):
        returned.append(original(*args))
        return returned[-1]

    monkeypatch.setattr(ply, "_digit_values", digit_values)
    return returned


@pytest.mark.parametrize("chunk", [1, ply._CHUNK_BYTES])
def test_digit_words_read_each_token_exactly(monkeypatch, chunk):
    """Up to three 8-digit words a token, the first token at byte 0 of a chunk and the last
    ending at the data's last byte: each value is int(token) as an unsigned integer, so the
    float64 column is float(int(token)), and none goes through float()."""
    monkeypatch.setattr(ply, "_CHUNK_BYTES", chunk)
    returned = record_digit_values(monkeypatch)
    tokens = [t for t in DIGIT_STRINGS if len(t) <= 18]
    for width in (1, 3):
        returned.clear()
        body = b"\n".join(b" ".join(tokens[i : i + width]) for i in range(0, len(tokens), width))
        props = [(f"p{i}", "<f4") for i in range(width)]
        table = read_ascii_body(body, len(tokens) // width, props, 1)
        read = np.column_stack([table[name] for name, _ in props]).ravel()
        assert read.tolist() == [float(int(t)) for t in tokens]
        assert returned and all(values.dtype.kind == "u" for values in returned)
        assert [int(v) for values in returned for v in values] == [int(t) for t in tokens]


@pytest.mark.parametrize("sep", SEPARATORS[6:])
@pytest.mark.parametrize(
    "token, digits",
    [(b"5", True), (b"123456789", True), (b"2.5", False), (b"-7", False), (b"x", False)],
)
def test_x1c_to_x1f_separate_values_on_both_paths(monkeypatch, sep, token, digits):
    """\\x1c-\\x1f split values as str.split() does, whether the digit reader or float()
    reads the chunk: the same values, or the same error and line, as the per-line reader."""
    returned = record_digit_values(monkeypatch)
    body = b"1%s2 3\n%s4%s%s%s6%s\n7 8\t9" % (sep, sep, sep, token, sep, sep)
    props = [(name, "<f4") for name in "xyz"]
    outcome = _outcome(read_ascii_body, body, 3, props, 5)
    assert outcome == _outcome(oracle_read_ascii_body, body, 3, props, 5)
    assert isinstance(outcome, dict) == (token != b"x")
    assert (returned[0] is not None) == digits
    width_error = body.replace(b"\n7", b"%s0\n7" % sep)  # a fourth value on line 7
    assert _outcome(read_ascii_body, width_error, 3, props, 5) == (
        PlyParseError, "expected 3 values, got 4 (line 7)"
    )


SHORT_DIGITS = [b"0", b"7", b"0007", b"42", b"999", b"4095", b"9999"]
FIVE_DIGITS = [b"10000", b"00000", b"09999", b"65535", b"65536"]


def float_path_outcome(monkeypatch, outcome, *args):
    """outcome(*args) with every chunk read through float() per token."""
    with monkeypatch.context() as m:
        m.setattr(ply, "_digit_values", lambda *_: None)
        return outcome(*args)


@pytest.mark.parametrize("chunk", [1, 6, 13, 40, ply._CHUNK_BYTES])
def test_short_and_five_digit_chunks_match_oracle_and_float_path(monkeypatch, chunk):
    """Lines of tokens of at most 4 digits, read from 4-byte words, between lines that hold
    a 5-digit token, read from 8-byte words, in chunks cut anywhere among them: the same
    columns as the per-line reader and as float(), each chunk's values unsigned integers."""
    rng = np.random.default_rng(chunk)
    lines = []
    for i in range(40):
        row = [SHORT_DIGITS[k] for k in rng.integers(0, len(SHORT_DIGITS), 3)]
        if i % 3 == 0:
            row[rng.integers(3)] = FIVE_DIGITS[rng.integers(len(FIVE_DIGITS))]
        lines.append(b" ".join(row))
    body = b"\n".join(lines) + b"\n"
    props = [(name, "<f4") for name in "xyz"]
    monkeypatch.setattr(ply, "_CHUNK_BYTES", chunk)
    returned = record_digit_values(monkeypatch)
    outcome = _outcome(read_ascii_body, body, 40, props, 5)
    assert outcome == _outcome(oracle_read_ascii_body, body, 40, props, 5)
    assert float_path_outcome(monkeypatch, _outcome, read_ascii_body, body, 40, props, 5) == outcome
    assert all(values.dtype.kind == "u" for values in returned)
    word_sizes = {values.dtype.itemsize for values in returned}
    assert word_sizes == ({4, 8} if chunk <= 13 else {8})  # each 40-byte chunk here has a 5-digit line


COLOR_TYPES = ["float"] * 3 + ["uchar"] * 3


# At one byte a chunk each vertex line is a chunk, its first token at the chunk's first byte.
@pytest.mark.parametrize("chunk", [1, 8, ply._CHUNK_BYTES])
@pytest.mark.parametrize(
    "data, want",
    [
        (ascii_ply([("0007", "0", "00"), ("0100", "7", "0000")]), [[7, 0, 0], [100, 7, 0]]),
        (ascii_ply([(9999, 1, 2), (3, 9999, 4)]), [[9999, 1, 2], [3, 9999, 4]]),
        (ascii_ply([(9999, 10000, 65535)]), [[9999, 10000, 65535]]),
        (ascii_ply([(9999, 0, 0), (0, 65536, 0)]), "coordinate at vertex 1 exceeds 16-bit grid"),
        (ascii_ply([(1, 2, 3), (256, 0, 0)], types=["uchar", "float", "float"]),
         "x at vertex 1 is not an integer in 0..255"),
        (ascii_ply([(1, 2, 3), (4, 32768, 6)], types=["float", "short", "float"]),
         "y at vertex 1 is not an integer in -32768..32767"),
        (ascii_ply([(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 300, 6)], props=COLOR_PROPS, types=COLOR_TYPES),
         "color outside 0..255 at vertex 1"),
        (ascii_ply([(1, 2, 3, 0, 255, 6)], props=COLOR_PROPS, types=COLOR_TYPES), [[1, 2, 3]]),
    ],
    ids=["leading-zeros", "four-digits-first", "grid-edges", "grid-plus-one", "uchar-256",
         "short-32768", "color-300", "color-edges"],
)
def test_digit_path_values_and_range_checks(monkeypatch, chunk, data, want):
    """Integer columns pass the checks float64 columns pass, and fail the same ones."""
    monkeypatch.setattr(ply, "_CHUNK_BYTES", chunk)
    returned = record_digit_values(monkeypatch)
    outcome = read_outcome(data)
    assert returned and all(values.dtype.kind == "u" for values in returned)
    assert float_path_outcome(monkeypatch, read_outcome, data) == outcome
    if isinstance(want, str):
        assert outcome == want
    else:
        assert outcome[0] == np.array(want, dtype=np.int32).tobytes()


def read_outcome(data: bytes):
    try:
        cloud = read_ply(data)
    except PlyParseError as err:
        return str(err)
    colors = None if cloud.colors is None else cloud.colors.tobytes()
    return cloud.coords.tobytes(), colors, cloud.duplicates_merged


# At 8 bytes a chunk, each short line below is a chunk of its own; an x/y/z
# header takes lines 1-7. A structure fault in any chunk outranks a value
# fault in any other, value faults rank by kind before vertex, and lines and
# vertices count from the file's start.
@pytest.mark.parametrize(
    "data, message",
    [
        (ascii_ply([(-1, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)], count=3),
         "trailing data after 3 vertices (line 11)"),
        (ascii_ply([(-1, 0, 0), (1, 1, 1)], count=3),
         "truncated body: header declares 3 vertices, found 2"),
        (ascii_ply([(1, 1, 1), (2, 2), (3, "x", 3)]), "expected 3 values, got 2 (line 9)"),
        (ascii_ply([(1, 1, 1), (2, "x", 2), (3, 3)]), "non-numeric vertex value (line 9)"),
        (ascii_ply([(70000, 0, 0), (1, 1, 1), (2, -2, 2)]), "negative coordinate at vertex 2"),
        (ascii_ply([(0, 0, 0, 0, 0, 300), ("nan", 0, 0, 0, 0, 0)], props=COLOR_PROPS),
         "non-finite coordinate in vertex body"),
        (ascii_ply([(0.5, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2)], props=("x", "y", "z", "w"),
                   types=["int", "float", "float", "float"]),
         "expected 4 values, got 3 (line 11)"),
        (HEADER.encode() + b"element vertex 3\n" + XYZ.encode() + b"end_header\n"
         b"1 2 3\r\n\r\n\n4 5 6\r\n \r\n7 8\r\n", "expected 3 values, got 2 (line 13)"),
    ],
    ids=["range-then-trailing", "range-then-truncated", "width-then-token", "token-then-width",
         "grid-then-negative", "color-then-nan", "integer-then-width", "crlf-blank-lines"],
)
def test_faults_in_different_chunks_keep_their_rank(monkeypatch, data, message):
    assert read_outcome(data) == message
    monkeypatch.setattr(ply, "_CHUNK_BYTES", 8)
    assert read_outcome(data) == message


def test_crlf_and_blank_lines_on_chunk_boundaries(monkeypatch):
    data = (HEADER.encode() + b"element vertex 3\n" + XYZ.encode() + b"end_header\n"
            b"1 2 3\r\n\r\n\n4 5 6\r\n \r\n7 8 9\r\n\r\n")
    whole = read_outcome(data)
    assert whole[0] == np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.int32).tobytes()
    for chunk in (1, 2, 5, 6, 7, 8):
        monkeypatch.setattr(ply, "_CHUNK_BYTES", chunk)
        assert read_outcome(data) == whole


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, ply._CHUNK_BYTES])
@pytest.mark.parametrize("last", [b"4 5 6 ", b"4 5 6\t", b"4 5 6\r", b"  4 5 6  "])
def test_last_vertex_line_without_newline(monkeypatch, chunk, last):
    """Separators after the last vertex and no newline: still a vertex line, in any chunks."""
    monkeypatch.setattr(ply, "_CHUNK_BYTES", chunk)
    coords = read_outcome(ascii_ply([(1, 2, 3)], count=2) + last)[0]
    assert coords == np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int32).tobytes()


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


# the smallest and largest values of each decimal length a coordinate or colour can take
COORD_BOUNDARIES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535]
COLOR_BOUNDARIES = [0, 9, 10, 99, 100, 255]


def written_body(cloud: PointCloud) -> bytes:
    return write_ply(cloud, "ascii").split(b"end_header\n")[1]


def colors_for(count: int) -> np.ndarray:
    """`count` colours running through every triple of colour boundaries."""
    triples = list(itertools.product(COLOR_BOUNDARIES, repeat=3))
    return np.array([triples[i % len(triples)] for i in range(count)], dtype=np.uint8).reshape(-1, 3)


@pytest.mark.parametrize("colored", [False, True])
@pytest.mark.parametrize("points", [[], [(0, 0, 0)]], ids=["empty", "origin"])
def test_ascii_write_matches_percent_format_on_tiny_clouds(points, colored):
    cloud = make_cloud(points, colors=colors_for(len(points)) if colored else None)
    body = written_body(cloud)
    assert body == percent_ascii_body(cloud)
    assert body == (b"0 0 0 0 0 0\n" if colored else b"0 0 0\n") * len(points)


@pytest.mark.parametrize("colored", [False, True])
def test_ascii_write_matches_percent_format_at_digit_boundaries(colored):
    """Every boundary on each axis, next to every boundary on the other two."""
    coords = list(itertools.product(COORD_BOUNDARIES, repeat=3))
    cloud = make_cloud(coords, colors=colors_for(len(coords)) if colored else None)
    body = written_body(cloud)
    assert body == percent_ascii_body(cloud) == oracle_ascii_body(cloud)
    assert b"\0" not in body and body.count(b"\n") == len(cloud)


@pytest.mark.parametrize("top", COORD_BOUNDARIES)
def test_ascii_write_matches_percent_format_below_each_largest_value(top):
    """The digit table ends at the body's largest value, which takes each digit count here."""
    values = sorted({0, top // 3, top // 2, top})
    cloud = make_cloud([(a, b, top) for a in values for b in values])
    assert written_body(cloud) == percent_ascii_body(cloud)


@pytest.mark.parametrize("colored", [False, True])
@pytest.mark.parametrize("seed, extent", [(1, 10), (2, 256), (3, 1000), (4, 1 << 16)])
def test_ascii_write_matches_percent_format_on_random_clouds(seed, extent, colored):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, extent, size=(2000, 3), dtype=np.int64)
    colors = rng.integers(0, 256, size=(2000, 3), dtype=np.uint8) if colored else None
    cloud = make_cloud(coords, colors=colors)
    assert written_body(cloud) == percent_ascii_body(cloud)


_coordinate = st.integers(0, 65535) | st.sampled_from(COORD_BOUNDARIES)
_color = st.integers(0, 255) | st.sampled_from(COLOR_BOUNDARIES)


@given(
    st.lists(st.tuples(_coordinate, _coordinate, _coordinate), max_size=40),
    st.none() | st.lists(st.tuples(_color, _color, _color), min_size=40, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_ascii_write_matches_percent_format_property(points, colors):
    if colors is not None:
        colors = np.array(colors[: len(points)], dtype=np.uint8).reshape(-1, 3)
    cloud = make_cloud(points, colors=colors)
    assert written_body(cloud) == percent_ascii_body(cloud)


@given(ply_like_bytes())
@settings(max_examples=400, deadline=None)
def test_any_bytes_read_to_a_cloud_or_a_parse_error(data):
    """Header included: a cloud or a PlyParseError, and no warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cloud = read_ply(data)
        except PlyParseError:
            cloud = None
    assert caught == []
    if cloud is not None:
        assert read_ply(write_ply(cloud)).same_points(cloud)


@pytest.mark.parametrize("colored", [False, True])
def test_ascii_write_one_row_per_block_matches_per_vertex_oracle(monkeypatch, colored):
    monkeypatch.setattr(ply, "_BLOCK_ROWS", 1)
    test_ascii_write_matches_per_vertex_oracle(colored, 300)


@given(ply_like_bytes())
@settings(max_examples=400, deadline=None)
def test_any_bytes_read_alike_in_tiny_chunks(data):
    """The same cloud or the same error whatever the chunk size, and no warning on the way."""
    whole = read_outcome(data)
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(
        ply, "_CHUNK_BYTES", TINY_CHUNK
    ):
        warnings.simplefilter("always")
        assert read_outcome(data) == whole
    assert caught == []


def test_frame_ascii_read_work(monkeypatch):
    """bulk-codec's frame: the chunks `_read_ascii_body` yields for the 200,000-point ASCII
    body, each the whole lines within the next `_CHUNK_BYTES`, and the rows they hold."""
    frame = gen_synthetic("uniform-random", {"extent": 256, "count": 200_000}, seed=1)
    data, chunks, body = write_ply(frame, "ascii"), [], ply._read_ascii_body

    def counted(*args):
        for columns in body(*args):
            chunks.append(len(columns["x"]))
            yield columns

    monkeypatch.setattr(ply, "_read_ascii_body", counted)
    assert read_ply(data).same_points(frame)
    assert (len(chunks), sum(chunks)) == (9, 200_000)  # a 2.1 MB body in 256 KiB chunks
