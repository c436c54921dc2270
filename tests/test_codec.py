import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import (
    DecodeError,
    EncodeError,
    SlicePlan,
    SlicerConfig,
    SliceSpec,
    bit_budget,
    build_plan,
    decode,
    encode,
    extract_slices,
    reencode,
)
from sliceseg import cloud as cloud_module
from sliceseg import codec, slicer
from sliceseg.cloud import Axis, AxisRange, PointCloud, Side
from sliceseg.codec import (
    STREAM_HEADER_BYTES,
    DecodedRecord,
    DecodedStream,
    _header_widths,
    _join,
    _phases,
    _record,
    _split,
    offset_bits_for,
    record_header_bits,
)
from sliceseg.synthetic import gen_synthetic

from conftest import (
    band_stream,
    cube_cloud,
    layout_header_bits,
    layout_payload_bits,
    layout_stream_bytes,
    make_cloud,
    oracle_decode,
    oracle_record_order,
    oracle_stream_cloud,
    pack_words,
    point_set,
    random_cloud,
    read_bits,
    slab_plan,
    swsg_like_bytes,
    unpack_words,
)


def single_slice_plan(cloud, axis, lo, hi, theta=64, overlap=0):
    """Handcrafted one-slice plan covering the whole cloud along [lo, hi)."""
    rng = AxisRange(axis, lo, hi)
    spec = SliceSpec(
        index=0,
        side=Side(axis, -1),
        core=rng,
        extended=rng,
        point_count=len(cloud),
        psi=0.0,
        terminal=False,
    )
    return SlicePlan(
        config=SlicerConfig(theta=theta, threshold_frac="0.05", overlap=overlap),
        original_size=len(cloud),
        slices=(spec,),
    )


class TestOffsetBits:
    def test_paper_width_64_needs_6_bits(self):
        assert offset_bits_for(64) == 6

    def test_width_30_needs_5_bits(self):
        assert offset_bits_for(30) == 5

    def test_width_one_needs_one_bit(self):
        assert offset_bits_for(1) == 1

    def test_monotone_steps(self):
        assert [offset_bits_for(w) for w in (2, 3, 4, 5, 127, 128, 1024)] == [
            1, 2, 2, 3, 7, 7, 10,
        ]


def shift_and_mask_bits(values, width):
    """(..., width) uint8 bits of each value, MSB first, one shift per bit position."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((np.asarray(values, dtype=np.uint64)[..., None] >> shifts) & 1).astype(np.uint8)


def oracle_packed(first_bit, columns, widths) -> bytes:
    """`first_bit` zero bits, then each row's fields MSB first, zero-padded to a byte."""
    rows = np.concatenate([shift_and_mask_bits(c, w) for c, w in zip(columns, widths)], axis=-1)
    return np.packbits(np.concatenate([np.zeros(first_bit, np.uint8), rows.ravel()])).tobytes()


def packed_words(first_bit, columns, widths) -> bytes:
    """The same bytes from `_join`'s words ORed through `_phases`' views, as records are written."""
    count, bits = len(columns[0]), sum(widths)
    buffer = bytearray((first_bit + count * bits + 7) // 8 + 8)
    word = _join(np.zeros(count, np.int64), columns, widths).view(np.uint64)
    for view, shift, points in _phases(buffer, first_bit, bits, count):
        view |= word[points] << (64 - bits - shift)
    return bytes(buffer[:-8])


def unpacked_words(data, first_bit, widths, count) -> list:
    """The fields `packed_words` wrote, read back through `_phases`' views as records are read."""
    bits = sum(widths)
    word = np.empty(count, dtype=np.uint64)
    for view, shift, points in _phases(data + bytes(8), first_bit, bits, count):
        word[points] = (view << shift) >> (64 - bits)
    return _split(word, widths)


class TestFieldBits:
    """Fields to words (`_join`, `_split`) and words to bits (`_phases`), against shift and mask."""

    @pytest.mark.parametrize("width", range(1, 33))
    def test_round_trip_and_shift_and_mask_oracle(self, width):
        values = np.array([0, 1, (1 << width) - 1], dtype=np.int64)
        rng = np.random.default_rng(width)
        values = np.concatenate([values, rng.integers(0, 1 << width, size=50)])
        # a 16-bit field after each value keeps a point at least 17 bits, as in a record
        columns, widths = (values, rng.integers(0, 1 << 16, size=len(values))), (width, 16)
        for first_bit in range(8):
            data = packed_words(first_bit, columns, widths)
            assert data == oracle_packed(first_bit, columns, widths)
            back = unpacked_words(data, first_bit, widths, len(values))
            assert all(np.array_equal(b, c) for b, c in zip(back, columns))

    def test_split_fields_reads_shift_and_mask_rows_and_headers(self):
        """Fields joined side by side, as rows of words and as a header int, read back exactly."""
        widths = tuple(range(1, 33)) + (5, 1, 16)
        rng = np.random.default_rng(0)
        values = [rng.integers(0, 1 << w, size=40) for w in widths]
        values[-1][:2] = (0, (1 << 16) - 1)
        start = 0
        while start < len(widths):  # the widest words that fit 57 bits
            end = start + 1
            while end < len(widths) and sum(widths[start : end + 1]) <= 57:
                end += 1
            group, columns = widths[start:end], values[start:end]
            word = _join(np.zeros(40, np.int64), columns, group)
            want = np.concatenate([shift_and_mask_bits(v, w) for v, w in zip(columns, group)], axis=1)
            assert np.array_equal(shift_and_mask_bits(word, sum(group)), want)
            assert all(np.array_equal(g, v) for g, v in zip(_split(word, group), columns))
            header = _join(0, [int(v[7]) for v in columns], group)
            assert type(header) is int and header == int(word[7])
            assert _split(header, group) == [int(v[7]) for v in columns]
            start = end
        for bit_depth in range(8, 17):
            fields = [int(rng.integers(0, 1 << w)) for w in _header_widths(bit_depth)]
            header = _join(0, fields, _header_widths(bit_depth))
            assert header < 1 << 64 and _split(header, _header_widths(bit_depth)) == fields

    @pytest.mark.parametrize("value", [0, 1, True, 5, (1 << 32) - 1])
    def test_scalar_header_field(self, value):
        width = max(1, int(value).bit_length())
        header = _join(0, (value,), (width,))
        assert np.array_equal(shift_and_mask_bits(header, width), shift_and_mask_bits(value, width))
        widths = (2, width, 1)
        header = _join(0, (2, value, 1), widths)
        assert format(header, f"0{sum(widths)}b") == f"10{int(value):0{width}b}1"
        assert _split(header, widths) == [2, value, 1]


def random_record(rng, bit_depth, d, color, count, terminal=False) -> DecodedRecord:
    """A record `decode` accepts: `count` distinct points in order, `d` offset bits."""
    if d < 8:  # a narrow record: its width field needs d offset bits
        width = int(rng.integers((1 << (d - 1)) + 1, min(1 << d, 127) + 1)) if d > 1 else 2
        base = int(rng.integers(0, (1 << bit_depth) - width + 1))
    else:  # a wide record bounds its offsets by 2^d and the grid
        width, base = 0, int(rng.integers(0, 1 << bit_depth))
    span = width or min(1 << d, (1 << bit_depth) - base)
    points = set()
    while len(points) < count:
        points.add((int(rng.integers(0, span)), *rng.integers(0, 1 << bit_depth, size=2).tolist()))
    return DecodedRecord(
        axis=Axis(int(rng.integers(0, 3))), sign=int(rng.choice([-1, 1])), terminal=terminal,
        base=base, width_field=width, d=d, color_flag=color,
        words=pack_words(sorted(points), (d, bit_depth, bit_depth)),
        colors=rng.integers(0, 256, size=(count, 3), dtype=np.uint8) if color else None,
    )


def oracle_record_bytes(bit_depth, record) -> bytes:
    """The record's bytes by the README layout, every field by shift and mask."""
    header = (int(record.axis), record.sign > 0, record.terminal, record.base,
              record.width_field, record.d - 1, record.point_count, record.color_flag)
    widths = [record.d, bit_depth, bit_depth]
    columns = list(unpack_words(record.words, widths).T)
    if record.color_flag:
        columns += list(record.colors.T)
        widths += [8, 8, 8]
    head = [shift_and_mask_bits(v, w) for v, w in zip(header, _header_widths(bit_depth))]
    rows = np.concatenate([shift_and_mask_bits(c, w).reshape(-1, w) for c, w in zip(columns, widths)],
                          axis=1)
    return np.packbits(np.concatenate(head + [rows.ravel()])).tobytes()


class TestWordPacker:
    """Records written and read as 64-bit words, against the shift-and-mask layout."""

    @pytest.mark.parametrize("color", [False, True], ids=["plain", "colored"])
    @pytest.mark.parametrize("bit_depth", range(8, 17))
    def test_every_bit_phase_offset_width_and_count(self, bit_depth, color):
        # the payload starts (48 + B) % 8 bits into a byte; a point is 17 to 48
        # bits, 72 with color (two words); 0..17 points leave phases empty or partial
        rng = np.random.default_rng(bit_depth)
        for d in range(1, 17):
            for count in (0, 1, 7, 8, 9, 17):
                record = random_record(rng, bit_depth, d, color, count)
                stream = reencode(DecodedStream(bit_depth, 64, 2, (record,)))
                assert stream[STREAM_HEADER_BYTES:] == oracle_record_bytes(bit_depth, record)
                (got,) = decode(stream).records
                assert _record_tuple(got) == _record_tuple(record)
                assert got.words.dtype == np.uint64

    def test_wide_record_at_16_bits_is_48_bits_a_point(self):
        rng = np.random.default_rng(1)
        record = random_record(rng, 16, 16, False, 17)
        assert record.width_field == 0
        stream = reencode(DecodedStream(16, 64, 2, (record,)))
        assert len(stream) == STREAM_HEADER_BYTES + (64 + 17 * 48) // 8
        assert _record_tuple(decode(stream).records[0]) == _record_tuple(record)

    def test_numpy_integer_header_fields(self):
        """A record built from numpy integers writes the same bytes as one of Python ints."""
        record = random_record(np.random.default_rng(5), 16, 7, True, 9, terminal=True)
        numpy_fields = dataclasses.replace(
            record, base=np.int64(record.base), width_field=np.int64(record.width_field),
            d=np.int64(record.d), terminal=np.bool_(True), sign=np.int64(record.sign),
        )
        want = reencode(DecodedStream(16, 64, 2, (record,)))
        assert reencode(DecodedStream(np.int64(16), 64, 2, (numpy_fields,))) == want

    @staticmethod
    def colored_stream():
        """Three colored records, each with padding bits, at B = 10."""
        rng = np.random.default_rng(3)
        records = [random_record(rng, 10, d, True, n) for d, n in ((5, 1), (1, 7), (6, 9))]
        records.append(random_record(rng, 10, 3, True, 17, terminal=True))
        return reencode(DecodedStream(10, 64, 2, tuple(records))), records

    def test_every_prefix_is_truncated(self):
        stream, records = self.colored_stream()
        ends = np.cumsum([STREAM_HEADER_BYTES] + [len(oracle_record_bytes(10, r)) for r in records])
        assert ends[-1] == len(stream)
        for end in range(4, len(stream)):
            with pytest.raises(DecodeError) as e:
                decode(stream[:end])
            index = None if end < STREAM_HEADER_BYTES else int(np.searchsorted(ends, end, "right")) - 1
            assert (e.value.kind, e.value.record_index) == ("truncated", index)

    def test_flipped_padding_bit_is_noncanonical_at_its_record(self):
        stream, records = self.colored_stream()
        end = STREAM_HEADER_BYTES
        for index, record in enumerate(records):
            end += len(oracle_record_bytes(10, record))
            pad = -(layout_header_bits(10) + layout_payload_bits(record, 10)) % 8
            assert pad > 0
            for bit in range(pad):
                data = bytearray(stream)
                data[end - 1] ^= 1 << bit
                with pytest.raises(DecodeError, match="padding") as e:
                    decode(bytes(data))
                assert (e.value.kind, e.value.record_index) == ("noncanonical", index)


class TestRecordWords:
    """Records keep each point's (offset, u, v) word as the stream stores it."""

    @pytest.mark.parametrize("bit_depth", range(8, 17))
    def test_coords_match_the_plain_shift_oracle(self, bit_depth):
        rng = np.random.default_rng(bit_depth)
        plane = {Axis.X: (1, 2), Axis.Y: (0, 2), Axis.Z: (0, 1)}
        for d in range(1, 17):
            for count in (0, 1, 9, 17):
                record = random_record(rng, bit_depth, d, False, count)
                fields = unpack_words(record.words, (d, bit_depth, bit_depth))
                want = np.empty((count, 3), np.int64)
                want[:, record.axis] = record.base + fields[:, 0]
                want[:, list(plane[record.axis])] = fields[:, 1:]
                got = record.coords(bit_depth)
                assert got.dtype == np.int32 and np.array_equal(got, want)

    @pytest.mark.parametrize("colored", [False, True])
    @pytest.mark.parametrize("axis", list(Axis))
    def test_encoded_record_words_are_uint64_and_rise(self, axis, colored):
        rng = np.random.default_rng(int(axis))
        for extent, bit_depth in ((4, 10), (300, 10), (40, 16)):  # 300: a wide record
            extents = [16, 16, 16]
            extents[axis] = extent
            coords = rng.integers(0, extents, size=(500, 3))
            colors = rng.integers(0, 256, size=(500, 3)) if colored else None
            cloud = PointCloud(coords, colors, bit_depth=bit_depth)
            col = cloud.coords[:, axis]
            spec = single_slice_plan(cloud, axis, int(col.min()), int(col.max()) + 1).slices[0]
            words = _record(spec, cloud, bit_depth).words
            assert words.dtype == np.uint64 and len(words) == len(cloud)
            assert words.tolist() == sorted(set(words.tolist()))

    @pytest.mark.parametrize("colored", [False, True])
    @pytest.mark.parametrize(
        "points",
        [
            [(3, 3, 9), (1, 2, 3), (0, 0, 1)],  # falling, all distinct
            [(2, 2, 2), (9, 9, 0), (2, 2, 2), (1, 1, 1)],  # falling and repeating
        ],
        ids=["fall", "fall-and-repeat"],
    )
    def test_one_axis_hand_record_out_of_order_merges_like_the_oracle(
        self, monkeypatch, points, colored
    ):
        colors = [(i, i, i) for i in range(len(points))] if colored else None
        other_colors = [(5, 5, 5)] * 2 if colored else None
        other = hand_record(Axis.Z, 100, [(7, 7, 100), (8, 7, 100)], other_colors)
        stream = hand_stream(hand_record(Axis.Z, 0, points, colors), other)
        keyed = TestDecodedCloud.record_keyed(monkeypatch)
        cloud = stream.cloud
        assert keyed == ([len(points) + 2],) * 2  # every stored row, out of order or not
        assert_cloud_matches_oracle(stream)
        assert len(cloud) + cloud.duplicates_merged == len(points) + 2

    def test_cloud_keys_every_stored_row_once(self, monkeypatch):
        """One voxel key per stored row, built in one call: none for the records' order."""
        cloud = gen_synthetic("uniform-random", {"extent": 64, "count": 4000}, seed=3)
        plan = slab_plan(cloud, Axis.Z, 16, 2)
        stream, bands = decode(encode(cloud, plan)), decode(reencode(band_stream(cloud, plan)))
        keyed = TestDecodedCloud.record_keyed(monkeypatch)
        assert stream.cloud.duplicates_merged == 0 and stored_rows(stream) == len(cloud)
        merged = bands.cloud.duplicates_merged
        assert merged > 0 and keyed == ([len(cloud), len(cloud) + merged],) * 2


@st.composite
def decoded_streams(draw):
    """Streams of up to three records `decode` accepts, with random fields."""
    bit_depth, color = draw(st.integers(8, 16)), draw(st.booleans())
    size = draw(st.integers(0, 3))
    records = tuple(
        random_record(
            np.random.default_rng(draw(st.integers(0, 2**32 - 1))), bit_depth,
            draw(st.integers(1, 16)), color, draw(st.integers(0, 20)),
            terminal=index == size - 1 and draw(st.booleans()),
        )
        for index in range(size)
    )
    return DecodedStream(bit_depth, draw(st.integers(1, 65535)), draw(st.integers(0, 255)), records)


@settings(max_examples=200, deadline=None)
@given(decoded_streams())
def test_word_packer_round_trip(stream):
    data = reencode(stream)
    decoded = decode(data)
    assert _stream_tuple(decoded) == _stream_tuple(stream)
    assert reencode(decoded) == data


class TestDeltaExample:
    def test_base_220_coordinate_228_stores_offset_8(self):
        cloud = make_cloud([(100, 200, 228)])
        plan = single_slice_plan(cloud, Axis.Z, 220, 250)
        stream = encode(cloud, plan)

        # record header then the first payload field is the 5-bit offset
        assert offset_bits_for(30) == 5
        assert read_bits(stream, STREAM_HEADER_BYTES * 8 + record_header_bits(10), 5) == 8

        ds = decode(stream)
        assert ds.records[0].base == 220
        assert unpack_words(ds.records[0].words, (5, 10, 10))[:, 0].tolist() == [8]
        assert point_set(ds.cloud) == {(100, 200, 228)}


def assert_records_hold_cores(stream: DecodedStream, plan: SlicePlan) -> None:
    """Each record stores its slice's core points, based and sized by the core."""
    for record, spec in zip(stream.records, plan.slices, strict=True):
        assert (record.point_count, record.base) == (spec.point_count, spec.core.lo)
        assert record.width_field in (spec.core.width, 0)
        assert record.d == offset_bits_for(spec.core.width)


class TestLossless:
    @pytest.mark.parametrize("overlap", [0, 1, 2])
    def test_synthetic_kinds(self, overlap):
        clouds = [
            gen_synthetic("plane", {"extent": 12}),
            gen_synthetic("cube", {"extent": 4}),
            gen_synthetic("sphere-shell", {"extent": 9}),
            gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=5),
            gen_synthetic("uniform-random", {"extent": 40, "count": 250}, seed=5),
        ]
        for cloud in clouds:
            plan = build_plan(cloud, SlicerConfig(overlap=overlap))
            stream = encode(cloud, plan)
            assert decode(stream).cloud.same_points(cloud)
            assert_records_hold_cores(decode(stream), plan)

    @pytest.mark.parametrize("overlap", [0, 1, 2])
    def test_random_clouds(self, overlap, rng):
        for _ in range(8):
            cloud = random_cloud(rng, max_points=300)
            plan = build_plan(cloud, SlicerConfig(overlap=overlap))
            stream = encode(cloud, plan)
            assert decode(stream).cloud.same_points(cloud)
            assert_records_hold_cores(decode(stream), plan)

    def test_overlap_duplicates_merge_on_decode(self):
        plan = build_plan(cube_cloud(), SlicerConfig(overlap=1))
        slices = extract_slices(cube_cloud(), plan)
        assert sum(len(sc) for _, sc in slices) > 8  # the extended bands overlap
        stream = decode(encode(cube_cloud(), plan))
        assert stored_rows(stream) == len(stream.cloud) == 8  # encode stores each point once
        bands = decode(reencode(band_stream(cube_cloud(), plan)))
        assert stored_rows(bands) > 8 and len(bands.cloud) == 8  # stored twice, merged on decode

    def test_colors_carried(self):
        rng = np.random.default_rng(4)
        coords = rng.integers(0, 16, size=(60, 3))
        keys = {tuple(c) for c in coords.tolist()}
        coords = np.array(sorted(keys))
        colors = rng.integers(0, 256, size=(len(coords), 3)).astype(np.uint8)
        cloud = PointCloud(coords, colors=colors)
        plan = build_plan(cloud, SlicerConfig(overlap=1))
        ds = decode(encode(cloud, plan))
        assert ds.cloud.same_points(cloud)
        want = {tuple(c): tuple(col) for c, col in zip(cloud.coords.tolist(), cloud.colors.tolist())}
        got = {tuple(c): tuple(col) for c, col in zip(ds.cloud.coords.tolist(), ds.cloud.colors.tolist())}
        assert got == want

    def test_wide_terminal_record(self):
        rnd = gen_synthetic("uniform-random", {"extent": 900, "count": 40}, seed=5)
        plan = build_plan(rnd, SlicerConfig(threshold_frac="0.2"))
        assert plan.slices[-1].terminal
        stream = encode(rnd, plan)
        ds = decode(stream)
        assert ds.records[-1].width_field == 0  # wide sentinel
        assert ds.cloud.same_points(rnd)


def assert_cloud_matches_oracle(stream: DecodedStream) -> None:
    coords, colors, merged = oracle_stream_cloud(stream)
    cloud = stream.cloud
    assert np.array_equal(cloud.coords, coords)
    if colors is None:
        assert cloud.colors is None
    else:
        assert np.array_equal(cloud.colors, colors)
    assert cloud.duplicates_merged == merged
    assert cloud.bit_depth == stream.bit_depth


def hand_record(axis: Axis, base: int, points, colors=None, bit_depth: int = 10) -> DecodedRecord:
    """A record of `points` as given (no order or uniqueness enforced), depth from `base`,
    in words of `bit_depth`-bit u and v."""
    points = np.array(points, dtype=np.int32).reshape(-1, 3)
    u_col, v_col = {Axis.X: (1, 2), Axis.Y: (0, 2), Axis.Z: (0, 1)}[axis]
    fields = np.column_stack([points[:, axis] - base, points[:, u_col], points[:, v_col]])
    return DecodedRecord(
        axis=axis, sign=-1, terminal=False, base=base, width_field=16, d=4,
        color_flag=colors is not None, words=pack_words(fields.tolist(), (4, bit_depth, bit_depth)),
        colors=None if colors is None else np.array(colors, np.uint8).reshape(len(points), -1),
    )


def hand_stream(*records: DecodedRecord, bit_depth: int = 10) -> DecodedStream:
    return DecodedStream(bit_depth=bit_depth, theta=64, overlap=2, records=records)


def stored_rows(stream: DecodedStream) -> int:
    return sum(r.point_count for r in stream.records)


class TestDecodedCloud:
    """`DecodedStream.cloud` keys every stored row once and merges them in the `PointCloud`
    dedup; the oracle merges them one point at a time."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(list(Axis)),
        st.integers(0, 5),
        st.integers(8, 16),
        st.integers(1, 12),
        st.booleans(),
    )
    def test_slab_streams_match_oracle(self, seed, axis, overlap, bit_depth, width, colored):
        rng = np.random.default_rng(seed)
        count, extent = int(rng.integers(1, 400)), int(rng.integers(1, 48))
        low = int(rng.integers(0, (1 << bit_depth) - extent + 1))  # anywhere on the grid
        coords = rng.integers(low, low + extent, size=(count, 3))
        colors = rng.integers(0, 256, size=(count, 3)) if colored else None
        cloud = PointCloud(coords, colors, bit_depth=bit_depth)
        stream = decode(encode(cloud, slab_plan(cloud, axis, width, overlap)))
        assert_cloud_matches_oracle(stream)
        assert stream.cloud.same_points(cloud)

    @pytest.mark.parametrize("overlap", [0, 1, 2, 3])
    def test_planner_streams_match_oracle(self, overlap, rng):
        clouds = [
            gen_synthetic("sphere-shell", {"extent": 12}),
            gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=5),
            gen_synthetic("uniform-random", {"extent": 24, "count": 300}, seed=5),
        ]
        for _ in range(3):
            cloud = random_cloud(rng, max_points=200)
            clouds.append(PointCloud(cloud.coords, rng.integers(0, 256, size=(len(cloud), 3))))
        for cloud in clouds:
            for rule in ("best-plane", "fixed-plane"):
                plan = build_plan(cloud, SlicerConfig(overlap=overlap, plane_rule=rule))
                assert_cloud_matches_oracle(decode(encode(cloud, plan)))

    def test_slab_stream_merges_the_overlap_bands_keying_every_row_once(self, monkeypatch):
        """`encode` stores each point once; a stream that stores the bands, as `encode` did
        before records held only cores, merges their repeats."""
        cloud = gen_synthetic("uniform-random", {"extent": 64, "count": 4000}, seed=3)
        plan = slab_plan(cloud, Axis.Z, 16, 2)
        stream, bands = decode(encode(cloud, plan)), decode(reencode(band_stream(cloud, plan)))
        keyed = self.record_keyed(monkeypatch)
        assert stream.cloud.duplicates_merged == 0 and stored_rows(stream) == len(cloud)
        merged = bands.cloud.duplicates_merged
        # z 16-17, 32-33 and 48-49 lie in two slabs' bands; each of their points is stored twice
        band = np.isin(cloud.coords[:, Axis.Z], [16, 17, 32, 33, 48, 49])
        assert merged == np.count_nonzero(band) > 0
        assert keyed == ([len(cloud), len(cloud) + merged],) * 2
        assert_cloud_matches_oracle(bands)
        assert bands.cloud.same_points(cloud)

    def test_stream_storing_every_row_twice_merges_like_the_oracle(self, monkeypatch):
        cloud = gen_synthetic("uniform-random", {"extent": 32, "count": 2000}, seed=3)
        stream = decode(encode(cloud, slab_plan(cloud, Axis.Z, 2, 2)))
        twice = decode(reencode(dataclasses.replace(stream, records=stream.records * 2)))
        keyed = self.record_keyed(monkeypatch)
        assert twice.cloud.duplicates_merged == len(cloud)
        assert keyed == ([stored_rows(twice)],) * 2 and stored_rows(twice) == 2 * len(cloud)
        assert_cloud_matches_oracle(twice)

    @staticmethod
    def record_keyed(monkeypatch) -> tuple[list, list]:
        """The rows of each `first_occurrences` call and of each `voxel_keys` call that
        `DecodedStream.cloud` makes, through the `PointCloud` dedup."""
        merges, keys = [], []
        first_occurrences, voxel_keys = cloud_module.first_occurrences, cloud_module.voxel_keys

        def merging(keyed):
            merges.append(len(keyed))
            return first_occurrences(keyed)

        def keying(*columns):
            keys.append(len(columns[0]))
            return voxel_keys(*columns)

        monkeypatch.setattr(cloud_module, "first_occurrences", merging)
        monkeypatch.setattr(cloud_module, "voxel_keys", keying)
        return merges, keys

    def test_one_axis_hand_stream_with_empty_and_wide_records(self, monkeypatch):
        empty = [hand_record(Axis.Y, base, []) for base in (0, 10, 400)]
        layers = hand_record(Axis.Y, 0, [(x, y, 0) for y in range(4) for x in range(3)] + [(0, 4, 0)])
        seam = hand_record(Axis.Y, 4, [(0, 4, 0), (1, 5, 0)])  # repeats the layers' last point
        wide = dataclasses.replace(  # depths 5..300 need the wide form
            hand_record(Axis.Y, 5, [(2, 5, 2)] + [(x, 300, 0) for x in range(6)]),
            width_field=0, d=9,
        )
        stream = hand_stream(empty[0], layers, empty[1], seam, wide, empty[2])
        keyed = self.record_keyed(monkeypatch)
        cloud = stream.cloud
        assert keyed == ([22],) * 2  # every stored row; empty records store none
        want = [[x, y, 0] for y in range(4) for x in range(3)] + [[0, 4, 0], [1, 5, 0], [2, 5, 2]]
        assert cloud.coords.tolist() == want + [[x, 300, 0] for x in range(6)]
        assert cloud.duplicates_merged == 1
        assert_cloud_matches_oracle(stream)

    @pytest.mark.parametrize("colored", [False, True])
    def test_one_axis_encoded_stream_with_empty_and_wide_records(self, monkeypatch, colored):
        rng = np.random.default_rng(11)
        z = np.concatenate([rng.integers(0, 100, 1500), rng.integers(140, 300, 1500)])
        coords = np.column_stack([rng.integers(0, 16, 3000), rng.integers(0, 16, 3000), z])
        cloud = PointCloud(coords, rng.integers(0, 256, size=(3000, 3)) if colored else None)
        n = np.bincount(cloud.coords[:, Axis.Z], minlength=1024)
        bands = [  # (core, extended) on z, cut in this order: no point lies at z 100..139
            ((100, 110), (100, 112)), ((0, 50), (0, 52)), ((120, 130), (120, 132)),
            ((50, 100), (50, 142)), ((140, 300), (140, 300)), ((300, 310), (300, 310)),
        ]
        specs = tuple(
            SliceSpec(i, Side(Axis.Z, -1), AxisRange(Axis.Z, *core), AxisRange(Axis.Z, *ext),
                      int(n[slice(*core)].sum()), 0.0)
            for i, (core, ext) in enumerate(bands)
        )
        plan = SlicePlan(config=SlicerConfig(overlap=2), original_size=len(cloud), slices=specs)
        stream, bands = decode(encode(cloud, plan)), decode(reencode(band_stream(cloud, plan)))
        for records in (stream.records, bands.records):
            assert [r.point_count == 0 for r in records] == [True, False, True, False, False, True]
            assert records[4].width_field == 0  # 160 voxels: the wide form
        keyed = self.record_keyed(monkeypatch)
        assert stream.cloud.duplicates_merged == 0 and stored_rows(stream) == len(cloud)
        merged = bands.cloud.duplicates_merged
        # z 50-51 lie in slices 1 and 3's bands, and z 140-141 in slices 3 and 4's
        assert merged == int(n[[50, 51, 140, 141]].sum()) > 0
        assert keyed == ([len(cloud), len(cloud) + merged],) * 2
        for decoded in (stream, bands):
            assert_cloud_matches_oracle(decoded)
            assert decoded.cloud.same_points(cloud)

    @pytest.mark.parametrize("colored", [False, True])
    def test_one_axis_record_repeating_its_own_point(self, monkeypatch, colored):
        points = [(1, 2, 3), (4, 5, 6), (1, 2, 3), (0, 0, 9)]
        colors = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)] if colored else None
        other = hand_record(Axis.Z, 100, [(7, 7, 100)], [(5, 5, 5)] if colored else None)
        stream = hand_stream(hand_record(Axis.Z, 0, points, colors), other)
        keyed = self.record_keyed(monkeypatch)
        cloud = stream.cloud
        assert keyed == ([5],) * 2  # the repeat within a record is keyed like any other row
        assert cloud.coords.tolist() == [[1, 2, 3], [4, 5, 6], [0, 0, 9], [7, 7, 100]]
        assert cloud.duplicates_merged == 1
        assert_cloud_matches_oracle(stream)

    def test_multi_axis_planner_stream_merges_all_rows_at_once(self, monkeypatch):
        cloud = gen_synthetic("folded-sheet", {"extent": 32, "amplitude": 8, "period": 16}, seed=7)
        plan = build_plan(cloud, SlicerConfig(overlap=1))
        stream, bands = decode(encode(cloud, plan)), decode(reencode(band_stream(cloud, plan)))
        assert len({r.axis for r in stream.records}) == 2
        keyed = self.record_keyed(monkeypatch)
        assert stream.cloud.duplicates_merged == 0 and stored_rows(stream) == len(cloud)
        assert bands.cloud.duplicates_merged > 0
        assert keyed == ([len(cloud), stored_rows(bands)],) * 2
        for decoded in (stream, bands):
            assert_cloud_matches_oracle(decoded)

    def test_frame_slab_stream_work(self, monkeypatch):
        """bulk-codec's frame: the records `encode` writes and the rows the cloud keys."""
        frame = gen_synthetic("uniform-random", {"extent": 256, "count": 200_000}, seed=1)
        written, serialize = [], codec._serialize_record

        def counted(bit_depth, index, record):
            written.append(index)
            return serialize(bit_depth, index, record)

        monkeypatch.setattr(codec, "_serialize_record", counted)
        stream = decode(encode(frame, slab_plan(frame, Axis.Z, 16, 2)))
        keyed = self.record_keyed(monkeypatch)
        cloud = stream.cloud
        assert (len(written), keyed) == (16, ([200_000],) * 2)
        assert cloud.duplicates_merged == 0 and cloud.same_points(frame)

    def test_frame_slab_encode_work(self, monkeypatch):
        """bulk-codec's frame: `encode` replays the cores alone and gathers each point once."""
        frame = gen_synthetic("uniform-random", {"extent": 256, "count": 200_000}, seed=1)
        plan = slab_plan(frame, Axis.Z, 16, 2)
        extracted, gathered = [], []
        extract, subset = codec.extract_slices, PointCloud.subset

        def extracting(*args):
            extracted.append(args)
            return extract(*args)

        def gathering(cloud, picked):
            rows = subset(cloud, picked)
            gathered.append(len(rows))
            return rows

        for module in (codec, slicer):
            monkeypatch.setattr(module, "extract_slices", extracting)
        monkeypatch.setattr(PointCloud, "subset", gathering)
        work = []
        for _ in range(2):
            encode(frame, plan)
            work.append((len(extracted), len(gathered), sum(gathered)))
            extracted.clear()
            gathered.clear()
        assert work == [(0, 16, 200_000)] * 2

    def test_repeat_in_non_adjacent_records_on_different_axes_keeps_the_first_color(self):
        stream = hand_stream(
            hand_record(Axis.X, 0, [(1, 9, 9), (3, 4, 5)], [(10, 10, 10), (11, 11, 11)]),
            hand_record(Axis.Z, 16, [(20, 20, 20), (21, 20, 20)], [(20, 20, 20), (21, 21, 21)]),
            hand_record(Axis.Y, 4, [(3, 4, 5), (6, 4, 5)], [(90, 90, 90), (91, 91, 91)]),
        )
        cloud = stream.cloud
        assert cloud.coords.tolist() == [[1, 9, 9], [3, 4, 5], [20, 20, 20], [21, 20, 20], [6, 4, 5]]
        assert cloud.colors.tolist()[1] == [11, 11, 11]
        assert cloud.duplicates_merged == 1
        assert_cloud_matches_oracle(stream)

    @pytest.mark.parametrize("colored", [False, True])
    def test_record_repeating_its_own_point(self, colored):
        points = [(1, 2, 3), (4, 5, 6), (1, 2, 3), (0, 0, 9)]
        colors = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)] if colored else None
        other = hand_record(Axis.X, 7, [(7, 7, 7)], [(5, 5, 5)] if colored else None)
        stream = hand_stream(hand_record(Axis.Z, 0, points, colors), other)
        cloud = stream.cloud
        assert cloud.coords.tolist() == [[1, 2, 3], [4, 5, 6], [0, 0, 9], [7, 7, 7]]
        assert cloud.duplicates_merged == 1
        assert_cloud_matches_oracle(stream)

    @pytest.mark.parametrize(
        "point, message",
        [
            ((5, 1024, 5), "coordinate 1024 does not fit 10-bit grid"),
            ((5, 70000, 5), "coordinate 70000 exceeds 16-bit grid"),
            ((5, -1, 5), "coordinates must be non-negative"),
        ],
    )
    def test_off_grid_point_raises_the_cloud_error(self, point, message):
        base = min(point[Axis.Y], 0)  # a word holds no negative offset: depth -1 needs base -1
        stream = hand_stream(hand_record(Axis.X, 0, [(5, 5, 5)]), hand_record(Axis.Y, base, [point]))
        with pytest.raises(ValueError, match=message):
            stream.cloud

    @pytest.mark.parametrize(
        "bit_depth, color_width, message",
        [
            (20, 3, r"bit depth must be in \[8, 16\]"),
            (7, 3, r"bit depth must be in \[8, 16\]"),
            (10, 4, r"colors must be \(N, 3\) matching coords"),
        ],
    )
    def test_stream_the_cloud_rejects_raises_its_error(self, bit_depth, color_width, message):
        # sorted records with disjoint depth ranges and no repeat, so only the checks can refuse
        colors = [[1] * color_width] * 2
        records = (
            hand_record(Axis.X, 0, [(1, 1, 1), (2, 2, 2)], colors, bit_depth),
            hand_record(Axis.X, 10, [(10, 1, 1), (11, 3, 3)], colors, bit_depth),
        )
        with pytest.raises(ValueError, match=message):
            hand_stream(*records, bit_depth=bit_depth).cloud


class TestCanonicalForm:
    def test_reencode_identity(self, rng):
        for overlap in (0, 2):
            cloud = random_cloud(rng, max_points=250)
            plan = build_plan(cloud, SlicerConfig(overlap=overlap))
            stream = encode(cloud, plan)
            assert reencode(decode(stream)) == stream

    def test_encode_independent_of_input_order(self):
        pts = [(3, 1, 2), (0, 0, 0), (1, 2, 3), (2, 2, 2)]
        a = make_cloud(pts)
        b = make_cloud(list(reversed(pts)))
        plan_a = build_plan(a, SlicerConfig(overlap=0))
        plan_b = build_plan(b, SlicerConfig(overlap=0))
        assert encode(a, plan_a) == encode(b, plan_b)


class TestStreamHeader:
    def test_magic_and_fields(self):
        plan = build_plan(cube_cloud(), SlicerConfig(theta=64, overlap=2))
        stream = encode(cube_cloud(), plan)
        assert stream[:4] == b"SWSG"
        _, version, b, theta, overlap, count = struct.unpack(
            "<4sBBHBI", stream[:STREAM_HEADER_BYTES]
        )
        assert (version, b, theta, overlap) == (1, 10, 64, 2)
        assert count == len(plan.slices)


class TestDecodeErrors:
    def make_stream(self):
        plan = build_plan(cube_cloud(), SlicerConfig(overlap=0))
        return encode(cube_cloud(), plan)

    def test_bad_magic(self):
        stream = bytearray(self.make_stream())
        stream[0:4] = b"XWSG"
        with pytest.raises(DecodeError, match="bad magic") as e:
            decode(bytes(stream))
        assert e.value.kind == "bad magic"

    def test_unsupported_version(self):
        stream = bytearray(self.make_stream())
        stream[4] = 9
        with pytest.raises(DecodeError, match="unsupported version") as e:
            decode(bytes(stream))
        assert e.value.kind == "unsupported version"

    @pytest.mark.parametrize("bit_depth", [7, 17])
    def test_bit_depth_out_of_range(self, bit_depth):
        stream = bytearray(self.make_stream())
        stream[5] = bit_depth
        with pytest.raises(DecodeError, match=f"bit depth {bit_depth} out of range") as e:
            decode(bytes(stream))
        assert e.value.kind == "invalid header"

    def test_theta_zero(self):
        """Encode never writes theta 0: SlicerConfig requires theta >= 1."""
        stream = bytearray(self.make_stream())
        stream[6:8] = b"\x00\x00"
        with pytest.raises(DecodeError, match="theta 0 out of range") as e:
            decode(bytes(stream))
        assert (e.value.kind, e.value.record_index) == ("invalid header", None)
        stream[5] = 7  # the bit depth is checked first
        with pytest.raises(DecodeError, match="bit depth 7 out of range"):
            decode(bytes(stream))
        stream[5] = 10
        stream[6] = 1  # the smallest theta encode can write
        assert decode(bytes(stream)).theta == 1

    def test_truncated_mid_record(self):
        stream = self.make_stream()
        with pytest.raises(DecodeError, match="record") as e:
            decode(stream[:-2])
        assert e.value.kind == "truncated"
        assert e.value.record_index is not None

    def test_axis_code_checked_before_short_record_header(self):
        stream = self.make_stream()
        head = STREAM_HEADER_BYTES + 1
        with pytest.raises(DecodeError, match="mid-record") as e:
            decode(stream[:head])
        assert (e.value.kind, e.value.record_index) == ("truncated", 0)
        bad_axis = stream[:STREAM_HEADER_BYTES] + bytes([stream[STREAM_HEADER_BYTES] | 0xC0])
        with pytest.raises(DecodeError, match="axis code") as e:
            decode(bad_axis)
        assert (e.value.kind, e.value.record_index) == ("invalid record", 0)

    def test_truncated_header(self):
        with pytest.raises(DecodeError, match="truncated"):
            decode(b"SWSG\x01")

    def test_offset_out_of_range(self):
        # width 3 stores offsets in 2 bits, so the value 3 is representable
        # but outside the slice; force it by bit surgery on the payload
        cloud = make_cloud([(0, 0, 5)])
        plan = single_slice_plan(cloud, Axis.Z, 5, 8)
        stream = bytearray(encode(cloud, plan))
        rec = STREAM_HEADER_BYTES
        for bit in (58, 59):  # the 2-bit offset field right after the header
            stream[rec + bit // 8] |= 1 << (7 - (bit % 8))
        with pytest.raises(DecodeError, match="offset") as e:
            decode(bytes(stream))
        assert e.value.kind == "offset out of range"

    def test_trailing_bytes(self):
        stream = self.make_stream()
        with pytest.raises(DecodeError, match="trailing") as e:
            decode(stream + b"\x00\x00")
        assert e.value.kind == "trailing bytes"

    def test_inconsistent_offset_bits(self):
        # width 2 requires d=1; claim d=3 via the d-1 field (record bits 21..24)
        cloud = make_cloud([(0, 0, 5)])
        plan = single_slice_plan(cloud, Axis.Z, 5, 7)
        stream = bytearray(encode(cloud, plan))
        rec = STREAM_HEADER_BYTES
        for bit, value in zip(range(21, 25), [0, 0, 1, 0]):
            byte, off = rec + bit // 8, 7 - (bit % 8)
            stream[byte] = (stream[byte] & ~(1 << off)) | (value << off)
        with pytest.raises(DecodeError, match="inconsistent") as e:
            decode(bytes(stream))
        assert e.value.kind == "invalid record"


    @staticmethod
    def record(base, width_field, d, offset):
        """A one-point Z record at `base` holding `offset`, colourless."""
        return DecodedRecord(
            axis=Axis.Z, sign=-1, terminal=False, base=base, width_field=width_field, d=d,
            color_flag=False, words=pack_words([(offset, 0, 0)], (d, 10, 10)), colors=None,
        )

    def test_narrow_range_past_the_grid(self):
        # record 1 claims [1020, 1028) on a 10-bit grid
        records = (self.record(0, 2, 1, 0), self.record(1020, 8, 3, 0))
        stream = reencode(DecodedStream(bit_depth=10, theta=64, overlap=0, records=records))
        with pytest.raises(DecodeError, match="slice range exceeds the coordinate grid") as e:
            decode(stream)
        assert (e.value.kind, e.value.record_index) == ("invalid record", 1)

    def test_wide_offset_past_the_grid(self):
        # a wide record (width field 0) bounds offsets by 2^d only: 1000 + 100 >= 1024
        records = (self.record(0, 2, 1, 0), self.record(1000, 0, 7, 100))
        stream = reencode(DecodedStream(bit_depth=10, theta=64, overlap=0, records=records))
        with pytest.raises(DecodeError, match="offset 100 pushes coordinate past the grid") as e:
            decode(stream)
        assert (e.value.kind, e.value.record_index) == ("offset out of range", 1)
        wide = self.record(1000, 0, 7, 23)  # 1023 is the last coordinate on the grid
        stream = reencode(DecodedStream(bit_depth=10, theta=64, overlap=0, records=(wide,)))
        assert decode(stream).cloud.coords.tolist() == [[0, 0, 1023]]


class TestNoncanonicalStreams:
    def golden_like_stream(self):
        plan = build_plan(cube_cloud(), SlicerConfig(theta=64, overlap=0))
        return encode(cube_cloud(), plan)

    def test_nonzero_padding_rejected(self):
        # record 0 is 58 header bits + 4 points x 21 bits: bytes 13..30, 2 pad bits
        stream = bytearray(self.golden_like_stream())
        assert stream[30] & 0b11 == 0
        stream[30] |= 1
        assert oracle_decode(bytes(stream)) is not None  # the layout alone admits it
        with pytest.raises(DecodeError, match="padding") as e:
            decode(bytes(stream))
        assert (e.value.kind, e.value.record_index) == ("noncanonical", 0)

    def test_mixed_color_flags_rejected(self):
        ds = decode(self.golden_like_stream())
        colored = dataclasses.replace(
            ds.records[0],
            color_flag=True,
            colors=np.full((ds.records[0].point_count, 3), 7, dtype=np.uint8),
        )
        mixed = reencode(dataclasses.replace(ds, records=(colored, ds.records[1])))
        assert [r.color_flag for r in oracle_decode(mixed).records] == [True, False]
        with pytest.raises(DecodeError, match="color flag") as e:
            decode(mixed)
        assert (e.value.kind, e.value.record_index) == ("noncanonical", 1)

    @pytest.mark.parametrize(
        "reorder", [lambda i: np.r_[0, 0, i[2:]], lambda i: i[::-1]], ids=["duplicate", "reversed"]
    )
    def test_point_order_enforced(self, reorder):
        ds = decode(self.golden_like_stream())
        rec = ds.records[0]
        idx = reorder(np.arange(rec.point_count))
        bad = dataclasses.replace(rec, words=rec.words[idx])
        stream = reencode(dataclasses.replace(ds, records=(bad, ds.records[1])))
        assert oracle_decode(stream) is not None  # the layout alone admits it
        with pytest.raises(DecodeError, match="strictly increasing") as e:
            decode(stream)
        assert (e.value.kind, e.value.record_index) == ("noncanonical", 0)

    def test_terminal_only_on_last_record(self):
        ds = decode(self.golden_like_stream())
        early = dataclasses.replace(ds.records[0], terminal=True)
        stream = reencode(dataclasses.replace(ds, records=(early, ds.records[1])))
        assert oracle_decode(stream).records[0].terminal
        with pytest.raises(DecodeError, match="terminal") as e:
            decode(stream)
        assert (e.value.kind, e.value.record_index) == ("noncanonical", 0)

    def test_wide_record_needs_a_width_above_the_field(self):
        ds = decode(self.golden_like_stream())
        assert ds.records[0].d == 1
        wide = dataclasses.replace(ds.records[0], width_field=0)
        stream = reencode(dataclasses.replace(ds, records=(wide, ds.records[1])))
        assert oracle_decode(stream).records[0].width_field == 0  # the layout alone admits it
        with pytest.raises(DecodeError, match="wide record with 1 offset bits") as e:
            decode(stream)
        assert (e.value.kind, e.value.record_index) == ("noncanonical", 0)

    def test_structural_error_reported_before_noncanonical(self):
        stream = bytearray(self.golden_like_stream())
        stream[30] |= 1
        with pytest.raises(DecodeError) as e:
            decode(bytes(stream) + b"\x00")
        assert e.value.kind == "trailing bytes"


def _record_tuple(rec):
    colors = None if rec.colors is None else rec.colors.tolist()
    return (rec.axis, rec.sign, rec.terminal, rec.base, rec.width_field, rec.d,
            rec.color_flag, rec.words.tolist(), colors)


def _stream_tuple(ds):
    return ds.bit_depth, ds.theta, ds.overlap, [_record_tuple(r) for r in ds.records]


def _first_noncanonical_record(data, ds):
    """Index of the first record encode would not write.

    Encode writes one color flag for all records, zero padding, points in
    strictly increasing (offset, u, v) order, the terminal flag only on the
    last record, and width field 0 only for widths above 127 (d >= 7).
    """
    position = STREAM_HEADER_BYTES
    for index, rec in enumerate(ds.records):
        canonical = reencode(dataclasses.replace(ds, records=(rec,)))[STREAM_HEADER_BYTES:]
        if rec.color_flag != ds.records[0].color_flag:
            return index
        if data[position : position + len(canonical)] != canonical:
            return index
        fields = unpack_words(rec.words, (rec.d, ds.bit_depth, ds.bit_depth))
        points = list(map(tuple, fields.tolist()))
        if points != sorted(set(points)):
            return index
        if rec.terminal and index != len(ds.records) - 1:
            return index
        if rec.width_field == 0 and rec.d < offset_bits_for(128):
            return index
        position += len(canonical)
    return None


@st.composite
def mutated_streams(draw):
    """An encoded stream cut short or with 1-4 bits flipped."""
    bit_depth = draw(st.sampled_from([10, 12]))
    extent = draw(st.sampled_from([6, 24, 1 << bit_depth]))
    count = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.integers(0, extent, size=(count, 3))
    colors = rng.integers(0, 256, size=(count, 3)) if draw(st.booleans()) else None
    cloud = PointCloud(coords, colors=colors, bit_depth=bit_depth)
    plan = build_plan(cloud, SlicerConfig(overlap=draw(st.integers(0, 2))))
    stream = encode(cloud, plan)
    # Draws lean towards small integers, so positions counted from the start
    # of the stream would mostly hit the magic. Most are drawn past the
    # stream header instead; one in six is drawn from the whole stream.
    start = STREAM_HEADER_BYTES if draw(st.integers(0, 11)) < 10 else 0
    if draw(st.booleans()):
        return stream[: draw(st.integers(start, len(stream) - 1))]
    data = bytearray(stream)
    positions = st.integers(start * 8, len(stream) * 8 - 1)
    for bit in draw(st.lists(positions, min_size=1, max_size=4)):
        data[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(data)


def assert_decode_matches_oracle(data):
    """decode's stream, which re-encodes to `data`, or None after the oracle's DecodeError."""
    try:
        want = oracle_decode(data)
    except DecodeError as expected:
        with pytest.raises(DecodeError) as e:
            decode(data)
        got = (type(e.value), e.value.kind, e.value.record_index, str(e.value))
        assert got == (type(expected), expected.kind, expected.record_index, str(expected))
        return None
    bad = _first_noncanonical_record(data, want)
    if bad is not None:
        with pytest.raises(DecodeError) as e:
            decode(data)
        assert (e.value.kind, e.value.record_index) == ("noncanonical", bad)
        return None
    got = decode(data)
    assert _stream_tuple(got) == _stream_tuple(want)
    assert reencode(got) == data
    return got


@settings(max_examples=300, deadline=None)
@given(mutated_streams())
def test_decode_matches_field_by_field_oracle(data):
    assert_decode_matches_oracle(data)


@settings(max_examples=300, deadline=None)
@given(swsg_like_bytes())
def test_any_bytes_decode_to_a_cloud_or_a_decode_error(data):
    """Not only mutations of valid streams: headers and records of drawn fields, and raw bytes."""
    stream = assert_decode_matches_oracle(data)
    if stream is not None:
        cloud = stream.cloud
        assert len(cloud) + cloud.duplicates_merged == sum(r.point_count for r in stream.records)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 200),
    st.sampled_from([4, 64, 300]),  # 300 spans a wide record
    st.sampled_from([10, 12]),
    st.integers(0, 2),
    st.booleans(),
)
def test_record_point_order_matches_lexsort(seed, count, depth_extent, bit_depth, axis, colored):
    rng = np.random.default_rng(seed)
    extents = [8, 8, 8]
    extents[axis] = depth_extent
    cloud = PointCloud(
        rng.integers(0, extents, size=(count, 3)),
        colors=rng.integers(0, 256, size=(count, 3)) if colored else None,
        bit_depth=bit_depth,
    )
    col = cloud.coords[:, axis]
    lo, hi = int(col.min()), int(col.max()) + 1
    spec = single_slice_plan(cloud, Axis(axis), lo, hi).slices[0]
    record = _record(spec, cloud, bit_depth)
    c = cloud.coords.astype(np.int64)
    u_col, v_col = (a for a in range(3) if a != axis)
    offsets = c[:, axis] - lo
    order = oracle_record_order(offsets, c[:, u_col], c[:, v_col])
    fields = unpack_words(record.words, (record.d, bit_depth, bit_depth))
    assert np.array_equal(fields[:, 0], offsets[order])
    assert np.array_equal(fields[:, 1], c[order, u_col])
    assert np.array_equal(fields[:, 2], c[order, v_col])
    if colored:
        assert np.array_equal(record.colors, cloud.colors[order])


class TestEncodeErrors:
    def test_terminal_slice_before_the_last(self):
        plan = build_plan(cube_cloud(), SlicerConfig(theta=64, overlap=0))
        first, *rest = plan.slices
        # SlicePlan refuses it, so no such plan reaches encode
        with pytest.raises(ValueError, match="^only the last slice may be terminal$"):
            dataclasses.replace(plan, slices=(dataclasses.replace(first, terminal=True), *rest))

    def test_plan_cloud_mismatch(self):
        plan = build_plan(cube_cloud(), SlicerConfig())
        other = make_cloud([(0, 0, 0)])
        with pytest.raises(ValueError):
            encode(other, plan)

    def test_range_outside_grid(self):
        cloud = make_cloud([(0, 0, 5)], bit_depth=10)
        plan = single_slice_plan(cloud, Axis.Z, 5, 2000)
        with pytest.raises(EncodeError):
            encode(cloud, plan)

    @pytest.mark.parametrize("z", [4, 8])
    def test_slice_point_outside_its_extended_range(self, z):
        # bit_budget takes the caller's slices, so one can disagree with its spec
        cloud = make_cloud([(0, 0, 5), (0, 0, 7)])
        plan = single_slice_plan(cloud, Axis.Z, 5, 8)
        (spec,) = plan.slices
        assert bit_budget(plan, cloud.bit_depth, [(spec, cloud)]).payload_bits > 0
        stray = make_cloud([(0, 0, 5), (0, 0, z)])
        with pytest.raises(EncodeError, match="^slice 0: point outside its extended range$"):
            bit_budget(plan, cloud.bit_depth, [(spec, stray)])

    def test_reencode_refuses_a_word_wider_than_its_layout(self):
        # offset 40 needs 6 bits, d = 4 gives 4: its top bits would land in the previous point
        fits = hand_record(Axis.Z, 0, [(3, 4, 1), (5, 6, 8)])
        wide = hand_record(Axis.Z, 0, [(3, 4, 1), (5, 6, 40)])
        assert decode(reencode(hand_stream(fits))).cloud.coords.tolist() == [[3, 4, 1], [5, 6, 8]]
        with pytest.raises(EncodeError, match=r"^record 1: a point word exceeds 24 bits$"):
            reencode(hand_stream(fits, wide))

    @pytest.mark.parametrize("color", [300, -1])
    def test_reencode_refuses_a_color_outside_a_byte(self, color):
        # 300 would be written as 44, and -1 would set the point's geometry bits too
        record = hand_record(Axis.Z, 0, [(3, 4, 1), (5, 6, 8)], [(1, 2, 3), (0, 7, 9)])
        record = dataclasses.replace(record, colors=np.array([(1, 2, 3), (color, 7, 9)]))
        with pytest.raises(EncodeError, match=r"^record 1: a color outside 0\.\.255$"):
            reencode(hand_stream(hand_record(Axis.X, 0, []), record))

    @pytest.mark.parametrize(
        "field, value, width",
        [("base", 2000, 10), ("base", -1, 10), ("width_field", 128, 7), ("d", 17, 4), ("d", 0, 4)],
    )
    def test_reencode_refuses_a_header_field_wider_than_its_width(self, field, value, width):
        # base 2000 at B = 10 would be written as its low 10 bits, 976
        record = dataclasses.replace(hand_record(Axis.Z, 0, [(3, 4, 1)]), **{field: value})
        stored = value - 1 if field == "d" else value
        with pytest.raises(
            EncodeError, match=rf"^record 2: header field {stored} does not fit {width} bits$"
        ):
            reencode(hand_stream(hand_record(Axis.X, 0, []), hand_record(Axis.X, 0, []), record))


class TestBitBudget:
    """The budget against the records `decode` reads back and the README's layout."""

    def assert_budget_matches_stream(self, plan, cloud):
        budget = bit_budget(plan, cloud.bit_depth, extract_slices(cloud, plan))
        stream = encode(cloud, plan)
        ds = decode(stream)
        b = cloud.bit_depth
        assert ds.bit_depth == b
        assert budget.header_bits == len(ds.records) * layout_header_bits(b)
        assert budget.payload_bits == sum(layout_payload_bits(r, b) for r in ds.records)
        assert budget.naive_bits == 3 * b * plan.original_size
        assert len(stream) == layout_stream_bytes(ds)
        return budget, stream, ds

    def test_thousand_point_full_width_slice(self):
        rng = np.random.default_rng(77)
        coords = set()
        while len(coords) < 1000:
            x = int(rng.integers(0, 64))
            y = int(rng.integers(0, 1024))
            z = int(rng.integers(0, 1024))
            coords.add((x, y, z))
        cloud = PointCloud(np.array(sorted(coords)), bit_depth=10)
        plan = single_slice_plan(cloud, Axis.X, 0, 64)
        budget, stream, ds = self.assert_budget_matches_stream(plan, cloud)

        assert ds.records[0].d == 6
        assert ds.records[0].point_count == 1000
        assert budget.payload_bits == 26_000
        assert budget.naive_bits == 30_000
        assert len(stream) == 13 + (58 + 26_000 + 7) // 8

    def test_budget_matches_measured_for_plans(self, rng):
        for overlap, bit_depth in ((0, 10), (2, 10), (2, 12), (2, 8), (2, 16)):
            cloud = PointCloud(random_cloud(rng, max_points=300).coords, bit_depth=bit_depth)
            plan = build_plan(cloud, SlicerConfig(overlap=overlap))
            self.assert_budget_matches_stream(plan, cloud)

    @pytest.mark.parametrize(
        "kind, params, seed, bits",
        [
            ("folded-sheet", {"extent": 32, "amplitude": 8, "period": 16}, 7, 76_352),
            ("folded-sheet", {"extent": 64, "amplitude": 16, "period": 32}, 7, 449_024),
            ("sphere-shell", {"extent": 64}, 0, 287_488),
            ("uniform-random", {"extent": 48, "count": 20_000}, 1, 444_216),
        ],
        ids=["readme-sheet", "sheet-64", "shell-64", "random-20k"],
    )
    def test_default_plan_stream_beats_naive_storage(self, kind, params, seed, bits):
        """Each point is stored once, so the stream, headers and padding included, costs
        less than B bits for each of a point's three coordinates."""
        cloud = gen_synthetic(kind, params, seed=seed)
        budget, stream, ds = self.assert_budget_matches_stream(build_plan(cloud), cloud)
        assert budget.payload_bits == bits
        assert sum(r.point_count for r in ds.records) == len(cloud)
        assert 8 * len(stream) < budget.naive_bits

    def test_color_payload_counted(self):
        colors = np.array([[1, 2, 3]], dtype=np.uint8)
        cloud = PointCloud(np.array([[0, 0, 5]]), colors=colors)
        plan = single_slice_plan(cloud, Axis.Z, 5, 6)
        budget, stream, _ = self.assert_budget_matches_stream(plan, cloud)
        assert budget.payload_bits == 1 + 20 + 24
        assert len(stream) == 13 + (58 + 45 + 7) // 8

    def test_empty_terminal_segment_header_only(self):
        cloud = make_cloud([(0, 0, 0)])
        spec = SliceSpec(
            index=0,
            side=Side(Axis.X, -1),
            core=AxisRange(Axis.X, 0, 1),
            extended=AxisRange(Axis.X, 0, 1),
            point_count=1,
            psi=0.0,
            terminal=False,
        )
        empty_terminal = SliceSpec(
            index=1,
            side=Side(Axis.Y, -1),
            core=AxisRange(Axis.Y, 5, 6),
            extended=AxisRange(Axis.Y, 5, 6),
            point_count=0,
            psi=0.0,
            terminal=True,
        )
        plan = SlicePlan(
            config=SlicerConfig(overlap=0),
            original_size=1,
            slices=(spec, empty_terminal),
        )
        budget, stream, ds = self.assert_budget_matches_stream(plan, cloud)
        assert ds.records[1].point_count == 0
        assert budget.header_bits == 2 * record_header_bits(10)
        assert budget.payload_bits == 1 + 20  # record 0's point alone
        # the terminal record is its 58-bit header padded to 8 bytes, ending the stream
        assert len(stream) == 13 + (58 + 21 + 7) // 8 + 8
        assert decode(stream).cloud.same_points(cloud)

    def test_per_point_depth_cost_beats_naive(self, rng):
        """With theta=64 on a 10-bit grid, depth offsets cost at most 6 bits."""
        cloud = random_cloud(rng, max_points=400)
        plan = build_plan(cloud, SlicerConfig(theta=64, overlap=0))
        ds = decode(encode(cloud, plan))
        assert len(ds.records) == len(plan.slices)
        for spec, record in zip(plan.slices, ds.records):
            if not spec.terminal:
                assert record.d <= 6 < 10

    def test_slice_cost_beats_naive_past_amortization(self, rng):
        """Beyond the header break-even point a record costs less than flat coords."""
        for _ in range(5):
            cloud = random_cloud(rng, max_points=500)
            plan = build_plan(cloud, SlicerConfig(theta=64, overlap=0))
            b = cloud.bit_depth
            _, _, ds = self.assert_budget_matches_stream(plan, cloud)
            for record in ds.records:
                gain = b - record.d
                if gain <= 0:
                    continue
                header = layout_header_bits(b)
                breakeven = (header + 7) // gain + 1
                if record.point_count >= breakeven:
                    padded = (header + layout_payload_bits(record, b) + 7) // 8 * 8
                    assert padded < 3 * b * record.point_count

    def test_refused_plan_raises_encode_error(self):
        """The budget builds the records encode() writes, so it refuses the same plans."""
        cloud = make_cloud([(0, 0, 5)], bit_depth=10)
        plan = single_slice_plan(cloud, Axis.Z, 5, 2000)
        with pytest.raises(EncodeError):
            encode(cloud, plan)
        with pytest.raises(EncodeError):
            bit_budget(plan, cloud.bit_depth, extract_slices(cloud, plan))
