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
from sliceseg.cloud import Axis, AxisRange, PointCloud, Side
from sliceseg.codec import STREAM_HEADER_BYTES, _record, offset_bits_for, record_header_bits
from sliceseg.synthetic import gen_synthetic

from conftest import (
    cube_cloud,
    make_cloud,
    oracle_decode,
    oracle_record_order,
    point_set,
    random_cloud,
    read_bits,
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
        assert ds.records[0].offsets.tolist() == [8]
        assert point_set(ds.cloud) == {(100, 200, 228)}


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

    @pytest.mark.parametrize("overlap", [0, 1, 2])
    def test_random_clouds(self, overlap, rng):
        for _ in range(8):
            cloud = random_cloud(rng, max_points=300)
            plan = build_plan(cloud, SlicerConfig(overlap=overlap))
            stream = encode(cloud, plan)
            assert decode(stream).cloud.same_points(cloud)

    def test_overlap_duplicates_merge_on_decode(self):
        plan = build_plan(cube_cloud(), SlicerConfig(overlap=1))
        slices = extract_slices(cube_cloud(), plan)
        stored = sum(len(sc) for _, sc in slices)
        assert stored > 8  # duplicates exist in the stream
        assert len(decode(encode(cube_cloud(), plan)).cloud) == 8

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
        bad = dataclasses.replace(rec, offsets=rec.offsets[idx], us=rec.us[idx], vs=rec.vs[idx])
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
            rec.color_flag, rec.offsets.tolist(), rec.us.tolist(), rec.vs.tolist(), colors)


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
        points = list(zip(rec.offsets.tolist(), rec.us.tolist(), rec.vs.tolist()))
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


@settings(max_examples=300, deadline=None)
@given(mutated_streams())
def test_decode_matches_field_by_field_oracle(data):
    try:
        want = oracle_decode(data)
    except DecodeError as expected:
        with pytest.raises(DecodeError) as e:
            decode(data)
        got = (type(e.value), e.value.kind, e.value.record_index, str(e.value))
        assert got == (type(expected), expected.kind, expected.record_index, str(expected))
        return
    bad = _first_noncanonical_record(data, want)
    if bad is not None:
        with pytest.raises(DecodeError) as e:
            decode(data)
        assert (e.value.kind, e.value.record_index) == ("noncanonical", bad)
        return
    got = decode(data)
    assert _stream_tuple(got) == _stream_tuple(want)
    assert reencode(got) == data


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
    assert np.array_equal(record.offsets, offsets[order])
    assert np.array_equal(record.us, c[order, u_col])
    assert np.array_equal(record.vs, c[order, v_col])
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


class TestBitBudget:
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
        slices = extract_slices(cloud, plan)
        budget = bit_budget(plan, cloud.bit_depth, slices)

        row = budget.per_slice[0]
        assert row.offset_bits == 6
        assert row.payload_bits == 26_000
        assert row.naive_bits == 30_000
        stream = encode(cloud, plan)
        assert budget.total_bits == len(stream) * 8

    def test_budget_matches_measured_for_plans(self, rng):
        for overlap in (0, 2):
            cloud = random_cloud(rng, max_points=300)
            plan = build_plan(cloud, SlicerConfig(overlap=overlap))
            slices = extract_slices(cloud, plan)
            budget = bit_budget(plan, cloud.bit_depth, slices)
            stream = encode(cloud, plan)
            assert budget.total_bits == len(stream) * 8

    def test_color_payload_counted(self):
        colors = np.array([[1, 2, 3]], dtype=np.uint8)
        cloud = PointCloud(np.array([[0, 0, 5]]), colors=colors)
        plan = single_slice_plan(cloud, Axis.Z, 5, 6)
        budget = bit_budget(plan, cloud.bit_depth, extract_slices(cloud, plan))
        assert budget.payload_bits == 1 + 20 + 24
        stream = encode(cloud, plan)
        assert budget.total_bits == len(stream) * 8

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
        slices = extract_slices(cloud, plan)
        budget = bit_budget(plan, cloud.bit_depth, slices)
        assert budget.per_slice[1].payload_bits == 0
        assert budget.per_slice[1].header_bits == record_header_bits(10)
        stream = encode(cloud, plan)
        assert budget.total_bits == len(stream) * 8
        assert decode(stream).cloud.same_points(cloud)

    def test_per_point_depth_cost_beats_naive(self, rng):
        """With theta=64 on a 10-bit grid, depth offsets cost at most 6 bits."""
        cloud = random_cloud(rng, max_points=400)
        plan = build_plan(cloud, SlicerConfig(theta=64, overlap=0))
        budget = bit_budget(plan, 10, extract_slices(cloud, plan))
        for row in budget.per_slice:
            spec = plan.slices[row.index]
            if not spec.terminal:
                assert row.offset_bits <= 6 < 10

    def test_slice_cost_beats_naive_past_amortization(self, rng):
        """Beyond the header break-even point a record costs less than flat coords."""
        for _ in range(5):
            cloud = random_cloud(rng, max_points=500)
            plan = build_plan(cloud, SlicerConfig(theta=64, overlap=0))
            b = cloud.bit_depth
            budget = bit_budget(plan, b, extract_slices(cloud, plan))
            for row in budget.per_slice:
                gain = b - row.offset_bits
                if gain <= 0:
                    continue
                breakeven = (record_header_bits(b) + 7) // gain + 1
                if row.stored_points >= breakeven:
                    total = row.header_bits + row.payload_bits + row.padding_bits
                    assert total < row.naive_bits
