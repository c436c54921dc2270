"""Lossless base+offset geometry bitstream (SWSG container).

A record stores its slice's core, each point once: the depth coordinate is
an offset from the base (the core's low end) in d = ceil(log2(width)) bits
instead of B; the in-plane coordinates stay at B bits. With the default
64-voxel max width on a 10-bit grid that cuts the depth field from 10 to 6.
`encode` takes the cores from `core_slices`' one-pass replay, never the bands.

A stream is the `_STREAM_HEADER` struct (little-endian) followed by one
record per slice. A record is a header of `_header_widths` bit fields, then
per point the `_payload_widths` fields, points sorted by (offset, u, v);
bit fields are packed MSB-first and each record is zero-padded to a byte.
Those two tables are the whole record layout: the writer and the parser
read them, and `stream_budget` sizes records by the parser's rule. Fields
travel as words, never one bit at a time: the header is one Python int, a
point's (offset, u, v) one uint64 word of at most 48 bits, kept by
`DecodedRecord` (split by `coords`, checked to rise by `_parse_record`), and its
color a second, moved in and out through eight strided 64-bit views (`_phases`).

The 7-bit width field holds the core's width when it fits (1..127);
value 0 marks a wide record (terminal residues can span the whole grid)
whose offsets are bounded by 2^d instead. Nonzero padding, color flags
that differ between records, points out of strictly increasing (offset,
u, v) order (so also a point repeated within a record), a terminal flag on
any record but the last and a wide record with d < 7 (its width would fit
the field) raise a "noncanonical" error. A point stored in two records, as
streams that stored the overlap bands have it, decodes once: the first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cloud import MAX_BIT_DEPTH, MIN_BIT_DEPTH, PLANE_COLS, Axis, PointCloud
# extract_slices is unused here but stays bound: bench/layers.py wraps codec.extract_slices
from .slicer import SlicePlan, SliceSpec, core_slices, extract_slices  # noqa: F401

MAGIC = b"SWSG"
VERSION = 1
# magic, version, B, theta, overlap, slice count
_STREAM_HEADER = struct.Struct("<4sBBHBI")
STREAM_HEADER_BYTES = _STREAM_HEADER.size
_MAX_NARROW_WIDTH = 127


class DecodeError(ValueError):
    """Invalid SWSG stream; `kind` and optional `record_index` are attached."""

    def __init__(self, kind: str, message: str, record_index: Optional[int] = None):
        self.kind = kind
        self.record_index = record_index
        if record_index is not None:
            message = f"{message} (record {record_index})"
        super().__init__(message)


class EncodeError(ValueError):
    """Slice plan cannot be represented in the container."""


def offset_bits_for(width: int) -> int:
    """d = ceil(log2(width)), with d = 1 for width 1."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return max(1, (width - 1).bit_length())


def _header_widths(bit_depth: int) -> tuple[int, ...]:
    """Record header fields: axis, sign, terminal, base, width, d-1, point_count, color_flag."""
    return (2, 1, 1, bit_depth, 7, 4, 32, 1)


def _payload_widths(d: int, bit_depth: int, color: bool) -> tuple[tuple[int, ...], ...]:
    """Per-point fields, one word per group: (offset, u, v), then (r, g, b) with color."""
    return ((d, bit_depth, bit_depth),) + (((8, 8, 8),) if color else ())


def record_header_bits(bit_depth: int) -> int:
    return sum(_header_widths(bit_depth))


def _join(word, fields, widths):
    """`word` with each fixed-width field appended below it in turn; arrays change in place."""
    for field, width in zip(fields, widths):
        word <<= width
        word |= field
    return word


def _split(word, widths) -> list:
    """The fields of a word `_join` built from `widths`, first to last."""
    fields = []
    for width in reversed(widths[1:]):
        fields.append(word & ((1 << width) - 1))
        word = word >> width
    return [word] + fields[::-1]


def _phases(buffer, first_bit: int, point_bits: int, count: int):
    """(view, shift, points) per phase j < 8 of `count` points `point_bits` >= 17 bits apart:
    points j, j + 8, ... lie `point_bits` bytes apart, so a phase is one strided big-endian
    64-bit view of disjoint windows, each point `shift` bits into its window. `buffer` must
    run 8 bytes past the last point's first byte."""
    for j in range(min(count, 8)):
        bit = first_bit + j * point_bits
        view = np.ndarray((len(range(j, count, 8)),), ">u8", buffer, bit >> 3, (point_bits,))
        yield view, bit & 7, slice(j, None, 8)


@dataclass(frozen=True)
class DecodedRecord:
    """One slice as stored: raw header fields plus points in stream order."""

    axis: Axis
    sign: int
    terminal: bool
    base: int
    width_field: int
    d: int
    color_flag: bool
    words: np.ndarray  # uint64 (offset, u, v) words, laid out by _payload_widths(d, B, False)[0]
    colors: Optional[np.ndarray]

    @property
    def point_count(self) -> int:
        return int(self.words.shape[0])

    def coords(self, bit_depth: int) -> np.ndarray:
        """(N, 3) global coordinates in stored order, from words of `bit_depth`-bit u and v."""
        out = np.empty((self.point_count, 3), dtype=np.int32)
        u_col, v_col = PLANE_COLS[self.axis]
        widths = _payload_widths(self.d, int(bit_depth), False)[0]
        out[:, self.axis], out[:, u_col], out[:, v_col] = _split(self.words, widths)
        out[:, self.axis] += self.base
        return out


@dataclass(frozen=True)
class DecodedStream:
    """Parsed container: header fields, records, and the merged cloud."""

    bit_depth: int
    theta: int
    overlap: int
    records: tuple[DecodedRecord, ...]

    @property
    def cloud(self) -> PointCloud:
        """The records' points in stream order, through `PointCloud`'s checks and dedup: a
        point stored twice (as streams with overlap bands did) keeps its first occurrence."""
        records = self.records
        coords = np.concatenate([r.coords(self.bit_depth) for r in records]
                                or [np.empty((0, 3), np.int32)])
        colors = None
        if records and records[0].color_flag:  # decode admits one flag for all records
            colors = np.concatenate([r.colors for r in records])
        return PointCloud(coords, colors, bit_depth=self.bit_depth)


def _record(spec: SliceSpec, slice_cloud: PointCloud, bit_depth: int) -> DecodedRecord:
    """The record encode() writes for one slice, core or extended: its core's points, as
    offsets from the core's low end. The overlap band is the next slices' to store."""
    base = spec.core.lo
    width = spec.core.width
    if spec.extended.hi > (1 << bit_depth):  # lo < hi, so this bounds the base too
        raise EncodeError(
            f"slice {spec.index}: range [{spec.extended.lo}, {spec.extended.hi}) "
            f"exceeds the {bit_depth}-bit grid"
        )
    c = slice_cloud.coords
    column = c[:, spec.side.axis]
    if not spec.extended.holds(column).all():
        raise EncodeError(f"slice {spec.index}: point outside its extended range")
    u_col, v_col = PLANE_COLS[spec.side.axis]
    widths = _payload_widths(offset_bits_for(width), bit_depth, False)[0]
    # voxels are unique, so within a slice the (offset, u, v) words are too; sorted, they
    # order by offset, so the core's points (offsets 0 .. width - 1) are one run of them
    word = _join(np.subtract(column, base, dtype=np.int64), (c[:, u_col], c[:, v_col]), widths[1:])
    colors = slice_cloud.colors
    if colors is None:
        word.sort()
    else:
        order = np.argsort(word)
        word, colors = word[order], colors[order]
    core = slice(*np.searchsorted(word, (0, width << sum(widths[1:]))))
    word, colors = word[core], None if colors is None else colors[core]
    if len(word) > 0xFFFFFFFF:
        raise EncodeError("slice point count exceeds 32 bits")
    return DecodedRecord(
        axis=spec.side.axis,
        sign=spec.side.sign,
        terminal=spec.terminal,
        base=base,
        width_field=width if width <= _MAX_NARROW_WIDTH else 0,
        d=widths[0],
        color_flag=colors is not None,
        words=word.view(np.uint64),
        colors=colors,
    )


def _serialize_record(bit_depth: int, index: int, record: DecodedRecord) -> bytes:
    fields = (
        int(record.axis),
        record.sign > 0,
        record.terminal,
        record.base,
        record.width_field,
        record.d - 1,
        record.point_count,
        record.color_flag,
    )
    # numpy integers here would not shift uint64 words or convert to bytes
    bit_depth, d, count = int(bit_depth), int(record.d), record.point_count
    header_bits = record_header_bits(bit_depth)
    for value, width in zip(map(int, fields), _header_widths(bit_depth)):
        if not 0 <= value < 1 << width:
            raise EncodeError(f"record {index}: header field {value} does not fit {width} bits")
    widths = _payload_widths(d, bit_depth, record.color_flag)
    if count and int(record.words.max()) >> sum(widths[0]):
        raise EncodeError(f"record {index}: a point word exceeds {sum(widths[0])} bits")
    if count and record.color_flag and not 0 <= record.colors.min() <= record.colors.max() < 256:
        raise EncodeError(f"record {index}: a color outside 0..255")
    point_bits = sum(map(sum, widths))
    size = (header_bits + count * point_bits + 7) // 8
    buffer = bytearray(size + 8)  # the last point's 64-bit window may run 7 bytes past the record
    header = _join(0, map(int, fields), _header_widths(bit_depth))
    buffer[:8] = (header << 64 - header_bits).to_bytes(8, "big")
    words = [record.words]
    if record.color_flag:
        words.append(_join(np.zeros(count, np.int64), record.colors.T, widths[1]).view(np.uint64))
    first_bit = header_bits
    for word, bits in zip(words, map(sum, widths)):
        for view, shift, points in _phases(buffer, first_bit, point_bits, count):
            view |= word[points] << (64 - bits - shift)
        first_bit += bits
    return bytes(buffer[:size])


def build_stream(
    plan: SlicePlan, bit_depth: int, slices: list[tuple[SliceSpec, PointCloud]]
) -> DecodedStream:
    """The stream encode() writes for the plan's core or extracted slices, as records."""
    return DecodedStream(
        bit_depth=bit_depth,
        theta=plan.config.theta,
        overlap=plan.config.overlap,
        records=tuple(_record(spec, slice_cloud, bit_depth) for spec, slice_cloud in slices),
    )


def encode(cloud: PointCloud, plan: SlicePlan) -> bytes:
    """Serialize the plan's slice cores (`core_slices`); decoding recovers the cloud exactly."""
    return reencode(build_stream(plan, cloud.bit_depth, core_slices(cloud, plan)))


def decode(data: bytes) -> DecodedStream:
    """Parse and validate an SWSG stream."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise DecodeError("bad magic", "bad magic: not an SWSG stream")
    if len(data) < STREAM_HEADER_BYTES:
        raise DecodeError("truncated", "truncated stream header")
    _, version, bit_depth, theta, overlap, slice_count = _STREAM_HEADER.unpack_from(data)
    if version != VERSION:
        raise DecodeError(
            "unsupported version", f"unsupported version {version} (expected {VERSION})"
        )
    if not (MIN_BIT_DEPTH <= bit_depth <= MAX_BIT_DEPTH):
        raise DecodeError("invalid header", f"bit depth {bit_depth} out of range")
    if theta == 0:  # encode writes SlicerConfig.theta, which is >= 1
        raise DecodeError("invalid header", "theta 0 out of range")

    position = STREAM_HEADER_BYTES
    padded = bytes(data) + bytes(8)  # each record's last 64-bit window may run 7 bytes past it
    records = []
    faults = []
    for index in range(slice_count):
        record, position, fault = _parse_record(data, padded, position, index, bit_depth)
        records.append(record)
        faults.append(fault)
    if position != len(data):
        raise DecodeError(
            "trailing bytes",
            f"{len(data) - position} trailing bytes after {slice_count} records",
        )
    # canonical form is checked once the stream parses, so a malformed
    # stream reports its structural error first
    for index, (record, fault) in enumerate(zip(records, faults)):
        if record.color_flag != records[0].color_flag:
            raise DecodeError("noncanonical", "color flag differs from record 0", index)
        if fault:
            raise DecodeError("noncanonical", fault, index)
        if record.terminal and index < len(records) - 1:
            raise DecodeError("noncanonical", "terminal flag on a record before the last", index)
        if not record.width_field and record.d < offset_bits_for(_MAX_NARROW_WIDTH + 1):
            raise DecodeError("noncanonical", f"wide record with {record.d} offset bits", index)
    return DecodedStream(
        bit_depth=bit_depth, theta=theta, overlap=overlap, records=tuple(records)
    )


def _parse_record(
    data: bytes, padded: bytes, start: int, index: int, bit_depth: int
) -> tuple[DecodedRecord, int, Optional[str]]:
    """The record at byte `start`, the next record's start, and how it is not canonical
    in itself, if it is not. `padded` is `data` followed by 8 zero bytes."""
    header_bits = record_header_bits(bit_depth)
    head = data[start : start + (header_bits + 7) // 8]
    # a stream reader meets the 2-bit axis code before the end of the header
    if head and head[0] >> 6 > 2:
        raise DecodeError("invalid record", "axis code out of range", index)
    if len(head) * 8 < header_bits:
        raise DecodeError("truncated", "stream ends mid-record", index)
    axis_code, sign, terminal, base, width_field, d_minus_1, count, color_flag = _split(
        int.from_bytes(head, "big") >> (-header_bits % 8), _header_widths(bit_depth)
    )
    d = d_minus_1 + 1

    if width_field:
        if d != offset_bits_for(width_field):
            raise DecodeError(
                "invalid record",
                f"offset bits {d} inconsistent with width {width_field}",
                index,
            )
        if base + width_field > (1 << bit_depth):
            raise DecodeError(
                "invalid record", "slice range exceeds the coordinate grid", index
            )

    widths = _payload_widths(d, bit_depth, bool(color_flag))
    point_bits = sum(map(sum, widths))
    record_bits = header_bits + count * point_bits
    record_bytes = (record_bits + 7) // 8
    if start + record_bytes > len(data):
        raise DecodeError(
            "truncated",
            f"record claims {count} points but the stream is shorter",
            index,
        )

    first_bit = start * 8 + header_bits
    words = []
    for bits in map(sum, widths):
        word = np.empty(count, dtype=np.uint64)
        for view, shift, points in _phases(padded, first_bit, point_bits, count):
            word[points] = (view << shift) >> (64 - bits)
        words.append(word)
        first_bit += bits
    colors = np.stack(_split(words[1], widths[1]), axis=1).astype(np.uint8) if color_flag else None

    top = int(words[0].max()) >> 2 * bit_depth if count else 0  # base < 2^B: no fault if empty
    if width_field and top >= width_field:
        message = f"offset {top} >= slice width {width_field}"
        raise DecodeError("offset out of range", message, index)
    if base + top >= (1 << bit_depth):
        message = f"offset {top} pushes coordinate past the grid"
        raise DecodeError("offset out of range", message, index)

    record = DecodedRecord(
        axis=Axis(axis_code),
        sign=1 if sign else -1,
        terminal=bool(terminal),
        base=base,
        width_field=width_field,
        d=d,
        color_flag=bool(color_flag),
        words=words[0],
        colors=colors,
    )
    fault = None
    if data[start + record_bytes - 1] & ((1 << (-record_bits % 8)) - 1):
        fault = "nonzero padding bits"
    elif not (words[0][1:] > words[0][:-1]).all():  # words order as their fields do
        fault = "points not in strictly increasing (offset, u, v) order"
    return record, start + record_bytes, fault


def reencode(stream: DecodedStream) -> bytes:
    """Serialize a decoded stream back to bytes (identity on valid input); raises
    EncodeError for a header field, point word or color wider than its layout."""
    out = [
        _STREAM_HEADER.pack(
            MAGIC,
            VERSION,
            stream.bit_depth,
            stream.theta,
            stream.overlap,
            len(stream.records),
        )
    ]
    out += [_serialize_record(stream.bit_depth, i, r) for i, r in enumerate(stream.records)]
    return b"".join(out)


@dataclass(frozen=True)
class BitBudget:
    """Record header and payload bits of an encoded stream, and the naive cost."""

    header_bits: int
    payload_bits: int
    naive_bits: int


def stream_budget(stream: DecodedStream, original_size: int) -> BitBudget:
    """Bits of the stream's records, and the naive cost of `original_size` points.

    The naive cost is 3*B bits per point of the original cloud. A stream that stores
    a point twice, as one with overlap bands does, pays for it in payload.
    """
    bit_depth = stream.bit_depth
    return BitBudget(
        header_bits=len(stream.records) * record_header_bits(bit_depth),
        payload_bits=sum(
            r.point_count * sum(map(sum, _payload_widths(r.d, bit_depth, r.color_flag)))
            for r in stream.records
        ),
        naive_bits=3 * bit_depth * original_size,
    )


def bit_budget(
    plan: SlicePlan,
    bit_depth: int,
    slices: list[tuple[SliceSpec, PointCloud]],
) -> BitBudget:
    """`stream_budget` of the records encode() writes for these extracted slices.

    Raises EncodeError for a slice that encode() refuses.
    """
    return stream_budget(build_stream(plan, bit_depth, slices), plan.original_size)
