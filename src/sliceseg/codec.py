"""Lossless base+offset geometry bitstream (SWSG container).

Per slice, the depth coordinate is stored as a small offset from the
slice's base (the extended range's low end) in d = ceil(log2(width)) bits
instead of the full B bits; the in-plane coordinates stay at B bits. With
the default 64-voxel max width on a 10-bit grid that cuts the depth field
from 10 to 6 bits.

A stream is the `_STREAM_HEADER` struct (little-endian) followed by one
record per slice. A record is a header of `_header_widths` bit fields, then
per point the `_payload_widths` fields, points sorted by (offset, u, v);
bit fields are packed MSB-first and each record is zero-padded to a byte.
Those two tables are the whole record layout: the writer and the parser
read them, and `stream_budget` sizes the records `encode` builds
(`build_stream`) by the same header and per-point rule the parser uses to
find a record's length.

The 7-bit width field holds the extended width when it fits (1..127);
value 0 marks a wide record (terminal residues can span the whole grid)
whose offsets are bounded by 2^d instead. Only the canonical form that
`encode` writes decodes: nonzero padding, color flags that differ between
records, points out of strictly increasing (offset, u, v) order (so also
repeated points), a terminal flag on any record but the last and a wide
record with d < 7 (its width would fit the field) raise a "noncanonical"
error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .cloud import PLANE_COLS, Axis, PointCloud, voxel_keys
from .slicer import SlicePlan, SliceSpec, extract_slices

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


def _payload_widths(d: int, bit_depth: int, color: bool) -> tuple[int, ...]:
    """Per-point fields: offset, u, v, then r, g, b with color."""
    return (d, bit_depth, bit_depth) + ((8, 8, 8) if color else ())


def record_header_bits(bit_depth: int) -> int:
    return sum(_header_widths(bit_depth))


def _field_bits(values: np.ndarray | int, width: int) -> np.ndarray:
    """(..., width) uint8 bit array of fixed-width values, MSB first."""
    big_endian = np.asarray(values).astype(">u4")[..., None].view(np.uint8)  # every field fits 32 bits
    return np.unpackbits(big_endian, axis=-1)[..., 32 - width :]


def _split_fields(bits: np.ndarray, widths: tuple[int, ...]) -> list[np.ndarray]:
    """Values of consecutive fixed-width fields along the last axis; inverse of _field_bits."""
    values = []
    for width, end in zip(widths, accumulate(widths)):
        weights = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
        values.append(bits[..., end - width : end].astype(np.int64) @ weights)
    return values


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
    offsets: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    colors: Optional[np.ndarray]

    @property
    def point_count(self) -> int:
        return int(self.offsets.shape[0])

    def coords(self) -> np.ndarray:
        """(N, 3) global coordinates in stored order."""
        out = np.empty((self.point_count, 3), dtype=np.int64)
        u_col, v_col = PLANE_COLS[self.axis]
        out[:, self.axis] = self.base + self.offsets
        out[:, u_col] = self.us
        out[:, v_col] = self.vs
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
        if not self.records:
            return PointCloud(np.empty((0, 3), dtype=np.int64), bit_depth=self.bit_depth)
        coords = np.concatenate([r.coords() for r in self.records], axis=0)
        colors = None
        if self.records[0].color_flag:  # decode admits one flag for all records
            colors = np.concatenate([r.colors for r in self.records], axis=0)
        return PointCloud(coords, colors, bit_depth=self.bit_depth)


def _record(spec: SliceSpec, slice_cloud: PointCloud, bit_depth: int) -> DecodedRecord:
    """The record encode() writes for one extracted slice."""
    base = spec.extended.lo
    width = spec.extended.width
    if base >= (1 << bit_depth) or spec.extended.hi > (1 << bit_depth):
        raise EncodeError(
            f"slice {spec.index}: range [{spec.extended.lo}, {spec.extended.hi}) "
            f"exceeds the {bit_depth}-bit grid"
        )
    c = slice_cloud.coords.astype(np.int64)
    offsets = c[:, spec.side.axis] - base
    if offsets.size and (offsets.min() < 0 or offsets.max() >= width):
        raise EncodeError(f"slice {spec.index}: point outside its extended range")
    if len(slice_cloud) > 0xFFFFFFFF:
        raise EncodeError("slice point count exceeds 32 bits")
    u_col, v_col = PLANE_COLS[spec.side.axis]
    # voxels are unique, so within a slice the (offset, u, v) keys are too
    order = np.argsort(voxel_keys(offsets, c[:, u_col], c[:, v_col]))
    color = slice_cloud.colors is not None
    return DecodedRecord(
        axis=spec.side.axis,
        sign=spec.side.sign,
        terminal=spec.terminal,
        base=base,
        width_field=width if width <= _MAX_NARROW_WIDTH else 0,
        d=offset_bits_for(width),
        color_flag=color,
        offsets=offsets[order],
        us=c[order, u_col],
        vs=c[order, v_col],
        colors=slice_cloud.colors[order] if color else None,
    )


def _serialize_record(bit_depth: int, record: DecodedRecord) -> bytes:
    header = (
        int(record.axis),
        record.sign > 0,
        record.terminal,
        record.base,
        record.width_field,
        record.d - 1,
        record.point_count,
        record.color_flag,
    )
    columns = [record.offsets, record.us, record.vs]
    if record.color_flag:
        columns += [record.colors[:, channel] for channel in range(3)]
    header_fields = [
        _field_bits(value, width) for value, width in zip(header, _header_widths(bit_depth))
    ]
    payload_widths = _payload_widths(record.d, bit_depth, record.color_flag)
    payload = np.concatenate(
        [_field_bits(column, width) for column, width in zip(columns, payload_widths)], axis=1
    ).ravel()
    # packbits zero-pads the final partial byte, which is the record padding
    return np.packbits(np.concatenate(header_fields + [payload])).tobytes()


def build_stream(
    plan: SlicePlan, bit_depth: int, slices: list[tuple[SliceSpec, PointCloud]]
) -> DecodedStream:
    """The stream encode() writes for the plan's extracted slices, as records."""
    return DecodedStream(
        bit_depth=bit_depth,
        theta=plan.config.theta,
        overlap=plan.config.overlap,
        records=tuple(_record(spec, slice_cloud, bit_depth) for spec, slice_cloud in slices),
    )


def encode(cloud: PointCloud, plan: SlicePlan) -> bytes:
    """Serialize the plan's slices; decoding recovers the cloud exactly."""
    return reencode(build_stream(plan, cloud.bit_depth, extract_slices(cloud, plan)))


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
    if not (8 <= bit_depth <= 16):
        raise DecodeError("invalid header", f"bit depth {bit_depth} out of range")
    if theta == 0:  # encode writes SlicerConfig.theta, which is >= 1
        raise DecodeError("invalid header", "theta 0 out of range")

    position = STREAM_HEADER_BYTES
    records = []
    zero_padded = []
    for index in range(slice_count):
        record, position, clean = _parse_record(data, position, index, bit_depth)
        records.append(record)
        zero_padded.append(clean)
    if position != len(data):
        raise DecodeError(
            "trailing bytes",
            f"{len(data) - position} trailing bytes after {slice_count} records",
        )
    # canonical form is checked once the stream parses, so a malformed
    # stream reports its structural error first
    for index, (record, clean) in enumerate(zip(records, zero_padded)):
        if record.color_flag != records[0].color_flag:
            raise DecodeError("noncanonical", "color flag differs from record 0", index)
        if not clean:
            raise DecodeError("noncanonical", "nonzero padding bits", index)
        if (np.diff(voxel_keys(record.offsets, record.us, record.vs)) <= 0).any():
            raise DecodeError(
                "noncanonical", "points not in strictly increasing (offset, u, v) order", index
            )
        if record.terminal and index < len(records) - 1:
            raise DecodeError("noncanonical", "terminal flag on a record before the last", index)
        if not record.width_field and record.d < offset_bits_for(_MAX_NARROW_WIDTH + 1):
            raise DecodeError("noncanonical", f"wide record with {record.d} offset bits", index)
    return DecodedStream(
        bit_depth=bit_depth, theta=theta, overlap=overlap, records=tuple(records)
    )


def _parse_record(
    data: bytes, start: int, index: int, bit_depth: int
) -> tuple[DecodedRecord, int, bool]:
    """The record at byte `start`, the next record's start, and whether its padding is zero."""
    header_widths = _header_widths(bit_depth)
    header_bits = record_header_bits(bit_depth)
    head = data[start : start + (header_bits + 7) // 8]
    # a stream reader meets the 2-bit axis code before the end of the header
    if head and head[0] >> 6 > 2:
        raise DecodeError("invalid record", "axis code out of range", index)
    if len(head) * 8 < header_bits:
        raise DecodeError("truncated", "stream ends mid-record", index)
    axis_code, sign, terminal, base, width_field, d_minus_1, count, color_flag = (
        int(value)
        for value in _split_fields(
            np.unpackbits(np.frombuffer(head, dtype=np.uint8))[:header_bits], header_widths
        )
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

    payload_widths = _payload_widths(d, bit_depth, bool(color_flag))
    per_point = sum(payload_widths)
    record_bits = header_bits + count * per_point
    record_bytes = (record_bits + 7) // 8
    if start + record_bytes > len(data):
        raise DecodeError(
            "truncated",
            f"record claims {count} points but the stream is shorter",
            index,
        )

    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=record_bytes, offset=start)
    )
    offsets, us, vs, *channels = _split_fields(
        bits[header_bits:record_bits].reshape(count, per_point), payload_widths
    )

    if width_field and offsets.size and int(offsets.max()) >= width_field:
        raise DecodeError(
            "offset out of range",
            f"offset {int(offsets.max())} >= slice width {width_field}",
            index,
        )
    if offsets.size and base + int(offsets.max()) >= (1 << bit_depth):
        raise DecodeError(
            "offset out of range",
            f"offset {int(offsets.max())} pushes coordinate past the grid",
            index,
        )

    record = DecodedRecord(
        axis=Axis(axis_code),
        sign=1 if sign else -1,
        terminal=bool(terminal),
        base=base,
        width_field=width_field,
        d=d,
        color_flag=bool(color_flag),
        offsets=offsets,
        us=us,
        vs=vs,
        colors=np.stack(channels, axis=1).astype(np.uint8) if color_flag else None,
    )
    return record, start + record_bytes, not bits[record_bits:].any()


def reencode(stream: DecodedStream) -> bytes:
    """Serialize a decoded stream back to bytes (identity on valid input)."""
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
    out += [_serialize_record(stream.bit_depth, record) for record in stream.records]
    return b"".join(out)


@dataclass(frozen=True)
class BitBudget:
    """Record header and payload bits of an encoded stream, and the naive cost."""

    header_bits: int
    payload_bits: int
    naive_bits: int


def stream_budget(stream: DecodedStream, original_size: int) -> BitBudget:
    """Bits of the stream's records, and the naive cost of `original_size` points.

    The naive cost is 3*B bits per point of the original cloud, so overlap
    duplication shows up as payload, not as naive inflation.
    """
    bit_depth = stream.bit_depth
    return BitBudget(
        header_bits=len(stream.records) * record_header_bits(bit_depth),
        payload_bits=sum(
            r.point_count * sum(_payload_widths(r.d, bit_depth, r.color_flag))
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
