"""Lossless base+offset geometry bitstream (SWSG container).

Per slice, the depth coordinate is stored as a small offset from the
slice's base (the extended range's low end) in d = ceil(log2(width)) bits
instead of the full B bits; the in-plane coordinates stay at B bits. With
the default 64-voxel max width on a 10-bit grid that cuts the depth field
from 10 to 6 bits.

Container layout (all multi-byte integers little-endian, bit fields packed
MSB-first):

    stream header: magic "SWSG" | version u8 | B u8 | theta u16 |
                   overlap u8 | slice_count u32
    record header: axis(2) sign(1) terminal(1) base(B) width(7)
                   d-1(4) point_count(32) color_flag(1)
    payload:       per point: offset(d) u(B) v(B) [r g b (8 each)],
                   sorted by (offset, u, v); record padded to a byte.

The 7-bit width field holds the extended width when it fits (1..127);
value 0 marks a wide record (terminal residues can span the whole grid)
whose offsets are bounded by 2^d instead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cloud import PLANE_COLS, Axis, PointCloud, Side
from .slicer import SlicePlan, SliceSpec, extract_slices

MAGIC = b"SWSG"
VERSION = 1
STREAM_HEADER_BYTES = 13
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


class BitWriter:
    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the low `nbits` of value, MSB-first."""
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._buf.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def pad_to_byte(self) -> None:
        if self._nbits:
            self.write(0, 8 - self._nbits)

    def getvalue(self) -> bytes:
        if self._nbits:
            raise ValueError("bit writer not byte-aligned")
        return bytes(self._buf)


class BitReader:
    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._byte = offset
        self._bit = 0

    def read(self, nbits: int) -> int:
        value = 0
        remaining = nbits
        while remaining:
            if self._byte >= len(self._data):
                raise EOFError("bitstream exhausted")
            avail = 8 - self._bit
            take = min(avail, remaining)
            chunk = (self._data[self._byte] >> (avail - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            self._bit += take
            remaining -= take
            if self._bit == 8:
                self._bit = 0
                self._byte += 1
        return value

    def align_to_byte(self) -> None:
        if self._bit:
            self._bit = 0
            self._byte += 1

    @property
    def byte_position(self) -> int:
        return self._byte + (1 if self._bit else 0)

    @property
    def bits_remaining(self) -> int:
        return (len(self._data) - self._byte) * 8 - self._bit


def offset_bits_for(width: int) -> int:
    """d = ceil(log2(width)), with d = 1 for width 1."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return max(1, (width - 1).bit_length())


def _field_bits(values: np.ndarray | int, width: int) -> np.ndarray:
    """(..., width) uint8 bit array of fixed-width values, MSB first."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((np.asarray(values, dtype=np.uint64)[..., None] >> shifts) & 1).astype(np.uint8)


def _bits_to_values(bits: np.ndarray) -> np.ndarray:
    """Inverse of _field_bits along the last axis."""
    width = bits.shape[-1]
    weights = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


def record_header_bits(bit_depth: int) -> int:
    return 2 + 1 + 1 + bit_depth + 7 + 4 + 32 + 1


def payload_bits_per_point(d: int, bit_depth: int, color: bool) -> int:
    return d + 2 * bit_depth + (24 if color else 0)


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
    def side(self) -> Side:
        return Side(self.axis, self.sign)

    @property
    def point_count(self) -> int:
        return int(self.offsets.shape[0])

    @property
    def width_bound(self) -> int:
        return self.width_field if self.width_field else 1 << self.d

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
        if all(r.color_flag for r in self.records):
            colors = np.concatenate([r.colors for r in self.records], axis=0)
        return PointCloud(coords, colors, bit_depth=self.bit_depth)

    def plan_echo(self) -> list[dict]:
        """Per-record slice metadata recoverable from the stream alone."""
        return [
            {
                "index": i,
                "axis": r.axis.name,
                "sign": "+" if r.sign > 0 else "-",
                "base": r.base,
                "width": r.width_bound,
                "points": r.point_count,
                "terminal": r.terminal,
            }
            for i, r in enumerate(self.records)
        ]


def _record_fields(spec: SliceSpec, slice_cloud: PointCloud, bit_depth: int):
    base = spec.extended.lo
    width = spec.extended.width
    d = offset_bits_for(width)
    if base >= (1 << bit_depth) or spec.extended.hi > (1 << bit_depth):
        raise EncodeError(
            f"slice {spec.index}: range [{spec.extended.lo}, {spec.extended.hi}) "
            f"exceeds the {bit_depth}-bit grid"
        )
    c = slice_cloud.coords.astype(np.int64)
    offsets = c[:, spec.side.axis] - base
    if offsets.size and (offsets.min() < 0 or offsets.max() >= width):
        raise EncodeError(f"slice {spec.index}: point outside its extended range")
    u_col, v_col = PLANE_COLS[spec.side.axis]
    order = np.lexsort((c[:, v_col], c[:, u_col], offsets))
    return base, width, d, offsets[order], c[order][:, u_col], c[order][:, v_col], order


def _serialize_record(
    bit_depth: int,
    axis: Axis,
    sign: int,
    terminal: bool,
    base: int,
    width_field: int,
    d: int,
    color_flag: bool,
    offsets: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    colors: Optional[np.ndarray],
) -> bytes:
    header = [
        _field_bits(value, width)
        for value, width in (
            (int(axis), 2),
            (1 if sign > 0 else 0, 1),
            (1 if terminal else 0, 1),
            (base, bit_depth),
            (width_field, 7),
            (d - 1, 4),
            (offsets.shape[0], 32),
            (1 if color_flag else 0, 1),
        )
    ]
    columns = [_field_bits(offsets, d), _field_bits(us, bit_depth), _field_bits(vs, bit_depth)]
    if color_flag:
        for channel in range(3):
            columns.append(_field_bits(colors[:, channel], 8))
    payload = np.concatenate(columns, axis=1).ravel()
    # packbits zero-pads the final partial byte, which is the record padding
    return np.packbits(np.concatenate(header + [payload])).tobytes()


def encode(cloud: PointCloud, plan: SlicePlan) -> bytes:
    """Serialize the plan's slices; decoding recovers the cloud exactly."""
    slices = extract_slices(cloud, plan)
    bit_depth = cloud.bit_depth
    color = cloud.colors is not None
    if plan.config.theta > 0xFFFF:
        raise EncodeError("theta does not fit the 16-bit header field")
    if plan.config.overlap > 0xFF:
        raise EncodeError("overlap does not fit the 8-bit header field")

    out = bytearray()
    out += struct.pack(
        "<4sBBHBI",
        MAGIC,
        VERSION,
        bit_depth,
        plan.config.theta,
        plan.config.overlap,
        len(slices),
    )
    for spec, slice_cloud in slices:
        base, width, d, offsets, us, vs, order = _record_fields(
            spec, slice_cloud, bit_depth
        )
        width_field = width if width <= _MAX_NARROW_WIDTH else 0
        if len(slice_cloud) > 0xFFFFFFFF:
            raise EncodeError("slice point count exceeds 32 bits")
        colors = slice_cloud.colors[order] if color else None
        out += _serialize_record(
            bit_depth,
            spec.side.axis,
            spec.side.sign,
            spec.terminal,
            base,
            width_field,
            d,
            color,
            offsets,
            us,
            vs,
            colors,
        )
    return bytes(out)


def decode(data: bytes) -> DecodedStream:
    """Parse and validate an SWSG stream."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise DecodeError("bad magic", "bad magic: not an SWSG stream")
    if len(data) < STREAM_HEADER_BYTES:
        raise DecodeError("truncated", "truncated stream header")
    _, version, bit_depth, theta, overlap, slice_count = struct.unpack(
        "<4sBBHBI", data[:STREAM_HEADER_BYTES]
    )
    if version != VERSION:
        raise DecodeError(
            "unsupported version", f"unsupported version {version} (expected {VERSION})"
        )
    if not (8 <= bit_depth <= 16):
        raise DecodeError("invalid header", f"bit depth {bit_depth} out of range")

    position = STREAM_HEADER_BYTES
    records = []
    for index in range(slice_count):
        record, position = _parse_record(data, position, index, bit_depth)
        records.append(record)
    if position != len(data):
        raise DecodeError(
            "trailing bytes",
            f"{len(data) - position} trailing bytes after {slice_count} records",
        )
    return DecodedStream(
        bit_depth=bit_depth, theta=theta, overlap=overlap, records=tuple(records)
    )


def _parse_record(
    data: bytes, start: int, index: int, bit_depth: int
) -> tuple[DecodedRecord, int]:
    reader = BitReader(data, start)
    try:
        axis_code = reader.read(2)
        if axis_code > 2:
            raise DecodeError("invalid record", "axis code out of range", index)
        axis = Axis(axis_code)
        sign = 1 if reader.read(1) else -1
        terminal = bool(reader.read(1))
        base = reader.read(bit_depth)
        width_field = reader.read(7)
        d = reader.read(4) + 1
        count = reader.read(32)
        color_flag = bool(reader.read(1))
    except EOFError:
        raise DecodeError("truncated", "stream ends mid-record", index) from None

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

    header_bits = record_header_bits(bit_depth)
    per_point = payload_bits_per_point(d, bit_depth, color_flag)
    total_bits = header_bits + count * per_point
    record_bytes = (total_bits + 7) // 8
    if start + record_bytes > len(data):
        raise DecodeError(
            "truncated",
            f"record claims {count} points but the stream is shorter",
            index,
        )

    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=record_bytes, offset=start)
    )
    payload = bits[header_bits : header_bits + count * per_point].reshape(
        count, per_point
    )
    pos = 0
    offsets = _bits_to_values(payload[:, pos : pos + d])
    pos += d
    us = _bits_to_values(payload[:, pos : pos + bit_depth])
    pos += bit_depth
    vs = _bits_to_values(payload[:, pos : pos + bit_depth])
    pos += bit_depth
    colors = None
    if color_flag:
        colors = np.empty((count, 3), dtype=np.uint8)
        for channel in range(3):
            colors[:, channel] = _bits_to_values(payload[:, pos : pos + 8])
            pos += 8

    if width_field and offsets.size and int(offsets.max()) >= width_field:
        bad = int(offsets.argmax())
        raise DecodeError(
            "offset out of range",
            f"offset {int(offsets[bad])} >= slice width {width_field}",
            index,
        )
    if offsets.size and base + int(offsets.max()) >= (1 << bit_depth):
        raise DecodeError(
            "offset out of range",
            f"offset {int(offsets.max())} pushes coordinate past the grid",
            index,
        )

    record = DecodedRecord(
        axis=axis,
        sign=sign,
        terminal=terminal,
        base=base,
        width_field=width_field,
        d=d,
        color_flag=color_flag,
        offsets=offsets,
        us=us,
        vs=vs,
        colors=colors,
    )
    return record, start + record_bytes


def reencode(stream: DecodedStream) -> bytes:
    """Serialize a decoded stream back to bytes (identity on valid input)."""
    out = bytearray()
    out += struct.pack(
        "<4sBBHBI",
        MAGIC,
        VERSION,
        stream.bit_depth,
        stream.theta,
        stream.overlap,
        len(stream.records),
    )
    for rec in stream.records:
        out += _serialize_record(
            stream.bit_depth,
            rec.axis,
            rec.sign,
            rec.terminal,
            rec.base,
            rec.width_field,
            rec.d,
            rec.color_flag,
            rec.offsets,
            rec.us,
            rec.vs,
            rec.colors,
        )
    return bytes(out)


@dataclass(frozen=True)
class SliceBudget:
    index: int
    stored_points: int
    offset_bits: int
    header_bits: int
    payload_bits: int
    padding_bits: int
    naive_bits: int


@dataclass(frozen=True)
class BitBudget:
    """Exact bit accounting; totals reconcile with the measured stream length."""

    per_slice: tuple[SliceBudget, ...]
    stream_header_bits: int
    header_bits: int
    payload_bits: int
    padding_bits: int
    naive_bits: int

    @property
    def total_bits(self) -> int:
        return (
            self.stream_header_bits
            + self.header_bits
            + self.payload_bits
            + self.padding_bits
        )


def bit_budget(
    plan: SlicePlan,
    bit_depth: int,
    slices: list[tuple[SliceSpec, PointCloud]],
    color: Optional[bool] = None,
) -> BitBudget:
    """Predicted cost of encode() for these extracted slices.

    Per-slice naive cost is 3*B bits per stored point (flat coordinates);
    the budget's naive total uses the original cloud size, so overlap
    duplication shows up as payload, not as naive inflation.
    """
    if color is None:
        color = any(c.colors is not None for _, c in slices)
    rows = []
    for spec, slice_cloud in slices:
        d = offset_bits_for(spec.extended.width)
        stored = len(slice_cloud)
        header = record_header_bits(bit_depth)
        payload = stored * payload_bits_per_point(d, bit_depth, color)
        padding = (-(header + payload)) % 8
        rows.append(
            SliceBudget(
                index=spec.index,
                stored_points=stored,
                offset_bits=d,
                header_bits=header,
                payload_bits=payload,
                padding_bits=padding,
                naive_bits=3 * bit_depth * stored,
            )
        )
    return BitBudget(
        per_slice=tuple(rows),
        stream_header_bits=STREAM_HEADER_BYTES * 8,
        header_bits=sum(r.header_bits for r in rows),
        payload_bits=sum(r.payload_bits for r in rows),
        padding_bits=sum(r.padding_bits for r in rows),
        naive_bits=3 * bit_depth * plan.original_size,
    )
