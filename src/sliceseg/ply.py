"""PLY ingestion and export for voxel point clouds.

Supported subset: a single `vertex` element with x/y/z properties
(integer or floating scalar types) and optional uchar red/green/blue,
in ascii or binary little-endian 1.0. Float coordinates are floored to
the voxel grid; an ASCII value of an integer property must be an integer
in its type's range. Duplicate coordinates merge on load (first wins); the
merge count is available as `cloud.duplicates_merged`.
"""

from __future__ import annotations

import re

import numpy as np

from .cloud import MAX_BIT_DEPTH, PointCloud


class PlyParseError(ValueError):
    """Malformed PLY input; message names the offending line or byte offset."""


_SCALAR_DTYPES = {
    "char": "<i1",
    "int8": "<i1",
    "uchar": "<u1",
    "uint8": "<u1",
    "short": "<i2",
    "int16": "<i2",
    "ushort": "<u2",
    "uint16": "<u2",
    "int": "<i4",
    "int32": "<i4",
    "uint": "<u4",
    "uint32": "<u4",
    "float": "<f4",
    "float32": "<f4",
    "double": "<f8",
    "float64": "<f8",
}

# the first whole line reading end_header (blanks aside); a comment may mention it
_HEADER_END = re.compile(rb"^[ \t\r]*end_header[ \t\r]*\n", re.MULTILINE)
_COORD_NAMES = ("x", "y", "z")
_COLOR_NAMES = ("red", "green", "blue")
# str.split() also splits on the separators \x1c-\x1f, which bytes.split() keeps
_ASCII_WS = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
_IS_WS = np.zeros(256, dtype=bool)
_IS_WS[list(b" \t\n\r\x0b\x0c")] = True


def read_ply(data: bytes) -> PointCloud:
    """Parse PLY bytes into a deduplicated PointCloud.

    Bit depth is chosen automatically: the smallest of 8..16 covering the
    input, minimum 10.
    """
    header_lines, body_start, line_count = _split_header(data)
    fmt, count, props = _parse_header(header_lines)

    names = [name for name, _ in props]
    for coord in _COORD_NAMES:
        if coord not in names:
            raise PlyParseError(f"vertex element lacks property {coord!r}")
    has_color = all(c in names for c in _COLOR_NAMES)

    if fmt == "ascii":
        raw = _read_ascii_body(data[body_start:], count, props, line_count)
    else:
        raw = _read_binary_body(data[body_start:], count, props, body_start)

    coords = np.stack([raw[c] for c in _COORD_NAMES], axis=1)
    if np.issubdtype(coords.dtype, np.floating):
        if not np.isfinite(coords).all():
            raise PlyParseError("non-finite coordinate in vertex body")
        coords = np.floor(coords).astype(np.int64)
    else:
        coords = coords.astype(np.int64)

    if coords.size and coords.min() < 0:
        bad = int(np.argwhere((coords < 0).any(axis=1))[0][0])
        raise PlyParseError(f"negative coordinate at vertex {bad}")
    if coords.size and coords.max() >= (1 << MAX_BIT_DEPTH):
        bad = int(np.argwhere((coords >= (1 << MAX_BIT_DEPTH)).any(axis=1))[0][0])
        raise PlyParseError(
            f"coordinate at vertex {bad} exceeds {MAX_BIT_DEPTH}-bit grid"
        )

    colors = None
    if has_color:
        colors = np.stack([raw[c] for c in _COLOR_NAMES], axis=1)
        bad = ~((colors >= 0) & (colors <= 255)).all(axis=1)
        if bad.any():
            raise PlyParseError(f"color outside 0..255 at vertex {int(np.argmax(bad))}")
        colors = colors.astype(np.uint8)
    for name, dtype in props if fmt == "ascii" else ():  # binary values fit their type
        if np.dtype(dtype).kind in "iu":
            info, values = np.iinfo(dtype), raw[name]
            bad = ~((values >= info.min) & (values <= info.max) & (values == np.floor(values)))
            if bad.any():
                raise PlyParseError(
                    f"{name} at vertex {int(np.argmax(bad))} is not an integer "
                    f"in {info.min}..{info.max}"
                )
    return PointCloud(coords, colors)


def write_ply(cloud: PointCloud, fmt: str = "ascii") -> bytes:
    """Serialize a cloud as PLY; read_ply(write_ply(c)) reproduces c's points."""
    if fmt not in ("ascii", "binary"):
        raise ValueError(f"format must be 'ascii' or 'binary', got {fmt!r}")
    has_color = cloud.colors is not None

    lines = ["ply"]
    lines.append(
        "format ascii 1.0" if fmt == "ascii" else "format binary_little_endian 1.0"
    )
    lines.append(f"element vertex {len(cloud)}")
    for name in _COORD_NAMES:
        lines.append(f"property float {name}")
    if has_color:
        for name in _COLOR_NAMES:
            lines.append(f"property uchar {name}")
    lines.append("end_header")
    header = ("\n".join(lines) + "\n").encode("ascii")

    if fmt == "ascii":
        table = cloud.coords if not has_color else np.hstack([cloud.coords, cloud.colors])
        row = "%d %d %d %d %d %d\n" if has_color else "%d %d %d\n"
        return header + ((row * len(cloud)) % tuple(table.ravel().tolist())).encode("ascii")

    fields = [(n, "<f4") for n in _COORD_NAMES]
    if has_color:
        fields += [(n, "<u1") for n in _COLOR_NAMES]
    rec = np.empty(len(cloud), dtype=np.dtype(fields))
    for k, name in enumerate(_COORD_NAMES):
        rec[name] = cloud.coords[:, k].astype(np.float32)
    if has_color:
        for k, name in enumerate(_COLOR_NAMES):
            rec[name] = cloud.colors[:, k]
    return header + rec.tobytes()


def _split_header(data: bytes):
    """Return (header lines, body offset, header line count)."""
    match = _HEADER_END.search(data)
    if not data.startswith(b"ply") or match is None:
        raise PlyParseError("missing 'ply' magic or 'end_header' line (byte 0)")
    header_text = data[: match.end() - 1].decode("ascii", errors="replace")
    lines = [ln.strip("\r") for ln in header_text.split("\n")]
    return lines, match.end(), len(lines)


def _parse_header(lines: list[str]):
    if lines[0].strip() != "ply":
        raise PlyParseError("first line must be 'ply' (line 1)")

    fmt = None
    count = None
    props: list[tuple[str, str]] = []
    in_vertex = False

    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        kw = tokens[0]
        if kw == "comment" or kw == "obj_info":
            continue
        if kw == "format":
            if tokens[1:] == ["ascii", "1.0"]:
                fmt = "ascii"
            elif tokens[1:] == ["binary_little_endian", "1.0"]:
                fmt = "binary"
            else:
                raise PlyParseError(f"unsupported format {line!r} (line {lineno})")
        elif kw == "element":
            if len(tokens) != 3:
                raise PlyParseError(f"malformed element line (line {lineno})")
            if tokens[1] == "vertex":
                if count is not None:
                    raise PlyParseError(f"duplicate vertex element (line {lineno})")
                try:
                    count = int(tokens[2])
                except ValueError:
                    raise PlyParseError(
                        f"bad vertex count {tokens[2]!r} (line {lineno})"
                    ) from None
                if count < 0:
                    raise PlyParseError(f"negative vertex count (line {lineno})")
                in_vertex = True
            else:
                raise PlyParseError(
                    f"unsupported element {tokens[1]!r} (line {lineno})"
                )
        elif kw == "property":
            if not in_vertex:
                raise PlyParseError(f"property outside vertex element (line {lineno})")
            if len(tokens) >= 2 and tokens[1] == "list":
                raise PlyParseError(f"list properties unsupported (line {lineno})")
            if len(tokens) != 3:
                raise PlyParseError(f"malformed property line (line {lineno})")
            ptype, name = tokens[1], tokens[2]
            if ptype not in _SCALAR_DTYPES:
                raise PlyParseError(
                    f"unsupported property type {ptype!r} (line {lineno})"
                )
            props.append((name, _SCALAR_DTYPES[ptype]))
        elif kw == "end_header":
            break
        else:
            raise PlyParseError(f"unknown header keyword {kw!r} (line {lineno})")

    if fmt is None:
        raise PlyParseError("header lacks a format line")
    if count is None:
        raise PlyParseError("header lacks an 'element vertex' line")
    if not props:
        raise PlyParseError("vertex element declares no properties")
    return fmt, count, props


def _read_ascii_body(body: bytes, count: int, props, header_lines: int):
    """Vertex values of an ASCII body, one line per vertex; blank lines skipped.

    Whitespace and line breaks are those of str.split() and str.split("\\n") on
    the ASCII-decoded text; values are whatever float() accepts.
    """
    body = body.translate(_ASCII_WS)
    raw = np.frombuffer(body, dtype=np.uint8)
    ws = np.concatenate(([True], _IS_WS[raw]))
    starts = np.flatnonzero(ws[:-1] & ~ws[1:])
    newlines = np.flatnonzero(raw == ord("\n"))
    per_line = np.bincount(np.searchsorted(newlines, starts), minlength=len(newlines) + 1)
    filled = np.flatnonzero(per_line)  # body line index of each non-blank line
    lineno = filled + header_lines + 1  # and its line number in the file
    widths = per_line[filled[:count]]  # values on each vertex line
    wrong = np.flatnonzero(widths != len(props))
    good = int(wrong[0]) if wrong.size else len(widths)
    tokens = body.split()
    del tokens[good * len(props) :]
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        bad = next(i for i, t in enumerate(tokens) if not _is_float(t)) // len(props)
        raise PlyParseError(f"non-numeric vertex value (line {lineno[bad]})") from None
    if wrong.size:
        raise PlyParseError(
            f"expected {len(props)} values, got {widths[good]} (line {lineno[good]})"
        )
    if len(widths) < count:
        raise PlyParseError(
            f"truncated body: header declares {count} vertices, found {len(widths)}"
        )
    if len(filled) > count:
        after = lineno[count - 1] + 1 if count else header_lines + 1
        raise PlyParseError(f"trailing data after {count} vertices (line {after})")
    table = values.reshape(count, len(props))
    return {name: table[:, i] for i, (name, _) in enumerate(props)}


def _is_float(token: bytes) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_binary_body(body: bytes, count: int, props, body_start: int):
    dtype = np.dtype([(name, dt) for name, dt in props])
    expected = dtype.itemsize * count
    if len(body) < expected:
        raise PlyParseError(
            f"truncated body: need {expected} bytes for {count} vertices, "
            f"found {len(body)} (byte {body_start + len(body)})"
        )
    if len(body) > expected:
        raise PlyParseError(
            f"trailing data: {len(body) - expected} bytes after vertex body "
            f"(byte {body_start + expected})"
        )
    rec = np.frombuffer(body, dtype=dtype, count=count)
    return {name: rec[name] for name, _ in props}
