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
# The ASCII reader takes the body about this many bytes at a time, and the
# writer this many rows: their temporaries follow the chunk, not the cloud.
_CHUNK_BYTES = 1 << 18
_BLOCK_ROWS = 1 << 14


def read_ply(data: bytes) -> PointCloud:
    """Parse PLY bytes into a deduplicated PointCloud.

    Bit depth is chosen automatically: the smallest of 10..16 bits covering
    the input. Structure errors outrank value errors, which rank by kind, then vertex.
    """
    header_lines, body_start, line_count = _split_header(data)
    fmt, count, props = _parse_header(header_lines)

    names = [name for name, _ in props]
    for coord in _COORD_NAMES:
        if coord not in names:
            raise PlyParseError(f"vertex element lacks property {coord!r}")
    has_color = all(c in names for c in _COLOR_NAMES)

    if fmt == "ascii":
        # a vertex line is len(props) tokens and as many separators, the last maybe the end
        capacity = min(count, (len(data) - body_start + 1) // (2 * len(props)))
        tables = _read_ascii_body(data, body_start, count, props, line_count)
    else:
        capacity, tables = count, [_read_binary_body(data, body_start, count, props)]
    kept = _COORD_NAMES + (_COLOR_NAMES if has_color else ())
    rows = np.empty((capacity, len(kept)), dtype=np.int32)
    faults: dict[int, str] = {}  # the first fault of each kind of value error, by rank
    done = 0
    for columns in tables:  # structure errors raise here, before any value error
        block = slice(done, done + len(columns["x"]))
        done = block.stop
        for rank, (message, bad) in enumerate(_value_checks(columns, props, has_color, fmt)):
            if bad.any():
                faults.setdefault(rank, message.format(block.start + int(np.argmax(bad))))
        # cast only values in range (1e30 would wrap); the cast floors non-negative ones
        for k, name in enumerate(() if faults else kept):
            rows[block, k] = columns[name]
    if faults:
        raise PlyParseError(faults[min(faults)])
    return PointCloud(rows[:, :3], rows[:, 3:] if has_color else None)


def _value_checks(columns, props, has_color: bool, fmt: str):
    """(message, bad rows) of each kind of value error in rank order; {} takes the vertex.

    Coordinates are checked before they are floored: floor(v) < 0 exactly
    when v < 0, and floor(v) >= 2**16 exactly when v >= 2**16. Unsigned
    columns, as a digit chunk's are, skip the tests they pass by type.
    """
    xyz = [columns[name] for name in _COORD_NAMES]
    signed = [v for v in xyz if v.dtype.kind != "u"]  # the columns that may be negative or NaN
    anywhere = np.logical_or.reduce  # the rows where any of the masks is set (none: False)
    yield "non-finite coordinate in vertex body", anywhere([~np.isfinite(v) for v in signed])
    yield "negative coordinate at vertex {}", anywhere([v < 0 for v in signed])
    off_grid = f"coordinate at vertex {{}} exceeds {MAX_BIT_DEPTH}-bit grid"
    yield off_grid, anywhere([v >= (1 << MAX_BIT_DEPTH) for v in xyz])
    if has_color:
        rgb = [columns[name] for name in _COLOR_NAMES]
        yield "color outside 0..255 at vertex {}", anywhere([~((v >= 0) & (v <= 255)) for v in rgb])
    for name, dtype in props if fmt == "ascii" else ():  # binary values fit their type
        if np.dtype(dtype).kind in "iu":
            info, values = np.iinfo(dtype), columns[name]
            fits = values <= info.max
            if values.dtype.kind == "f":  # digits are whole and non-negative
                fits &= (values >= info.min) & (values == np.floor(values))
            yield f"{name} at vertex {{}} is not an integer in {info.min}..{info.max}", ~fits


def write_ply(cloud: PointCloud, fmt: str = "ascii") -> bytes:
    """Serialize a cloud as PLY; read_ply(write_ply(c)) reproduces c's points."""
    if fmt not in ("ascii", "binary"):
        raise ValueError(f"format must be 'ascii' or 'binary', got {fmt!r}")
    # the vertex properties, (name, PLY type), and their values, one column each
    props, tables = [(name, "float") for name in _COORD_NAMES], [cloud.coords]
    if cloud.colors is not None:
        props += [(name, "uchar") for name in _COLOR_NAMES]
        tables.append(cloud.colors)
    lines = [
        "ply",
        f"format {'ascii' if fmt == 'ascii' else 'binary_little_endian'} 1.0",
        f"element vertex {len(cloud)}",
        *(f"property {ptype} {name}" for name, ptype in props),
        "end_header",
    ]
    header = ("\n".join(lines) + "\n").encode("ascii")
    if fmt == "ascii":
        return b"".join([header, *_ascii_body(tables)])
    rec = np.empty(len(cloud), dtype=[(name, _SCALAR_DTYPES[ptype]) for name, ptype in props])
    for (name, _), column in zip(props, np.hstack(tables).T):
        rec[name] = column
    return header + rec.tobytes()


def _ascii_body(tables: list[np.ndarray]):
    """Decimal text of side-by-side tables of non-negative integers: one line per row.

    Each value 0..max gets a cell in a lookup table, 4 bytes wide when max
    is below 1,000 and 8 otherwise: its digits right-aligned behind NUL
    padding, then a space. Each block of `_BLOCK_ROWS` rows is the cells
    gathered at its values, the last cell of each row ending in a newline
    instead, with the NULs dropped. Values must be below 10**7, so that a
    cell fits.
    """
    if not tables[0].size:
        return
    top = max(int(table.max()) for table in tables)
    width = 4 if top < 1000 else 8
    values = np.arange(top + 1)
    cells = np.zeros((top + 1, width), dtype=np.uint8)
    cells[:, -1] = ord(" ")
    for place in range(len(str(top))):  # the 10**place digit goes in column width - 2 - place
        power = 10**place
        first = power if place else 0  # values below 10**place have no such digit, but 0 has a 0
        cells[first:, width - 2 - place] = values[first:] // power % 10 + ord("0")
    cells = cells.view(f"u{width}").ravel()
    for first in range(0, tables[0].shape[0], _BLOCK_ROWS):
        rows = np.hstack([table[first : first + _BLOCK_ROWS] for table in tables])
        text = cells.take(rows).view(np.uint8)
        text[:, -1] = ord("\n")
        text = text.ravel()
        yield text.compress(text != 0)


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
            if any(name == seen for seen, _ in props):
                raise PlyParseError(f"duplicate property {name!r} (line {lineno})")
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


def _read_ascii_body(data: bytes, start: int, count: int, props, header_lines: int):
    """Vertex values of the ASCII body data[start:], one line per vertex; blank lines skipped.

    Yields one column per property, a chunk of lines at a time: a
    chunk is the whole lines in the next `_CHUNK_BYTES`, or the next line if
    it is longer. Structure errors raise when their chunk is read; line
    numbers count from the file's start. Whitespace and line breaks are those of str.split() and
    str.split("\\n") on the ASCII-decoded text; values are whatever float()
    accepts. Tokens are found with byte comparisons. Lines end at the last
    token before each newline; when every newline directly follows a token
    (no CRLF, blank line or separator before it), they are those tokens. When
    every vertex token of a chunk is 1-18 ASCII digits (as write_ply writes
    them), `_digit_values` reads them exactly into unsigned integer columns,
    from 4-byte words when no token is longer than 4 digits; any other chunk
    goes through float() per token, into float64 columns.
    """
    # vertices, lines and the last vertex line's number so far
    done, lines, last = 0, header_lines, header_lines
    while start < len(data):
        end = start + _CHUNK_BYTES
        if end < len(data):  # end the chunk at a line break
            end = data.rfind(b"\n", start, end) + 1 or data.find(b"\n", end) + 1 or len(data)
        chunk = data[start:end]
        start = end
        raw = np.frombuffer(chunk, dtype=np.uint8)
        padded_ws = np.ones(len(raw) + 2, dtype=bool)  # \t-\r, \x1c-\x1f, space; one more each end
        ws = np.logical_or((raw - np.uint8(9)) < 5, (raw - np.uint8(28)) < 5, out=padded_ws[1:-1])
        edges = np.flatnonzero(padded_ws[1:] != padded_ws[:-1])
        starts, ends = edges[0::2], edges[1::2]  # each token is raw[start:end]
        breaks = int(np.count_nonzero(raw == ord("\n")))
        at_break = raw.take(ends, mode="clip") == ord("\n")  # tokens a newline directly follows
        if np.count_nonzero(at_break) == breaks:  # so no line is blank: each ends at such a token
            last_tokens = np.flatnonzero(at_break)
        else:  # the last token before each newline
            last_tokens = np.searchsorted(starts, np.flatnonzero(raw == ord("\n"))) - 1
        per_line = np.diff(last_tokens, prepend=-1, append=len(starts) - 1)
        filled = np.flatnonzero(per_line)  # chunk line index of each non-blank line
        lineno = filled + lines + 1  # and its line number in the file
        lines += breaks
        widths = per_line[filled[: count - done]]  # values on each vertex line
        wrong = np.flatnonzero(widths != len(props))
        good = int(wrong[0]) if wrong.size else len(widths)
        parsed = good * len(props)  # the tokens of the vertex lines before any bad width
        values = _digit_values(raw, ws, starts[:parsed], ends[:parsed])
        if values is None:
            tokens = chunk.translate(_ASCII_WS).split()
            del tokens[parsed:]
            try:
                values = np.fromiter(map(float, tokens), dtype=np.float64, count=parsed)
            except ValueError:
                bad = next(i for i, t in enumerate(tokens) if not _is_float(t)) // len(props)
                raise PlyParseError(f"non-numeric vertex value (line {lineno[bad]})") from None
        if wrong.size:
            raise PlyParseError(
                f"expected {len(props)} values, got {widths[good]} (line {lineno[good]})"
            )
        if len(filled) > len(widths):
            after = lineno[len(widths) - 1] + 1 if len(widths) else last + 1
            raise PlyParseError(f"trailing data after {count} vertices (line {after})")
        if len(widths):
            done, last = done + len(widths), lineno[-1]
            table = values.reshape(-1, len(props))
            yield {name: table[:, i] for i, (name, _) in enumerate(props)}
    if done < count:
        raise PlyParseError(
            f"truncated body: header declares {count} vertices, found {done}"
        )


def _digit_values(raw: np.ndarray, ws: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Unsigned integer values of the tokens raw[start:end], or None unless each is 1-18 digits.

    SWAR, as in Langdale and Lemire's JSON parser: the little-endian word
    that ends at a token's end holds its last 4 or 8 bytes, the last digit in
    the top byte. When no token is longer than 4 digits, as on a 10-bit grid,
    the words are uint32; else uint64, and tokens of 9-16 digits add the word
    8 bytes further back times 10**8, and of 17-18 digits the next times
    10**16, exact in uint64.
    """
    if not starts.size:
        return np.zeros(0, dtype=np.uint32)
    span, lengths = slice(starts[0], ends[-1]), ends - starts
    longest, digit = int(lengths.max()), raw[span] - np.uint8(ord("0")) < 10
    if longest > 18 or not np.logical_or(digit, ws[span], out=digit).all():
        return None
    del digit  # free it, and the int64 lengths below, before the word gathers
    lengths, size = lengths.astype(np.int8), 4 if longest <= 4 else 8
    padded = np.concatenate([np.zeros(size, dtype=np.uint8), raw])  # word e is raw[e - size:e]
    words = np.ndarray(len(raw) + 1, dtype=f"<u{size}", buffer=padded, strides=(1,))
    values = _word_values(words, ends, lengths)
    for back in range(8, longest, 8):  # tokens of more digits: the word `back` bytes back
        more = np.flatnonzero(lengths > back)
        values[more] += _word_values(words, ends[more] - back, lengths[more] - back) * 10**back
    return values


# _WORD_MASKS[size][n] keeps a word's top n bytes, a token's last n digits, as their low nibbles
_WORD_MASKS = {size: np.array([0x0F0F0F0F0F0F0F0F >> 64 - 8 * n << 8 * (size - n)
                               for n in range(size + 1)], dtype=f"u{size}") for size in (4, 8)}


def _word_values(words: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Values of the last min(length, size) digits before each end, in `words` of size bytes."""
    size = words.itemsize
    w, low = words.take(ends), 64 - 8 * size  # a 4-byte word's lane masks: an 8-byte one's low half
    masks = (_WORD_MASKS[size].take(np.minimum(lengths, size)), 0x00FF00FF00FF00FF >> low,
             0x0000FFFF0000FFFF >> low)[: size.bit_length() - 1]  # 2 steps for 4 bytes, 3 for 8
    # digit pairs sum to their values in 16-bit lanes, then fours in 32-bit lanes, then all 8
    for mask, factor, shift in zip(masks, (2561, 6553601, 42949672960001), (8, 16, 32)):
        w &= mask
        w *= factor
        w >>= shift
    return w


def _is_float(token: bytes) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_binary_body(data: bytes, start: int, count: int, props):
    """Vertex columns of the binary body data[start:], views into `data`."""
    dtype = np.dtype([(name, dt) for name, dt in props])
    expected = dtype.itemsize * count
    found = len(data) - start
    if found < expected:
        raise PlyParseError(
            f"truncated body: need {expected} bytes for {count} vertices, "
            f"found {found} (byte {len(data)})"
        )
    if found > expected:
        raise PlyParseError(
            f"trailing data: {found - expected} bytes after vertex body "
            f"(byte {start + expected})"
        )
    rec = np.frombuffer(data, dtype=dtype, count=count, offset=start)
    return {name: rec[name] for name, _ in props}
