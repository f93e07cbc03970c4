"""Reading and writing graphs: graph6 and a small JSON schema.

graph6 layout (headerless):
  - byte 0: n+63 for n <= 62, or '~' followed by three bytes holding an
    18-bit big-endian value (63 <= n <= 258047).  The '~~' long form for
    larger n is rejected as out of scope.
  - then ceil(C(n,2)/6) bytes; each byte minus 63 gives six bits of the
    upper triangle read column by column: x(0,1), x(0,2), x(1,2), x(0,3)...
    The final byte is zero-padded on the right.  Parsing tolerates junk in
    the padding bits; serialization always emits zeros there.

JSON schema: {"n": <int>, "edges": [[u, v], ...]}.

Auto-detection tries JSON first; anything that does not parse as a JSON
object is treated as graph6 (a '{' can legitimately start a graph6 string,
so JSON wins ties by decree).
"""
from __future__ import annotations

import base64
import json
import re
from typing import Any

from .graphs import Graph, bits, edge

_HEADER = ">>graph6<<"
_NOT_GRAPH6 = re.compile(r"[^?-~]")
# A graph6 body character carries six bits, most significant first, as a
# base64 digit does: the body is the base64 text of the bit stream with
# each digit's character moved to chr(value + 63).
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_GRAPH6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_GRAPH6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64)
# Each byte with its bit order reversed: the columns pack the stream least
# significant bit first, and base64 reads it most significant bit first.
_REVERSED = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


class GraphParseError(ValueError):
    """Malformed graph input; `offset` is the byte position when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 input", 0)
    bad = _NOT_GRAPH6.search(s)
    if bad:
        i = bad.start()
        raise GraphParseError(f"character {s[i]!r} outside graph6 alphabet", i)
    if s[0] == "~":
        if s[1:2] == "~":
            raise GraphParseError("graph6 long size form ('~~') not supported", 0)
        if len(s) < 4:
            raise GraphParseError("truncated graph6 size field", len(s))
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        pos = 4
    else:
        n = ord(s[0]) - 63
        pos = 1
    bits_needed = n * (n - 1) // 2
    bytes_needed = (bits_needed + 5) // 6
    if len(s) - pos < bytes_needed:
        raise GraphParseError(
            f"graph6 body too short: need {bytes_needed} bytes, have {len(s) - pos}",
            len(s),
        )
    if len(s) - pos > bytes_needed:
        raise GraphParseError("unexpected bytes after graph6 body", pos + bytes_needed)
    # the body is read as a bit stream packed least significant bit first,
    # in whole groups of four characters (24 bits) as the columns need
    # them; column j holds x(0,j) .. x(j-1,j): vertex j's lower neighbours
    edges = []
    pending = width = 0  # stream bits read but not yet used
    for j in range(1, n):
        if width < j:
            count = (j - width + 23) // 24 * 4
            pending |= _stream(s[pos : pos + count]) << width
            width += 6 * count
            pos += count
        edges.extend((i, j) for i in bits(pending & ((1 << j) - 1)))
        pending >>= j
        width -= j
    return Graph(n, frozenset(edges))


def serialize_graph6(g: Graph) -> str:
    n = g.n
    if n > 258047:
        raise ValueError("graph too large for the supported graph6 sizes")
    if n <= 62:
        size = chr(n + 63)
    else:
        size = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    # the stream packs column after column, least significant bit first;
    # every whole 24 bits go out as four characters once a column completes
    # them
    out = [size]
    pending = width = 0  # stream bits not yet written out, fewer than 24
    for j in range(1, n):
        pending |= (g.masks[j] & ((1 << j) - 1)) << width
        width += j
        if width >= 24:
            groups = width // 24
            out.append(_characters(pending, 3 * groups))
            pending >>= 24 * groups
            width -= 24 * groups
    if width:
        out.append(_characters(pending, 3)[: (width + 5) // 6])
    return "".join(out)


def _stream(chars: str) -> int:
    """The bits that graph6 characters carry, packed least significant bit
    first."""
    data = chars.encode("ascii").translate(_GRAPH6_TO_B64)
    data = base64.b64decode(data + b"A" * (-len(data) % 4)).translate(_REVERSED)
    return int.from_bytes(data, "little")


def _characters(stream: int, size: int) -> str:
    """graph6 characters for the low `size` bytes of a bit stream packed
    least significant bit first; `size` is a multiple of 3."""
    low = stream & ((1 << 8 * size) - 1)
    data = low.to_bytes(size, "little").translate(_REVERSED)
    return base64.b64encode(data).translate(_B64_TO_GRAPH6).decode("ascii")


def graph_to_obj(g: Graph) -> dict[str, Any]:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_obj(obj: Any) -> Graph:
    if isinstance(obj, str):
        return parse_graph6(obj)
    if not isinstance(obj, dict):
        raise GraphParseError(f"expected a graph object or graph6 string, got {type(obj).__name__}")
    if "n" not in obj:
        raise GraphParseError('graph object missing "n"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphParseError('"n" must be a non-negative integer')
    raw = obj.get("edges", [])
    if not isinstance(raw, list):
        raise GraphParseError('"edges" must be a list of pairs')
    pairs = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise GraphParseError(f"bad edge entry {item!r}")
        try:
            pairs.append(edge(item[0], item[1]))
        except ValueError as exc:
            raise GraphParseError(str(exc)) from exc
    try:
        return Graph(n, frozenset(pairs))
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def parse_graph_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    return graph_from_obj(obj)


def serialize_graph_json(g: Graph) -> str:
    return json.dumps(graph_to_obj(g))


def parse_graph(text: str) -> Graph:
    """Auto-detect the format; JSON wins whenever the text parses as JSON."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return parse_graph6(text)
    if isinstance(obj, dict):
        return graph_from_obj(obj)
    return parse_graph6(text)


def serialize_graph(g: Graph, fmt: str = "graph6") -> str:
    if fmt == "graph6":
        return serialize_graph6(g)
    if fmt == "json":
        return serialize_graph_json(g)
    raise ValueError(f"unknown graph format {fmt!r}")
