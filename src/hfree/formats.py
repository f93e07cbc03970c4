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

import json
import re
from typing import Any

from .graphs import Graph, bits, edge

_HEADER = ">>graph6<<"
_NOT_GRAPH6 = re.compile(r"[^?-~]")
# Each graph6 body character and the six bits it carries, most significant
# first.
_FROM_BITS = {format(v, "06b"): chr(v + 63) for v in range(64)}
_TO_BITS = str.maketrans({c: b for b, c in _FROM_BITS.items()})


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
    edges = []
    for j in range(1, n):
        # column j, from bit j(j-1)/2 of the body on, holds x(0,j) .. x(j-1,j):
        # vertex j's lower neighbours
        first = j * (j - 1) // 2
        chars = s[pos + first // 6 : pos + (first + j + 5) // 6].translate(_TO_BITS)
        column = chars[first % 6 : first % 6 + j]
        edges.extend((i, j) for i in bits(int(column[::-1], 2)))
    return Graph(n, frozenset(edges))


def serialize_graph6(g: Graph) -> str:
    n = g.n
    if n > 258047:
        raise ValueError("graph too large for the supported graph6 sizes")
    if n <= 62:
        size = chr(n + 63)
    else:
        size = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    out = [size]
    pending = ""  # body bits not yet written: fewer than six between columns
    for j in range(1, n):
        pending += format(g.masks[j] & ((1 << j) - 1), f"0{j}b")[::-1]
        cut = len(pending) - len(pending) % 6
        out.append("".join([_FROM_BITS[pending[i : i + 6]] for i in range(0, cut, 6)]))
        pending = pending[cut:]
    if pending:
        out.append(_FROM_BITS[pending.ljust(6, "0")])
    return "".join(out)


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
