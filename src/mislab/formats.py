"""Interchange formats: graph6 byte strings and JSON shapes.

graph6 follows the standard packing: a size header, then the upper triangle
read column by column, packed into 6-bit chunks, each chunk offset by 63.
The header is the single byte n+63 for n <= 62, and ``~`` followed by n in
three 6-bit chunks (18 bits, big-endian, each offset by 63) for larger n.
Only the shortest header for n is accepted.  The 8-byte header (``~~`` and
36 bits, for n > 258047) and any n above ``MAX_VERTICES`` raise ValueError.

Hypergraphs serialize as ``{"n": int, "edges": [[int, ...], ...]}`` and
fractional matchings as ``{"weights": [{"edge": i, "num": p, "den": q}, ...]}``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .graphs import MAX_VERTICES, FractionalMatching, Graph, Hypergraph


def graph6_encode(g: Graph) -> bytes:
    if g.n <= 62:
        out = bytearray([g.n + 63])
    else:
        out = bytearray([126, (g.n >> 12) + 63, (g.n >> 6 & 63) + 63, (g.n & 63) + 63])
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def graph6_decode(data: bytes | str) -> Graph:
    raw = data.encode("ascii") if isinstance(data, str) else data
    raw = raw.strip()
    if raw.startswith(b">>graph6<<"):
        raw = raw[len(b">>graph6<<"):]
    if not raw:
        raise ValueError("empty graph6 input")
    for b in raw:
        if not 63 <= b <= 126:
            raise ValueError(f"malformed graph6 byte {b}")
    n, head = raw[0] - 63, 1
    if n == 63:
        # "~" and n in 18 bits; "~~" and 36 bits would mean n > 258047.
        if raw[1:2] == b"~":
            raise ValueError(f"graph6 8-byte size header: n above {MAX_VERTICES}")
        if len(raw) < 4:
            raise ValueError("graph6 size header truncated")
        n, head = (raw[1] - 63) << 12 | (raw[2] - 63) << 6 | (raw[3] - 63), 4
        if n <= 62:
            raise ValueError(f"graph6 4-byte size header for n={n} <= 62")
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 vertex count {n} above {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    expect = head + (nbits + 5) // 6
    if len(raw) != expect:
        raise ValueError(f"graph6 length {len(raw)} != expected {expect} for n={n}")
    bits = 0
    for b in raw[head:]:
        bits = (bits << 6) | (b - 63)
    pad = (len(raw) - head) * 6 - nbits
    bits >>= pad
    rows = [0] * n
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos -= 1
    return Graph(n, tuple(rows))


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"n": h.n, "edges": [list(e) for e in h.edges]}


def hypergraph_from_json(obj: dict) -> Hypergraph:
    if not isinstance(obj, dict):
        raise ValueError("bad hypergraph JSON: expected an object with n and edges")
    try:
        n, edges = obj["n"], [list(e) for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad hypergraph JSON: {exc}") from exc
    # Floats and strings are rejected, not truncated; bools load as 0/1.
    if not all(isinstance(v, int) for v in (n, *chain.from_iterable(edges))):
        raise ValueError("bad hypergraph JSON: n and every vertex must be integers")
    return Hypergraph.from_edges(int(n), ([int(v) for v in e] for e in edges))


def matching_to_json(m: FractionalMatching) -> dict:
    return {
        "weights": [
            {"edge": i, "num": w.numerator, "den": w.denominator} for i, w in m.weights
        ]
    }


def matching_from_json(obj: dict) -> FractionalMatching:
    try:
        weights = {
            int(row["edge"]): Fraction(int(row["num"]), int(row["den"]))
            for row in obj["weights"]
        }
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"bad fractional matching JSON: {exc}") from exc
    return FractionalMatching.from_weights(weights)
