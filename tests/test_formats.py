"""graph6 byte-exactness and JSON round trips."""

from __future__ import annotations

import random

import pytest

from mislab import (
    Graph,
    Hypergraph,
    graph6_decode,
    graph6_encode,
    hypergraph_from_json,
    hypergraph_to_json,
    tight_cycle,
)
from mislab.graphs import MAX_VERTICES
from naive import edges, random_graph


def test_frozen_bytes():
    assert graph6_encode(Graph.complete(2)) == b"A_"
    assert graph6_encode(Graph.empty(1)) == b"@"
    assert graph6_encode(Graph.empty(2)) == b"A?"
    # 5-cycle packs 10 upper-triangle bits into two data bytes
    assert graph6_encode(Graph.cycle(5)) == b"Dhc"


def test_matches_networkx_if_available():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 25)
        g = random_graph(rng, n, 0.4)
        other = nx.Graph()
        other.add_nodes_from(range(n))
        other.add_edges_from(edges(g))
        assert graph6_encode(g) == nx.to_graph6_bytes(other, header=False).strip()


def test_round_trip_random():
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(0, 20)
        g = random_graph(rng, n, rng.random())
        assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_boundary():
    rng = random.Random(3)
    for n in (62, 63, MAX_VERTICES):
        g = random_graph(rng, n, 0.3)
        assert graph6_decode(graph6_encode(g)) == g
    # n=129 has a well-formed 4-byte header and data, but exceeds MAX_VERTICES.
    blob = b"~?A@" + b"?" * ((129 * 128 // 2 + 5) // 6)
    with pytest.raises(ValueError, match="above"):
        graph6_decode(blob)


@pytest.mark.parametrize("n", [63, 64, 80, 128])
def test_long_header_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    other = nx.gnp_random_graph(n, 0.3, seed=n)
    g = Graph.from_edges(n, other.edges())
    data = graph6_encode(g)
    assert data[:1] == b"~" and len(data) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert data == nx.to_graph6_bytes(other, header=False).strip()
    assert graph6_decode(nx.to_graph6_bytes(other)) == g
    back = nx.from_graph6_bytes(data)
    assert sorted(back.nodes) == list(range(n))
    assert sorted(tuple(sorted(e)) for e in back.edges) == edges(g)


def test_decode_rejects_bad_long_headers():
    with pytest.raises(ValueError, match="truncated"):
        graph6_decode(b"~?A")
    # The 4-byte header for n=5 is legal graph6 but not the shortest form.
    with pytest.raises(ValueError, match="4-byte"):
        graph6_decode(b"~??Dhc")
    with pytest.raises(ValueError, match="8-byte"):
        graph6_decode(b"~~??????")


def test_decode_rejects_malformed():
    with pytest.raises(ValueError):
        graph6_decode(b"")
    with pytest.raises(ValueError):
        graph6_decode(b"A\x1f")  # byte below 63
    with pytest.raises(ValueError):
        graph6_decode(b"A_~")  # trailing garbage
    with pytest.raises(ValueError):
        graph6_decode(b"D_")  # too short for n=5
    # optional header accepted
    assert graph6_decode(b">>graph6<<A_") == Graph.complete(2)


def test_decode_rejects_set_padding_bits():
    # K2 packs one bit into a byte; "`" is "_" with a padding bit set.
    with pytest.raises(ValueError, match="padding"):
        graph6_decode(b"A`")
    assert graph6_decode(b"A_") == Graph.complete(2)


def test_decode_fuzz_never_crashes_outside_value_error():
    rng = random.Random(1234)
    blobs = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12))) for _ in range(500)]
    # Random bytes almost never get past the length check, so add encodings
    # of seeded graphs with padding bits set in the last byte.
    for _ in range(200):
        n = rng.choice([m for m in range(2, 20) if m * (m - 1) // 2 % 6])
        blob = bytearray(graph6_encode(random_graph(rng, n, rng.random())))
        blob[-1] = (blob[-1] - 63 | rng.randrange(1, 1 << (-(n * (n - 1) // 2) % 6))) + 63
        blobs.append(bytes(blob))
    for blob in blobs:
        try:
            g = graph6_decode(blob)
        except ValueError:
            continue
        assert graph6_encode(g) == blob.strip()


def test_hypergraph_json_round_trip():
    h = tight_cycle(3, 7)
    obj = hypergraph_to_json(h)
    assert obj["n"] == 7 and len(obj["edges"]) == 7
    assert hypergraph_from_json(obj) == h
    with pytest.raises(ValueError):
        hypergraph_from_json({"edges": [[0, 1]]})


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 4.9, "edges": [[0, 1, 2]]},
        {"n": 4, "edges": [[0, 1.5, 2]]},
        {"n": 4.0, "edges": []},
        {"n": "4", "edges": [[0, 1]]},
        {"n": 4, "edges": [[0, "1"]]},
        {"n": 4, "edges": ["01"]},
        {"n": 4, "edges": [[0, [1]]]},
        {"n": 4, "edges": [[0, None]]},
        {"n": 4, "edges": 5},
        {"n": 4, "edges": [3]},
        {"n": 4},
        [4, [[0, 1]]],
    ],
)
def test_hypergraph_json_rejects_non_integers(obj):
    with pytest.raises(ValueError):
        hypergraph_from_json(obj)


def test_hypergraph_json_bools_load_as_integers():
    h = hypergraph_from_json({"n": 3, "edges": [[False, True, 2]]})
    assert h == Hypergraph(3, ((0, 1, 2),))
    assert all(type(v) is int for e in h.edges for v in e)
