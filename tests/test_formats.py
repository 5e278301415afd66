"""graph6 byte-exactness and JSON round trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mislab import (
    FractionalMatching,
    Graph,
    Hypergraph,
    graph6_decode,
    graph6_encode,
    hypergraph_from_json,
    hypergraph_to_json,
    matching_from_json,
    matching_to_json,
    tight_cycle,
)
from oracles import random_graph


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
        other.add_edges_from(g.edges())
        assert graph6_encode(g) == nx.to_graph6_bytes(other, header=False).strip()


def test_round_trip_random():
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(0, 20)
        g = random_graph(rng, n, rng.random())
        assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_boundary():
    rng = random.Random(3)
    g = random_graph(rng, 62, 0.3)
    assert graph6_decode(graph6_encode(g)) == g
    with pytest.raises(ValueError):
        graph6_encode(random_graph(rng, 63, 0.1))


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


def test_decode_fuzz_never_crashes_outside_value_error():
    rng = random.Random(1234)
    for _ in range(500):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12)))
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


def test_matching_json_round_trip():
    m = FractionalMatching.from_weights({0: Fraction(1, 3), 2: 1})
    obj = matching_to_json(m)
    assert obj == {
        "weights": [
            {"edge": 0, "num": 1, "den": 3},
            {"edge": 2, "num": 1, "den": 1},
        ]
    }
    assert matching_from_json(obj) == m
    with pytest.raises(ValueError):
        matching_from_json({"weights": [{"edge": 0, "num": 1, "den": 0}]})
