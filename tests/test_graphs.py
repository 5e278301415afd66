"""Core data model: predicates, complements, unions, fractional matchings."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

from mislab import (
    FractionalMatching,
    Graph,
    Hypergraph,
    PartitionedGraph,
    comatching,
    count_k_mis,
    count_transversal_mis,
    disjoint_union,
    hypergraph_count_k_mis,
    has_clique,
    hypergraph_is_maximal_independent,
    is_independent,
    is_maximal_independent,
    partite_complement,
    shadow,
    tight_cycle,
    total_weight,
    validate_fractional_matching,
)
from naive import naive_has_clique, random_graph, random_mixed_hypergraph


def test_graph_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # wrong length
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b10,))  # bit out of range
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_independence_basics():
    k3 = Graph.complete(3)
    assert not is_independent(k3, {0, 1})
    assert is_independent(k3, ())
    assert is_independent(k3, {2})
    cm6 = comatching(6)
    assert is_independent(cm6.graph, {0, 3})  # matched non-edge
    with pytest.raises(ValueError):
        is_independent(k3, {0, 5})


def test_maximality_basics():
    k3 = Graph.complete(3)
    assert is_maximal_independent(k3, {0})
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_maximal_independent(two_k2, {0})
    assert is_maximal_independent(comatching(8).graph, {0, 4})


def test_maximal_implies_independent_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        s = {v for v in range(n) if rng.random() < 0.4}
        if is_maximal_independent(g, s):
            assert is_independent(g, s)


def test_has_clique_examples():
    assert has_clique(Graph.complete(4), 4)
    assert not has_clique(comatching(10).graph, 3)
    assert not has_clique(shadow(tight_cycle(3, 6)), 4)
    with pytest.raises(ValueError):
        has_clique(Graph.empty(3), 0)


def test_has_clique_matches_naive_oracle():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        for t in range(1, n + 2):
            assert has_clique(g, t) == naive_has_clique(g, t), (g.edges(), t)


def test_shadow():
    h = Hypergraph.from_edges(5, [(0, 1, 2)])
    sh = shadow(h)
    assert sh.edges() == [(0, 1), (0, 2), (1, 2)]
    assert shadow(tight_cycle(2, 5)) == Graph.cycle(5)
    # 3-uniform tight 6-cycle flattens to the distance-1-or-2 circulant
    circ = Graph.from_edges(
        6, [(i, (i + 1) % 6) for i in range(6)] + [(i, (i + 2) % 6) for i in range(6)]
    )
    assert shadow(tight_cycle(3, 6)) == circ


def test_partite_complement_comatching_is_matching():
    cm = comatching(6)
    flipped = partite_complement(cm)
    assert flipped.graph.edges() == [(0, 3), (1, 4), (2, 5)]


def test_partite_complement_edgeless_gives_complete_bipartite():
    g = Graph.empty(4)
    pg = PartitionedGraph.from_parts(g, [(0, 1), (2, 3)])
    full = partite_complement(pg)
    assert full.graph.edge_count() == 4
    assert not full.graph.has_edge(0, 1)


def test_partite_complement_is_involution():
    rng = random.Random(5)
    for _ in range(50):
        sizes = [rng.randint(1, 3) for _ in range(3)]
        n = sum(sizes)
        bounds = []
        start = 0
        for s in sizes:
            bounds.append(list(range(start, start + s)))
            start += s
        part_of = {v: i for i, part in enumerate(bounds) for v in part}
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if part_of[u] != part_of[v] and rng.random() < 0.5
        ]
        pg = PartitionedGraph.from_parts(Graph.from_edges(n, edges), bounds)
        assert partite_complement(partite_complement(pg)) == pg


def test_partite_complement_rejects_intra_part_edges():
    pg = PartitionedGraph.from_parts(Graph.complete(2), [(0, 1)])
    with pytest.raises(ValueError):
        partite_complement(pg)


def test_disjoint_union():
    two_k3 = disjoint_union([Graph.complete(3), Graph.complete(3)])
    assert two_k3.n == 6 and two_k3.edge_count() == 6
    assert not two_k3.has_edge(0, 3)
    g = random_graph(random.Random(1), 6, 0.5)
    assert disjoint_union([g]) == g
    mix = disjoint_union([Graph.complete(2), Graph.complete(2), Graph.complete(3)])
    assert mix.n == 7


def test_partitioned_graph_validation():
    g = Graph.empty(3)
    with pytest.raises(ValueError):
        PartitionedGraph.from_parts(g, [(0, 1)])  # does not cover
    with pytest.raises(ValueError):
        PartitionedGraph.from_parts(g, [(0, 1), (1, 2)])  # overlap
    with pytest.raises(ValueError):
        PartitionedGraph.from_parts(g, [(0, 1, 2), ()])  # empty part
    malformed_parts = (5, [5], [[0, "a"], [1, 2]], [["a"], [0, 1, 2]], [[0, 1.0], [2]], [[-1, 0, 1, 2]])
    for malformed in malformed_parts:
        with pytest.raises(ValueError):
            PartitionedGraph.from_parts(g, malformed)


def test_graph_closed_table_matches_definition_and_is_cached():
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.random())
        edges = set(g.edges())
        want = tuple(
            sum(1 << u for u in range(n) if u == v or (min(u, v), max(u, v)) in edges)
            for v in range(n)
        )
        closed = g.closed
        assert closed == want
        for k in range(min(n, 3) + 1):
            count_k_mis(g, k)
        assert g.closed is closed
        fresh = Graph(g.n, g.adj)
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        assert {g: 1}[fresh] == 1
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g) and back.closed == want


def test_hypergraph_rest_masks_match_definition_and_are_cached():
    rng = random.Random(2025)
    for _ in range(120):
        n = rng.randint(0, 10)
        h = random_mixed_hypergraph(rng, n, rng.randint(0, 12))
        want = tuple(
            tuple(sum(1 << u for u in e if u != v) for e in h.edges if v in e)
            for v in range(n)
        )
        rests = h.rest_masks
        assert rests == want
        for k in range(min(n, 3) + 1):
            hypergraph_count_k_mis(h, k)
        assert h.rest_masks is rests
        fresh = Hypergraph(h.n, h.edges)
        assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)
        back = pickle.loads(pickle.dumps(h))
        assert back == h and back.rest_masks == want


def test_part_masks_match_parts_and_are_kept():
    rng = random.Random(2026)
    for _ in range(120):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        vs = list(range(n))
        rng.shuffle(vs)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        parts = [vs[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        pg = PartitionedGraph.from_parts(g, parts)
        masks = pg.part_masks()
        assert masks == tuple(sum(1 << v for v in p) for p in parts)
        count_transversal_mis(pg)
        assert pg.part_masks() is masks
        fresh = PartitionedGraph(Graph(g.n, g.adj), pg.parts)
        assert pg == fresh and hash(pg) == hash(fresh) and repr(pg) == repr(fresh)
        back = pickle.loads(pickle.dumps(pg))
        assert back == pg and back.part_masks() == masks


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, ((0,),))
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Hypergraph(2, ((0, 2),))
    h = Hypergraph.from_edges(4, [(2, 1, 0), (1, 2, 3)])
    assert h.edges[0] == (0, 1, 2)
    assert h.uniform(3)
    assert h.incident_edges(2) == (0, 1)


def test_fractional_matching_loads():
    tc36 = tight_cycle(3, 6)
    half = FractionalMatching.uniform(tc36, Fraction(1, 2))
    assert not validate_fractional_matching(tc36, half)  # load 3/2 per vertex
    tc48 = tight_cycle(4, 8)
    quarter = FractionalMatching.uniform(tc48, Fraction(1, 4))
    assert validate_fractional_matching(tc48, quarter)
    assert total_weight(quarter) == 2
    zero = FractionalMatching.from_weights({})
    assert validate_fractional_matching(tc36, zero)
    assert total_weight(zero) == 0
    with pytest.raises(ValueError):
        validate_fractional_matching(tc36, FractionalMatching.from_weights({99: 1}))
    with pytest.raises(ValueError):
        FractionalMatching.from_weights({0: Fraction(-1, 2)})


def test_uniform_tight_cycle_weighting_always_valid():
    # each vertex of the r-uniform tight k-cycle lies in exactly r edges
    for r in (2, 3, 4, 5):
        for k in range(2 * r, 13):
            h = tight_cycle(r, k)
            w = FractionalMatching.uniform(h, Fraction(1, r))
            assert validate_fractional_matching(h, w)
            assert all(len(h.incident_edges(x)) == r for x in range(k))


def test_star_hypergraph_maximality_definition():
    h = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert hypergraph_is_maximal_independent(h, {0, 1})
    assert not hypergraph_is_maximal_independent(h, {1, 2})
