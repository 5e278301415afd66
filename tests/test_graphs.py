"""Core data model: predicates, complements, unions."""

from __future__ import annotations

import pickle
import random
import sys

import pytest

from mislab import (
    Graph,
    Hypergraph,
    PartitionedGraph,
    comatching,
    count_all_mis,
    count_k_mis,
    count_transversal_mis,
    disjoint_union,
    hypergraph_count_k_mis,
    has_clique,
    is_maximal_independent,
    partite_complement,
    tight_cycle,
    tight_cycle_blowup,
)
from mislab.graphs import _link, _rest_masks
from naive import (
    edges,
    hypergraph_is_maximal_independent,
    is_independent,
    naive_has_clique,
    random_graph,
    random_mixed_hypergraph,
    shadow,
)


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


def test_from_edges_checks_the_vertex_count_before_allocating():
    # A row list of 2**62 entries cannot be allocated, so this passes only
    # when the count is rejected first.
    with pytest.raises(ValueError, match=r"^vertex count 4611686018427387904 outside"):
        Graph.from_edges(2**62, [])


def test_one_sided_adjacency_bit_is_rejected_everywhere():
    # Flip one off-diagonal bit in one row only.  Exactly one pair is then
    # asymmetric, and the error names it with the row that holds the bit last.
    rng = random.Random(41)
    cases = [(g, range(g.n)) for g in (random_graph(rng, n % 9 + 2, rng.random()) for n in range(45))]
    big = tight_cycle_blowup(5, 3, 4).graph
    assert big.n == 80
    cases.append((big, [37]))
    for g, rows in cases:
        for v in rows:
            for u in range(g.n):
                if u == v:
                    continue
                adj = list(g.adj)
                adj[v] ^= 1 << u
                a, b = (u, v) if adj[v] >> u & 1 else (v, u)
                with pytest.raises(ValueError, match=rf"^asymmetric adjacency \({a},{b}\)$"):
                    Graph(g.n, tuple(adj))


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


def complete_multipartite(part_of: list[int]) -> Graph:
    """u ~ v iff the two vertices lie in different parts."""
    n = len(part_of)
    return Graph(n, tuple(sum(1 << u for u in range(n) if part_of[u] != p) for p in part_of))


def test_has_clique_matches_naive_oracle():
    # Complete multipartite graphs are where the coloring bound is tight:
    # the clique number is the number of nonempty parts.
    rng = random.Random(23)
    graphs = [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(150)]
    for _ in range(60):
        n = rng.randint(1, 10)
        graphs.append(complete_multipartite([rng.randrange(rng.randint(1, n)) for _ in range(n)]))
    for g in graphs:
        for t in range(1, g.n + 2):
            assert has_clique(g, t) == naive_has_clique(g, t), (edges(g), t)


def test_has_clique_coloring_bound_node_count_pinned():
    # Each call of the inner recursion is one search-tree node.  The greedy
    # coloring settles a K_5-free complete 4-partite graph at the root; a
    # search without it walks thousands of nodes on that graph.
    def nodes(g, t):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call" and frame.f_code.co_name == "expand":
                count += 1

        sys.setprofile(profile)
        try:
            found = has_clique(g, t)
        finally:
            sys.setprofile(None)
        return found, count

    assert nodes(complete_multipartite([v % 4 for v in range(120)]), 5) == (False, 1)
    assert nodes(tight_cycle_blowup(10, 4, 2).graph, 4) == (False, 9)


def test_shadow():
    h = Hypergraph.from_edges(5, [(0, 1, 2)])
    sh = shadow(h)
    assert edges(sh) == [(0, 1), (0, 2), (1, 2)]
    assert shadow(tight_cycle(2, 5)) == Graph.cycle(5)
    # 3-uniform tight 6-cycle flattens to the distance-1-or-2 circulant
    circ = Graph.from_edges(
        6, [(i, (i + 1) % 6) for i in range(6)] + [(i, (i + 2) % 6) for i in range(6)]
    )
    assert shadow(tight_cycle(3, 6)) == circ


def test_partite_complement_comatching_is_matching():
    cm = comatching(6)
    flipped = partite_complement(cm)
    assert edges(flipped.graph) == [(0, 3), (1, 4), (2, 5)]


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


def test_counted_graph_holds_only_its_fields():
    # Each counting walk builds the tables it reads, so a counted graph stays
    # equal, hash-equal and repr-equal to a fresh one.
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.random())
        counts = [count_k_mis(g, k) for k in range(min(n, 3) + 1)]
        count_all_mis(g)
        assert vars(g).keys() == {"n", "adj"}
        fresh = Graph(g.n, g.adj)
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        assert {g: 1}[fresh] == 1
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert [count_k_mis(back, k) for k in range(min(n, 3) + 1)] == counts


def test_hypergraph_rest_masks_and_link_match_definition():
    rng = random.Random(2025)
    for _ in range(120):
        n = rng.randint(0, 10)
        h = random_mixed_hypergraph(rng, n, rng.randint(0, 12))
        want = [[sum(1 << u for u in e if u != v) for e in h.edges if v in e] for v in range(n)]
        rests = _rest_masks(h)
        assert rests == want
        # The link maps an edge minus one vertex to every vertex completing it.
        edge_sets = {frozenset(e) for e in h.edges}
        link = _link(rests)
        assert link.keys() == {r for rs in want for r in rs}
        for rest, row in link.items():
            inside = {u for u in range(n) if rest >> u & 1}
            outside = [w for w in range(n) if w not in inside]
            assert row == sum(1 << w for w in outside if inside | {w} in edge_sets)
        for k in range(min(n, 3) + 1):
            hypergraph_count_k_mis(h, k)
        assert vars(h).keys() == {"n", "edges"}
        fresh = Hypergraph(h.n, h.edges)
        assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)


def test_counted_objects_pickle_as_fresh_ones():
    # A count stores nothing on the object, so it pickles to a fresh object's
    # bytes and counts the same after the round trip.
    rng = random.Random(2027)
    graphs = [Graph.cycle(12)]
    graphs += [random_graph(rng, rng.randint(1, 12), rng.random()) for _ in range(30)]
    for g in graphs:
        fresh = pickle.dumps(Graph(g.n, g.adj))
        counts = [count_k_mis(g, k) for k in range(g.n + 1)]
        blob = pickle.dumps(g)
        assert blob == fresh
        back = pickle.loads(blob)
        assert back == g and hash(back) == hash(g)
        assert [count_k_mis(back, k) for k in range(g.n + 1)] == counts
    for _ in range(30):
        h = random_mixed_hypergraph(rng, rng.randint(0, 10), rng.randint(0, 12))
        fresh = pickle.dumps(Hypergraph(h.n, h.edges))
        counts = [hypergraph_count_k_mis(h, k) for k in range(min(h.n, 3) + 1)]
        blob = pickle.dumps(h)
        assert blob == fresh
        back = pickle.loads(blob)
        assert back == h and hash(back) == hash(h)
        assert [hypergraph_count_k_mis(back, k) for k in range(min(h.n, 3) + 1)] == counts


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


def test_star_hypergraph_maximality_definition():
    h = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert hypergraph_is_maximal_independent(h, {0, 1})
    assert not hypergraph_is_maximal_independent(h, {1, 2})
