"""MIS counting, enumeration, transversal machinery, and reductions."""

from __future__ import annotations

import random
import sys

import pytest

from mislab import (
    Graph,
    Hypergraph,
    PartitionedGraph,
    check_k5_hypothesis,
    comatching,
    count_all_mis,
    count_k_mis,
    count_transversal_mis,
    disjoint_union,
    enumerate_k_mis,
    gadget,
    greedy_mis_partition,
    hypergraph_count_k_mis,
    hypergraph_enumerate_k_mis,
    hypergraph_is_maximal_independent,
    is_maximal_independent,
    rs_packing,
    star_hypergraph,
    tight_cycle_blowup,
    transversal_mis_list,
    transversal_reduction,
    tripartite_T_bound_check,
    trivial_packing,
    window_hypergraph,
)
from naive import (
    naive_hyper_count_k_mis,
    naive_hyper_is_mis,
    naive_hyper_mis_list,
    naive_mis_list,
    naive_mis_profile,
    naive_transversal_mis_list,
    random_graph,
    random_hypergraph3,
    random_mixed_hypergraph,
    random_triangle_free,
)


def test_fixed_size_counts_on_clique_unions():
    two_k3 = disjoint_union([Graph.complete(3)] * 2)
    assert count_k_mis(two_k3, 2) == 9
    seven = disjoint_union([Graph.complete(2), Graph.complete(2), Graph.complete(3)])
    assert count_k_mis(seven, 3) == 12
    empty5 = Graph.empty(5)
    assert count_k_mis(empty5, 5) == 1
    assert all(count_k_mis(empty5, k) == 0 for k in range(5))


def test_count_all_examples():
    assert count_all_mis(disjoint_union([Graph.complete(3)] * 2)) == 9
    assert count_all_mis(Graph.cycle(4)) == 2
    assert count_all_mis(Graph.from_edges(4, [(0, 1), (2, 3)])) == 4


def test_count_k_edge_cases():
    g = Graph.complete(3)
    assert count_k_mis(g, 0) == 0
    assert count_k_mis(Graph(0, ()), 0) == 1
    with pytest.raises(ValueError):
        count_k_mis(g, 4)


def test_enumerate_visitor_and_limit():
    g = disjoint_union([Graph.complete(3)] * 2)
    seen = []
    enumerate_k_mis(g, 2, seen.append)
    assert len(seen) == 9
    assert all(is_maximal_independent(g, m) for m in seen)
    assert len(set(seen)) == 9
    capped = enumerate_k_mis(g, 2, lambda m: None, limit=4)
    assert capped == 4


def test_enumerate_limit_zero_visits_nothing_and_negative_raises():
    cases = [
        (Graph.empty(0), 0),
        (Graph.empty(1), 1),
        (Graph.empty(2), None),
        (Graph.cycle(5), 2),
        (Graph.complete(3), 1),
        (Graph.complete(3), None),
    ]
    for g, k in cases:
        assert enumerate_k_mis(g, k) >= 1
        seen: list[int] = []
        assert enumerate_k_mis(g, k, seen.append, limit=0) == 0
        assert enumerate_k_mis(g, k, limit=0) == 0
        for limit in (-1, -7):
            with pytest.raises(ValueError):
                enumerate_k_mis(g, k, seen.append, limit=limit)
            with pytest.raises(ValueError):
                enumerate_k_mis(g, k, limit=limit)
        assert seen == []
    with pytest.raises(ValueError):
        enumerate_k_mis(Graph.empty(3), 0, limit=-1)


def test_visit_order_and_limit_match_naive_list():
    # transversal_reduction seeds its partition from the first set visited,
    # so the order is part of the contract, and a limit keeps its prefix.
    rng = random.Random(4242)
    for _ in range(160):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.random())
        every: list[int] = []
        for k in range(n + 1):
            want = naive_mis_list(g, k)
            every += want
            seen: list[int] = []
            assert enumerate_k_mis(g, k, seen.append) == len(want)
            assert seen == want, (g, k)
            for limit in (1, 2, 3):
                seen = []
                got = enumerate_k_mis(g, k, seen.append, limit=limit)
                assert got == len(seen) == min(limit, len(want))
                assert seen == want[:limit]
                assert enumerate_k_mis(g, k, limit=limit) == got
        seen = []
        assert enumerate_k_mis(g, None, seen.append) == len(every)
        assert seen == sorted(every, key=lambda m: [v for v in range(n) if m >> v & 1])


def test_counts_match_naive_oracle():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        want = naive_mis_profile(g)
        got = {k: count_k_mis(g, k) for k in range(n + 1)}
        got = {k: c for k, c in got.items() if c}
        assert got == want
        assert count_all_mis(g) == sum(want.values())


def test_count_invariant_under_relabeling():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        k = rng.randint(0, n)
        assert count_k_mis(g, k) == count_k_mis(h, k)


def test_transversal_counts():
    assert count_transversal_mis(comatching(8)) == 4
    assert count_transversal_mis(gadget(trivial_packing(3, 2))) == 2
    bw = tight_cycle_blowup(5, 3, 2)
    assert count_transversal_mis(bw.pg) >= 32
    # transversal k-MIS's are k-MIS's
    assert count_transversal_mis(bw.pg) <= count_k_mis(bw.graph, 5)


def test_transversal_list_members_are_mis():
    pg = gadget(rs_packing(3))
    for mask in transversal_mis_list(pg):
        assert is_maximal_independent(pg.graph, mask)
        assert all(
            (mask & sum(1 << v for v in part)).bit_count() == 1 for part in pg.parts
        )


def test_transversal_list_order_matches_naive():
    # Parts are filled smallest first, ties in part order, so the list order
    # depends on the partition's order and not only on the graph.  Each part
    # is a clique, so every independent transversal is maximal and the lists
    # are long enough for the order to show.
    rng = random.Random(515)
    for _ in range(150):
        n = rng.randint(1, 11)
        vs = list(range(n))
        rng.shuffle(vs)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 4))))
        parts = [vs[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        part_of = {v: i for i, p in enumerate(parts) for v in p}
        p = rng.random() * 0.5
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if part_of[u] == part_of[v] or rng.random() < p
        ]
        pg = PartitionedGraph.from_parts(Graph.from_edges(n, edges), parts)
        assert transversal_mis_list(pg) == naive_transversal_mis_list(pg), (edges, parts)


def test_greedy_partition_covers_with_independent_classes():
    g = Graph.cycle(5)
    mis = next(iter(m for m in range(32) if bin(m).count("1") == 2 and is_maximal_independent(g, m)))
    parts = greedy_mis_partition(g, mis)
    assert len(parts) == 3
    got = set()
    for p in parts:
        for u in p:
            for v in p:
                if u != v:
                    assert not g.has_edge(u, v)
        got |= p
    assert got == set(range(5))


def test_greedy_partition_trivial_and_errors():
    g = Graph.empty(4)
    parts = greedy_mis_partition(g, {0, 1, 2, 3})
    assert parts[-1] == frozenset(range(4))
    cm = comatching(6)
    parts = greedy_mis_partition(cm.graph, {0, 3})
    assert parts[-1] == frozenset({0, 3})
    assert sum(len(p) for p in parts) == 6
    with pytest.raises(ValueError):
        greedy_mis_partition(Graph.complete(3), {0, 1})
    with pytest.raises(ValueError):
        greedy_mis_partition(Graph.complete(3), {0})  # triangle


def test_transversal_reduction_comatching():
    res = transversal_reduction(comatching(8).graph, 2, retries=20, seed=1)
    assert res.source_m == 4
    assert res.achieved_T == 3
    assert res.bound_met  # 3 * 64 >= 4
    assert len(res.subgraph.parts) == 2
    assert res.composition.count(1) == 2


def test_transversal_reduction_blowup():
    bw = tight_cycle_blowup(5, 3, 2)
    res = transversal_reduction(bw.graph, 5, retries=10, seed=7)
    assert res.source_m == count_k_mis(bw.graph, 5)
    assert res.bound_met
    assert res.achieved_T >= 1


def test_transversal_reduction_no_mis_is_domain_error():
    with pytest.raises(ValueError):
        transversal_reduction(Graph.empty(3), 1, retries=5, seed=0)


def test_k5_hypothesis_checker():
    bw = tight_cycle_blowup(5, 3, 2)
    assert check_k5_hypothesis(bw.pg)
    k5 = PartitionedGraph.from_parts(Graph.complete(5), [(i,) for i in range(5)])
    assert not check_k5_hypothesis(k5)
    edgeless = PartitionedGraph.from_parts(Graph.empty(5), [(i,) for i in range(5)])
    assert check_k5_hypothesis(edgeless)
    with pytest.raises(ValueError):
        check_k5_hypothesis(comatching(6))


def test_tripartite_bound_check():
    # m=2 keeps the trivial-packing gadget triangle-free; larger m does not.
    gm = tripartite_T_bound_check(gadget(trivial_packing(3, 2)))
    assert gm.transversal_count == 2 and gm.holds
    tiny = PartitionedGraph.from_parts(Graph.empty(3), [(0,), (1,), (2,)])
    res = tripartite_T_bound_check(tiny)
    assert res.transversal_count == 1 and res.holds
    with pytest.raises(ValueError):
        tripartite_T_bound_check(
            PartitionedGraph.from_parts(Graph.complete(3), [(0,), (1,), (2,)])
        )


def test_transversal_count_vs_size_on_dense_gadgets():
    # Dense partite-complement gadgets contain triangles, so they go through
    # the raw counter; the transversal count still stays below |V|.
    for m in (3, 4):
        pg = gadget(rs_packing(m))
        assert count_transversal_mis(pg) <= pg.graph.n
    for m in (3, 5):
        pg = gadget(trivial_packing(3, m))
        assert count_transversal_mis(pg) == m <= pg.graph.n


def test_hypergraph_counts():
    assert hypergraph_count_k_mis(star_hypergraph(6), 2) == 5
    assert hypergraph_count_k_mis(window_hypergraph(3, 3, 6), 3) >= 8
    edgeless = Hypergraph(4, ())
    assert hypergraph_count_k_mis(edgeless, 4) == 1
    assert hypergraph_count_k_mis(edgeless, 3) == 0


def test_hypergraph_counts_match_naive_oracle():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(3, 7)
        h = random_hypergraph3(rng, n, rng.random())
        for k in range(n + 1):
            assert hypergraph_count_k_mis(h, k) == naive_hyper_count_k_mis(h, k)


def test_hypergraph_counter_matches_naive_on_mixed_edge_sizes():
    # The naive list is in the order of the plain increasing-vertex walk that
    # checks maximality only at the leaves; the pruned walk must keep it.
    rng = random.Random(2024)
    for _ in range(150):
        h = random_mixed_hypergraph(rng, rng.randint(0, 9), rng.randint(0, 14))
        for k in range(h.n + 1):
            seen: list[int] = []
            assert hypergraph_enumerate_k_mis(h, k, seen.append) == len(seen)
            assert hypergraph_count_k_mis(h, k) == len(seen)
            assert all(hypergraph_is_maximal_independent(h, s) for s in seen)
            assert seen == naive_hyper_mis_list(h, k), (h, k)


def test_hypergraph_maximality_check_matches_naive():
    rng = random.Random(5)
    for _ in range(40):
        h = random_mixed_hypergraph(rng, rng.randint(0, 7), rng.randint(0, 10))
        for mask in range(1 << h.n):
            s = {v for v in range(h.n) if mask >> v & 1}
            assert hypergraph_is_maximal_independent(h, mask) == naive_hyper_is_mis(h, s)


def test_two_uniform_hypergraph_counts_like_its_graph():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        h = Hypergraph.from_edges(g.n, g.edges())
        for k in range(g.n + 1):
            seen_h: list[int] = []
            seen_g: list[int] = []
            hypergraph_enumerate_k_mis(h, k, seen_h.append)
            enumerate_k_mis(g, k, seen_g.append)
            assert seen_h == seen_g and len(seen_h) == count_k_mis(g, k)


def test_window_hypergraph_regression_values():
    assert hypergraph_count_k_mis(window_hypergraph(4, 4, 20), 4) == 625
    assert hypergraph_count_k_mis(window_hypergraph(4, 5, 20), 5) == 1024


def test_counts_match_networkx_clique_enumeration_if_available():
    # MIS's of g are exactly the maximal cliques of the complement; networkx
    # enumerates those with a pivoting algorithm unrelated to this package.
    nx = pytest.importorskip("networkx")
    rng = random.Random(271828)
    for _ in range(60):
        n = rng.randint(1, 13)
        g = random_graph(rng, n, rng.random())
        comp = nx.Graph()
        comp.add_nodes_from(range(n))
        comp.add_edges_from(
            (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
        )
        by_size: dict[int, int] = {}
        for clique in nx.find_cliques(comp):
            by_size[len(clique)] = by_size.get(len(clique), 0) + 1
        assert count_all_mis(g) == sum(by_size.values())
        for k in range(n + 1):
            assert count_k_mis(g, k) == by_size.get(k, 0)


@pytest.mark.parametrize("k,want", [(8, 1120), (9, 2816), (10, 6688)])
def test_k4_free_cycle_blowup_counts_pinned(k, want):
    # The deepest searches in the suite, where the parent-side cuts fire most;
    # networkx's maximal cliques of the complement check the pinned values.
    g = tight_cycle_blowup(k, 4, 2).graph
    assert count_k_mis(g, k) == want
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    comp = nx.complement(h)
    assert sum(len(c) == k for c in nx.find_cliques(comp)) == want


def test_k_mis_walk_node_count_pinned():
    # Each call of the inner recursion is one search-tree node.  The cuts in
    # the parent decide which children are called at all, so dropping the
    # count cut or the skip cut, which cannot change a count, raises this.
    g = tight_cycle_blowup(8, 4, 2).graph
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "rec":
            nodes += 1

    sys.setprofile(profile)
    try:
        count = count_k_mis(g, 8)
    finally:
        sys.setprofile(None)
    assert (count, nodes) == (1120, 8555)


def test_cycle_blowup_counts_clear_family_floor():
    for k in (4, 5, 6):
        for m in (2, 3):
            bw = tight_cycle_blowup(k, 3, m)
            assert count_k_mis(bw.graph, k) >= m**k, (k, m)


def test_sum_over_k_equals_all_on_triangle_free():
    rng = random.Random(31)
    for _ in range(40):
        g = random_triangle_free(rng, rng.randint(2, 12), 0.4)
        assert sum(count_k_mis(g, k) for k in range(g.n + 1)) == count_all_mis(g)
