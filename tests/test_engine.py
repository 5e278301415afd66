"""MIS counting, enumeration, transversal machinery, and reductions."""

from __future__ import annotations

import os
import random
import sys
from dataclasses import replace
from itertools import combinations

import pytest

from mislab import (
    BlowupSpec,
    Graph,
    Hypergraph,
    PartitionedGraph,
    blowup,
    comatching,
    count_all_mis,
    count_k_mis,
    count_transversal_mis,
    disjoint_gadget_union,
    disjoint_union,
    engine,
    enumerate_k_mis,
    gadget,
    greedy_mis_partition,
    has_clique,
    hypergraph_count_k_mis,
    hypergraph_enumerate_k_mis,
    is_maximal_independent,
    rs_packing,
    star_hypergraph,
    tight_cycle,
    tight_cycle_blowup,
    transversal_mis_list,
    transversal_reduction,
    trivial_packing,
    window_hypergraph,
)
from naive import (
    _naive_profile,
    _reference_profiles,
    c_calls,
    counting_links,
    edges,
    hypergraph_is_maximal_independent,
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
    rec_calls,
    reference_split_classes,
    reference_transversal_reduction,
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


def test_visit_order_and_limit_match_naive_list():
    # transversal_reduction seeds its partition from the first set visited,
    # so the order is part of the contract.
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


def test_memoised_profile_counts_match_naive_in_every_order():
    # A second size asked of one graph fills a one-graph memo with every
    # size's count, and later sizes and count_all_mis read it; alternating
    # two graphs replaces the memo on every call both are asked.
    rng = random.Random(606)
    graphs = [random_graph(rng, n, rng.random()) for n in range(13) for _ in range(6)]
    for g, other in zip(graphs, graphs[1:] + graphs[:1]):
        want = [naive_mis_profile(g).get(k, 0) for k in range(g.n + 1)]
        assert [count_k_mis(g, k) for k in range(g.n + 1)] == want
        assert count_all_mis(g) == sum(want)
        fresh = Graph(g.n, g.adj)
        assert [count_k_mis(fresh, k) for k in reversed(range(g.n + 1))] == want[::-1]
        assert count_all_mis(fresh) == sum(want)
        want_other = [naive_mis_profile(other).get(k, 0) for k in range(other.n + 1)]
        for k in range(max(g.n, other.n) + 1):
            if k <= g.n:
                assert count_k_mis(g, k) == want[k]
            if k <= other.n:
                assert count_k_mis(other, k) == want_other[k]
        assert count_all_mis(g) == sum(want)


def _count_walks(monkeypatch) -> list:
    # The counters look their walkers and the lattice kernel up by module
    # attribute, so wrapping them there records every walk they take, as
    # (object, k), and every kernel call, as (object, "lattice").
    walks = []
    for name in ("enumerate_k_mis", "hypergraph_enumerate_k_mis"):

        def counted(x, k, visitor=None, walk=getattr(engine, name)):
            walks.append((x, k))
            return walk(x, k, visitor)

        monkeypatch.setattr(engine, name, counted)
    kernel = engine._lattice_profile

    def counted_kernel(x):
        walks.append((x, "lattice"))
        return kernel(x)

    monkeypatch.setattr(engine, "_lattice_profile", counted_kernel)
    return walks


def test_memo_is_keyed_by_identity_and_keeps_the_range_check(monkeypatch):
    walks = _count_walks(monkeypatch)
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    want = naive_mis_profile(g)
    assert count_k_mis(g, 3) == want.get(3, 0)
    assert count_k_mis(g, 2) == want.get(2, 0)
    assert walks == [(g, 3), (g, "lattice")]
    # Reading the memo before the range check would return a count or an IndexError.
    for k in (-1, g.n + 1):
        with pytest.raises(ValueError, match=f"k={k} outside 0..6"):
            count_k_mis(g, k)
    twin = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    assert twin == g and twin is not g
    walks.clear()
    assert count_k_mis(twin, 3) == want.get(3, 0)
    assert count_k_mis(twin, 4) == want.get(4, 0)
    assert count_all_mis(g) == sum(want.values())
    assert [(h is twin, k) for h, k in walks] == [(True, 3), (True, "lattice"), (False, None)]
    # Above the lattice cap the second size runs the tallying walk.
    monkeypatch.setattr(engine, "_LATTICE_MAX_N", -1)
    walks.clear()
    assert count_k_mis(twin, 3) == want.get(3, 0)
    assert count_k_mis(twin, 2) == want.get(2, 0)
    assert count_k_mis(twin, 4) == want.get(4, 0)
    assert walks == [(twin, 3), (twin, None)]


def test_profile_walk_runs_only_when_a_second_size_is_asked(monkeypatch):
    walks = _count_walks(monkeypatch)
    big = tight_cycle_blowup(10, 4, 2).graph
    assert count_k_mis(big, 10) == 6688
    assert count_k_mis(big, 10) == 6688
    assert [k for _, k in walks] == [10, 10]
    # A perfect matching on 40 vertices has 2^20 MIS's, none of size 6.
    walks.clear()
    matching = Graph.from_edges(40, [(2 * i, 2 * i + 1) for i in range(20)])
    assert count_k_mis(matching, 6) == 0
    assert [k for _, k in walks] == [6]
    walks.clear()
    g = Graph.cycle(9)
    want = [naive_mis_profile(g).get(k, 0) for k in range(g.n + 1)]
    assert [count_k_mis(g, k) for k in range(g.n + 1)] == want
    assert count_all_mis(g) == sum(want)
    assert [k for _, k in walks] == [0, "lattice"]
    walks.clear()
    g = Graph.cycle(9)
    assert count_all_mis(g) == sum(want)
    assert [count_k_mis(g, k) for k in range(1, g.n + 1)] == want[1:]
    assert count_all_mis(g) == sum(want)
    assert [k for _, k in walks] == [None, "lattice"]
    # Above the lattice cap the profile comes from the tallying walk.
    monkeypatch.setattr(engine, "_LATTICE_MAX_N", -1)
    walks.clear()
    g = Graph.cycle(9)
    assert [count_k_mis(g, k) for k in range(g.n + 1)] == want
    assert count_all_mis(g) == sum(want)
    assert [k for _, k in walks] == [0, None]


def test_every_size_after_one_size_runs_the_counting_walk():
    # A tallying walk has a visitor and so no walk memo: it would visit all
    # 2^20 sets of this matching one node at a time and trip rec_calls.
    matching = Graph.from_edges(40, [(2 * i, 2 * i + 1) for i in range(20)])
    assert count_k_mis(matching, 6) == 0
    assert rec_calls(lambda: count_all_mis(matching)) == (2**20, 20)
    assert rec_calls(lambda: count_all_mis(matching)) == (2**20, 20)
    assert count_k_mis(matching, 20) == 2**20
    g = Graph.cycle(9)
    want = naive_mis_profile(g)
    assert count_k_mis(g, 3) == want[3] and count_all_mis(g) == sum(want.values())
    assert [count_k_mis(g, k) for k in range(g.n + 1)] == [want.get(k, 0) for k in range(g.n + 1)]


def test_lattice_profile_matches_every_labelled_graph_and_3graph_to_n5():
    # Each labelled graph goes in both as a Graph and as a 2-uniform
    # Hypergraph, which take the kernel's two edge paths.
    for r in (2, 3):
        for n in range(6):
            for edges, want in _reference_profiles(n, r):
                h = Hypergraph.from_edges(n, edges)
                assert engine._lattice_profile(h) == want, (n, edges)
                if r == 2:
                    assert engine._lattice_profile(Graph.from_edges(n, edges)) == want, (n, edges)


def test_lattice_profile_matches_naive_on_random_inputs_up_to_the_cap():
    rng = random.Random(1331)
    for n in range(engine._LATTICE_MAX_N + 1):
        for _ in range(3):
            g = random_graph(rng, n, rng.random())
            want = naive_mis_profile(g)
            assert engine._lattice_profile(g) == tuple(want.get(k, 0) for k in range(n + 1)), g
            h = random_mixed_hypergraph(rng, n, rng.randint(0, 3 * n))
            assert engine._lattice_profile(h) == _naive_profile(n, h.edges), h


def test_lattice_profile_edge_cases():
    assert engine._lattice_profile(Graph(0, ())) == (1,)
    assert engine._lattice_profile(Hypergraph(0, ())) == (1,)
    assert engine._lattice_profile(Graph.empty(1)) == (0, 1)
    assert engine._lattice_profile(Hypergraph(1, ())) == (0, 1)
    cap = engine._LATTICE_MAX_N
    for n in (2, 5, cap):
        assert engine._lattice_profile(Graph.empty(n)) == (0,) * n + (1,)
        assert engine._lattice_profile(Hypergraph(n, ())) == (0,) * n + (1,)
        assert engine._lattice_profile(Graph.complete(n)) == (0, n) + (0,) * (n - 1)
    # The complete 3-graph: every pair is maximal, and no other set.
    k5 = Hypergraph.from_edges(5, combinations(range(5), 3))
    assert engine._lattice_profile(k5) == (0, 0, 10, 0, 0, 0)


def test_the_cap_is_the_last_size_counted_on_the_lattice(monkeypatch):
    # At the cap a second size is counted on the lattice, one vertex above it
    # by the tallying walk; forcing the other path gives the same counts.
    walks = _count_walks(monkeypatch)
    cap = engine._LATTICE_MAX_N
    rng = random.Random(1213)
    for n in (cap, cap + 1):
        pairs = (
            (random_graph(rng, n, 0.3), count_k_mis),
            (random_hypergraph3(rng, n, 0.1), hypergraph_count_k_mis),
        )
        for x, count in pairs:
            profiles = []
            for limit in (cap, -1 if n <= cap else n):
                monkeypatch.setattr(engine, "_LATTICE_MAX_N", limit)
                y = replace(x)  # a fresh object, so the memo does not answer
                walks.clear()
                profiles.append([count(y, k) for k in range(n + 1)])
                assert walks == [(y, 0), (y, "lattice" if n <= limit else None)], (n, limit)
            assert profiles[0] == profiles[1] and sum(profiles[0]) > 1, x


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
    # Cases whose best split is not the first one drawn.
    pinned = {(5, 3, 3): (26, 243, 12), (6, 3, 3): (48, 729, 16), (7, 3, 3): (80, 2187, 13)}
    for (k, t, m), want in pinned.items():
        res = transversal_reduction(tight_cycle_blowup(k, t, m).graph, k, retries=100, seed=7)
        assert (res.achieved_T, res.source_m, res.retries_used) == want, (k, t, m)


def test_transversal_reduction_matches_the_reference():
    # The reference scores every split with the naive transversal list and
    # never stops early, so an early stop that drops a better split shows.
    rng = random.Random(2024)
    cases = 0
    for _ in range(200):
        n = rng.randint(4, 12)
        g = random_triangle_free(rng, n, rng.random())
        for k in range(1, n + 1):
            mis = naive_mis_list(g, k)
            if not mis:
                continue
            for retries in (1, 7, 100):
                seed = rng.randrange(10**6)
                want = reference_transversal_reduction(g, k, retries, seed, mis)
                assert transversal_reduction(g, k, retries, seed) == want, (g, k, retries, seed)
                cases += 1
    assert cases > 1000
    # The naive k-MIS list is out of reach at 45 vertices; the counter's list
    # is checked against it, visit order included, on small graphs above.
    for k, t, m in [(5, 3, 2), (7, 3, 2), (5, 3, 3)]:
        g = tight_cycle_blowup(k, t, m).graph
        mis: list[int] = []
        enumerate_k_mis(g, k, mis.append)
        want = reference_transversal_reduction(g, k, 100, 7, mis)
        assert transversal_reduction(g, k, retries=100, seed=7) == want, (k, t, m)


def test_transversal_reduction_draws_splits_until_one_keeps_the_whole_list(monkeypatch):
    draws = []
    split = engine._random_split

    def counted(vs, blocks, rng):
        draws.append(blocks)
        return split(vs, blocks, rng)

    monkeypatch.setattr(engine, "_random_split", counted)
    rng = random.Random(77)
    cases = [(tight_cycle_blowup(5, 3, 3).graph, 5, 100, 7)]
    for _ in range(80):
        n = rng.randint(4, 12)
        g = random_triangle_free(rng, n, rng.random())
        cases += [(g, k, r, rng.randrange(10**6)) for k in range(1, n + 1) for r in (1, 7, 100)]
    stopped = ran_out = 0
    for g, k, retries, seed in cases:
        mis: list[int] = []
        enumerate_k_mis(g, k, mis.append)
        if not mis:
            continue
        draws.clear()
        res = transversal_reduction(g, k, retries, seed)
        _, sub, kept, profile = reference_split_classes(g, mis)
        counts = [c for c in profile if c]
        # Splits are drawn one class at a time, so every attempt draws len(kept) times.
        assert len(draws) % len(kept) == 0
        attempts = len(draws) // len(kept)
        full = [
            s for s in naive_mis_list(sub, k)
            if all(sum(s >> v & 1 for v in cls) == c for cls, c in zip(kept, counts))
        ]
        assert res.achieved_T <= len(full)
        if res.achieved_T == len(full):
            assert attempts == res.retries_used
            stopped += retries > res.retries_used
        else:
            assert attempts == retries
            ran_out += retries > 1
    assert stopped and ran_out


def test_transversal_reduction_retries_must_be_a_positive_int():
    g = comatching(6).graph
    for retries in (0, -1, 2.5, 1.0, True, False, "3", None):
        with pytest.raises(ValueError, match="retries"):
            transversal_reduction(g, 2, retries=retries, seed=0)
    assert transversal_reduction(g, 2, retries=1, seed=0).retries_used == 1


def test_transversal_reduction_no_mis_is_domain_error():
    with pytest.raises(ValueError):
        transversal_reduction(Graph.empty(3), 1, retries=5, seed=0)


def test_tripartite_bound_check():
    # m=2 keeps the trivial-packing gadget triangle-free; larger m does not.
    gm = gadget(trivial_packing(3, 2))
    assert not has_clique(gm.graph, 3)
    assert count_transversal_mis(gm) == 2 <= gm.graph.n
    tiny = PartitionedGraph.from_parts(Graph.empty(3), [(0,), (1,), (2,)])
    assert count_transversal_mis(tiny) == 1 <= tiny.graph.n


def _three_colourings(g: Graph):
    """Every proper colouring of g with exactly colours 0, 1, 2, each used,
    up to renaming the colours: colour c first appears after colour c - 1."""
    colour = [0] * g.n

    def place(v: int, used: int):
        if v == g.n:
            if used == 3:
                yield tuple(colour)
            return
        for c in range(min(used + 1, 3)):
            if all(colour[u] != c for u in range(v) if g.adj[v] >> u & 1):
                colour[v] = c
                yield from place(v + 1, max(used, c + 1))

    yield from place(0, 0)


def test_tripartite_transversal_bound_on_every_small_graph():
    # T <= |V| for every triangle-free graph on 3..7 vertices under every
    # 3-partition into independent parts; the naive list agrees up to n = 6.
    nx = pytest.importorskip("networkx")
    best: dict[int, int] = {}
    partitions = checked = 0
    for other in nx.graph_atlas_g():
        n = other.number_of_nodes()
        if not 3 <= n <= 7:
            continue
        g = Graph.from_edges(n, other.edges())
        if has_clique(g, 3):
            continue
        for colour in _three_colourings(g):
            parts = [[v for v in range(n) if colour[v] == c] for c in range(3)]
            pg = PartitionedGraph.from_parts(g, parts)
            T = count_transversal_mis(pg)
            assert T <= n, (edges(g), colour)
            if n <= 6:
                assert T == len(naive_transversal_mis_list(pg)), (edges(g), colour)
                checked += 1
            best[n] = max(best.get(n, 0), T)
            partitions += 1
    assert (partitions, checked) == (5065, 972)
    assert best == {3: 1, 4: 1, 5: 2, 6: 2, 7: 3}


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


def test_hypergraph_counter_matches_naive_on_mixed_edge_sizes(monkeypatch):
    # The naive list is in the order of the plain increasing-vertex walk that
    # checks maximality only at the leaves; the pruned walk must keep it.
    # The counter finds a pick's partners by a walk over the chosen subsets
    # of size <= top (largest edge less 2) when their count at the last pick
    # is at most the longest rest list, else by scanning edge rests; only the
    # walk reads the link table.  Of the (h, k >= 2) pairs, seed 2024's edges
    # of 2..4 vertices walk at 261 and scan at 260; seed 2025's 40
    # hypergraphs with edges of up to 7 vertices walk at 74 and scan at 188,
    # and its 20 dense 3-graphs walk at all 140.
    rng = random.Random(2024)
    family = [
        random_mixed_hypergraph(rng, rng.randint(0, 9), rng.randint(0, 14)) for _ in range(150)
    ]
    rng = random.Random(2025)
    family += [
        random_mixed_hypergraph(rng, rng.randint(5, 10), rng.randint(1, 10), largest=7)
        for _ in range(40)
    ]
    dense = [
        random_hypergraph3(rng, rng.randint(6, 10), 0.5 + rng.random() / 2) for _ in range(20)
    ]
    links = counting_links(monkeypatch.setattr)
    sides = {True: 0, False: 0}
    for h in family + dense:
        for k in range(h.n + 1):
            links.clear()
            seen: list[int] = []
            assert hypergraph_enumerate_k_mis(h, k, seen.append) == len(seen)
            reads = sum(link.reads for link in links)
            if k >= 2:
                sides[reads > 0] += 1
                assert reads > 0 or h not in dense, (h, k)
            assert hypergraph_count_k_mis(h, k) == len(seen)
            assert all(hypergraph_is_maximal_independent(h, s) for s in seen)
            assert seen == naive_hyper_mis_list(h, k), (h, k)
    assert sides[True] >= 200 and sides[False] >= 150, sides


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
        h = Hypergraph.from_edges(g.n, edges(g))
        for k in range(g.n + 1):
            seen_h: list[int] = []
            seen_g: list[int] = []
            hypergraph_enumerate_k_mis(h, k, seen_h.append)
            enumerate_k_mis(g, k, seen_g.append)
            assert seen_h == seen_g and len(seen_h) == count_k_mis(g, k)
        seen_h, seen_g = [], []
        hypergraph_enumerate_k_mis(h, None, seen_h.append)
        enumerate_k_mis(g, None, seen_g.append)
        assert seen_h == seen_g and len(seen_h) == count_all_mis(g)


def test_window_hypergraph_regression_values(monkeypatch):
    links = counting_links(monkeypatch.setattr)
    assert hypergraph_count_k_mis(window_hypergraph(4, 4, 20), 4) == 625
    assert hypergraph_count_k_mis(window_hypergraph(4, 5, 20), 5) == 1024
    # Both counts take the link walk, each building its table once.
    assert len(links) == 2 and all(link.reads > 0 for link in links)


def test_wide_edges_take_the_rest_scan():
    # Six edges of 8..12 vertices and four 2-edges on 22 vertices: at k=20 a
    # walk over the chosen subsets would carry 169,765 to 354,521 of them to
    # the last pick, against at most 10 edges per vertex, so the counter must
    # scan edge rests here and never build the link table.  That counts the
    # family in under a second; a walk shows as a timeout.  The total was
    # taken before the walk existed.
    import subprocess

    import mislab

    code = (
        "import random\n"
        "from mislab import Hypergraph, hypergraph_count_k_mis\n"
        "from naive import counting_links\n"
        "links = counting_links(setattr)\n"
        "total = 0\n"
        "for seed in range(20):\n"
        "    rng = random.Random(seed)\n"
        "    edges = set()\n"
        "    while len(edges) < 6:\n"
        "        edges.add(tuple(sorted(rng.sample(range(22), rng.randint(8, 12)))))\n"
        "    while len(edges) < 10:\n"
        "        edges.add(tuple(sorted(rng.sample(range(22), 2))))\n"
        "    h = Hypergraph(22, tuple(sorted(edges)))\n"
        "    total += sum(hypergraph_count_k_mis(h, k) for k in range(14, 21))\n"
        "print(total, len(links))\n"
    )
    src = os.path.dirname(os.path.dirname(mislab.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1184", "0"]


def _hyper_family(seed: int) -> list[Hypergraph]:
    rng = random.Random(seed)
    family = []
    for n in range(12):
        family += [random_hypergraph3(rng, n, rng.random()) for _ in range(3)]
        family += [random_mixed_hypergraph(rng, n, rng.randint(0, 16)) for _ in range(3)]
    return family


def test_hypergraph_every_size_walk_visits_in_order_on_both_updates(monkeypatch):
    # k=None visits every MIS in lexicographic order of its sorted vertices.
    # A patched comb forces each partner update: a guard sum of 0 takes the
    # link walk, a huge one the scan.  Without edges of 3 or more vertices
    # the guard sums no terms, so such an h always takes the link walk.
    links = counting_links(monkeypatch.setattr)
    for h in _hyper_family(808):
        every: list[int] = []
        for k in range(h.n + 1):
            every += naive_hyper_mis_list(h, k)
        want = sorted(every, key=lambda m: [v for v in range(h.n) if m >> v & 1])
        seen: list[int] = []
        assert hypergraph_enumerate_k_mis(h, None, seen.append) == len(want)
        assert seen == want, h
        wide = any(len(e) > 2 for e in h.edges)
        for term, walks in ((0, True), (10**9, not wide)):
            links.clear()
            with monkeypatch.context() as patch:
                patch.setattr(engine, "comb", lambda n, j: term)
                seen = []
                assert hypergraph_enumerate_k_mis(h, None, seen.append) == len(want)
            assert seen == want, (h, walks)
            assert any(link.reads for link in links) == walks or h.n < 2, (h, walks)


def test_hypergraph_memoised_profile_counts_match_naive_in_every_order():
    # The hypergraph counter shares the graph counters' one-entry memo: a
    # second size asked of one object fills it from one all-sizes walk.
    family = _hyper_family(909)
    g = Graph.cycle(7)
    want_g = [naive_mis_profile(g).get(k, 0) for k in range(g.n + 1)]
    for h, other in zip(family, family[1:] + family[:1]):
        want = [naive_hyper_count_k_mis(h, k) for k in range(h.n + 1)]
        assert [hypergraph_count_k_mis(h, k) for k in range(h.n + 1)] == want
        fresh = Hypergraph(h.n, h.edges)
        assert [hypergraph_count_k_mis(fresh, k) for k in reversed(range(h.n + 1))] == want[::-1]
        want_other = [naive_hyper_count_k_mis(other, k) for k in range(other.n + 1)]
        for k in range(max(h.n, other.n) + 1):
            if k <= h.n:
                assert hypergraph_count_k_mis(h, k) == want[k]
            if k <= other.n:
                assert hypergraph_count_k_mis(other, k) == want_other[k]
            # A graph asked in between replaces the memo as well.
            assert count_k_mis(g, k % 8) == want_g[k % 8]


def test_hypergraph_memo_is_keyed_by_identity_and_keeps_the_range_check(monkeypatch):
    walks = _count_walks(monkeypatch)
    h = Hypergraph.from_edges(6, [(0, 1, 2), (2, 3, 4), (1, 4, 5), (0, 5)])
    want = [naive_hyper_count_k_mis(h, k) for k in range(h.n + 1)]
    assert hypergraph_count_k_mis(h, 3) == want[3]
    assert hypergraph_count_k_mis(h, 2) == want[2]
    assert walks == [(h, 3), (h, "lattice")]
    # Reading the memo before the range check would return a count or an IndexError.
    for k in (-1, h.n + 1):
        with pytest.raises(ValueError, match=f"k={k} outside 0..6"):
            hypergraph_count_k_mis(h, k)
    twin = Hypergraph.from_edges(6, [(0, 1, 2), (2, 3, 4), (1, 4, 5), (0, 5)])
    assert twin == h and twin is not h
    walks.clear()
    assert [hypergraph_count_k_mis(twin, k) for k in range(h.n + 1)] == want
    assert hypergraph_count_k_mis(h, 4) == want[4]
    assert [(x is twin, k) for x, k in walks] == [(True, 0), (True, "lattice"), (False, 4)]
    # Above the lattice cap the second size runs the tallying walk.
    monkeypatch.setattr(engine, "_LATTICE_MAX_N", -1)
    walks.clear()
    assert [hypergraph_count_k_mis(twin, k) for k in range(h.n + 1)] == want
    assert walks == [(twin, 0), (twin, None)]


def test_hypergraph_profile_walk_runs_only_when_a_second_size_is_asked(monkeypatch):
    walks = _count_walks(monkeypatch)
    h = window_hypergraph(4, 5, 20)
    assert hypergraph_count_k_mis(h, 5) == 1024
    assert hypergraph_count_k_mis(h, 5) == 1024
    assert [k for _, k in walks] == [5, 5]


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
    # The visitor walk must visit them in lexicographic order of their sorted
    # vertices, wherever its candidate loop stops early: transversal_reduction
    # seeds its partition from the first set visited.
    g = tight_cycle_blowup(k, 4, 2).graph
    assert count_k_mis(g, k) == want
    seen: list[int] = []
    enumerate_k_mis(g, k, seen.append)
    nx = pytest.importorskip("networkx")
    h = nx.Graph(edges(g))
    h.add_nodes_from(range(g.n))
    comp = nx.complement(h)
    cliques = sorted(tuple(sorted(c)) for c in nx.find_cliques(comp) if len(c) == k)
    assert len(cliques) == want
    assert [tuple(v for v in range(g.n) if s >> v & 1) for s in seen] == cliques


def test_k_mis_walk_node_count_pinned():
    # The cuts in the parent decide which children are called at all, so
    # dropping the count cut or the skip cut, which cannot change a count,
    # raises the visitor walk's node count.  A counting walk also reads a
    # state it has counted before from its memo, so losing the memo raises
    # the second count.
    g = tight_cycle_blowup(8, 4, 2).graph
    seen: list[int] = []
    assert rec_calls(lambda: enumerate_k_mis(g, 8, seen.append)) == (1120, 8555)
    assert rec_calls(lambda: count_k_mis(g, 8)) == (1120, 2532)
    # Once a vertex passed over and left undominated has no neighbor among
    # the candidates after the current first pick, no later first pick can
    # dominate it and the candidate loop ends.  That drops only iterations
    # whose children the skip cut rejects: the nodes and the memo's lookups
    # above stay, and only int.bit_count, called in every iteration that
    # reaches the count cut, shows the stop.
    _, builtins = c_calls(lambda: enumerate_k_mis(g, 8, seen.append))
    assert builtins["int.bit_count"] == 35342
    _, builtins = c_calls(lambda: count_k_mis(g, 8))
    assert builtins["int.bit_count"] == 12774
    assert builtins["_WalkMemo.get"] == 2614
    # Without a size target the count cuts are skipped, and the skip cut and
    # the memo still trim both walks.
    g = tight_cycle_blowup(6, 3, 2).graph
    assert rec_calls(lambda: enumerate_k_mis(g, None, lambda s: None)) == (273, 903)
    assert rec_calls(lambda: enumerate_k_mis(g, None)) == (273, 158)


# The tight blowups and disjoint gadget unions that perfbench's blowups
# workload counts at their own k.
BLOWUP_COUNTS = [
    (tight_cycle_blowup, 10, 4, 2), (tight_cycle_blowup, 9, 4, 2),
    (tight_cycle_blowup, 6, 3, 4), (tight_cycle_blowup, 8, 4, 2),
    (tight_cycle_blowup, 7, 3, 3), (tight_cycle_blowup, 5, 3, 4),
    (tight_cycle_blowup, 5, 3, 3), (tight_cycle_blowup, 7, 3, 2),
    (tight_cycle_blowup, 6, 3, 2), (tight_cycle_blowup, 5, 3, 2),
    (disjoint_gadget_union, 9, 4, 3), (disjoint_gadget_union, 12, 5, 2),
    (disjoint_gadget_union, 6, 3, 4),
]


@pytest.mark.parametrize("cap", [None, 1, 3])
def test_counting_walk_memo_matches_the_visitor_walk_and_naive(monkeypatch, cap):
    # The walk memo serves only walks without a visitor.  A budget of 1 or 3
    # bytes fills it at its first store and drops it in mid-walk, which must
    # not change a count.
    if cap is not None:
        monkeypatch.setattr(engine, "_WALK_MEMO_BYTES", cap)
    rng = random.Random(7070)
    for _ in range(40):
        n = rng.randint(0, 16)
        g = random_graph(rng, n, rng.random())
        want = naive_mis_profile(g)
        for k in [*range(n + 1), None]:
            seen: list[int] = []
            enumerate_k_mis(g, k, seen.append)
            expect = sum(want.values()) if k is None else want.get(k, 0)
            assert enumerate_k_mis(g, k) == len(seen) == expect, (g, k)
    for build, k, t, m in BLOWUP_COUNTS:
        obj = build(k, t, m)
        g = getattr(obj, "graph", obj)
        for size in (k, None) if g.n <= 40 else (k,):
            seen = []
            enumerate_k_mis(g, size, seen.append)
            assert enumerate_k_mis(g, size) == len(seen), (build.__name__, k, t, m, size)


def test_counts_in_the_extremal_regime_read_repeated_states():
    # Disjoint unions of identical pieces have counts far beyond any walk
    # that visits sets one by one; their repeated states make them cheap.
    union = disjoint_gadget_union(30, 3, 4)
    assert rec_calls(lambda: count_k_mis(union, 30))[0] == 4**15
    union = disjoint_gadget_union(30, 3, 4)
    assert rec_calls(lambda: count_all_mis(union))[0] == 6**15
    matching = Graph.from_edges(120, [(2 * i, 2 * i + 1) for i in range(60)])
    assert rec_calls(lambda: count_all_mis(matching))[0] == 2**60


def _complete_multipartite(sizes: list[int], rng: random.Random) -> Graph:
    # Shuffled labels, so that twins are not consecutive in the walk's order.
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return Graph.from_edges(len(part), [
        (label[u], label[v]) for u in range(len(part)) for v in range(u) if part[u] != part[v]
    ])


@pytest.mark.parametrize("cap", [None, 1, 3, 32000])
def test_residual_key_counts_match_naive_where_skipped_vertices_are_twins(monkeypatch, cap):
    # The walk memo keys a state by its candidates, the picks left and the
    # set of masks adj[u] & rest of the vertices u passed over and still
    # undominated.  Twins give equal masks, so these graphs merge the most
    # states.  A budget of 1 or 3 bytes drops the memo at its first store;
    # one of 32000 fills it again and again.
    if cap is not None:
        monkeypatch.setattr(engine, "_WALK_MEMO_BYTES", cap)
    rng = random.Random(2525)
    sizes = [[1, 6], [3, 4], [5, 5], [2, 11], [6, 7], [2, 3, 4], [1, 1, 5, 6]]
    graphs = [_complete_multipartite(s, rng) for s in sizes]
    graphs += [gadget(rs_packing(2)).graph, disjoint_gadget_union(4, 3, 2)]
    for g in graphs:
        assert g.n <= 14
        want = naive_mis_profile(g)
        for k in [*range(g.n + 1), None]:
            seen: list[int] = []
            enumerate_k_mis(g, k, seen.append)
            expect = sum(want.values()) if k is None else want.get(k, 0)
            assert enumerate_k_mis(g, k) == len(seen) == expect, (g, k)
    if cap == 32000:
        for build, k, t, m in BLOWUP_COUNTS:
            obj = build(k, t, m)
            g = getattr(obj, "graph", obj)
            seen = []
            enumerate_k_mis(g, k, seen.append)
            assert enumerate_k_mis(g, k) == len(seen), (build.__name__, k, t, m)


def test_a_memo_that_seldom_hits_is_dropped_and_counts_stay(monkeypatch):
    # A memo that fills with under 1/8 of its lookups hit is dropped.  This
    # random graph's first fill holds 371 entries and reads 4 hits, so the
    # walk makes nearly the visitor walk's calls (a kept memo makes 18,946).
    g = random_graph(random.Random(2), 50, 0.3)
    count, calls = rec_calls(lambda: enumerate_k_mis(g, 7, lambda s: None))
    assert count == 1612
    assert calls - 100 < rec_calls(lambda: enumerate_k_mis(g, 7))[1] < calls
    # With a budget of one byte the first store fills the memo, no lookup
    # has hit, and the walk goes on without it: it calls exactly the visitor
    # walk's nodes.
    rng = random.Random(3131)
    cases = [(random_graph(rng, n, p), k) for n, p, k in [(30, 0.2, 6), (24, 0.3, 5), (28, 0.5, 4)]]
    cases.append((tight_cycle_blowup(8, 4, 2).graph, 8))
    plain = [rec_calls(lambda: enumerate_k_mis(g, k, lambda s: None)) for g, k in cases]
    monkeypatch.setattr(engine, "_WALK_MEMO_BYTES", 1)
    assert [rec_calls(lambda: enumerate_k_mis(g, k)) for g, k in cases] == plain
    # A memo whose fills hit often is kept and renewed: with a budget of
    # 32000 bytes the tight blowup calls fewer nodes than the visitor walk
    # but more than with the real budget, where it is never renewed.
    monkeypatch.setattr(engine, "_WALK_MEMO_BYTES", 32000)
    g = cases[-1][0]
    assert 2532 < rec_calls(lambda: enumerate_k_mis(g, 8))[1] < 8555


def test_a_random_graph_before_a_matching_keeps_the_memo():
    # A random graph's states seldom repeat, but every one of its 17,073
    # MIS's reaches the matching in the same state.  A walk that dropped its
    # memo would visit the 2^30 sets of the matching once per MIS.
    g = random_graph(random.Random(1), 50, 0.2)
    union = disjoint_union([g, Graph.from_edges(60, [(2 * i, 2 * i + 1) for i in range(30)])])
    assert count_all_mis(g) == 17073
    assert rec_calls(lambda: count_all_mis(union))[0] == 17073 * 2**30


def test_rs_blowup_at_m2_counts_pinned(monkeypatch):
    # The paper's K_4-free lower-bound construction (Ruzsa-Szemeredi gadgets
    # on the tight 6-cycle) at m=2, past the 128-vertex cap.  Its 448
    # vertices have only 277 distinct open neighbourhoods: false twins, whose
    # equal masks the walk memo's key merges.
    monkeypatch.setattr("mislab.graphs.MAX_VERTICES", 448)
    bw = blowup(BlowupSpec(tight_cycle(3, 6), (2,) * 6, "rs"))
    g = bw.graph
    assert g.n == 448 and len(set(g.adj)) == 277
    assert bw.family_size() == 4096
    assert enumerate_k_mis(g, 6, lambda s: None) == 4864
    assert count_k_mis(g, 6) == 4864


def test_rs_blowup_at_m3_counts_pinned(monkeypatch):
    # The same construction at m=3: 1512 vertices, 617 distinct open
    # neighbourhoods.  The counting walk alone; its memo is dropped here
    # (its keys are too large for the budget to hold many).
    monkeypatch.setattr("mislab.graphs.MAX_VERTICES", 1512)
    bw = blowup(BlowupSpec(tight_cycle(3, 6), (3,) * 6, "rs"))
    g = bw.graph
    assert g.n == 1512 and len(set(g.adj)) == 617
    assert bw.family_size() == 46656
    assert count_k_mis(g, 6) == 54432


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


def test_counts_match_networkx_on_random_graphs_up_to_n40():
    # The same oracle on larger graphs across densities: sparse ones carry
    # thousands of MIS's, dense ones many small ones.
    nx = pytest.importorskip("networkx")
    rng = random.Random(314159)
    for n in range(10, 41, 6):
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            g = random_graph(rng, n, p)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges(g))
            by_size = [0] * (n + 1)
            for clique in nx.find_cliques(nx.complement(h)):
                by_size[len(clique)] += 1
            assert count_all_mis(g) == sum(by_size), (n, p)
            assert [count_k_mis(g, k) for k in range(n + 1)] == by_size, (n, p)
