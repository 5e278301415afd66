"""Construction generators: shapes, invariants, and frozen counts."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest

from mislab import (
    BlowupSpec,
    FractionalMatching,
    Graph,
    Hypergraph,
    PackingGraph,
    PartitionedGraph,
    behrend_set,
    blowup,
    blowup_spec_from_matching,
    c4_leaves_graph,
    cliques_of_size,
    comatching,
    count_k_mis,
    count_transversal_mis,
    disjoint_gadget_union,
    dominating_clique_graph,
    gadget,
    has_clique,
    hypergraph_count_k_mis,
    hypergraph_is_maximal_independent,
    is_maximal_independent,
    rs_packing,
    shadow,
    star_hypergraph,
    tight_cycle,
    tight_cycle_blowup,
    trivial_packing,
    window_hypergraph,
)
from naive import has_3term_ap, hyper_contains_complete


def test_comatching_shape():
    cm = comatching(8)
    assert [len(p) for p in cm.parts] == [4, 4]
    # cross non-edges are exactly the matched pairs
    non_edges = [
        (a, b) for a in cm.parts[0] for b in cm.parts[1] if not cm.graph.has_edge(a, b)
    ]
    assert non_edges == [(i, 4 + i) for i in range(4)]
    assert count_k_mis(cm.graph, 2) == 4
    assert count_k_mis(comatching(6).graph, 2) == 3
    cm2 = comatching(2)
    assert cm2.graph.edge_count() == 0
    assert count_transversal_mis(cm2) == 1
    with pytest.raises(ValueError):
        comatching(1)


def test_comatching_odd():
    cm = comatching(7)
    assert [len(p) for p in cm.parts] == [3, 4]
    assert count_k_mis(cm.graph, 2) == 3


def test_trivial_packing():
    p = trivial_packing(3, 2)
    assert p.r == 3 and len(p.cliques) == 2
    assert gadget(trivial_packing(2, 3)) == comatching(6)
    assert gadget(trivial_packing(2, 4)) == comatching(8)
    assert count_transversal_mis(gadget(p)) == 2
    single = trivial_packing(2, 1)
    assert single.pg.graph.edge_count() == 1
    with pytest.raises(ValueError):
        trivial_packing(1, 2)


def test_packing_graph_validation_catches_violations():
    # second triangle shares a pair with the first: (r-1)-set reuse
    g = Graph.from_edges(6, [(0, 2), (0, 4), (2, 4), (0, 5), (2, 5)])
    pg = PartitionedGraph.from_parts(g, [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError):
        PackingGraph(pg, ((0, 2, 4), (0, 2, 5)))
    # unlisted clique
    with pytest.raises(ValueError):
        PackingGraph(pg, ((0, 2, 4),))
    # non-transversal clique list
    ok = trivial_packing(3, 2)
    with pytest.raises(ValueError):
        PackingGraph(ok.pg, ((0, 1, 2),))


def test_behrend_sets_are_progression_free():
    for m in (2, 3, 7, 10, 25, 64, 101):
        b = behrend_set(m)
        assert all(0 <= x < m for x in b)
        assert not has_3term_ap(set(b)), m
    assert behrend_set(2) == frozenset({0, 1})
    assert len(behrend_set(10)) == 5
    assert len(behrend_set(64)) >= 8


def test_rs_packing_every_edge_in_exactly_one_triangle():
    for m in (2, 3, 5):
        p = rs_packing(m)
        assert len(p.cliques) == m * len(behrend_set(m))
        g = p.pg.graph
        triangles = list(cliques_of_size(g, 3))
        assert sorted(triangles) == sorted(p.cliques)
        per_edge: dict[tuple[int, int], int] = {}
        for tri in triangles:
            for pair in combinations(tri, 2):
                per_edge[pair] = per_edge.get(pair, 0) + 1
        assert set(per_edge) == set(g.edges())
        assert all(c == 1 for c in per_edge.values())
    # listed triangles are transversal by construction
    p = rs_packing(2)
    assert len(p.cliques) == 4
    masks = p.pg.part_masks()
    for tri in p.cliques:
        assert sorted(p.pg.part_of(v) for v in tri) == [0, 1, 2]


def test_gadget_cliques_become_transversal_mis():
    for packing in (trivial_packing(3, 2), trivial_packing(4, 3), rs_packing(3)):
        gd = gadget(packing)
        for clique in packing.cliques:
            assert is_maximal_independent(gd.graph, clique)
        assert count_transversal_mis(gd) >= len(packing.cliques)


def test_tight_cycle():
    c5 = tight_cycle(2, 5)
    assert c5.edges == tuple(
        tuple(sorted((i, (i + 1) % 5))) for i in range(5)
    ) or len(c5.edges) == 5
    assert shadow(c5) == Graph.cycle(5)
    tc = tight_cycle(3, 6)
    assert len(tc.edges) == 6
    assert all(len(tc.incident_edges(v)) == 3 for v in range(6))
    assert not has_clique(shadow(tight_cycle(4, 8)), 5)
    assert len(tight_cycle(3, 3).edges) == 1
    with pytest.raises(ValueError):
        tight_cycle(3, 2)


def test_tight_cycle_shadow_clique_boundary():
    # below the 2r threshold the shadow picks up K_{r+1}
    for r, k in ((2, 3), (3, 5), (4, 7), (5, 9)):
        assert has_clique(shadow(tight_cycle(r, k)), r + 1)


def test_blowup_c5_sizes_and_family():
    template = tight_cycle(2, 5)
    bw = blowup(BlowupSpec(template, (2,) * 5))
    assert bw.graph.n == 20
    assert [len(p) for p in bw.parts] == [4] * 5
    assert not has_clique(bw.graph, 3)
    assert bw.family_size() == 32
    assert count_k_mis(bw.graph, 5) >= 32
    # distinct choices give distinct maximal independent sets
    seen = set()
    for choice in product(*(range(len(e)) for e in bw.gadget_mis)):
        mask = bw.family_mis(choice)
        assert is_maximal_independent(bw.graph, mask)
        seen.add(mask)
    assert len(seen) == 32


def test_blowup_single_edge_is_comatching():
    template = Hypergraph.from_edges(2, [(0, 1)])
    bw = blowup(BlowupSpec(template, (4,)))
    assert count_transversal_mis(bw.pg) == 4
    assert bw.graph.edge_count() == comatching(8).graph.edge_count()
    assert count_k_mis(bw.graph, 2) == 4


def test_blowup_vertex_count_invariant():
    rng = random.Random(13)
    for _ in range(10):
        k = rng.randint(4, 7)
        template = tight_cycle(2, k)
        sizes = tuple(rng.randint(1, 3) for _ in template.edges)
        bw = blowup(BlowupSpec(template, sizes))
        expect = sum(
            prod(sizes[ei] for ei in template.incident_edges(x)) for x in range(k)
        )
        assert bw.graph.n == expect
        assert bw.family_size() == prod(sizes)


def test_blowup_triangle_template_with_trivial_gadgets():
    template = Hypergraph.from_edges(3, [(0, 1, 2)])
    bw = blowup(BlowupSpec(template, (2,)))
    assert bw.graph.n == 6
    assert count_transversal_mis(bw.pg) == 2
    for choice in ((0,), (1,)):
        assert is_maximal_independent(bw.graph, bw.family_mis(choice))


def test_blowup_isolated_template_vertex():
    template = Hypergraph.from_edges(3, [(0, 1)])
    bw = blowup(BlowupSpec(template, (2,)))
    assert [len(p) for p in bw.parts] == [2, 2, 1]
    lone = bw.parts[2][0]
    assert bw.graph.degree(lone) == 0
    assert count_k_mis(bw.graph, 3) >= 2


def test_blowup_spec_json_round_trip():
    spec = BlowupSpec(tight_cycle(3, 6), (2,) * 6, "trivial")
    clone = BlowupSpec.from_json(spec.to_json())
    assert clone == spec
    with pytest.raises(ValueError):
        BlowupSpec(tight_cycle(2, 4), (1,))
    with pytest.raises(ValueError):
        BlowupSpec(tight_cycle(2, 4), (0,) * 4)
    with pytest.raises(ValueError):
        BlowupSpec(tight_cycle(2, 4), (1,) * 4, "nope")


def test_blowup_spec_from_matching():
    h = tight_cycle(2, 4)
    m = FractionalMatching.uniform(h, Fraction(1, 2))
    spec = blowup_spec_from_matching(h, m, 9)
    assert spec.sizes == (3, 3, 3, 3)  # floor(9^(1/2))
    bw = blowup(spec)
    assert bw.graph.n <= 4 * 9
    overload = FractionalMatching.uniform(h, Fraction(2, 3))
    with pytest.raises(ValueError):
        blowup_spec_from_matching(h, overload, 9)


def test_iroot_is_exact_beyond_float_range():
    from mislab.constructions import _iroot

    rng = random.Random(41)
    huge = [10**400, 10**400 - 1, 2**4000 + 1, 3**1000]
    huge += [rng.randrange(10**600) for _ in range(20)]
    for q in range(1, 6):
        for x in huge + [(7**200) ** q, (7**200) ** q - 1]:
            r = _iroot(x, q)
            assert r**q <= x < (r + 1) ** q, (x, q)


def test_alternating_matching_blowup_on_even_cycle():
    # even cycles carry a family of fractional matchings; the alternating
    # 1/2-0 one produces parts of size 2 and 1 and a family of 2^(k/2)
    h = tight_cycle(2, 6)
    m = FractionalMatching.from_weights(
        {0: Fraction(1, 2), 2: Fraction(1, 2), 4: Fraction(1, 2)}
    )
    spec = blowup_spec_from_matching(h, m, 4)
    assert spec.sizes == (2, 1, 2, 1, 2, 1)
    bw = blowup(spec)
    assert bw.graph.n == 12
    assert bw.family_size() == 8
    assert not has_clique(bw.graph, 3)
    assert count_k_mis(bw.graph, 6) >= 8


def test_blowup_of_edgeless_template():
    bw = blowup(BlowupSpec(Hypergraph.from_edges(1, []), ()))
    assert bw.graph.n == 1 and bw.family_size() == 1
    assert count_k_mis(bw.graph, 1) == 1


def test_rs_gadget_blowup_runs():
    # rs gadget parts are sized m, 2m, 3m, so part sizes mix; keep the
    # template at two overlapping edges to stay under the vertex cap.
    template = Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)])
    bw = blowup(BlowupSpec(template, (2, 2), "rs"))
    assert [len(p) for p in bw.parts] == [2, 4 * 2, 6 * 4, 6]
    assert not has_clique(bw.graph, 4)
    assert bw.family_size() == len(bw.gadget_mis[0]) * len(bw.gadget_mis[1])
    assert bw.family_size() >= 4 * 4  # at least the packing cliques per edge
    for choice in product(range(len(bw.gadget_mis[0])), range(len(bw.gadget_mis[1]))):
        assert is_maximal_independent(bw.graph, bw.family_mis(choice))


def test_disjoint_gadget_union():
    assert disjoint_gadget_union(2, 4, 5) == comatching(10).graph
    assert count_k_mis(disjoint_gadget_union(2, 4, 5), 2) == 5
    assert disjoint_gadget_union(1, 3, 2) == Graph.empty(1)
    g = disjoint_gadget_union(4, 4, 2)
    assert g.n == 7 and not has_clique(g, 4)
    assert count_k_mis(g, 4) >= 2
    for k, t, m in ((3, 4, 2), (5, 4, 2), (4, 5, 2), (6, 4, 3)):
        g = disjoint_gadget_union(k, t, m)
        assert not has_clique(g, t), (k, t, m)
        assert count_k_mis(g, k) >= 1
    with pytest.raises(ValueError):
        disjoint_gadget_union(0, 4, 2)


def test_tight_cycle_blowup_shapes():
    bw = tight_cycle_blowup(5, 3, 2)
    assert bw.graph.n == 20 and not has_clique(bw.graph, 3)
    assert count_k_mis(bw.graph, 5) >= 32
    bw6 = tight_cycle_blowup(6, 3, 2)
    assert not has_clique(bw6.graph, 3)
    assert count_k_mis(bw6.graph, 6) >= 64
    bw46 = tight_cycle_blowup(6, 4, 2)
    assert not has_clique(bw46.graph, 4)
    assert count_k_mis(bw46.graph, 6) >= 64
    with pytest.raises(ValueError):
        tight_cycle_blowup(5, 4, 2)  # k below 2(t-1)


def test_window_hypergraph():
    h = window_hypergraph(3, 3, 6)
    assert hypergraph_count_k_mis(h, 3) >= 8
    assert not hyper_contains_complete(h, 4, 3)
    # transversal picks are maximal
    parts = [(0, 1), (2, 3), (4, 5)]
    for trip in product(*parts):
        assert hypergraph_is_maximal_independent(h, trip)
    h43 = window_hypergraph(4, 3, 6)
    for trip in product(*parts):
        assert hypergraph_is_maximal_independent(h43, trip)
    assert not hyper_contains_complete(h43, 5, 4)
    # k = r-1 boundary is well defined for r >= 4
    h_boundary = window_hypergraph(4, 3, 7)
    assert h_boundary.uniform(4)
    with pytest.raises(ValueError):
        window_hypergraph(3, 2, 6)
    with pytest.raises(ValueError):
        window_hypergraph(2, 3, 6)
    with pytest.raises(ValueError):
        window_hypergraph(3, 3, 2)


def test_window_hypergraph_unequal_parts():
    h = window_hypergraph(3, 3, 7)  # parts 3,2,2
    assert hypergraph_count_k_mis(h, 3) >= 3 * 2 * 2
    assert not hyper_contains_complete(h, 4, 3)


def test_star_hypergraph():
    for n in (4, 5, 6):
        h = star_hypergraph(n)
        assert hypergraph_count_k_mis(h, 2) == n - 1
        assert not hyper_contains_complete(h, 4, 3)
    h6 = star_hypergraph(6)
    assert hypergraph_is_maximal_independent(h6, {1, 2, 3, 4, 5})
    assert hypergraph_count_k_mis(h6, 5) == 1
    with pytest.raises(ValueError):
        star_hypergraph(3)


def test_dominating_clique_graph():
    assert count_k_mis(dominating_clique_graph(5, 8), 1) == 3
    assert count_k_mis(dominating_clique_graph(3, 4), 1) == 1
    for t in (3, 4, 5):
        for n in range(t, t + 3):
            g = dominating_clique_graph(t, n)
            assert not has_clique(g, t)
            assert count_k_mis(g, 1) == t - 2
    with pytest.raises(ValueError):
        dominating_clique_graph(4, 3)


def test_c4_leaves_graph():
    g = c4_leaves_graph()
    assert g.n == 6
    assert not has_clique(g, 3)
    assert count_k_mis(g, 2) == 3
