"""Construction generators: shapes, invariants, and frozen counts."""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from functools import lru_cache
from itertools import combinations, product
from math import prod

import pytest

from mislab import (
    BlowupSpec,
    Graph,
    Hypergraph,
    PackingGraph,
    PartitionedGraph,
    SearchSpec,
    behrend_set,
    blowup,
    c4_leaves_graph,
    cliques_of_size,
    comatching,
    count_k_mis,
    count_transversal_mis,
    disjoint_gadget_union,
    dominating_clique_graph,
    exhaustive_m,
    gadget,
    graph6_encode,
    has_clique,
    hypergraph_count_k_mis,
    is_maximal_independent,
    rs_packing,
    star_hypergraph,
    tight_cycle,
    tight_cycle_blowup,
    trivial_packing,
    window_hypergraph,
)
from mislab.graphs import MAX_VERTICES
from naive import (
    edges,
    greedy_ap3_free,
    has_3term_ap,
    hyper_contains_complete,
    hypergraph_is_maximal_independent,
    shadow,
)


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


def test_behrend_set_is_the_first_fit_progression_free_set():
    for m in range(2, 301):
        assert behrend_set(m) == greedy_ap3_free(m), m
    assert [len(behrend_set(m)) for m in (10, 21, 100, 1000)] == [5, 8, 24, 105]
    for m in (801, 2176):
        assert not has_3term_ap(set(behrend_set(m))), m
    with pytest.raises(ValueError):
        behrend_set(1)


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
        assert set(per_edge) == set(edges(g))
        assert all(c == 1 for c in per_edge.values())
    # listed triangles are transversal by construction
    p = rs_packing(2)
    assert len(p.cliques) == 4
    masks = p.pg.part_masks()
    for tri in p.cliques:
        assert sorted(i for v in tri for i, pm in enumerate(masks) if pm >> v & 1) == [0, 1, 2]


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


def test_blowup_is_a_partitioned_graph():
    bw = tight_cycle_blowup(5, 3, 2)
    assert isinstance(bw, PartitionedGraph) and bw.pg is bw
    assert count_transversal_mis(bw) == count_transversal_mis(bw.pg) == bw.family_size() == 32
    assert bw.part_masks() == tuple(sum(1 << v for v in p) for p in bw.parts)
    clone = pickle.loads(pickle.dumps(bw))
    assert clone == bw and clone.family_size() == 32
    assert clone.family_mis((1, 0, 1, 0, 1)) == bw.family_mis((1, 0, 1, 0, 1))


def test_family_mis_rejects_a_choice_outside_its_gadget():
    bw = tight_cycle_blowup(5, 3, 2)
    assert [len(e) for e in bw.gadget_mis] == [2] * 5
    for bad in ((-1, 0, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 0, 7)):
        with pytest.raises(ValueError, match="choice"):
            bw.family_mis(bad)
    with pytest.raises(ValueError):
        bw.family_mis((0, 0, 0, 0))


def test_generators_check_the_vertex_count_first():
    top = MAX_VERTICES
    cases = [
        (lambda: comatching(top + 1), top + 1),
        (lambda: trivial_packing(3, top // 3 + 1), 3 * (top // 3 + 1)),
        (lambda: rs_packing(top // 6 + 1), 6 * (top // 6 + 1)),
        (lambda: tight_cycle(3, top + 1), top + 1),
        (lambda: window_hypergraph(3, 3, top + 1), top + 1),
        (lambda: star_hypergraph(top + 1), top + 1),
        (lambda: dominating_clique_graph(3, top + 1), top + 1),
        (lambda: disjoint_gadget_union(4, 3, 40), 160),
        (lambda: disjoint_gadget_union(5, 3, 40), 161),
        (lambda: tight_cycle_blowup(4, 3, 6), 144),
        (lambda: blowup(BlowupSpec(tight_cycle(2, 5), (6,) * 5)), 180),
    ]
    for build, n in cases:
        with pytest.raises(ValueError, match=rf"^vertex count {n} outside \[0, {top}\]$"):
            build()
    # The largest sizes that fit still build.
    assert comatching(top).graph.n == top
    assert disjoint_gadget_union(5, 3, 31).n == 125
    assert tight_cycle_blowup(4, 3, 5).graph.n == 100


def test_packing_graph_rejects_a_clique_outside_the_parts():
    ok = trivial_packing(3, 2)
    for clique in ((0, 2, 9), (0, 2, 2), (0, 2, -1)):
        with pytest.raises(ValueError):
            PackingGraph(ok.pg, (clique, (1, 3, 5)))


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
    assert bw.graph.adj[lone].bit_count() == 0
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
    # sizes must be a list of ints: no truncated floats, parsed strings or
    # a string read as its characters
    for bad in ([2.9], ["3"], "23"):
        with pytest.raises(ValueError, match="sizes"):
            BlowupSpec.from_json({"template": {"n": 2, "edges": [[0, 1]]}, "sizes": bad})


def test_alternating_matching_blowup_on_even_cycle():
    # gadget sizes alternating 2 and 1 round an even cycle give parts of
    # size 2 and a family of 2^(k/2)
    bw = blowup(BlowupSpec(tight_cycle(2, 6), (2, 1, 2, 1, 2, 1)))
    assert bw.graph.n == 12
    assert bw.family_size() == 8
    assert not has_clique(bw.graph, 3)
    assert count_k_mis(bw.graph, 6) >= 8


# SHA-256 of each spec's graph6, parts, gadget MIS's and every family mask:
# any change to the vertex layout, the gadgets or the family order shows here.
PINNED_BLOWUPS = [
    (BlowupSpec(tight_cycle(2, 5), (2,) * 5),
     "b904b9ab368d0c5ee1663e8a5e40685f08494e43fea09ec17ebea8e1490fe55f"),
    (BlowupSpec(tight_cycle(3, 8), (2,) * 8),
     "dce817b17c8e8fbe299f1a2a88728edde1a76168542428d931db1c2b2d6065ae"),
    (BlowupSpec(Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)]), (2, 2), "rs"),
     "6078b95992a7a14664d37ba9634e861fa39c31666ab1d53643b70d6226d98b57"),
    (BlowupSpec(tight_cycle(3, 6), (2, 3, 2, 3, 2, 3), "trivial"),
     "92054c57ad942f5eca4e54aaefb4c2464eefe830006eb193ccf45f34b9830a23"),
    (BlowupSpec(tight_cycle(2, 6), (3, 2, 3, 2, 3, 2), "comatching"),
     "3b375bd1ef060753ea376e496a35982952b2a5d1de62f528ece4793abfb71cc5"),
    (BlowupSpec(Hypergraph.from_edges(5, [(0, 1, 2), (2, 3), (3, 4), (0, 4)]), (2, 3, 2, 2)),
     "f1e7fdf9fc77ae57027ee20932620de17c94520eabc144eb5f0fb2a706e77a28"),
    (BlowupSpec(Hypergraph.from_edges(3, [(0, 1)]), (2,)),
     "4d322494af4b832360ef11fd6141ade5bac948d245f6bb55f31b1f33abb40675"),
    (BlowupSpec(Hypergraph.from_edges(2, []), ()),
     "4d8af04d2f783a865bc31f5f0a49cb061ca605d4590badd0272e8e18ada8b84c"),
]


def test_blowup_bytes_are_pinned():
    for spec, digest in PINNED_BLOWUPS:
        bw = blowup(spec)
        choices = product(*(range(len(e)) for e in bw.gadget_mis))
        record = [
            graph6_encode(bw.graph).decode(),
            bw.parts,
            bw.gadget_mis,
            [bw.family_mis(c) for c in choices],
        ]
        got = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        assert got == digest, spec


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


def test_window_hypergraph_predicts_its_edge_count(monkeypatch):
    # The count predicted before building is the count built: a budget one
    # byte short of it rejects the build, and the exact budget admits it.
    import sys

    import mislab.constructions as cons

    assert len(window_hypergraph(4, 4, 20).edges) == 1000
    for r, k, n in ((3, 3, 9), (4, 4, 20), (4, 5, 23), (5, 4, 13), (6, 6, 14)):
        # The per-edge bytes the budget charges: a tuple of r ints and its slot.
        assert sys.getsizeof(tuple(range(r))) + 8 == 48 + 8 * r
        edges = len(window_hypergraph(r, k, n).edges)
        need = edges * (48 + 8 * r)
        monkeypatch.setattr(cons, "EDGE_BYTES_CAP", need - 1)
        with pytest.raises(ValueError, match=f"^{edges} edges need "):
            window_hypergraph(r, k, n)
        monkeypatch.setattr(cons, "EDGE_BYTES_CAP", need)
        assert len(window_hypergraph(r, k, n).edges) == edges
        monkeypatch.undo()


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


@lru_cache(maxsize=None)
def _census_m(n: int, k: int, t: int) -> int:
    return exhaustive_m(SearchSpec(n, k=k, t=t)).value


def _small_constructions():
    """Every K_t-free construction on at most 8 vertices, t = 3..5, with its t."""
    for t in (3, 4, 5):
        for k in range(1, 9):
            for m in range(1, 9):
                g = disjoint_gadget_union(k, t, m)  # grows with m
                if g.n > 8:
                    break
                yield ("theorem-a", k, t, m), t, g
        # A blowup has k * m^(t-1) vertices and k >= 2(t-1), so only m = 1 fits.
        for k in range(2 * (t - 1), 9):
            yield ("theorem-b", k, t, 1), t, tight_cycle_blowup(k, t, 1).graph
        for n in range(t, 9):
            yield ("dominating", t, n), t, dominating_clique_graph(t, n)
    for n in range(2, 9):
        yield ("comatching", n), 3, comatching(n).graph
    yield ("c4-leaves",), 3, c4_leaves_graph()


def test_constructions_never_beat_the_census():
    # Each nonzero k-MIS count of a K_t-free construction is at most the
    # exhaustive maximum m(n, k, t) over all K_t-free graphs on its vertices.
    built = equal = below = 0
    for name, t, g in _small_constructions():
        built += 1
        assert not has_clique(g, t), name
        for k in range(g.n + 1):
            count = count_k_mis(g, k)
            if count:
                best = _census_m(g.n, k, t)
                assert count <= best, (name, k, count, best)
                equal += count == best
                below += count < best
    assert (built, equal, below) == (93, 83, 42)
    # theorem-a meets the census on triangle-free graphs and falls short at t > 3.
    for (k, t, m), want, best in (((2, 3, 4), 4, 4), ((4, 3, 2), 16, 16),
                                  ((2, 4, 4), 4, 12), ((4, 5, 2), 2, 16)):
        g = disjoint_gadget_union(k, t, m)
        assert g.n == 8 and count_k_mis(g, k) == want and _census_m(8, k, t) == best
