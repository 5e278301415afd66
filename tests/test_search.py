"""Exhaustive scans, canonical forms, and closed-form verification."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from mislab import (
    Graph,
    SearchSpec,
    canonical_form,
    c4_leaves_graph,
    comatching,
    count_k_mis,
    exhaustive_m,
    graph6_encode,
    hujter_tuza_value,
    m3n2_value,
    moon_moser_value,
    mt_n1_value,
    nielsen_value,
    uniqueness_check,
    verify_theorem,
)
from mislab.search import graph_from_edge_mask
from naive import random_graph


def brute_canonical(g: Graph) -> bytes:
    best = None
    for perm in permutations(range(g.n)):
        enc = graph6_encode(g.relabel(list(perm)))
        if best is None or enc < best:
            best = enc
    return best


def test_canonical_form_matches_brute_force():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.random())
        assert canonical_form(g) == brute_canonical(g)


def test_canonical_form_matches_brute_force_n7():
    rng = random.Random(83)
    for _ in range(3):
        g = random_graph(rng, 7, 0.5)
        assert canonical_form(g) == brute_canonical(g)


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))
    assert canonical_form(Graph.complete(3)) == canonical_form(
        Graph.complete(3).relabel([2, 0, 1])
    )


def test_canonical_form_matches_brute_force_on_symmetric_graphs():
    # Large automorphism groups are where orbit pruning and backjumping act.
    for n in range(2, 9):
        half = n // 2
        bipartite = Graph.from_edges(n, [(i, j) for i in range(half) for j in range(half, n)])
        family = [Graph.empty(n), Graph.complete(n), comatching(n).graph, bipartite]
        if n >= 3:
            family.append(Graph.cycle(n))
        for g in family:
            assert canonical_form(g) == brute_canonical(g), (n, graph6_encode(g))
    # Repeated components: an automorphism that moves the placed prefix must
    # not prune.  Two relabeled copies of P_3 already catch that.
    rng = random.Random(61)
    for _ in range(40):
        m = rng.randint(2, 3)
        copies = rng.randint(2, 7 // m)
        n = m * copies + rng.randint(0, 7 - m * copies)
        part = [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < 0.6]
        g = Graph.from_edges(n, [(u + c * m, v + c * m) for c in range(copies) for u, v in part])
        perm = list(range(n))
        rng.shuffle(perm)
        g = g.relabel(perm)
        assert canonical_form(g) == brute_canonical(g), graph6_encode(g)


def test_canonical_form_equality_matches_networkx_isomorphism():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    rng = random.Random(57)
    isomorphic = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.random())
        h = g
        if rng.random() < 0.5:
            u, v = rng.sample(range(n), 2)
            edges = set(g.edges()) ^ {(min(u, v), max(u, v))}
            h = Graph.from_edges(n, sorted(edges))
        perm = list(range(n))
        rng.shuffle(perm)
        h = h.relabel(perm)
        same = nx.is_isomorphic(to_nx(g), to_nx(h))
        isomorphic += same
        assert (canonical_form(g) == canonical_form(h)) == same
    assert 50 < isomorphic < 200


def test_canonical_form_separates_the_two_six_vertex_extremes():
    assert canonical_form(comatching(6).graph) != canonical_form(c4_leaves_graph())


def test_closed_forms():
    assert [moon_moser_value(n) for n in range(2, 8)] == [2, 3, 4, 6, 9, 12]
    assert [hujter_tuza_value(n) for n in range(4, 8)] == [4, 5, 8, 10]
    assert nielsen_value(7, 3) == 12
    assert nielsen_value(6, 2) == 9
    assert [m3n2_value(n) for n in range(3, 8)] == [2, 4, 5, 3, 3]
    assert mt_n1_value(4, 3) == 3 and mt_n1_value(4, 7) == 2


def test_exhaustive_small_all_mis():
    assert exhaustive_m(SearchSpec(2)).value == 2
    assert exhaustive_m(SearchSpec(4)).value == 4
    assert exhaustive_m(SearchSpec(5)).value == 6


def test_exhaustive_triangle_free_small():
    assert exhaustive_m(SearchSpec(4, t=3)).value == 4
    assert exhaustive_m(SearchSpec(5, t=3)).value == 5
    assert exhaustive_m(SearchSpec(6, t=3)).value == 8


def test_exhaustive_fixed_k_with_witnesses():
    rep = exhaustive_m(SearchSpec(5, k=2, t=3, collect_witnesses=True))
    assert rep.value == 5
    assert canonical_form(Graph.cycle(5)).decode("ascii") in rep.witnesses
    # every witness reaches the value
    from mislab import graph6_decode

    for w in rep.witnesses:
        assert count_k_mis(graph6_decode(w), 2) == 5
    assert len(set(rep.witnesses)) == len(rep.witnesses)


def test_exhaustive_caps_and_validation():
    with pytest.raises(ValueError):
        exhaustive_m(SearchSpec(9))
    with pytest.raises(ValueError):
        exhaustive_m(SearchSpec(7, r=3))
    with pytest.raises(ValueError):
        exhaustive_m(SearchSpec(6, r=4))
    with pytest.raises(ValueError):
        exhaustive_m(SearchSpec(4, k=9))


def test_exhaustive_workers_agree():
    lone = exhaustive_m(SearchSpec(8, k=2, t=3, collect_witnesses=True), workers=1)
    duo = exhaustive_m(SearchSpec(8, k=2, t=3, collect_witnesses=True), workers=2)
    assert lone.value == duo.value
    assert lone.witnesses == duo.witnesses
    assert lone.graphs_scanned == duo.graphs_scanned


def test_hypergraph_scan():
    rep = exhaustive_m(SearchSpec(4, k=2, t=4, r=3))
    assert rep.value == 3
    rep5 = exhaustive_m(SearchSpec(5, k=2, t=4, r=3))
    assert rep5.value == 4


def test_hypergraph_scan_witnesses():
    rep = exhaustive_m(SearchSpec(4, k=2, t=4, r=3, collect_witnesses=True))
    assert rep.value == 3
    assert rep.witnesses
    import json

    from mislab import Hypergraph, hypergraph_count_k_mis

    for w in rep.witnesses:
        doc = json.loads(w)
        h = Hypergraph.from_edges(doc["n"], doc["edges"])
        assert hypergraph_count_k_mis(h, 2) == 3


def test_verify_rows_all_match():
    assert all(r.match for r in verify_theorem("moon-moser", range(2, 7)))
    assert all(r.match for r in verify_theorem("m3n2", range(3, 8)))
    assert all(
        r.match
        for r in verify_theorem("mt-n1", range(2, 7), t_range=range(3, 6))
    )
    assert all(r.match for r in verify_theorem("hyper-m432", range(4, 6)))
    rows = verify_theorem("nielsen", range(4, 7), k_range=range(2, 4))
    assert rows and all(r.match for r in rows)
    with pytest.raises(ValueError):
        verify_theorem("nope", range(2, 4))


def test_uniqueness_census_small():
    rep6 = uniqueness_check(6)
    assert rep6.value == 3
    assert len(rep6.witnesses) >= 2
    assert canonical_form(c4_leaves_graph()).decode("ascii") in rep6.witnesses
    assert canonical_form(comatching(6).graph).decode("ascii") in rep6.witnesses
    rep7 = uniqueness_check(7)
    assert rep7.value == 3 and len(rep7.witnesses) >= 2


def test_scan_matches_per_graph_oracle_at_small_n(monkeypatch):
    # Independent re-derivation of the whole census: naive subset-scan MIS
    # profiles over every labeled graph, no bitmask machinery shared.  The
    # scan also runs in small chunks, which puts the prefix skip, the
    # low-bit clique filter and the straddling constraints to work; its
    # reports, witness truncation order included, must not change.
    from itertools import combinations

    import mislab.search as search
    from naive import naive_has_clique, naive_mis_profile

    for n in (4, 5):
        pairs = list(combinations(range(n), 2))
        for t in (None, 3, 4):
            for k in (None, 1, 2):
                best = -1
                for mask in range(1 << len(pairs)):
                    g = Graph.from_edges(
                        n, [p for b, p in enumerate(pairs) if mask >> b & 1]
                    )
                    if t is not None and naive_has_clique(g, t):
                        continue
                    prof = naive_mis_profile(g)
                    value = prof.get(k, 0) if k is not None else sum(prof.values())
                    best = max(best, value)
                for cap in (64, 1):
                    spec = SearchSpec(n, k=k, t=t, collect_witnesses=True, witness_cap=cap)
                    whole = exhaustive_m(spec).to_json()
                    assert whole["value"] == best, (n, t, k, whole["value"], best)
                    for bits in (3, 5):
                        monkeypatch.setattr(search, "_CHUNK_EDGE_BITS", bits)
                        assert exhaustive_m(spec).to_json() == whole, (n, t, k, cap, bits)
                        monkeypatch.undo()


def test_graph_from_edge_mask_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 7)
        mask = rng.randrange(1 << (n * (n - 1) // 2))
        g = graph_from_edge_mask(n, mask)
        assert g.n == n


def test_monotonicity_violations_are_exactly_the_known_ones():
    # The clique-constrained extremal counts are NOT monotone in n: the
    # universal-vertex argument that usually pads a construction creates
    # forbidden cliques.  The oracle flags each decreasing step; the set of
    # flags over this grid is pinned so a new one cannot slip by silently.
    flagged = set()
    for t in (3, 4):
        for k in (1, 2):
            prev = None
            for n in range(2, 7):
                if k > n:
                    continue
                value = exhaustive_m(SearchSpec(n, k=k, t=t)).value
                if prev is not None and value < prev:
                    flagged.add((t, k, n))
                prev = value
    assert flagged == {(3, 1, 3), (4, 1, 4), (3, 2, 6)}
