"""Exhaustive scans, canonical forms, and closed-form verification."""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from itertools import combinations, permutations

import pytest

from mislab import (
    Graph,
    Hypergraph,
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
from naive import (
    edges,
    naive_hyper_canonical,
    random_graph,
    random_hypergraph3,
    reference_exhaustive_m,
)


def assert_no_child() -> None:
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        h.add_edges_from(edges(g))
        return h

    rng = random.Random(57)
    isomorphic = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.random())
        h = g
        if rng.random() < 0.5:
            u, v = rng.sample(range(n), 2)
            flipped = set(edges(g)) ^ {(min(u, v), max(u, v))}
            h = Graph.from_edges(n, sorted(flipped))
        perm = list(range(n))
        rng.shuffle(perm)
        h = h.relabel(perm)
        same = nx.is_isomorphic(to_nx(g), to_nx(h))
        isomorphic += same
        assert (canonical_form(g) == canonical_form(h)) == same
    assert 50 < isomorphic < 200


def test_canonical_form_separates_the_two_six_vertex_extremes():
    assert canonical_form(comatching(6).graph) != canonical_form(c4_leaves_graph())


def _relabel(h: Hypergraph, perm: list[int]) -> Hypergraph:
    return Hypergraph.from_edges(h.n, ([perm[v] for v in e] for e in h.edges))


def test_3graph_canonical_form_equality_matches_brute_force_isomorphism():
    # Seeded pairs: a random 3-graph and a relabeled copy, half the time with
    # one triple toggled; the n! relabeling oracle decides isomorphism.  The
    # form is also a relabeling of its input.
    rng = random.Random(71)
    isomorphic = 0
    for _ in range(150):
        n = rng.randint(3, 6)
        h = random_hypergraph3(rng, n, rng.random())
        edges = set(h.edges)
        if rng.random() < 0.5:
            edges ^= {tuple(sorted(rng.sample(range(n), 3)))}
        perm = list(range(n))
        rng.shuffle(perm)
        g = _relabel(Hypergraph(n, tuple(sorted(edges))), perm)
        form = canonical_form(h)
        doc = json.loads(form)
        assert doc["n"] == n and doc["edges"] == sorted(doc["edges"])
        assert naive_hyper_canonical(Hypergraph.from_edges(n, doc["edges"])) == (
            naive_hyper_canonical(h)
        )
        same = naive_hyper_canonical(h) == naive_hyper_canonical(g)
        isomorphic += same
        assert (form == canonical_form(g)) == same, (h.edges, g.edges)
    assert 40 < isomorphic < 150


def test_3graph_canonical_form_is_relabeling_invariant():
    rng = random.Random(43)
    family = []
    for n in range(3, 10):
        triples = list(combinations(range(n), 3))
        family += [Hypergraph(n, ()), Hypergraph(n, tuple(triples))]
        family.append(Hypergraph(n, tuple(t for t in triples if 0 in t)))
        cycle = {tuple(sorted((i, (i + 1) % n, (i + 2) % n))) for i in range(n)}
        family.append(Hypergraph(n, tuple(sorted(cycle))))
        family += [random_hypergraph3(rng, n, rng.random()) for _ in range(8)]
    for h in family:
        perm = list(range(h.n))
        rng.shuffle(perm)
        assert canonical_form(_relabel(h, perm)) == canonical_form(h), h


def test_canonical_forms_count_the_isomorphism_classes():
    # Unlabeled 3-graphs on 3, 4, 5 vertices: 2, 5, 34 (OEIS A000665);
    # unlabeled graphs on 4 and 5 vertices: 11, 34 (OEIS A000088).
    for r, n, classes in ((3, 3, 2), (3, 4, 5), (3, 5, 34), (2, 4, 11), (2, 5, 34)):
        masks = range(1 << math.comb(n, r))
        forms = {canonical_form(graph_from_edge_mask(n, m, r)) for m in masks}
        assert len(forms) == classes, (r, n)


def test_canonical_form_rejects_non_uniform_and_oversized_inputs():
    with pytest.raises(ValueError, match="^canonical form needs a uniform hypergraph$"):
        canonical_form(Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)]))
    for obj in (Graph.empty(11), Hypergraph(11, ())):
        with pytest.raises(ValueError, match="capped at n <= 10, got 11"):
            canonical_form(obj)
    # A 2-uniform Hypergraph is labelled like the graph, but comes back as JSON.
    from mislab import graph6_decode

    h = Hypergraph.from_edges(5, [(2, 3), (0, 3), (1, 4)])
    g = graph6_decode(canonical_form(Graph.from_edges(5, h.edges)))
    assert json.loads(canonical_form(h)) == {"n": 5, "edges": [list(e) for e in edges(g)]}


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
    # One validation block serves both uniformities.
    for r, top in ((2, 8), (3, 6)):
        with pytest.raises(ValueError, match=f"capped at n <= {top}"):
            exhaustive_m(SearchSpec(top + 1, r=r))
        with pytest.raises(ValueError, match=f"needs t > {r}"):
            exhaustive_m(SearchSpec(5, t=r, r=r))
        with pytest.raises(ValueError, match="need n >= 1"):
            exhaustive_m(SearchSpec(0, r=r))
        with pytest.raises(ValueError, match="outside"):
            exhaustive_m(SearchSpec(4, k=-1, r=r))
    # Below three vertices a 3-graph has no edge: the whole set is the one MIS.
    assert exhaustive_m(SearchSpec(2, r=3)).value == 1
    assert exhaustive_m(SearchSpec(2, k=1, r=3)).value == 0


def test_exhaustive_workers_agree():
    lone = exhaustive_m(SearchSpec(8, k=2, t=3, collect_witnesses=True), workers=1)
    duo = exhaustive_m(SearchSpec(8, k=2, t=3, collect_witnesses=True), workers=2)
    assert lone.value == duo.value
    assert lone.witnesses == duo.witnesses
    assert lone.graphs_scanned == duo.graphs_scanned
    spec = SearchSpec(6, k=2, t=4, r=3, collect_witnesses=True)
    lone = exhaustive_m(spec, workers=1)
    assert lone.value == 5 and lone.witnesses
    assert exhaustive_m(spec, workers=2).to_json() == lone.to_json()


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


# (n, t) -> (value, distinct witnesses, truncated) of the 3-graph witness scan
# for k = None, 0, 1, ..., n, as a brute-force n! relabeling canonicaliser finds them.
# At k = 0 and 1 every 3-graph ties at 0, so n = 5 lists all 34 classes.
R3_WITNESS_SCANS = {
    (3, None): ((3, 1, 0), (0, 2, 0), (0, 2, 0), (3, 1, 0), (1, 1, 0)),
    (4, None): ((6, 1, 0), (0, 5, 0), (0, 5, 0), (6, 1, 0), (3, 1, 0), (1, 1, 0)),
    (4, 4): ((4, 1, 0), (0, 4, 0), (0, 4, 0), (3, 1, 0), (3, 1, 0), (1, 1, 0)),
    (5, None): ((10, 1, 0), (0, 34, 0), (0, 34, 0), (10, 1, 0), (7, 1, 0), (3, 1, 0), (1, 1, 0)),
    (5, 4): ((7, 2, 0), (0, 23, 0), (0, 23, 0), (4, 1, 0), (7, 1, 0), (3, 1, 0), (1, 1, 0)),
    (5, 5): ((8, 1, 0), (0, 33, 0), (0, 33, 0), (7, 1, 0), (7, 1, 0), (3, 1, 0), (1, 1, 0)),
    (6, None): (
        (15, 1, 0), (0, 64, 1), (0, 64, 1), (15, 1, 0), (14, 1, 0), (9, 1, 0), (3, 1, 0), (1, 1, 0)
    ),
    (6, 4): (
        (14, 1, 0), (0, 64, 1), (0, 64, 1), (5, 1, 0), (14, 1, 0), (9, 1, 0), (3, 1, 0), (1, 1, 0)
    ),
    (6, 5): (
        (14, 1, 0), (0, 64, 1), (0, 64, 1), (9, 2, 0), (14, 1, 0), (9, 1, 0), (3, 1, 0), (1, 1, 0)
    ),
    (6, 6): (
        (14, 1, 0), (0, 64, 1), (0, 64, 1), (12, 1, 0), (14, 1, 0), (9, 1, 0), (3, 1, 0), (1, 1, 0)
    ),
}


def test_3graph_witness_scans_keep_their_classes():
    # Every `search --r 3 --witnesses` spec up to n = 6: the canonical labelling
    # decides the witness strings, not which classes are found, how many, or
    # whether the cap cut them.
    assert len([k for rows in R3_WITNESS_SCANS.values() for k in rows]) == 70
    for (n, t), rows in R3_WITNESS_SCANS.items():
        for k, want in zip([None, *range(n + 1)], rows):
            rep = exhaustive_m(SearchSpec(n, k=k, t=t, r=3, collect_witnesses=True))
            got = (rep.value, len(rep.witnesses), int(rep.truncated))
            assert got == want, (n, t, k)
            if n <= 5:  # the witnesses are pairwise non-isomorphic
                docs = [json.loads(w) for w in rep.witnesses]
                classes = {
                    tuple(naive_hyper_canonical(Hypergraph.from_edges(n, d["edges"])))
                    for d in docs
                }
                assert len(classes) == len(docs), (n, t, k)


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


def test_truncation_counts_only_chunks_that_reach_the_best():
    # Only the edgeless graph has the whole vertex set as an MIS.  Every other
    # chunk ties thousands of masks at a lower value, and none of them is
    # read for witnesses.
    for n, r, empty in ((7, 2, "F????"), (6, 3, '{"n":6,"edges":[]}')):
        rep = exhaustive_m(SearchSpec(n, k=n, r=r, collect_witnesses=True))
        assert (rep.value, rep.witnesses, rep.truncated) == (1, [empty], False)


def test_verify_row_order_and_range_errors():
    from mislab.search import THEOREM_IDS

    assert THEOREM_IDS == ("moon-moser", "hujter-tuza", "nielsen", "m3n2", "mt-n1", "hyper-m432")
    rows = verify_theorem("mt-n1", range(2, 4), t_range=range(3, 5))
    assert [r.params for r in rows] == [(("t", t), ("n", n)) for t in (3, 4) for n in (2, 3)]
    rows = verify_theorem("nielsen", range(2, 5), k_range=range(1, 6))
    assert [r.params for r in rows] == [
        (("n", 3), ("k", 2)), (("n", 4), ("k", 2)), (("n", 4), ("k", 3))
    ]
    with pytest.raises(ValueError, match="^nielsen needs a k range$"):
        verify_theorem("nielsen", range(2, 5))
    with pytest.raises(ValueError, match="^mt-n1 needs a t range$"):
        verify_theorem("mt-n1", range(2, 5), k_range=range(2, 3))
    with pytest.raises(ValueError, match="^unknown theorem id 'nope'; one of"):
        verify_theorem("nope", range(2, 4))


def test_uniqueness_census_small():
    rep6 = uniqueness_check(6)
    assert rep6.value == 3
    assert len(rep6.witnesses) >= 2
    assert canonical_form(c4_leaves_graph()).decode("ascii") in rep6.witnesses
    assert canonical_form(comatching(6).graph).decode("ascii") in rep6.witnesses
    rep7 = uniqueness_check(7)
    assert rep7.value == 3 and len(rep7.witnesses) >= 2


def _cut_at(monkeypatch, bits: int | None) -> None:
    """Cut every scan at ``bits`` low bits (all, if fewer), or at vertex 2 if None.

    At None even a scan of one chunk is cut where a larger scan is: its low
    bits are the slots that meet vertex 0 or 1.
    """
    import mislab.search as search

    if bits is None:
        monkeypatch.setattr(search, "_CHUNK_EDGE_BITS", 0)
    else:
        monkeypatch.setattr(search, "_chunk_width", lambda n, r: min(math.comb(n, r), bits))


def test_scan_matches_per_graph_oracle_at_small_n(monkeypatch):
    # Independent re-derivation of the whole census: naive subset-scan MIS
    # profiles over every labeled graph, no bitmask machinery shared.  The
    # scan also runs in small chunks, which puts the prefix skip, the
    # low-bit clique filter and the straddling constraints to work, and
    # at the vertex cut; its reports, witness truncation order included,
    # must not change.
    from itertools import combinations

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
                    for bits in (3, 5, None):
                        _cut_at(monkeypatch, bits)
                        assert exhaustive_m(spec).to_json() == whole, (n, t, k, cap, bits)
                        monkeypatch.undo()


def test_3graph_scan_matches_per_graph_oracle_at_small_n(monkeypatch):
    # The same re-derivation for r=3: naive subset-scan MIS counts over every
    # labeled 3-graph, and the same reports at small chunk widths and at the
    # vertex cut.
    from itertools import combinations

    from naive import hyper_contains_complete, naive_hyper_count_k_mis

    for n in (4, 5):
        triples = list(combinations(range(n), 3))
        hypergraphs = [
            Hypergraph(n, tuple(e for b, e in enumerate(triples) if mask >> b & 1))
            for mask in range(1 << len(triples))
        ]
        profiles = [[naive_hyper_count_k_mis(h, k) for k in range(n + 1)] for h in hypergraphs]
        for t in (None, 4, 5):
            kept = [
                prof
                for h, prof in zip(hypergraphs, profiles)
                if t is None or not hyper_contains_complete(h, t, 3)
            ]
            for k in [None, *range(n + 1)]:
                best = max(sum(prof) if k is None else prof[k] for prof in kept)
                for cap in (64, 1):
                    spec = SearchSpec(n, k=k, t=t, r=3, collect_witnesses=True, witness_cap=cap)
                    whole = exhaustive_m(spec).to_json()
                    assert whole["value"] == best, (n, t, k, whole["value"], best)
                    for bits in (3, 5, None):
                        _cut_at(monkeypatch, bits)
                        assert exhaustive_m(spec).to_json() == whole, (n, t, k, cap, bits)
                        monkeypatch.undo()


def test_exhaustive_m_matches_the_reference_loop(monkeypatch):
    # The orbit-least value pass, the witness pass over the orbit-least
    # chunks at the best and the adjacent-swap pre-filter, against the
    # report contract computed from naive MIS profiles and canonical_form on
    # every mask at the best: byte-identical reports at every chunk width
    # and at the vertex cut, with 1 worker and, at the largest n, with 2 to
    # 4 processes.
    import mislab.search as search

    monkeypatch.setattr(search, "_cpu_count", lambda: 4)

    def same(spec, workers=1):
        got = json.dumps(exhaustive_m(spec, workers=workers).to_json())
        return got == json.dumps(reference_exhaustive_m(spec).to_json())

    for bits in (3, 5, 16, None):
        _cut_at(monkeypatch, bits)
        for r, top in ((2, 6), (3, 5)):
            for n in range(1, top + 1):
                for t in (None, r + 1, r + 2):
                    for k in (None, *range(n + 1)):
                        for cap in (1, 3, 64):
                            spec = SearchSpec(n, k, t, r, collect_witnesses=True, witness_cap=cap)
                            assert same(spec), (bits, r, n, t, k, cap)
                            if n == top and bits == 5:
                                for workers in (2, 3, 4):
                                    assert same(spec, workers), (bits, r, n, t, k, cap, workers)
    assert_no_child()


def test_all_ties_witness_path_keeps_narrow_hits(monkeypatch):
    # At k=0 every graph ties at 0, so every surviving mask of every
    # orbit-least chunk is a hit.  Triangle-free on 8 vertices: the 38
    # chunks past the prefix test keep 39,712 masks; unfiltered, all 8192
    # masks of each of the 156 chunks, 1,277,952 in all.  They stay uint16
    # low patterns, 2 bytes each, where a list of Python ints would take
    # about 36 bytes each.  The first mask, the edgeless graph, fills the
    # cap of 1, and the next class truncates.
    import mislab.search as search

    kept = []
    dedup = search._dedup_witnesses
    monkeypatch.setattr(search, "_dedup_witnesses",
                        lambda n, r, cap, results: kept.append(results) or dedup(n, r, cap, results))
    for t, chunks, hits in ((3, 38, 39_712), (None, 156, 1_277_952)):
        spec = SearchSpec(8, k=0, t=t, collect_witnesses=True, witness_cap=1)
        want = {"spec": {"n": 8, "k": 0, "t": t, "r": 2, "witnesses": True}, "value": 0,
                "witnesses": ["G?????"], "graphs_scanned": 1 << 28, "truncated": True}
        kept.clear()
        for workers in (1, 2):
            assert json.dumps(exhaustive_m(spec, workers=workers).to_json()) == json.dumps(want)
        assert len(kept) == 2
        for results in kept:
            assert len(results) == chunks, t
            assert sum(len(x) for _, x in results) == hits, t
            assert sum(x.nbytes for _, x in results) == 2 * hits, t
    assert_no_child()


def test_each_process_ships_only_the_hits_at_its_own_best(monkeypatch):
    # Chunk values rise and fall along each process's share.  A child sends
    # back the hits of its chunks at its own best only, and of all shares the
    # chunks at the overall best reach the deduplication, in ascending order.
    import pickle

    import mislab.search as search

    width = search._chunk_width(7, 2)
    reps = list(search._orbit_least(7, 2, width))
    value = {c: c * 7 % 5 for c in reps}
    top = max(value.values())
    shipped, kept = [], []
    load = pickle.load
    monkeypatch.setattr(pickle, "load", lambda pipe: shipped.append(load(pipe)) or shipped[-1])
    monkeypatch.setattr(search, "_cpu_count", lambda: 4)
    monkeypatch.setattr(search, "_scan_chunk",
                        lambda job: (value[job[4] >> width], [job[4] >> width]))
    monkeypatch.setattr(search, "_dedup_witnesses",
                        lambda n, r, cap, results: kept.append(results) or ([], False))
    rep = exhaustive_m(SearchSpec(7, k=2, collect_witnesses=True), workers=3)
    assert rep.value == top and len(shipped) == 2
    for i, (best, pairs) in enumerate(shipped, 1):
        share = reps[i::3]
        assert best == max(value[c] for c in share)
        assert pairs == [(c << width, [c]) for c in share if value[c] == best], i
    assert sum(len(pairs) for _, pairs in shipped) < len(reps) - len(reps[::3])
    assert kept == [[(c << width, [c]) for c in reps if value[c] == top]]
    assert_no_child()


def test_two_worker_verify_leaves_no_child():
    rows = verify_theorem("nielsen", range(7, 8), k_range=range(2, 4), workers=2)
    assert rows == verify_theorem("nielsen", range(7, 8), k_range=range(2, 4))
    assert all(r.match for r in rows)
    assert_no_child()
    with pytest.raises(ValueError, match="^worker count must be >= 1, got 0$"):
        verify_theorem("nielsen", range(7, 8), k_range=range(2, 4), workers=0)
    with pytest.raises(ValueError, match="^worker count must be >= 1, got -5$"):
        exhaustive_m(SearchSpec(5, k=2), workers=-5)


def test_witness_reports_list_every_class_up_to_the_cap():
    # Class counts from OEIS: A000088 (graphs) and A006785 (triangle-free
    # graphs).  A report is truncated exactly when a class beyond the cap
    # exists, whatever the scan's chunks hold.
    def report(n, k, t=None, cap=64):
        rep = exhaustive_m(SearchSpec(n, k=k, t=t, collect_witnesses=True, witness_cap=cap))
        return len(rep.witnesses), rep.truncated

    assert report(6, 0, cap=200) == (156, False)
    assert report(7, 0, t=3, cap=107) == (107, False)
    assert report(7, 0, t=3, cap=106) == (106, True)
    assert report(5, 2, cap=1) == (1, False)


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this mislab; a hang shows as a timeout."""
    import mislab

    src = os.path.dirname(os.path.dirname(mislab.__file__))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_two_worker_witness_pass_never_hangs():
    # The witness pass stops early here: every graph on 7 vertices ties at
    # k=0, and the cap is one class.  The child sends every hit of its share
    # before the deduplication starts, so stopping never leaves it blocked on
    # a full pipe, and it is reaped every time.
    proc = _run_python(
        "import os\n"
        "from mislab import SearchSpec, exhaustive_m\n"
        "spec = SearchSpec(7, k=0, collect_witnesses=True, witness_cap=1)\n"
        "for _ in range(120):\n"
        "    rep = exhaustive_m(spec, workers=2)\n"
        "    assert (rep.witnesses, rep.truncated) == (['F????'], True), rep\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError('a child is left')\n"
    )
    assert proc.returncode == 0, proc.stderr


def _two_process_scan(monkeypatch, in_parent, in_child):
    """Run a 2-process scan whose chunk scans call ``in_parent`` or ``in_child``."""
    import mislab.search as search

    parent = os.getpid()
    monkeypatch.setattr(search, "_cpu_count", lambda: 2)
    monkeypatch.setattr(
        search, "_scan_chunk", lambda job: in_parent() if os.getpid() == parent else in_child()
    )
    exhaustive_m(SearchSpec(7, k=2), workers=2)


def test_an_exception_in_a_child_is_raised_in_the_parent(monkeypatch):
    def fail():
        raise ArithmeticError(f"chunk failed in {os.getpid()}")

    with pytest.raises(ArithmeticError, match=r"^chunk failed in (\d+)$") as caught:
        _two_process_scan(monkeypatch, lambda: (-1, []), fail)
    assert caught.value.args[0] != f"chunk failed in {os.getpid()}"
    assert_no_child()


def test_a_failure_in_the_parent_kills_and_reaps_the_children(monkeypatch):
    # The child would scan for a minute; the parent's share fails at once.
    for error in (ValueError("parent chunk"), KeyboardInterrupt()):
        def fail():
            raise error

        start = time.monotonic()
        with pytest.raises(type(error)):
            _two_process_scan(monkeypatch, fail, lambda: time.sleep(60))
        assert time.monotonic() - start < 30
        assert_no_child()


def test_a_child_that_dies_without_a_result_is_an_error(monkeypatch):
    for die in (lambda: os._exit(3), lambda: os.kill(os.getpid(), signal.SIGKILL)):
        with pytest.raises(RuntimeError, match=r"^scan worker \d+ exited without a result$"):
            _two_process_scan(monkeypatch, lambda: (-1, []), die)
        assert_no_child()


def test_a_child_runs_no_exit_hook_and_flushes_no_inherited_buffer():
    # The line waiting in stdout's buffer at the fork, the exit hook and the
    # report each appear once: a child that returned through the caller
    # would print all three again.
    proc = _run_python(
        "import atexit, sys\n"
        "import mislab.search\n"
        "from mislab.cli import main\n"
        "mislab.search._cpu_count = lambda: 2\n"
        "atexit.register(print, 'exit hook')\n"
        "print('buffered')\n"
        "sys.exit(main(['search', '--n', '7', '--k', '2', '--threads', '2']))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("buffered\n{") and proc.stdout.endswith("}\nexit hook\n")
    for text in ("buffered", "exit hook", '"result"'):
        assert proc.stdout.count(text) == 1, proc.stdout


def _brute_stabiliser(n: int, r: int, width: int) -> set[tuple[int, ...]]:
    low = set(list(combinations(range(n), r))[:width])
    return {
        perm
        for perm in permutations(range(n))
        if all(tuple(sorted(perm[v] for v in s)) in low for s in low)
    }


def _generated(n: int, swaps: list[tuple[int, int]]) -> set[tuple[int, ...]]:
    """Every permutation of range(n) that a product of the label ``swaps`` makes."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        perm = frontier.pop()
        for i, j in swaps:
            image = tuple(j if v == i else i if v == j else v for v in perm)
            if image not in group:
                group.add(image)
                frontier.append(image)
    return group


def test_orbit_group_is_the_low_slot_stabiliser():
    import mislab.search as search

    for r, top in ((2, 6), (3, 5)):
        for n in range(1, top + 1):
            for width in range(math.comb(n, r) + 1):
                swaps = search._low_swaps(n, r, width)
                assert _generated(n, swaps) == _brute_stabiliser(n, r, width), (r, n, width)
    # At the real widths, past the reach of n! brute force: Sym({0, 1}) x
    # Sym({2, ..., n-1}) at the vertex cut, and the old fixed cut at 16 bits
    # at n=8; every element keeps the low slots low.
    for n, r, width, order in ((8, 2, 13, 1440), (7, 2, 11, 240), (6, 3, 16, 48), (8, 2, 16, 24)):
        assert search._chunk_width(n, r) == width or width == 16 and r == 2
        slots = list(combinations(range(n), r))
        low = set(slots[:width])
        group = _generated(n, search._low_swaps(n, r, width))
        assert len(group) == order, (n, r, width)
        for perm in group:
            assert all(tuple(sorted(perm[v] for v in s)) in low for s in low), (n, r, perm)


def _brute_orbit_least(n: int, r: int, width: int) -> list[int]:
    """The chunks least in their orbit under every relabelling keeping the low slots low."""
    slots = list(combinations(range(n), r))
    index = {s: b for b, s in enumerate(slots)}
    images = [[1 << index[tuple(sorted(perm[v] for v in s))] for s in slots]
              for perm in _brute_stabiliser(n, r, width)]
    reps = []
    for c in range(1 << (len(slots) - width)):
        prefix = [b for b in range(width, len(slots)) if (c << width) >> b & 1]
        if all(sum(image[b] for b in prefix) >> width >= c for image in images):
            reps.append(c)
    return reps


def _brute_killers(n: int, r: int, width: int, t: int | None) -> list[int]:
    """Per t-set of vertices whose slots are all high, those slots as a chunk index."""
    slots = list(combinations(range(n), r))
    index = {s: b - width for b, s in enumerate(slots)}
    return [sum(1 << index[s] for s in combinations(sub, r))
            for sub in (combinations(range(n), t) if t is not None else ())
            if all(index[s] >= 0 for s in combinations(sub, r))]


def test_orbit_least_chunks_match_brute_force_orbits():
    # Against every relabelling found by brute force, the real width at n=7
    # (Sym(5) x Sym(2) on 1024 chunks) included, for every clique size: the
    # live chunks are those whose prefix holds no K_t on high slots only.
    import mislab.search as search

    for n, r, width in ((5, 2, 3), (5, 2, 5), (6, 2, 8), (4, 3, 2), (5, 3, 3), (7, 2, 11)):
        brute = _brute_orbit_least(n, r, width)
        assert list(search._orbit_least(n, r, width)) == brute, (n, r, width)
        for t in (None, *range(r + 1, n + 1)):
            killers = _brute_killers(n, r, width, t)
            want = [c for c in brute if not any(c & k == k for k in killers)]
            assert list(search._orbit_least(n, r, width, t)) == want, (n, r, width, t)


def test_swap_tables_map_live_chunks_onto_live_chunks():
    # Each swap that moves a high slot acts on chunk indices as the two
    # tables say, and maps the chunks whose prefix holds no killer onto such
    # chunks for every t: the spread over live chunks never leaves them.
    import numpy as np

    import mislab.search as search

    for n, r, width in ((8, 2, 13), (7, 2, 11), (6, 3, 16), (6, 2, 8), (5, 3, 3), (5, 2, 5)):
        slots = list(combinations(range(n), r))
        index = {s: b for b, s in enumerate(slots)}
        bits = len(slots) - width
        chunks = np.arange(1 << bits)
        images = []
        for i, j in search._low_swaps(n, r, width):
            image = np.zeros_like(chunks)
            for b, s in enumerate(slots[width:]):
                to = index[tuple(sorted(j if v == i else i if v == j else v for v in s))] - width
                image |= (chunks >> b & 1) << to
            if not np.array_equal(image, chunks):
                images.append(image)
        half, tables = search._swap_tables(n, r, width)
        assert len(tables) == len(images), (n, r, width)
        for (lows, highs), image in zip(tables, images):
            assert lows.dtype == highs.dtype == np.intp
            assert np.array_equal(lows[chunks & (1 << half) - 1] | highs[chunks >> half], image)
        for t in range(r + 1, n + 1):
            live = np.ones(len(chunks), dtype=bool)
            for k in _brute_killers(n, r, width, t):
                live &= chunks & k != k
            for image in images:
                assert live[image[live]].all(), (n, r, width, t)


def _class_count(n: int, r: int) -> int:
    """Isomorphism classes of r-graphs on n vertices, by brute force over relabellings."""
    slots = list(combinations(range(n), r))
    index = {s: b for b, s in enumerate(slots)}
    images = [[1 << index[tuple(sorted(perm[v] for v in s))] for s in slots]
              for perm in permutations(range(n))]
    return len({min(sum(image[b] for b in range(len(slots)) if mask >> b & 1) for image in images)
                for mask in range(1 << len(slots))})


def test_orbit_least_chunks_are_the_classes_on_the_last_vertices():
    # At the vertex cut a chunk fixes the r-graph on vertices 2..n-1, and
    # its orbit-least chunks are that r-graph's isomorphism classes: the
    # graphs on 5 and 6 vertices in networkx's atlas (34 and 156), the
    # triangle-free ones on 5 and 6 (14 and 38, OEIS A006785) among the live
    # chunks at t=3, and 5 classes of 3-graphs on 4 vertices.  At n=8 each
    # atlas graph on 6 vertices is isomorphic to exactly one orbit-least
    # prefix, and each triangle-free one to exactly one live prefix.
    import mislab.search as search

    nx = pytest.importorskip("networkx")
    atlas = {m: [g for g in nx.graph_atlas_g() if g.number_of_nodes() == m] for m in (5, 6)}
    free = {m: [g for g in atlas[m] if not any(nx.triangles(g).values())] for m in (5, 6)}
    assert _class_count(4, 3) == 5
    for n, r, want in ((7, 2, len(atlas[5])), (8, 2, len(atlas[6])), (6, 3, _class_count(4, 3))):
        assert len(search._orbit_least(n, r, search._chunk_width(n, r))) == want, (n, r)
    assert (len(free[5]), len(free[6])) == (14, 38)
    assert len(search._orbit_least(7, 2, 11, 3)) == 14
    assert len(search._orbit_least(8, 2, 13, 3)) == 38
    width = search._chunk_width(8, 2)
    slots = list(combinations(range(8), 2))

    def prefixes(t):
        graphs = []
        for c in search._orbit_least(8, 2, width, t):
            g = nx.empty_graph(range(2, 8))
            g.add_edges_from(s for b, s in enumerate(slots) if (c << width) >> b & 1)
            graphs.append(g)
        return graphs

    for graphs, listed in ((atlas[6], prefixes(None)), (free[6], prefixes(3))):
        for g in graphs:
            assert sum(nx.is_isomorphic(g, h) for h in listed
                       if sorted(d for _, d in g.degree) == sorted(d for _, d in h.degree)) == 1
    killers, _, _ = search._clique_filter(8, 2, 3, width)
    past = [c for c in search._orbit_least(8, 2, width)
            if not any(c << width & km == km for km in killers)]
    assert past == list(search._orbit_least(8, 2, width, 3))


def test_census_scans_one_chunk_per_orbit(monkeypatch):
    # At n=8 the cut at vertex 2 leaves 156 orbit-least chunks of 32,768
    # (the graphs on 6 vertices, OEIS A000088), 38 of them past the prefix
    # test (the triangle-free ones, A006785): those 38 are the live chunks,
    # and the only jobs.  One pass scans each once, in ascending order,
    # collecting the hits at each chunk's best; none is killed, and one
    # mask, the least copy of the one class, is canonicalised.
    import mislab.search as search

    width = search._chunk_width(8, 2)
    reps = list(search._orbit_least(8, 2, width))
    killers, _, _ = search._clique_filter(8, 2, 3, width)
    past = [c for c in reps if not any(c << width & km == km for km in killers)]
    assert (width, len(reps), len(past)) == (13, 156, 38)
    jobs, values, forms = [], [], []
    scan, canon = search._scan_chunk, search.canonical_form

    def spy(job):
        jobs.append(job)
        values.append(scan(job))
        return values[-1]

    monkeypatch.setattr(search, "_scan_chunk", spy)
    monkeypatch.setattr(search, "canonical_form", lambda g: forms.append(g) or canon(g))
    rep = uniqueness_check(8)
    assert (rep.value, rep.witnesses, rep.truncated) == (4, ["G?]uf?"], False)
    assert rep.graphs_scanned == 1 << 28
    assert [job[4] >> width for job in jobs] == past
    assert all(job[5] - job[4] == 1 << 13 and job[6] for job in jobs)
    assert all(value >= 0 for value, _ in values)
    assert len(forms) == 1


def test_census_deals_its_live_chunks_evenly(monkeypatch):
    # With 2 processes the census's 38 live chunks fall 19 to the caller
    # (jobs[0::2]) and 19 to the child (jobs[1::2]), none of them killed.
    # Every chunk is at the best here, so the child ships the hit of each of
    # its chunks and the deduplication reads those of both shares.
    import pickle

    import mislab.search as search

    width = search._chunk_width(8, 2)
    live = [c << width for c in search._orbit_least(8, 2, width, 3)]
    killers, _, _ = search._clique_filter(8, 2, 3, width)
    shipped, kept = [], []
    load = pickle.load
    monkeypatch.setattr(pickle, "load", lambda pipe: shipped.append(load(pipe)) or shipped[-1])
    monkeypatch.setattr(search, "_cpu_count", lambda: 2)
    monkeypatch.setattr(search, "_scan_chunk", lambda job: (0, [job[4]]))
    monkeypatch.setattr(search, "_dedup_witnesses",
                        lambda n, r, cap, results: kept.append(results) or ([], False))
    exhaustive_m(SearchSpec(8, k=2, t=3, collect_witnesses=True), workers=2)
    [(best, child)] = shipped
    assert best == 0 and [lo for lo, _ in child] == live[1::2]
    assert kept == [[(lo, [lo]) for lo in live]]
    assert len(live[0::2]) == len(live[1::2]) == 19
    assert not any(lo & km == km for lo in live for km in killers)
    assert_no_child()


def test_adjacent_swaps_relabel_and_keep_the_least_copy(monkeypatch):
    # Each delta-swap is the relabelling i <-> i+1, and the least labelled
    # copy of a class always passes the pre-filter, so it is canonicalised
    # first.
    import mislab.search as search

    rng = random.Random(47)
    for r in (2, 3):
        for _ in range(30):
            n = rng.randint(r, 6)
            slots = list(combinations(range(n), r))
            bit_of = {s: 1 << b for b, s in enumerate(slots)}
            mask = rng.randrange(1 << len(slots))
            g = graph_from_edge_mask(n, mask, r)
            listed = edges(g) if r == 2 else list(g.edges)

            def relabelled(perm):
                return sum(bit_of[tuple(sorted(perm[v] for v in e))] for e in listed)

            swaps = search._adjacent_swaps(n, r)
            assert len(swaps) == n - 1
            for i, swap in enumerate(swaps):
                perm = list(range(n))
                perm[i], perm[i + 1] = i + 1, i
                assert search._swapped(mask, swap) == relabelled(perm), (r, n, mask, i)
            copies = sorted({relabelled(perm) for perm in permutations(range(n))})
            forms = []
            canon = search.canonical_form
            monkeypatch.setattr(search, "canonical_form", lambda h: forms.append(h) or canon(h))
            got = search._dedup_witnesses(n, r, 64, [(0, copies)])
            monkeypatch.undo()
            assert got == ([canon(g).decode("ascii")], False)
            assert forms[0] == graph_from_edge_mask(n, copies[0], r), (r, n, mask)


def test_prefilter_skips_only_copies_above_their_least():
    # Hand-made witness passes: every labelled copy of a few random classes,
    # grouped into chunks, of which only the orbit-least ones are read, in
    # ascending order.  The least copy of each class lies in one of them and
    # passes the pre-filter, so the classes and the truncation flag are
    # those of canonicalising every copy: the first `cap` classes by least
    # copy, truncated exactly when more exist.
    import mislab.search as search

    rng = random.Random(53)
    for _ in range(150):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, 5)
        slots = list(combinations(range(n), r))
        bit_of = {s: 1 << b for b, s in enumerate(slots)}
        width = rng.randint(1, len(slots) - 1)
        copies = set()
        for _ in range(rng.randint(1, 4)):
            mask = rng.randrange(1 << len(slots))
            edges = [s for s in slots if mask & bit_of[s]]
            copies |= {
                sum(bit_of[tuple(sorted(perm[v] for v in e))] for e in edges)
                for perm in permutations(range(n))
            }
        least = set(search._orbit_least(n, r, width))
        chunks: dict[int, list[int]] = {}
        for mask in sorted(copies):
            if mask >> width in least:
                chunks.setdefault(mask >> width, []).append(mask)
        classes = list(dict.fromkeys(
            canonical_form(graph_from_edge_mask(n, mask, r)).decode("ascii")
            for mask in sorted(copies)
        ))
        cap = rng.randint(1, 5)
        got = search._dedup_witnesses(n, r, cap, [(0, masks) for masks in chunks.values()])
        assert got == (sorted(classes[:cap]), len(classes) > cap), (r, n, width, cap)


def test_graph_from_edge_mask_round_trip():
    # Bit b of the mask is the b-th r-subset in combinations order.
    rng = random.Random(3)
    for _ in range(30):
        for r in (2, 3):
            n = rng.randint(r, 7)
            slots = list(combinations(range(n), r))
            mask = rng.randrange(1 << len(slots))
            want = [s for b, s in enumerate(slots) if mask >> b & 1]
            g = graph_from_edge_mask(n, mask, r)
            assert g.n == n
            assert (edges(g) if r == 2 else list(g.edges)) == want
    assert graph_from_edge_mask(4, 0b100001) == Graph.from_edges(4, [(0, 1), (2, 3)])


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


def _naive_chunk(n, k, t, lo, hi, r=2):
    """The best count over the masks in [lo, hi) that pass the clique filter,
    and the masks reaching it, ascending, by a per-r-graph subset scan."""
    from itertools import combinations

    from naive import hyper_contains_complete, naive_has_clique, naive_hyper_count_k_mis
    from naive import naive_mis_list, naive_mis_profile

    slots = list(combinations(range(n), r))
    best, hits = -1, []
    for mask in range(lo, hi):
        edges = [s for b, s in enumerate(slots) if mask >> b & 1]
        if r == 3:
            h = Hypergraph(n, tuple(edges))
            if t is not None and hyper_contains_complete(h, t, 3):
                continue
            sizes = [k] if k is not None else range(n + 1)
            value = sum(naive_hyper_count_k_mis(h, size) for size in sizes)
        else:
            g = Graph.from_edges(n, edges)
            if t is not None and naive_has_clique(g, t):
                continue
            if k is not None:
                value = len(naive_mis_list(g, k))
            else:
                value = sum(naive_mis_profile(g).values())
        if value > best:
            best, hits = value, []
        if value == best:
            hits.append(mask)
    return best, hits


def test_narrow_scan_kernel_matches_naive_counts_on_high_chunks():
    # Chunks whose fixed prefix sets high bits, scanned at width 8, where the
    # low patterns are uint8: every inside mask reaching past the low bits
    # must be cut to them, and every low bit, the top one included, counts.
    import mislab.search as search

    n, width = 7, 8
    top = 1 << 21
    rng = random.Random(8)
    los = [rng.randrange(1, top >> width) << width for _ in range(3)]
    los += [top >> 1, top - (1 << width)]
    for lo in los:
        hi = lo + (1 << width)
        for t in (None, 3):
            for k in (2, None):
                best, hits = _naive_chunk(n, k, t, lo, hi)
                got, low = search._scan_chunk((n, 2, k, t, lo, hi, True))
                assert (got, [lo + int(x) for x in low]) == (best, hits), (lo, t, k)
                got = search._scan_chunk((n, 2, k, t, lo, hi, False))
                assert got == (best, []), (lo, t, k)


def test_keep_mask_matches_naive_counts_on_chosen_chunks():
    # A chunk's active straddlers build one keep-mask: their single-slot lows
    # merged into one compare, and each multi-slot low that misses that
    # merged mask applied on its own.  Width-8 chunks picked from the clique
    # filter's own split put each case to work.
    import mislab.search as search

    width = 8

    def chunks(n, r, t):
        killers, straddlers, _ = search._clique_filter(n, r, t, width)
        for lo in range(0, 1 << math.comb(n, r), 1 << width):
            if not any(lo & km == km for km in killers):
                yield lo, [low for high, low in straddlers if lo & high == high]

    def multi_meets_single(lows):
        single = sum({low for low in lows if low.bit_count() == 1})
        return any(low.bit_count() > 1 and low & single for low in lows)

    picked = [
        (7, 2, 4, next(lo for lo, lows in chunks(7, 2, 4)
                       if any(low.bit_count() == 5 for low in lows))),
        (6, 3, 4, next(lo for lo, lows in chunks(6, 3, 4)
                       if any(low.bit_count() > 1 for low in lows))),
        (7, 2, 3, next(lo for lo, lows in chunks(7, 2, 3) if multi_meets_single(lows))),
        (7, 2, 4, [lo for lo, lows in chunks(7, 2, 4) if not lows][-1]),
    ]
    for n, r, t, lo in picked:
        hi = lo + (1 << width)
        for k in (2, None):
            best, hits = _naive_chunk(n, k, t, lo, hi, r)
            got, low = search._scan_chunk((n, r, k, t, lo, hi, True))
            assert (got, [lo + int(x) for x in low]) == (best, hits), (n, r, t, lo, k)
            got = search._scan_chunk((n, r, k, t, lo, hi, False))
            assert got == (best, []), (n, r, t, lo, k)


def test_width_16_chunk_matches_naive_counts():
    # One chunk at the real width, where the low patterns, and so the hits
    # the chunk returns, are uint16.
    import numpy as np

    import mislab.search as search

    lo, hi = 0b01101 << 16, 0b01110 << 16
    best, hits = _naive_chunk(7, 2, 3, lo, hi)
    assert best == 3 and hits
    got, low = search._scan_chunk((7, 2, 2, 3, lo, hi, True))
    assert low.dtype == np.uint16
    assert (got, [lo + int(x) for x in low]) == (best, hits)


def test_count_dtype_holds_the_sperner_bound(monkeypatch):
    # The MIS's of an r-graph form an antichain, so by Sperner's theorem no
    # count exceeds C(n, n // 2); the kernel's count array must hold that for
    # every n the scan admits.
    from itertools import count

    import numpy as np

    import mislab.search as search

    dtypes = []
    zeros = np.zeros

    def spy(shape, dtype):
        dtypes.append(np.dtype(dtype))
        return zeros(shape, dtype)

    monkeypatch.setattr(np, "zeros", spy)
    for r in (2, 3):
        for n in count(1):
            bits = math.comb(n, r)
            if bits > search.SCAN_BITS_CAP:
                break
            width = min(bits, 8)
            search._scan_chunk((n, r, None, None, 0, 1 << width, False))
            assert np.iinfo(dtypes[-1]).max >= math.comb(n, n // 2), (r, n, dtypes[-1])
    assert len(dtypes) == 8 + 6
