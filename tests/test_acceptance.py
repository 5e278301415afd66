"""Acceptance suite: one test per verification target, exact tolerances.

Every test prints a single [PASS]/[FAIL] line naming what it established
(visible with `pytest -s` or in failure output).  All comparisons are exact
integer comparisons; randomized corpora use frozen seeds.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb

from mislab import (
    SearchSpec,
    behrend_set,
    c4_leaves_graph,
    canonical_form,
    cliques_of_size,
    comatching,
    count_k_mis,
    count_transversal_mis,
    exhaustive_m,
    gadget,
    has_clique,
    hypergraph_count_k_mis,
    is_maximal_independent,
    PartitionedGraph,
    rs_packing,
    shadow,
    star_hypergraph,
    tight_cycle,
    tight_cycle_blowup,
    transversal_reduction,
    tripartite_T_bound_check,
    uniqueness_check,
    verify_theorem,
)
from naive import (
    hyper_contains_complete,
    naive_hyper_count_k_mis,
    naive_mis_profile,
    random_graph,
    random_hypergraph3,
    random_triangle_free,
    random_tripartite_triangle_free,
)

WORKERS = 2


def check(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_max_mis_matches_closed_form_small_n():
    t0 = time.monotonic()
    want = {2: 2, 3: 3, 4: 4, 5: 6, 6: 9, 7: 12}
    got = {n: exhaustive_m(SearchSpec(n)).value for n in want}
    elapsed = time.monotonic() - t0
    check(f"max MIS count over all graphs, n=2..7: {got} ({elapsed:.1f}s)",
          got == want and elapsed < 60)


def test_triangle_free_max_mis_matches_closed_form():
    t0 = time.monotonic()
    want = {4: 4, 5: 5, 6: 8, 7: 10}
    got = {n: exhaustive_m(SearchSpec(n, t=3)).value for n in want}
    elapsed = time.monotonic() - t0
    check(f"max MIS count over triangle-free graphs, n=4..7: {got} ({elapsed:.1f}s)",
          got == want and elapsed < 60)


def test_fixed_size_max_mis_matches_closed_form():
    t0 = time.monotonic()
    rows = verify_theorem("nielsen", range(3, 8), k_range=range(2, 7))
    elapsed = time.monotonic() - t0
    pairs = {(dict(r.params)["n"], dict(r.params)["k"]) for r in rows}
    ok = all(r.match for r in rows) and pairs == {
        (n, k) for n in range(3, 8) for k in range(2, n)
    }
    check(
        f"max k-MIS count matches floor/ceil product for 2 <= k < n <= 7 ({elapsed:.1f}s)",
        ok and elapsed < 120,
    )


def test_triangle_free_two_mis_table():
    t0 = time.monotonic()
    rows = verify_theorem("m3n2", range(3, 8))
    elapsed = time.monotonic() - t0
    got = {dict(r.params)["n"]: r.computed for r in rows}
    ok = got == {3: 2, 4: 4, 5: 5, 6: 3, 7: 3} and all(r.match for r in rows)
    check(f"triangle-free 2-MIS maxima for n=3..7: {got} ({elapsed:.1f}s)",
          ok and elapsed < 60)


def test_triangle_free_two_mis_unique_witness_at_n8():
    t0 = time.monotonic()
    rep = uniqueness_check(8, workers=WORKERS)
    elapsed = time.monotonic() - t0
    assert elapsed < 3600
    expected = canonical_form(comatching(8).graph).decode("ascii")
    ok = (
        rep.value == 4
        and rep.witnesses == [expected]
        and not rep.truncated
        and rep.graphs_scanned == 1 << comb(8, 2)
    )
    check(
        f"n=8 triangle-free census: value {rep.value}, witness classes "
        f"{len(rep.witnesses)}, unique witness is the matched-complement graph",
        ok,
    )


def test_triangle_free_two_mis_nonuniqueness_at_n6():
    rep = uniqueness_check(6)
    got = set(rep.witnesses)
    ok = (
        rep.value == 3
        and len(got) >= 2
        and canonical_form(c4_leaves_graph()).decode("ascii") in got
    )
    check(
        f"n=6 two-MIS extremal classes: {len(got)} non-isomorphic witnesses, "
        "including the 4-cycle-with-leaves graph",
        ok,
    )


def test_single_vertex_mis_formula():
    rows = verify_theorem("mt-n1", range(2, 7), t_range=range(3, 6))
    ok = all(r.match for r in rows) and len(rows) == 15
    check("1-MIS maxima match the two-case count for t=3..5, n=2..6", ok)


def test_hypergraph_star_values_and_search():
    t0 = time.monotonic()
    star_ok = True
    for n in (4, 5, 6):
        h = star_hypergraph(n)
        star_ok &= hypergraph_count_k_mis(h, 2) == n - 1
        star_ok &= not hyper_contains_complete(h, 4, 3)
    rows = verify_theorem("hyper-m432", range(4, 6))
    ok = star_ok and all(r.match for r in rows) and time.monotonic() - t0 < 60
    check(
        "star 3-graphs have exactly n-1 two-MIS's and the exhaustive "
        "3-uniform search confirms the maximum at n=4..5",
        ok,
    )


def test_tight_cycle_shadow_clique_freeness():
    ok = True
    for r in (2, 3, 4, 5):
        for k in range(2 * r, 13):
            ok &= not has_clique(shadow(tight_cycle(r, k)), r + 1)
    # the length hypothesis is necessary: short cycles do produce the clique
    witnessed = all(
        has_clique(shadow(tight_cycle(r, k)), r + 1)
        for r, k in ((2, 3), (3, 5), (4, 7), (5, 9))
    )
    check(
        "tight-cycle shadows are K_{r+1}-free for r=2..5, 2r <= k <= 12, "
        "and pick up K_{r+1} below the length threshold",
        ok and witnessed,
    )


def test_blowup_families_and_clique_freeness():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for m in (2, 3):
        bw = tight_cycle_blowup(5, 3, m)
        ok &= bw.graph.n == 5 * m * m
        ok &= not has_clique(bw.graph, 3)
        ok &= count_k_mis(bw.graph, 5) >= m**5
        for _ in range(100):
            choice = tuple(rng.randrange(len(e)) for e in bw.gadget_mis)
            ok &= is_maximal_independent(bw.graph, bw.family_mis(choice))
    for k in (6, 7):
        bw = tight_cycle_blowup(k, 4, 2)
        ok &= not has_clique(bw.graph, 4)
        ok &= count_k_mis(bw.graph, k) >= 2**k
    ok &= time.monotonic() - t0 < 300
    check(
        "cycle blowups are clique-free with at least m^k MIS's of size k, "
        "and sampled family members are maximal independent sets",
        ok,
    )


def test_triangle_packing_gadgets():
    ok = True
    for m in range(3, 9):
        packing = rs_packing(m)  # construction validates the packing axioms
        g = packing.pg.graph
        per_edge: dict[tuple[int, int], int] = {}
        for tri in cliques_of_size(g, 3):
            for pair in combinations(tri, 2):
                per_edge[pair] = per_edge.get(pair, 0) + 1
        ok &= set(per_edge) == set(g.edges())
        ok &= all(c == 1 for c in per_edge.values())
        ok &= count_transversal_mis(gadget(packing)) >= m * len(behrend_set(m))
    check(
        "triangle packings for m=3..8 put every edge in exactly one triangle "
        "and their gadgets carry at least m*|B(m)| transversal MIS's",
        ok,
    )


def test_counting_agrees_with_subset_scan_oracles():
    rng = random.Random(424242)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        want = naive_mis_profile(g)
        got = {k: c for k in range(n + 1) if (c := count_k_mis(g, k))}
        ok &= got == want
    for _ in range(500):
        n = rng.randint(3, 8)
        h = random_hypergraph3(rng, n, rng.random())
        k = rng.randint(0, n)
        ok &= hypergraph_count_k_mis(h, k) == naive_hyper_count_k_mis(h, k)
    check("graph and 3-graph counters match naive subset scans on 500+500 inputs", ok)


def test_transversal_reduction_meets_bound_on_random_corpus():
    rng = random.Random(777)
    ok = True
    done = 0
    while done < 200:
        n = rng.randint(4, 14)
        g = random_triangle_free(rng, n, rng.random() * 0.6)
        profile: dict[int, int] = {}
        for k in range(1, n + 1):
            c = count_k_mis(g, k)
            if c:
                profile[k] = c
        if not profile:
            continue
        k = max(profile, key=lambda kk: (profile[kk], kk))
        res = transversal_reduction(g, k, retries=100, seed=rng.randrange(1 << 30))
        ok &= res.bound_met
        ok &= res.achieved_T <= res.source_m
        done += 1
    check(
        "random-split transversal reduction met the (4k)^-k bound on all 200 "
        "triangle-free graphs",
        ok,
    )


def test_report_scaling_ratios_without_asserting():
    # Growth-rate claims have no finite-n test; report the observed
    # count / n^exponent ratios for the record and assert nothing about them.
    lines = []
    for m in (2, 3):
        bw = tight_cycle_blowup(5, 3, m)
        n = bw.graph.n
        count = count_k_mis(bw.graph, 5)
        lines.append(f"5-cycle blowup m={m}: count={count} count/n^2.5={count / n**2.5:.4f}")
    for k in (6, 7):
        bw = tight_cycle_blowup(k, 4, 2)
        n = bw.graph.n
        count = count_k_mis(bw.graph, k)
        expo = 2 * k / 3
        lines.append(f"tight blowup t=4 k={k}: count={count} count/n^{expo:.2f}={count / n**expo:.6f}")
    check("scaling ratios reported: " + "; ".join(lines), True)


def test_tripartite_transversal_bound_and_small_k_bound():
    rng = random.Random(31337)
    ok = True
    for _ in range(10_000):
        n = rng.randint(3, 15)
        g, parts = random_tripartite_triangle_free(rng, n, rng.random() * 0.7)
        res = tripartite_T_bound_check(PartitionedGraph.from_parts(g, parts))
        ok &= res.holds
    # max k-MIS counts in K_t-free graphs stay below t * C(n, k-1) for k < t
    for t in (3, 4, 5):
        for k in range(1, t):
            for n in range(max(k, 3), 7):
                value = exhaustive_m(SearchSpec(n, k=k, t=t)).value
                ok &= value <= t * comb(n, k - 1)
    check(
        "transversal count never exceeded |V| on 10^4 triangle-free "
        "tripartite graphs, and small-k maxima respect the t*C(n,k-1) cap",
        ok,
    )
