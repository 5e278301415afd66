"""The oracles on tiny inputs, and the workload checks against wrong answers."""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx

import oracles
import workloads


def test_mis_profile_small_graphs():
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    assert oracles.mis_profile(5, c5) == {2: 5}
    assert oracles.mis_profile(3, []) == {3: 1}
    assert oracles.mis_profile(4, list(combinations(range(4), 2))) == {1: 4}
    assert oracles.mis_profile(0, []) == {0: 1}


def test_mis_profile_agrees_with_networkx():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        assert oracles.mis_profile(n, edges) == oracles.nx_mis_profile(n, edges)
        omega = oracles.clique_number(n, edges)
        assert omega == oracles.nx_clique_number(n, edges)


def test_transversal_count_of_a_comatching():
    # K_{3,3} minus a perfect matching: its transversal MIS's are the 3 non-edges.
    edges = [(u, 3 + v) for u in range(3) for v in range(3) if u != v]
    assert oracles.transversal_mis_count(6, edges, [[0, 1, 2], [3, 4, 5]]) == 3


def test_hypergraph_counts():
    star = [(0, u, w) for u in range(1, 5) for w in range(u + 1, 5)]
    assert oracles.hyper_count_k_mis(5, star, 2) == 4
    assert oracles.hyper_mis_profile(5, star) == {2: 4, 4: 1}
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(3, 7)
        edges = [e for e in combinations(range(n), 3) if rng.random() < 0.3]
        profile = oracles.hyper_mis_profile(n, edges)
        assert profile == {
            k: c for k in range(n + 1) if (c := oracles.hyper_count_k_mis(n, edges, k))
        }


def test_hyper_extremal_scan_matches_exhaustive_search_at_n5():
    from mislab import SearchSpec, exhaustive_m

    want = oracles.naive_hyper_extremal(5, 4)
    got = {k: exhaustive_m(SearchSpec(5, k=k, t=4, r=3)).value for k in range(1, 6)}
    assert want == got
    assert oracles.HYPER_N6_T4[2] == oracles.hyper_m432(6)


def test_graph6_matches_networkx():
    rng = random.Random(3)
    for n in range(1, 13):
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        text = oracles.graph6(n, edges)
        assert text.encode() == nx.to_graph6_bytes(g, header=False).strip()
        assert oracles.graph6_edges(text) == (n, sorted(edges))


def test_closed_forms_at_known_values():
    assert [oracles.moon_moser(n) for n in range(2, 8)] == [2, 3, 4, 6, 9, 12]
    assert [oracles.hujter_tuza(n) for n in range(4, 8)] == [4, 5, 8, 10]
    assert [oracles.m3n2(n) for n in range(3, 8)] == [2, 4, 5, 3, 3]
    assert oracles.nielsen(7, 3) == 12 and oracles.mt_n1(4, 7) == 2


def test_corpus_check_passes_on_truth_and_flags_a_wrong_count():
    jobs = workloads.corpus_jobs(seed=4)
    small = [[kind, items[:3]] for kind, items in jobs[:: len(jobs) // 6]]
    for job in small:
        raw = workloads.corpus_run(job, 1)
        assert all(workloads.corpus_check(job, raw))
        assert len(workloads.corpus_check(job, raw)) == len(workloads.corpus_summarize(job, raw))
    graph_job = next(j for j in small if j[0] == "graph6")
    raw = workloads.corpus_run(graph_job, 1)
    g, profile, total, c3, c4 = raw[0]
    raw[0] = (g, profile, total + 1, c3, c4)
    assert workloads.corpus_check(graph_job, raw).count(False) == 1


def test_blowups_check_flags_a_wrong_count():
    job = ["tight", 5, 3, 2]
    raw = workloads.blowups_run(job, 1)
    assert all(workloads.blowups_check(job, raw))
    g, out = raw
    out = list(out)
    out[2] += 1
    assert workloads.blowups_check(job, (g, out)).count(False) == 1


def test_tables_check_flags_a_wrong_row():
    job = ["verify", "--theorem", "m3n2", "--n", "3..5"]
    code, text = workloads.tables_run(job, 1)
    assert workloads.tables_check(job, (code, text)) == [True] * 3
    # mt-n1 rows land in the m3n2 job: every row is wrong.
    other = ["verify", "--theorem", "mt-n1", "--t", "3..3", "--n", "3..5"]
    _, wrong = workloads.tables_run(other, 1)
    assert not any(workloads.tables_check(job, (0, wrong)))


def test_jobs_depend_only_on_the_seed():
    for name, w in workloads.WORKLOADS.items():
        assert w.jobs(7) == w.jobs(7), name
    assert workloads.corpus_jobs(7) != workloads.corpus_jobs(8)


class FakeReport:
    def __init__(self, **changes):
        self.doc = {"value": 4, "witnesses": ["G?]uf?"], "graphs_scanned": 1 << 28,
                    "truncated": False, **changes}

    def to_json(self) -> dict:
        return self.doc


def test_census_check_accepts_the_comatching_and_nothing_else():
    assert workloads.census_check([], FakeReport()) == [True]
    assert workloads.census_check([], FakeReport(witnesses=["G?]uf?", "G?B@`w"])) == [False]
    assert workloads.census_check([], FakeReport(graphs_scanned=1 << 27)) == [False]
    assert workloads.census_check([], FakeReport(value=5)) == [False]
