"""The benchmark's workloads: inputs from a seed, timed calls, checks.

Each workload is a list of jobs, plain data made from the seed alone.
`run` makes one job's timed calls into mislab and returns the raw outputs;
`summarize` turns them into a list of plain values, one per checked
operation, which the harness compares across repetitions; `check` tests raw
outputs against the independent answers in `oracles` and returns one verdict
per value.  Only `run` is timed.

mislab is imported inside the functions, after the harness has put the
checkout's ``src`` first on ``sys.path``.  Calls go through module attributes
(``engine.count_k_mis``), so the tracer's wrappers see every one.

README.md gives, for each workload, why it was chosen and which layers it
stresses or bypasses.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import oracles


@dataclass(frozen=True)
class Workload:
    jobs: Callable[[int], list]
    run: Callable[[list, int], Any]
    summarize: Callable[[list, Any], list]
    check: Callable[[list, Any], list[bool]]
    # True: the harness spreads jobs over its own worker pool for the
    # 2-worker time.  False: the jobs pass the worker count to mislab.
    pool_split: bool
    # The speed.LOOPS loop whose speed the timed region is rescaled by: the
    # one most like the workload's hot path.
    probe: str


def edges_of(adj) -> list[tuple[int, int]]:
    """Edge list read straight from adjacency bitmasks."""
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


# census: the n=8 triangle-free 2-MIS census with witnesses.

COMATCHING_8 = [(u, 4 + v) for u in range(4) for v in range(4) if u != v]


def census_jobs(seed: int) -> list:
    return [["uniqueness_check", 8, 2, 3]]


def census_run(job: list, workers: int):
    from mislab import search

    _, n, k, t = job
    return search.uniqueness_check(n, k, t, workers=workers)


def census_summarize(job: list, report) -> list:
    return [json.dumps(report.to_json(), sort_keys=True)]


def census_check(job: list, report) -> list[bool]:
    import networkx as nx

    doc = report.to_json()
    ok = (
        doc["value"] == 4
        and doc["witnesses"] == ["G?]uf?"]
        and doc["graphs_scanned"] == 1 << 28
        and not doc["truncated"]
    )
    if ok:
        n, edges = oracles.graph6_edges(doc["witnesses"][0])
        ok = nx.is_isomorphic(nx.Graph(edges), nx.Graph(COMATCHING_8)) and n == 8
    return [ok]


# tables: every closed-form verify table at small n, plus the 3-uniform scan,
# through the command-line front end.

TABLES = [
    ["verify", "--theorem", "moon-moser", "--n", "2..7"],
    ["verify", "--theorem", "hujter-tuza", "--n", "4..7"],
    ["verify", "--theorem", "nielsen", "--n", "3..7", "--k", "2..6"],
    ["verify", "--theorem", "m3n2", "--n", "3..7"],
    ["verify", "--theorem", "mt-n1", "--t", "3..5", "--n", "1..7"],
    ["verify", "--theorem", "hyper-m432", "--n", "4..6"],
] + [["search", "--n", "6", "--k", str(k), "--t", "4", "--r", "3"] for k in range(1, 7)]


def tables_jobs(seed: int) -> list:
    return [list(argv) for argv in TABLES]


def tables_run(job: list, workers: int):
    from mislab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(job + ["--format", "json", "--threads", str(workers)])
    return code, out.getvalue()


def _span(text: str) -> range:
    lo, hi = text.split("..")
    return range(int(lo), int(hi) + 1)


def _expected_rows(job: list) -> list[dict]:
    opts = dict(zip(job[1::2], job[2::2]))
    if job[0] == "search":
        return [{"k": int(opts["--k"])}]
    theorem = opts["--theorem"]
    ns = _span(opts["--n"])
    if theorem == "nielsen":
        return [{"n": n, "k": k} for n in ns for k in _span(opts["--k"]) if 2 <= k < n]
    if theorem == "mt-n1":
        return [{"t": t, "n": n} for t in _span(opts["--t"]) for n in ns]
    return [{"n": n} for n in ns]


def tables_summarize(job: list, raw) -> list:
    code, text = raw
    result = json.loads(text)["result"]
    if job[0] == "search":
        return [[result["spec"]["k"], result["value"], result["graphs_scanned"]]]
    return [[row["params"], row["computed"]] for row in result["rows"]]


def tables_check(job: list, raw) -> list[bool]:
    code, _ = raw
    values = tables_summarize(job, raw)
    want = _expected_rows(job)
    if code != 0 or len(values) != len(want):
        return [False] * len(values)
    if job[0] == "search":
        k, value, scanned = values[0]
        return [k == want[0]["k"] and value == oracles.HYPER_N6_T4[k] and scanned == 1 << 20]
    formula = oracles.FORMULAS[job[2]]
    return [params == p and computed == formula(p) for (params, computed), p in zip(values, want)]


# blowups: the paper's constructions built, checked K_t-free and counted.


def blowups_jobs(seed: int) -> list:
    rng = random.Random(seed)
    # Heaviest first, so a 2-worker pool finishes close together.
    return [
        ["window", 4, 5, 20],
        ["window", 4, 4, 20],
        ["tight", 10, 4, 2],
        ["tight", 9, 4, 2],
        ["tight", 6, 3, 4],
        ["tight", 8, 4, 2],
        ["tight", 7, 3, 3],
        ["tight", 5, 3, 4],
        ["tight", 5, 3, 3],
        ["tight", 7, 3, 2],
        ["tight", 6, 3, 2],
        ["tight", 5, 3, 2],
        ["union", 9, 4, 3],
        ["union", 12, 5, 2],
        ["union", 6, 3, 4],
        ["rs", 20],
        ["rs", 16],
        ["rs", 12],
        ["rs", 8],
        ["reduce", 6, 3, 2, rng.randrange(1 << 30)],
        ["reduce", 5, 3, 2, rng.randrange(1 << 30)],
    ]


FULL_PROFILE_MAX_N = 40  # count every size only where it stays cheap


def blowups_run(job: list, workers: int):
    from mislab import constructions, engine, graphs

    kind = job[0]
    if kind == "window":
        _, r, k, n = job
        h = constructions.window_hypergraph(r, k, n)
        return h, engine.hypergraph_count_k_mis(h, k)
    if kind == "rs":
        g = constructions.gadget(constructions.rs_packing(job[1]))
        return g, engine.count_transversal_mis(g)
    if kind == "reduce":
        _, k, t, m, seed = job
        g = constructions.tight_cycle_blowup(k, t, m).graph
        return g, engine.transversal_reduction(g, k, retries=100, seed=seed)
    _, k, t, m = job
    if kind == "tight":
        bw = constructions.tight_cycle_blowup(k, t, m)
        g = bw.graph
        extra = [engine.count_transversal_mis(bw.pg), bw.family_size()]
    else:
        g = constructions.disjoint_gadget_union(k, t, m)
        extra = []
    out = [g.n, graphs.has_clique(g, t), engine.count_k_mis(g, k)] + extra
    if g.n <= FULL_PROFILE_MAX_N:
        out.append([engine.count_k_mis(g, j) for j in range(g.n + 1)])
        out.append(engine.count_all_mis(g))
    return g, out


def blowups_summarize(job: list, raw) -> list:
    obj, out = raw
    if job[0] == "window":
        return [out]
    if job[0] == "rs":
        return [obj.graph.n, out]
    if job[0] == "reduce":
        return [out.source_m, out.achieved_T, list(out.composition), out.retries_used]
    return out


def blowups_check(job: list, raw) -> list[bool]:
    obj, out = raw
    kind = job[0]
    if kind == "window":
        _, r, k, n = job
        edges = [tuple(e) for e in obj.edges]
        return [out == oracles.hyper_count_k_mis(n, edges, k)]
    if kind == "rs":
        g = obj.graph
        count = oracles.transversal_mis_count(g.n, edges_of(g.adj), [list(p) for p in obj.parts])
        return [g.n == 6 * job[1], out == count]
    if kind == "reduce":
        k = job[1]
        g = obj
        sub = out.subgraph
        want_m = oracles.nx_mis_profile(g.n, edges_of(g.adj)).get(k, 0)
        want_t = oracles.transversal_mis_count(
            sub.graph.n, edges_of(sub.graph.adj), [list(p) for p in sub.parts]
        )
        return [out.source_m == want_m, out.achieved_T == want_t <= want_m,
                sum(out.composition) == k, 1 <= out.retries_used <= 100]
    _, k, t, m = job
    g = obj
    edges = edges_of(g.adj)
    if kind == "tight":
        n_want = k * m ** (t - 1)
    else:
        q, rest = divmod(k, t - 1)
        n_want = q * (t - 1) * m + (1 if rest == 1 else rest * m)
    verdicts = [
        g.n == n_want and oracles.nx_clique_number(g.n, edges) < t,
        out[1] is False,
    ]
    profile = oracles.nx_mis_profile(g.n, edges) if g.n <= FULL_PROFILE_MAX_N else None
    count = out[2]
    if kind == "tight":
        transversal, family = out[3], out[4]
        verdicts.append(count >= family and (profile is None or count == profile.get(k, 0)))
        verdicts += [transversal == family, family == m**k]
    else:
        verdicts.append(count == profile.get(k, 0))
    if profile is not None:
        verdicts.append(out[-2] == [profile.get(j, 0) for j in range(g.n + 1)])
        verdicts.append(out[-1] == sum(profile.values()))
    return verdicts


# corpus: many small seeded graphs and 3-graphs, shaped like the acceptance
# suite, so per-call overhead dominates.

CORPUS_GRAPHS = 9000
CORPUS_HYPERGRAPHS = 2400
CORPUS_REDUCTIONS = 360
GRAPH_CHUNK, HYPER_CHUNK, REDUCE_CHUNK = 150, 80, 12


def _random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _triangle_free(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Random edges, then one edge of a random triangle dropped until none is left."""
    edges = set(_random_edges(rng, n, p))
    while True:
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        tris = [(a, b, c) for a, b in sorted(edges) for c in sorted(nbrs[a] & nbrs[b]) if c > b]
        if not tris:
            return sorted(edges)
        a, b, c = tris[rng.randrange(len(tris))]
        edges.discard(rng.choice([(a, b), (a, c), (b, c)]))


def corpus_jobs(seed: int) -> list:
    rng = random.Random(seed)
    lines = []
    for _ in range(CORPUS_GRAPHS):
        n = rng.randint(1, 12)
        lines.append(oracles.graph6(n, _random_edges(rng, n, rng.random())))
    hypers = []
    for _ in range(CORPUS_HYPERGRAPHS):
        n = rng.randint(3, 9)
        p = rng.random()
        hypers.append([n, [list(e) for e in combinations(range(n), 3) if rng.random() < p]])
    reductions = []
    for _ in range(CORPUS_REDUCTIONS):
        n = rng.randint(4, 12)
        edges = _triangle_free(rng, n, rng.random() * 0.6)
        reductions.append([n, [list(e) for e in edges], rng.randrange(1 << 30)])

    def chunks(kind: str, items: list, size: int) -> list:
        return [[kind, items[i : i + size]] for i in range(0, len(items), size)]

    return (
        chunks("reduce", reductions, REDUCE_CHUNK)
        + chunks("hyper", hypers, HYPER_CHUNK)
        + chunks("graph6", lines, GRAPH_CHUNK)
    )


def _reduce_one(n: int, edges: list, seed: int):
    from mislab import engine, graphs

    g = graphs.Graph.from_edges(n, edges)
    profile = [engine.count_k_mis(g, k) for k in range(1, n + 1)]
    k = max(range(1, n + 1), key=lambda j: (profile[j - 1], j))
    return g, profile, k, engine.transversal_reduction(g, k, retries=100, seed=seed)


def corpus_run(job: list, workers: int):
    from mislab import engine, formats, graphs

    kind, items = job
    out = []
    if kind == "graph6":
        for line in items:
            g = formats.graph6_decode(line)
            profile = [engine.count_k_mis(g, k) for k in range(g.n + 1)]
            out.append((g, profile, engine.count_all_mis(g),
                        graphs.has_clique(g, 3), graphs.has_clique(g, 4)))
    elif kind == "hyper":
        for n, edges in items:
            h = graphs.Hypergraph.from_edges(n, edges)
            out.append([engine.hypergraph_count_k_mis(h, k) for k in range(n + 1)])
    else:
        out = [_reduce_one(n, edges, seed) for n, edges, seed in items]
    return out


def corpus_summarize(job: list, raw) -> list:
    kind = job[0]
    values = []
    for item in raw:
        if kind == "graph6":
            g, profile, total, c3, c4 = item
            values += [list(g.adj), profile, total, c3, c4]
        elif kind == "hyper":
            values.append(item)
        else:
            _, profile, k, res = item
            values += [profile, [k, res.source_m, res.achieved_T, res.retries_used]]
    return values


def corpus_check(job: list, raw) -> list[bool]:
    kind, items = job
    verdicts = []
    for spec, item in zip(items, raw):
        if kind == "graph6":
            g, profile, total, c3, c4 = item
            n, edges = oracles.graph6_edges(spec)
            want = oracles.mis_profile(n, edges)
            omega = oracles.clique_number(n, edges)
            verdicts += [
                g.n == n and edges_of(g.adj) == sorted(edges),
                profile == [want.get(k, 0) for k in range(n + 1)],
                total == sum(want.values()),
                c3 == (omega >= 3),
                c4 == (omega >= 4),
            ]
        elif kind == "hyper":
            n, edges = spec
            want = oracles.hyper_mis_profile(n, edges)
            verdicts.append(item == [want.get(k, 0) for k in range(n + 1)])
        else:
            n, edges, _ = spec
            g, profile, k, res = item
            want = oracles.mis_profile(n, [tuple(e) for e in edges])
            sub = res.subgraph
            want_t = oracles.transversal_mis_count(
                sub.graph.n, edges_of(sub.graph.adj), [list(p) for p in sub.parts]
            )
            verdicts += [
                profile == [want.get(j, 0) for j in range(1, n + 1)],
                res.source_m == want.get(k, 0) and res.achieved_T == want_t <= res.source_m,
            ]
    return verdicts


WORKLOADS = {
    "census": Workload(census_jobs, census_run, census_summarize, census_check, False, "numpy"),
    "tables": Workload(tables_jobs, tables_run, tables_summarize, tables_check, False, "numpy"),
    "blowups": Workload(blowups_jobs, blowups_run, blowups_summarize, blowups_check, True,
                        "python"),
    "corpus": Workload(corpus_jobs, corpus_run, corpus_summarize, corpus_check, True, "objects"),
}
