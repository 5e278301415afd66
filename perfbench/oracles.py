"""Reference answers the benchmark checks mislab's outputs against.

Everything here works from plain edge lists and vertex tuples and imports
nothing from mislab, so a bug in the package cannot hide behind a matching
bug in the check.  The closed forms restate the paper's formulas; the
counters are naive scans that are slow but obviously correct on small inputs.
"""

from __future__ import annotations

from itertools import combinations, product

# Closed forms of the verify tables.


def moon_moser(n: int) -> int:
    q, s = divmod(n, 3)
    if s == 0:
        return 3**q
    if s == 1:
        return 4 * 3 ** (q - 1) if q else 1
    return 2 * 3**q


def hujter_tuza(n: int) -> int:
    if n % 2 == 0:
        return 2 ** (n // 2)
    return 5 * 2 ** ((n - 5) // 2)


def nielsen(n: int, k: int) -> int:
    q, s = divmod(n, k)
    return q ** (k - s) * (q + 1) ** s


def m3n2(n: int) -> int:
    return {3: 2, 4: 4, 5: 5}.get(n, n // 2)


def mt_n1(t: int, n: int) -> int:
    return n if n < t else t - 2


def hyper_m432(n: int) -> int:
    return n - 1


# Maximum number of k-MIS's over all 3-graphs on 6 vertices with no complete
# 3-graph on 4 vertices, for k = 1..6, from `naive_hyper_extremal(6, 4)`: a
# plain scan of all 2^20 edge sets (20 s on one 2.1 GHz Xeon core), so the
# benchmark carries its result and the tests rerun the scan at n = 5.
HYPER_N6_T4 = {1: 0, 2: 5, 3: 14, 4: 9, 5: 3, 6: 1}

FORMULAS = {
    "moon-moser": lambda p: moon_moser(p["n"]),
    "hujter-tuza": lambda p: hujter_tuza(p["n"]),
    "nielsen": lambda p: nielsen(p["n"], p["k"]),
    "m3n2": lambda p: m3n2(p["n"]),
    "mt-n1": lambda p: mt_n1(p["t"], p["n"]),
    "hyper-m432": lambda p: hyper_m432(p["n"]),
}


# Naive counters.


def mis_profile(n: int, edges: list[tuple[int, int]]) -> dict[int, int]:
    """Number of maximal independent sets of each size, by walking every
    independent set (include/exclude recursion) and testing maximality at
    the leaves."""
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    full = (1 << n) - 1
    out: dict[int, int] = {}

    def rec(v: int, blocked: int, covered: int, size: int) -> None:
        if v == n:
            if covered == full:
                out[size] = out.get(size, 0) + 1
            return
        rec(v + 1, blocked, covered, size)
        if not blocked >> v & 1:
            rec(v + 1, blocked | nbrs[v], covered | nbrs[v] | 1 << v, size + 1)

    rec(0, 0, 0, 0)
    return out


def clique_number(n: int, edges: list[tuple[int, int]]) -> int:
    """Size of a largest clique, by extending every clique in increasing
    vertex order (small graphs only)."""
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u

    def grow(cand: int, size: int) -> int:
        best = size
        while cand:
            low = cand & -cand
            cand ^= low
            best = max(best, grow(cand & nbrs[low.bit_length() - 1], size + 1))
        return best

    return grow((1 << n) - 1, 0)


def transversal_mis_count(
    n: int, edges: list[tuple[int, int]], parts: list[list[int]]
) -> int:
    """Maximal independent sets with exactly one vertex in each part, by
    trying every choice of one vertex per part."""
    es = {frozenset(e) for e in edges}
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    count = 0
    for pick in product(*parts):
        s = set(pick)
        if any(frozenset(p) in es for p in combinations(pick, 2)):
            continue
        if all(w in s or nbrs[w] & s for w in range(n)):
            count += 1
    return count


def hyper_count_k_mis(n: int, edges: list[tuple[int, ...]], k: int) -> int:
    """Size-k vertex sets of an r-uniform hypergraph that hold no edge and
    where every outside vertex closes an edge with r-1 of their vertices."""
    es = {tuple(sorted(e)) for e in edges}
    r = len(next(iter(es))) if es else 1
    count = 0
    for sub in combinations(range(n), k):
        if any(e in es for e in combinations(sub, r)):
            continue
        if all(
            any(tuple(sorted(p + (w,))) in es for p in combinations(sub, r - 1))
            for w in range(n)
            if w not in sub
        ):
            count += 1
    return count


def hyper_mis_profile(n: int, edges: list[tuple[int, ...]]) -> dict[int, int]:
    """`hyper_count_k_mis` for every k at once: walk every independent set
    (a vertex joins unless it completes an edge) and test maximality at the
    leaves."""
    incident = [[] for _ in range(n)]
    for e in edges:
        m = sum(1 << v for v in e)
        for v in e:
            incident[v].append(m)
    out: dict[int, int] = {}

    def closes(s: int, w: int) -> bool:
        return any(m & ~s == 1 << w for m in incident[w])

    def rec(v: int, s: int, size: int) -> None:
        if v == n:
            if all(s >> w & 1 or closes(s, w) for w in range(n)):
                out[size] = out.get(size, 0) + 1
            return
        rec(v + 1, s, size)
        if not closes(s, v):
            rec(v + 1, s | 1 << v, size + 1)

    rec(0, 0, 0)
    return out


def naive_hyper_extremal(n: int, t: int) -> dict[int, int]:
    """Largest k-MIS count, for every k >= 1, over all 3-graphs on n vertices
    that contain no complete 3-graph on t vertices."""
    triples = list(combinations(range(n), 3))
    bit = {tr: 1 << b for b, tr in enumerate(triples)}
    forbidden = [
        sum(bit[tr] for tr in combinations(q, 3)) for q in combinations(range(n), t)
    ]
    # Per candidate set: the triples inside it, and per outside vertex the
    # triples it would close.
    tests = {
        k: [
            (
                sum(bit[tr] for tr in combinations(sub, 3)),
                [
                    sum(bit[tuple(sorted(p + (w,)))] for p in combinations(sub, 2))
                    for w in range(n)
                    if w not in sub
                ],
            )
            for sub in combinations(range(n), k)
        ]
        for k in range(1, n + 1)
    }
    best = dict.fromkeys(tests, 0)
    for edges in range(1 << len(triples)):
        if any(edges & f == f for f in forbidden):
            continue
        for k, rows in tests.items():
            c = sum(
                1 for inside, closes in rows
                if not edges & inside and all(edges & m for m in closes)
            )
            best[k] = max(best[k], c)
    return best


def nx_mis_profile(n: int, edges: list[tuple[int, int]]) -> dict[int, int]:
    """MIS counts by size as networkx's maximal cliques of the complement."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    out: dict[int, int] = {}
    for clique in nx.find_cliques(nx.complement(g)):
        out[len(clique)] = out.get(len(clique), 0) + 1
    return out


def nx_clique_number(n: int, edges: list[tuple[int, int]]) -> int:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return max((len(c) for c in nx.find_cliques(g)), default=0)


# graph6 for the inputs.


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """Standard graph6 for n <= 62: size byte, then the upper triangle
    column by column in 6-bit groups, each offset by 63."""
    es = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in es else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = bytes(
        63 + int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body.decode("ascii")


def graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and sorted edge list of a graph6 line with n <= 62."""
    n = ord(text[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, sorted(p for p, b in zip(pairs, bits) if b == "1")
