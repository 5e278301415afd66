"""Command-line front end: construct, count, search, verify.

Reports are reproducible: every JSON report embeds the package version and
the run configuration but not the worker count, keys are sorted, and no
timestamps appear, so identical configurations produce byte-identical files.

Exit codes: 0 success, 2 bad input or usage, 3 structural violation
(requested clique-freeness fails), 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .constructions import (
    GADGETS,
    BlowupSpec,
    _edge_gadget,
    blowup,
    c4_leaves_graph,
    comatching,
    disjoint_gadget_union,
    dominating_clique_graph,
    star_hypergraph,
    tight_cycle,
    tight_cycle_blowup,
    window_hypergraph,
)
from .engine import (
    count_all_mis,
    count_k_mis,
    count_transversal_mis,
    hypergraph_count_k_mis,
    hypergraph_enumerate_k_mis,
)
from .formats import (
    graph6_decode,
    graph6_encode,
    hypergraph_from_json,
    hypergraph_to_json,
)
from .graphs import Graph, Hypergraph, PartitionedGraph, has_clique
from .search import THEOREM_IDS, SearchSpec, _cpu_count, exhaustive_m, verify_theorem

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRUCTURAL = 3
EXIT_MISMATCH = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _report_json(args: argparse.Namespace, command: str, result: dict) -> str:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "threads") and v is not None
    }
    doc = {
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_range(flag: str, text: str) -> range:
    """Parse the value of ``flag``, '4..7' or a single integer, into an inclusive range."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"{flag}: expected N or LO..HI, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


# construct ----------------------------------------------------------------

def _gadget(args: argparse.Namespace):
    kind = args.packing or "trivial"
    fixed = GADGETS[kind][0]
    if fixed is None:
        _require(args, "r")
    elif args.r not in (None, fixed):
        raise CliError(f"--packing {kind} fixes r={fixed}; drop --r {args.r}")
    return _edge_gadget(fixed or args.r, args.m, kind)


def _blowup(args: argparse.Namespace):
    with open(args.spec) as fh:
        return blowup(BlowupSpec.from_json(json.load(fh)))


# Construction id -> (flags it needs, builder from the parsed args, clique size
# it promises to avoid: an int, the name of the flag holding it, or None).
CONSTRUCTIONS = {
    "comatching": (("n",), lambda a: comatching(a.n), 3),
    "gadget": (("m",), _gadget, None),
    "tight-cycle": (("r", "k"), lambda a: tight_cycle(a.r, a.k), None),
    "blowup": (("spec",), _blowup, None),
    "theorem-a": (("k", "t", "m"), lambda a: disjoint_gadget_union(a.k, a.t, a.m), "t"),
    "theorem-b": (("k", "t", "m"), lambda a: tight_cycle_blowup(a.k, a.t, a.m), "t"),
    "hyper": (("r", "k", "n"), lambda a: window_hypergraph(a.r, a.k, a.n), None),
    "star-hyper": (("n",), lambda a: star_hypergraph(a.n), None),
    "dominating": (("t", "n"), lambda a: dominating_clique_graph(a.t, a.n), "t"),
    "c4-leaves": ((), lambda a: c4_leaves_graph(), 3),
}


def _require(args: argparse.Namespace, *keys: str) -> None:
    missing = [k for k in keys if getattr(args, k) is None]
    if missing:
        raise CliError(f"construct {args.name} needs --{' --'.join(missing)}")


def cmd_construct(args: argparse.Namespace) -> int:
    flags, build, forbid = CONSTRUCTIONS[args.name]
    _require(args, *flags)
    obj = build(args)
    if isinstance(forbid, str):
        forbid = getattr(args, forbid)
    clique_ok = None
    if isinstance(obj, Hypergraph):
        if args.format == "graph6":
            raise CliError(f"--format graph6 needs a graph; construct {args.name} gives JSON")
        summary = f"hypergraph n={obj.n} edges={len(obj.edges)}"
        payload = json.dumps(hypergraph_to_json(obj), sort_keys=True) + "\n"
    else:
        g: Graph = getattr(obj, "graph", obj)
        summary = f"graph n={g.n} edges={g.edge_count()}"
        payload = graph6_encode(g).decode("ascii") + "\n"
        if forbid is not None:
            clique_ok = not has_clique(g, forbid)
            summary += f" K{forbid}-free={clique_ok}"
    if args.format == "json":
        result = {"summary": summary, "data": payload.strip()}
        if clique_ok is not None:
            result["clique_free"] = clique_ok
        _emit(_report_json(args, "construct", result), args.out)
    else:
        _emit(payload, args.out)
        print(summary, file=sys.stderr)
    if clique_ok is False:
        raise CliError(f"construction contains a K_{forbid}", EXIT_STRUCTURAL)
    return EXIT_OK


# count ---------------------------------------------------------------------


def _load_countable(path: str) -> Graph | Hypergraph:
    """Read a graph6 line or a hypergraph JSON document.

    A JSON document starts with ``{`` or ``[``, but so do the graph6 lines of
    graphs on 60 or 28 vertices, so those go to JSON only when they are not
    valid graph6; the error then names the JSON fault.
    """
    with open(path, "rb") as fh:
        blob = fh.read().strip()
    if not blob:
        raise CliError(f"empty input {path}")
    try:
        return graph6_decode(blob.splitlines()[0])
    except ValueError as exc:
        if blob[:1] not in (b"{", b"["):
            raise CliError(f"cannot parse {path}: {exc}")
    try:
        return hypergraph_from_json(json.loads(blob))
    except (ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse {path}: {exc}")


def cmd_count(args: argparse.Namespace) -> int:
    if args.parts and not args.transversal:
        raise CliError("--parts needs --transversal")
    if args.transversal and args.k is not None:
        raise CliError("--transversal takes one vertex per part; drop --k")
    obj = _load_countable(args.graph)
    if isinstance(obj, Hypergraph):
        if args.transversal or args.forbid_clique is not None:
            raise CliError("hypergraph inputs support plain counting only")
        if args.k is None:
            value = hypergraph_enumerate_k_mis(obj, None)
            what = "hypergraph MIS count"
        else:
            value = hypergraph_count_k_mis(obj, args.k)
            what = f"hypergraph {args.k}-MIS count"
    elif args.forbid_clique is not None and has_clique(obj, args.forbid_clique):
        print(f"graph contains a K_{args.forbid_clique}", file=sys.stderr)
        return EXIT_STRUCTURAL
    elif args.transversal:
        if not args.parts:
            raise CliError("--transversal needs --parts FILE")
        with open(args.parts) as fh:
            parts = json.load(fh)
        pg = PartitionedGraph.from_parts(obj, parts)
        value = count_transversal_mis(pg)
        what = f"transversal {len(pg.parts)}-MIS count"
    elif args.k is not None:
        value = count_k_mis(obj, args.k)
        what = f"{args.k}-MIS count"
    else:
        value = count_all_mis(obj)
        what = "MIS count"
    if args.format == "json":
        _emit(_report_json(args, "count", {"what": what, "value": value}), args.out)
    else:
        _emit(f"{value}\n", args.out)
    return EXIT_OK


# search / verify -----------------------------------------------------------


def cmd_search(args: argparse.Namespace) -> int:
    if args.format == "graph6" and args.r != 2:
        raise CliError("--format graph6 needs --r 2; 3-graph witnesses are JSON")
    spec = SearchSpec(
        n=args.n,
        k=args.k,
        t=args.t,
        r=args.r,
        collect_witnesses=args.witnesses,
        witness_cap=args.witness_cap,
    )
    report = exhaustive_m(spec, workers=args.threads)
    if args.format == "csv":
        lines = ["n,k,t,r,value,graphs_scanned,truncated"]
        lines.append(
            f"{spec.n},{spec.k if spec.k is not None else ''},"
            f"{spec.t if spec.t is not None else ''},{spec.r},"
            f"{report.value},{report.graphs_scanned},{int(report.truncated)}"
        )
        lines.extend(report.witnesses)
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "graph6":
        _emit("\n".join(report.witnesses) + "\n", args.out)
    else:
        _emit(_report_json(args, "search", report.to_json()), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    rows = verify_theorem(
        args.theorem,
        n_range=_parse_range("--n", args.n),
        k_range=_parse_range("--k", args.k) if args.k else None,
        t_range=_parse_range("--t", args.t) if args.t else None,
        workers=args.threads,
    )
    ok = all(r.match for r in rows)
    if args.format == "json":
        result = {
            "theorem": args.theorem,
            "rows": [
                {"params": dict(r.params), "computed": r.computed,
                 "formula": r.formula, "match": r.match}
                for r in rows
            ],
            "all_match": ok,
        }
        _emit(_report_json(args, "verify", result), args.out)
    else:
        keys = [k for k, _ in rows[0].params]
        lines = [",".join(keys + ["computed", "formula", "match"])]
        for r in rows:
            vals = [str(v) for _, v in r.params]
            lines.append(",".join(vals + [str(r.computed), str(r.formula), str(int(r.match))]))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


# entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mislab",
        description="Extremal constructions and exhaustive counts for maximal independent sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_choices: tuple[str, ...], fmt_default: str) -> None:
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)

    pc = sub.add_parser("construct", help="emit one of the library constructions")
    pc.add_argument("name", choices=tuple(CONSTRUCTIONS))
    pc.add_argument("--n", type=int)
    pc.add_argument("--k", type=int)
    pc.add_argument("--t", type=int)
    pc.add_argument("--m", type=int)
    pc.add_argument("--r", type=int)
    pc.add_argument("--packing", choices=("trivial", "rs"))
    pc.add_argument("--spec", help="blowup spec JSON file")
    common(pc, ("graph6", "json", "text"), "text")
    pc.set_defaults(func=cmd_construct)

    pn = sub.add_parser(
        "count", help="count maximal independent sets of a graph6 or hypergraph JSON file"
    )
    pn.add_argument("--graph", required=True, help="graph6 line or hypergraph JSON file")
    pn.add_argument("--k", type=int, help="restrict to MIS's of this size")
    pn.add_argument("--transversal", action="store_true")
    pn.add_argument("--parts", help="JSON list of parts for --transversal")
    pn.add_argument("--forbid-clique", type=int, dest="forbid_clique",
                    help="fail with exit 3 if the graph contains a clique this large")
    common(pn, ("text", "json"), "text")
    pn.set_defaults(func=cmd_count)

    ps = sub.add_parser("search", help="exhaustive extremal value over all small graphs")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int)
    ps.add_argument("--t", type=int, help="forbid cliques of this size")
    ps.add_argument("--r", type=int, default=2, choices=(2, 3))
    ps.add_argument("--witnesses", action="store_true")
    ps.add_argument("--witness-cap", type=int, default=64, dest="witness_cap")
    common(ps, ("json", "csv", "graph6"), "json")
    ps.set_defaults(func=cmd_search)

    pv = sub.add_parser("verify", help="check exhaustive values against a closed form")
    pv.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    pv.add_argument("--n", required=True, help="range like 4..7")
    pv.add_argument("--k", help="range like 2..3")
    pv.add_argument("--t", help="range like 3..5")
    common(pv, ("csv", "json"), "csv")
    pv.set_defaults(func=cmd_verify)
    for p in (ps, pv):  # only the exhaustive scan runs workers
        p.add_argument("--threads", type=int, default=_cpu_count(),
                       help="scan worker count (default: the CPUs this process may use)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
