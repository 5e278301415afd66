"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py --root DIR --workload W --seed N --workers 1|2
                             [--oracle] [--trace SPANS_CSV] [--setup-only]

Imports mislab from DIR/src, makes the inputs, prints ``ready`` (run.py
times set-up up to that line), runs every job once inside the timed region
and prints one JSON line: wall time, set-up split, peak RSS, the per-job
values and, with --oracle, one check verdict per value.  With --trace the
jobs run with 1 worker under the tracer, the spans go to SPANS_CSV and the
line carries per-layer metrics.  A `speed.SpeedProbe` samples the host's
speed through set-up and through the timed region; the line carries each
region's speed and the probe's own cost, so run.py can rescale the times
to reference seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback

import workloads
from speed import SpeedProbe
from tracing import Target, Tracer

_MIS_COUNTERS = ("count_k_mis", "count_all_mis", "count_transversal_mis", "hypergraph_count_k_mis")

# Per traced function: the statistics reported as per-layer metrics.
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us"}
TIMING = ("calls", "self_s", "p50_us", "p99_us")
LAYER_STATS = {
    "search.uniqueness_check": ("calls", "s"),
    "search.verify_theorem": ("calls", "s"),
    "search.exhaustive_m": ("calls", "s", "self_s"),
    "search.canonical_form": ("calls", "s"),
    "search.graph_from_edge_mask": ("calls", "s"),
    **{f"engine.{fn}": TIMING for fn in _MIS_COUNTERS + ("transversal_reduction",)},
    **{
        f"constructions.{fn}": ("calls", "s")
        for fn in ("tight_cycle_blowup", "blowup", "disjoint_gadget_union", "gadget",
                   "rs_packing", "window_hypergraph")
    },
    "graphs.Graph.from_edges": ("calls", "s") + TIMING[2:],
    "graphs.Hypergraph.from_edges": ("calls", "s"),
    "graphs.has_clique": ("calls", "s") + TIMING[2:],
    "formats.graph6_decode": ("calls", "s") + TIMING[2:],
    "cli.main": ("calls", "s"),
}
# Per-layer metrics computed from counters and spans of the traced repetition.
DERIVED_UNITS = {
    "search.graphs_scanned": "count",
    "search.scan_mgraphs_per_s": "Mgraph/s",
    "search.witness_dedup_ratio": "ratio",
    "engine.mis_found": "count",
    "engine.mis_per_s": "1/s",
    "constructions.vertices_built": "count",
    "trace.spans": "count",
    "trace.span_coverage": "ratio",
}


def layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric one traced repetition reports."""
    units = {
        f"{label}.{stat}": STAT_UNITS[stat]
        for label, stats in LAYER_STATS.items()
        for stat in stats
    }
    return units | DERIVED_UNITS


def _targets():
    from mislab import cli, constructions, engine, formats, graphs, search

    def scanned(report, counters, parent):
        counters["graphs_scanned"] = counters.get("graphs_scanned", 0) + report.graphs_scanned
        counters["witnesses"] = counters.get("witnesses", 0) + len(report.witnesses)

    def found(count, counters, parent):
        counters["mis_found"] = counters.get("mis_found", 0) + count

    def reduced(result, counters, parent):
        found(result.source_m, counters, parent)

    def built(obj, counters, parent):
        # Only outermost constructions: a blowup's gadgets are not new vertices.
        if parent is None or not parent.startswith("constructions."):
            g = getattr(obj, "graph", obj)
            counters["vertices"] = counters.get("vertices", 0) + g.n

    hooks = {"exhaustive_m": scanned, "transversal_reduction": reduced}
    hooks.update(dict.fromkeys(_MIS_COUNTERS, found))
    hooks.update(dict.fromkeys(
        ("tight_cycle_blowup", "disjoint_gadget_union", "gadget", "window_hypergraph"), built))
    owners = {"search": search, "engine": engine, "constructions": constructions,
              "graphs": graphs, "formats": formats, "cli": cli}
    out = []
    for label in LAYER_STATS:
        module, *path = label.split(".")
        owner = owners[module]
        for part in path[:-1]:
            owner = getattr(owner, part)
        out.append(Target(owner, path[-1], label, hooks.get(path[-1])))
    return out


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    stats = tracer.stats()
    metrics = {
        f"{label}.{stat}": stats[label][stat]
        for label, wanted in LAYER_STATS.items()
        for stat in wanted
    }
    c = tracer.counters
    scan_s = stats["search.exhaustive_m"]["self_s"]
    engine_s = sum(stats[f"engine.{fn}"]["self_s"] for fn in _MIS_COUNTERS + ("transversal_reduction",))
    cf_calls = stats["search.canonical_form"]["calls"]
    metrics.update({
        "search.graphs_scanned": c.get("graphs_scanned", 0),
        "search.scan_mgraphs_per_s": c.get("graphs_scanned", 0) / scan_s / 1e6 if scan_s else 0.0,
        "search.witness_dedup_ratio": c.get("witnesses", 0) / cf_calls if cf_calls else 0.0,
        "engine.mis_found": c.get("mis_found", 0),
        "engine.mis_per_s": c.get("mis_found", 0) / engine_s if engine_s else 0.0,
        "constructions.vertices_built": c.get("vertices", 0),
        "trace.spans": len(tracer.names),
        "trace.span_coverage": tracer.root_time() / wall,
    })
    return metrics


def run_job(name: str, job: list, workers: int):
    """One job's raw outputs, or the exception it raised (traceback to stderr)."""
    try:
        return workloads.WORKLOADS[name].run(job, workers)
    except Exception as exc:
        traceback.print_exc()
        return exc


def values_of(name: str, job: list, raw) -> list | None:
    """The job's plain values; None for a job that raised."""
    return None if isinstance(raw, Exception) else workloads.WORKLOADS[name].summarize(job, raw)


def pool_job(task: tuple[str, list]) -> list | None:
    name, job = task
    return values_of(name, job, run_job(name, job, 1))


def run_jobs(name: str, jobs: list, workers: int):
    """Run every job once; return (wall seconds, raw outputs or None, values)."""
    if workers > 1 and workloads.WORKLOADS[name].pool_split:
        # Fork, as mislab's own pool in exhaustive_m does, so both 2-worker
        # paths start workers the same way and no helper process outlives
        # the pool.
        ctx = multiprocessing.get_context("fork")
        start = time.perf_counter()
        with ctx.Pool(workers) as pool:
            values = list(pool.imap(pool_job, [(name, j) for j in jobs], chunksize=1))
        return time.perf_counter() - start, None, values
    start = time.perf_counter()
    raws = [run_job(name, job, workers) for job in jobs]
    wall = time.perf_counter() - start
    return wall, raws, [values_of(name, job, raw) for job, raw in zip(jobs, raws)]


def verdicts_of(name: str, job: list, raw) -> list[bool] | None:
    """The oracle's verdict on each value; None where the job or check raised."""
    if isinstance(raw, Exception):
        return None
    try:
        return workloads.WORKLOADS[name].check(job, raw)
    except Exception:
        traceback.print_exc()
        return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_CSV")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with SpeedProbe() as setup_probe:
        t0 = time.perf_counter()
        src = os.path.join(os.path.abspath(args.root), "src")
        sys.path.insert(0, src)
        import mislab

        if os.path.dirname(os.path.realpath(mislab.__file__)) != os.path.realpath(os.path.join(src, "mislab")):
            print(f"error: mislab imported from {mislab.__file__}, not {src}", file=sys.stderr)
            return 2
        t1 = time.perf_counter()
        jobs = workloads.WORKLOADS[args.workload].jobs(args.seed)
        t2 = time.perf_counter()
    print("ready", flush=True)
    record = {"import_s": t1 - t0, "inputs_s": t2 - t1,
              "setup_speed": setup_probe.speed(), "setup_probe_cost_s": setup_probe.cost_s,
              "inputs_sha256": hashlib.sha256(json.dumps(jobs).encode()).hexdigest()}
    if args.setup_only:
        print(json.dumps(record), flush=True)
        return 0

    workers = 1 if args.trace else args.workers
    probe = SpeedProbe(workloads.WORKLOADS[args.workload].probe)
    if args.trace:
        tracer = Tracer(_targets())
        with tracer, probe:
            wall, raws, values = run_jobs(args.workload, jobs, workers)
        tracer.write(args.trace)
        record["layers"] = layer_metrics(tracer, wall)
    else:
        with probe:
            wall, raws, values = run_jobs(args.workload, jobs, workers)
    # Peak RSS before the oracle checks, which are not the program's memory.
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if args.oracle:
        record["verdicts"] = [verdicts_of(args.workload, job, raw) for job, raw in zip(jobs, raws)]

    import numpy

    record.update(wall_s=wall, wall_ref_s=probe.rescale(wall, workers), speed=probe.speed(),
                  probe_samples=len(probe.samples), peak_rss_mb=peak_kb / 1024,
                  values=values, numpy=numpy.__version__)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
