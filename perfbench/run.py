"""mislab benchmark: run one workload for a fixed time, check it, report metrics.

    python3 perfbench/run.py --workload census|tables|blowups|corpus|all \\
        --seed N --seconds S --trace 0|1

The repository root is the parent of this directory; mislab is imported from
its ``src`` and nothing is installed.  Every repetition runs in a fresh
interpreter (rep.py), one at a time, so a run never loads the machine with
more than one process plus mislab's or the harness's 2 workers.

--trace 0 starts 1-worker and 2-worker repetitions, whichever has fewer
samples, while less than --seconds have passed, then adds set-up-only starts
until there are five set-up samples, and reports the end-to-end metrics as
medians.  --trace 1 does the same with untraced and traced 1-worker
repetitions, after one untraced 2-worker repetition, and reports the
per-layer metrics.  The first repetition also runs the oracle checks;
every later one must return the same values.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it print each metric with its unit, the machine, the seed and
a hash of the inputs.  A full record goes to .perfbench_out/ under the root.

Times are in reference seconds: each repetition's measured seconds, less
the speed probe's own cost, times the host speed the probe saw meanwhile
(speed.py).  The raw medians are printed and recorded beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import rep

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census", "tables", "blowups", "corpus")
SETUP_SAMPLES = 5
REP_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "wall_2w_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RepFailed(RuntimeError):
    pass


# Per-layer metrics that compare repetitions, added to rep.layer_units().
RUN_LAYER_UNITS = {"search.speedup_2w": "ratio", "trace.overhead_frac": "ratio",
                   "setup.import_s": "s", "setup.inputs_s": "s", "host.speed": "ratio"}


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def machine_facts() -> dict:
    """nproc, CPU model, L2 and L3 sizes and Python version; rep.py adds numpy's."""
    facts = {"nproc": os.cpu_count(), "python": sys.version.split()[0], "cpu": "?"}
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for idx in sorted(os.listdir(base)):
            level = _read(os.path.join(base, idx, "level"))
            if level in ("2", "3"):
                facts[f"l{level}"] = _read(os.path.join(base, idx, "size"))
    except OSError:
        pass
    return facts


def median(xs: list) -> float:
    """Median; of whole numbers, the lower middle one, so counts stay whole."""
    if not xs:
        return 0.0
    if all(isinstance(x, int) for x in xs):
        return statistics.median_low(xs)
    return statistics.median(xs)


class Run:
    """The repetitions of one workload, their samples and their checks."""

    def __init__(self, name: str, seed: int, outdir: str):
        self.name, self.seed, self.outdir = name, seed, outdir
        self.env = dict(os.environ, TMPDIR=os.path.join(outdir, "tmp"), PYTHONHASHSEED="0")
        self.reference: list | None = None
        self.inputs_sha256: str | None = None
        self.attempted = self.failed = 0
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.records: list[dict] = []
        self.numpy = "?"

    def rep(self, workers: int = 1, oracle: bool = False, trace: bool = False,
            setup_only: bool = False) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--root", ROOT,
               "--workload", self.name, "--seed", str(self.seed), "--workers", str(workers)]
        if oracle:
            cmd.append("--oracle")
        if trace:
            cmd += ["--trace", os.path.join(self.outdir, f"spans-{self.name}-seed{self.seed}.csv")]
        if setup_only:
            cmd.append("--setup-only")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        except BaseException:
            # Interrupted or terminated: leave no repetition running.
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if proc.returncode != 0 or first.strip() != "ready" or not rest.strip():
            raise RepFailed(f"{self.name}: repetition exited with code {proc.returncode}")
        record = json.loads(rest.strip().splitlines()[-1])
        record.update(setup_raw_s=setup, total_s=time.perf_counter() - start, workers=workers,
                      traced=trace)
        record["setup_s"] = (setup - record["setup_probe_cost_s"]) * record["setup_speed"]
        self.setups.append(record["setup_s"])
        self.raw_setups.append(setup)
        if self.inputs_sha256 is None:
            self.inputs_sha256 = record["inputs_sha256"]
        elif record["inputs_sha256"] != self.inputs_sha256:
            raise RepFailed(f"{self.name}: inputs differ between repetitions of one seed")
        if not setup_only:
            self._account(record)
            self.numpy = record["numpy"]
            self.records.append(record)
        return record

    def _account(self, record: dict) -> None:
        """Count checked values and failures.  The first repetition is judged
        by the oracle verdicts, later ones by equality with its values; a job
        that raised (values None) fails as a whole."""
        values = record.pop("values")
        if self.reference is None:
            self.reference = values
            for vals, verdicts in zip(values, record.pop("verdicts")):
                size = len(vals) if vals is not None else 1
                self.attempted += size
                if verdicts is None or len(verdicts) != size:
                    self.failed += size
                else:
                    self.failed += verdicts.count(False)
            return
        for vals, ref in zip(values, self.reference):
            size = len(ref) if ref is not None else 1
            self.attempted += size
            if vals is None or ref is None or len(vals) != size:
                self.failed += size
            else:
                self.failed += sum(a != b for a, b in zip(vals, ref))

    def walls(self, workers: int, traced: bool = False, key: str = "wall_ref_s") -> list[float]:
        """Reference seconds of the timed region; key="wall_s" for raw ones."""
        return [r[key] for r in self.records if r["workers"] == workers and r["traced"] == traced]


def schedule(run: Run, seconds: float, plan: list[dict], kinds: list[dict]) -> None:
    """Run `plan`, then start repetitions of `kinds` while less than `seconds`
    have passed since the start: each time the kind with the fewest samples,
    the shorter one on a tie.  The last one ends after `seconds`, by less
    than its own length."""
    start = time.perf_counter()
    last: dict[tuple, float] = {}
    count: dict[tuple, int] = {}

    def key(kw: dict) -> tuple:
        return kw.get("workers", 1), kw.get("trace", False)

    def go(kw: dict) -> None:
        last[key(kw)] = run.rep(**kw)["total_s"]
        count[key(kw)] = count.get(key(kw), 0) + 1

    for kw in plan:
        go(kw)
    while time.perf_counter() - start < seconds:
        go(min(kinds, key=lambda kw: (count[key(kw)], last[key(kw)])))


def measure(name: str, seed: int, seconds: float, trace: bool, outdir: str) -> tuple[dict, Run]:
    run = Run(name, seed, outdir)
    if not trace:
        schedule(run, seconds, [dict(oracle=True), dict(workers=2)],
                 [dict(), dict(workers=2)])
        while len(run.setups) < SETUP_SAMPLES:
            run.rep(setup_only=True)
        metrics = {
            "wall_s": median(run.walls(1)),
            "wall_2w_s": median(run.walls(2)),
            "setup_s": median(run.setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in run.records]),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, run

    schedule(run, seconds, [dict(oracle=True), dict(trace=True), dict(workers=2)],
             [dict(), dict(trace=True)])
    traced = [r["layers"] for r in run.records if r["traced"]]
    metrics = {k: median([t[k] for t in traced]) for k in traced[0]}
    untraced = median(run.walls(1))
    metrics.update({
        "search.speedup_2w": untraced / median(run.walls(2)),
        "trace.overhead_frac": median(run.walls(1, traced=True)) / untraced - 1,
        "setup.import_s": median([r["import_s"] * r["setup_speed"] for r in run.records]),
        "setup.inputs_s": median([r["inputs_s"] * r["setup_speed"] for r in run.records]),
        "host.speed": median([r["speed"] for r in run.records if not r["traced"]]),
    })
    units = rep.layer_units() | RUN_LAYER_UNITS
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}, run


def report(name: str, seed: int, seconds: float, trace: bool, outdir: str, facts: dict) -> dict:
    metrics, run = measure(name, seed, seconds, trace, outdir)
    facts = dict(facts, numpy=run.numpy)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    reps = {w: len(run.walls(w)) for w in (1, 2)}
    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"inputs_sha256={run.inputs_sha256}")
    print("# machine " + " ".join(f"{k}={v!r}" for k, v in facts.items()))
    print(f"# repetitions 1w={reps[1]} 2w={reps[2]} setup_samples={len(run.setups)} "
          f"attempted={run.attempted} failed={run.failed} "
          f"failed_frac={run.failed / max(run.attempted, 1)}")
    print(f"# raw seconds: wall_s={median(run.walls(1, key='wall_s'))!r} "
          f"wall_2w_s={median(run.walls(2, key='wall_s'))!r} setup_s={median(run.raw_setups)!r} "
          f"host_speed={median([r['speed'] for r in run.records])!r}")
    for key, m in metrics.items():
        print(f"{name}.{key} {m['value']!r} {m['unit']}")
    with open(os.path.join(outdir, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "machine": facts, "inputs_sha256": run.inputs_sha256,
                   "setup_samples": run.setups, "raw_setup_samples": run.raw_setups,
                   "repetitions": run.records,
                   "result": result}, fh, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running repetition is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "mislab", "__init__.py")):
        print(f"error: no mislab sources under {ROOT}/src", file=sys.stderr)
        return 2
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(os.path.join(outdir, "tmp"), exist_ok=True)
    facts = machine_facts()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: report(n, args.seed, args.seconds, bool(args.trace), outdir, facts)
                   for n in names}
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
