"""In-process span tracing of mislab's public functions.

`Tracer` swaps chosen functions for timing wrappers and puts the originals
back when it exits.  A module-level function is replaced wherever a mislab
module holds it (``from .graphs import has_clique`` makes a second binding in
``engine``), so calls between modules are traced too.  Each call becomes a
span (name, start, end, parent) kept in flat lists; spans are written out only
after the traced run.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One function to trace: ``owner.attr``, reported as ``label``.

    ``on_return(result, counters, parent_label)`` sees each call's result and
    adds to the tracer's counters; ``parent_label`` is None for a root span.
    """

    owner: Any
    attr: str
    label: str
    on_return: Callable[[Any, dict, str | None], None] | None = None


class Tracer:
    def __init__(self, targets: list[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.labels: list[str] = []
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: int, on_return) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock, counters, labels = self._stack, self.clock, self.counters, self.labels

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result, counters, labels[names[parent]] if parent >= 0 else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> Tracer:
        try:
            for t in self.targets:
                name = len(self.labels)
                self.labels.append(t.label)
                raw = t.owner.__dict__[t.attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, name, t.on_return))
                    self._patch(t.owner, t.attr, raw, wrapper)
                    continue
                wrapper = self._wrap(raw, name, t.on_return)
                self._patch(t.owner, t.attr, raw, wrapper)
                # Rebind every mislab module that imported this function.
                for modname, mod in list(sys.modules.items()):
                    if modname.split(".")[0] == "mislab" and mod is not None:
                        for attr, val in list(vars(mod).items()):
                            if val is raw:
                                self._patch(mod, attr, raw, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner: Any, attr: str, old: Any, new: Any) -> None:
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans of one thread nest, so the children of a span never overlap and
        their durations sum to the time they cover.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def stats(self) -> dict[str, dict[str, float]]:
        """Per label: calls, total seconds, self seconds, p50 and p99 in us."""
        own = self.self_times()
        durations: dict[int, list[float]] = {}
        selfs: dict[int, float] = {}
        for idx, name in enumerate(self.names):
            durations.setdefault(name, []).append(self.ends[idx] - self.starts[idx])
            selfs[name] = selfs.get(name, 0.0) + own[idx]
        out = {}
        for name, label in enumerate(self.labels):
            ds = sorted(durations.get(name, []))
            out[label] = {
                "calls": len(ds),
                "s": float(sum(ds)),
                "self_s": selfs.get(name, 0.0),
                "p50_us": percentile(ds, 0.50) * 1e6,
                "p99_us": percentile(ds, 0.99) * 1e6,
            }
        return out

    def root_time(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for idx, name in enumerate(self.names):
                fh.write(
                    f"{idx},{self.labels[name]},{self.starts[idx] - t0:.9f},"
                    f"{self.ends[idx] - t0:.9f},{self.parents[idx]}\n"
                )


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]
