"""Timing harness shared by the workloads.

A run is: several set-ups (the median is ``setup_s``), a flush of the files
they wrote, one warm-up timed on its own, then the number of whole passes
whose timed calls come closest to the run length.  Every timed library call
is an *operation*.  Checks run between operations, untimed and untraced, and
a failed check marks the operation whose output it checked as failed.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

# phases a timed operation belongs to; see README.md
PHASES = ("fit", "apply", "io")


class Op:
    __slots__ = ("name", "phase", "seconds", "ok", "detail")

    def __init__(self, name: str, phase: str):
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.name = name
        self.phase = phase
        self.seconds = 0.0
        self.ok = True
        self.detail = ""


class Pass:
    """Timed operations and check verdicts of one pass."""

    def __init__(self, index: int, tracer=None):
        self.index = index
        self.ops: dict[str, Op] = {}
        self.checks: list[tuple[str, str, bool, str]] = []
        self.out: dict = {}
        self._tracer = tracer

    @contextmanager
    def op(self, name: str, phase: str):
        """Time the enclosed library call(s) as one operation."""
        if name in self.ops:
            raise ValueError(f"operation {name!r} recorded twice in one pass")
        rec = Op(name, phase)
        self.ops[name] = rec
        if self._tracer is not None:
            self._tracer.active = True
        t0 = time.perf_counter()
        try:
            yield rec
        except Exception as exc:
            rec.ok = False
            rec.detail = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            rec.seconds = time.perf_counter() - t0
            if self._tracer is not None:
                self._tracer.active = False

    def check(self, op_name: str, what: str, ok: bool, detail: str = "") -> bool:
        """Record a verdict on the output of an earlier operation."""
        ok = bool(ok)
        self.checks.append((op_name, what, ok, detail))
        if not ok:
            rec = self.ops[op_name]
            rec.ok = False
            rec.detail = rec.detail or f"check failed: {what} ({detail})"
        return ok

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops.values())

    def op_seconds(self, prefix: str) -> float:
        """Summed time of the operations whose name starts with `prefix`."""
        return sum(r.seconds for n, r in self.ops.items() if n.startswith(prefix))


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """Drives one workload: set-ups, warm-up, passes."""

    def __init__(self, workload, ctx, seconds: float, n_setups: int, tracer=None):
        self.wl = workload
        self.ctx = ctx
        self.seconds = seconds
        self.n_setups = n_setups
        self.tracer = tracer
        self.setup_times: list[float] = []
        self.sync_s = 0.0
        self.warmup_s = 0.0
        self.passes: list[Pass] = []
        self.aborted: list[str] = []

    def execute(self):
        inputs = None
        for _ in range(self.n_setups):
            inputs = None  # drop the previous inputs before making new ones
            if self.tracer is not None:
                self.tracer.active = True
                self.tracer.phase = "setup"
            t0 = time.perf_counter()
            inputs = self.wl.setup(self.ctx)
            self.setup_times.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.active = False

        # flush the set-up's files so that their write-back does not overlap
        # the measured passes
        t0 = time.perf_counter()
        os.sync()
        self.sync_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.wl.warmup(self.ctx, inputs)
        self.warmup_s = time.perf_counter() - t0

        if self.tracer is not None:
            self.tracer.phase = "pass"
        # whole passes, as many as come closest to the run length
        measured = 0.0
        min_passes = getattr(self.wl, "MIN_PASSES", 1)
        while len(self.passes) < min_passes or measured + self.passes[-1].seconds / 2 < self.seconds:
            p = Pass(len(self.passes), self.tracer)
            self.passes.append(p)
            try:
                self.wl.run_pass(self.ctx, inputs, p, self.passes[0])
            except Exception as exc:  # a failed operation ends its pass
                self.aborted.append(f"pass {p.index}: {type(exc).__name__}: {exc}")
            measured += p.seconds
            if not p.ops:
                break

    @property
    def attempted(self) -> int:
        return sum(len(p.ops) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.passes for r in p.ops.values() if not r.ok)

    @property
    def correct(self) -> bool:
        return not self.aborted and all(ok for p in self.passes for _, _, ok, _ in p.checks)

    def typical_seconds(self, phase: str | None = None) -> float:
        """A typical pass: each operation's median over the passes, summed."""
        times: dict[str, list[float]] = {}
        for p in self.passes:
            for name, r in p.ops.items():
                if phase is None or r.phase == phase:
                    times.setdefault(name, []).append(r.seconds)
        return sum(median(v) for v in times.values())

    def end_to_end(self, import_s: float, peak_rss_mb: float) -> dict:
        return {
            "setup_s": (import_s + median(self.setup_times), "s"),
            "wall_s": (self.typical_seconds(), "s"),
            "fit_s": (self.typical_seconds("fit"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def failures(self) -> list[str]:
        out = list(self.aborted)
        for p in self.passes:
            out += [f"pass {p.index} {n}: {r.detail}" for n, r in p.ops.items() if not r.ok]
        return out
