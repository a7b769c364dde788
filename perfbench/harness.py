"""Shared pieces of the benchmark: seeds, host speed, layer timers,
statistics, checks.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
refuse to start (and print no result) when the package source is absent.
``python3 harness.py --reference`` is a helper process of
:class:`HostSpeed`: it times one round of :func:`reference_work` per line
read from standard input.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Per-layer metrics of the traced run, in report order, with units.  A
#: layer a workload's path never calls reads 0 on that workload (listed
#: as ``not on path`` in the printed table).
PER_LAYER = {
    "sim.batch.run_s": "s",
    "sim.batch.run_warm_s": "s",
    "sim.batch.cold_gap_s": "s",
    "sim.batch.engaged_ratio": "ratio",
    "sim.events": "count",
    "sync.violations.scan_s": "s",
    "sync.interpolation.apply_s": "s",
    "sync.schedule.compile_s": "s",
    "sync.clc.correct_s": "s",
    "sync.clc.jumps": "count",
    "sync.violations.before": "count",
    "sync.violations.after": "count",
    "sync.streaming.apply_s": "s",
    "sync.streaming.clc_s": "s",
    "sync.streaming.scan_s": "s",
    "tracing.reader.decode_s": "s",
    "tracing.writer.encode_s": "s",
    "tracing.writer.bytes": "count",
    "tracing.store.write_s": "s",
    "tracing.store.shards": "count",
    "tracing.store.bytes": "count",
    "service.queue_wait_s": "s",
    "service.exec_s": "s",
    "service.client_overhead_s": "s",
    "service.exec_inflation": "ratio",
    "service.attempts_per_job": "ratio",
    "service.dedup_joins": "count",
    "analysis.runner.parallel_s": "s",
    "analysis.runner.serial_s": "s",
    "analysis.runner.parallel_efficiency": "ratio",
    "telemetry.overhead_ratio": "ratio",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_ROUNDS = 3


class SeedRegistry:
    """Item seeds derived from the run seed, each handed out once.

    Seeds are ``run_seed * SPAN + k`` for ``k = 0, 1, ...``, so no two
    items of a run share a seed, and runs with different ``--seed`` values
    share no input.  Every input the benchmark generates gets its own
    seed, so no batch plan, compiled schedule or service result can be
    reused between items.
    """

    SPAN = 100_000

    def __init__(self, run_seed: int) -> None:
        if run_seed < 0:
            raise ValueError(f"--seed must be >= 0, got {run_seed}")
        self.base = run_seed * self.SPAN
        self.issued = 0

    def fresh(self) -> int:
        seed = self.base + self.issued
        self.issued += 1
        return seed


#: Seconds one round of :func:`reference_work` takes on the 2-vCPU x86-64
#: host the benchmark was tuned on (Python 3.11, numpy 2), at that host's
#: full speed.  Timed end-to-end figures are reported at this speed.
REF_NOMINAL_S = 0.06


def reference_work() -> float:
    """Seconds one round of fixed work takes; the work calls nothing in
    :mod:`repro`, so no change to the package moves it.  It mixes numpy
    passes over 200k doubles with interpreter-bound sorting and tallying,
    as the workloads do."""
    import numpy as np

    start = time.perf_counter()
    values = np.random.default_rng(0).random(200_000)
    order = np.argsort(values, kind="stable")
    sums = np.cumsum(values[order])
    np.searchsorted(sums, sums[::7])
    rows = sorted((int(x * 1000) % 97, j) for j, x in enumerate(values[:30_000]))
    tally: dict[int, int] = {}
    for key, j in rows:
        tally[key] = tally.get(key, 0) + j
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host ran during a run, from reference-work samples.

    The speed of a shared host's vCPUs drifts by tens of percent over tens
    of seconds, each vCPU on its own, and the workloads' timings follow it.
    The median reference time of a run over :data:`REF_NOMINAL_S` is the
    run's ``slowness``; :meth:`Report.calibrate` divides it out of timed
    figures.  With ``processes=1`` the reference runs in this process,
    where the workload runs.  With ``processes=2`` it runs in two helper
    processes at once, one a vCPU, for workloads whose work runs in other
    processes on both vCPUs.  The helpers idle between samples.
    """

    def __init__(self, processes: int) -> None:
        self.samples: list[float] = []
        self.helpers = [
            subprocess.Popen([sys.executable, __file__, "--reference"],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(processes if processes > 1 else 0)
        ]

    def sample(self) -> None:
        if not self.helpers:
            self.samples.append(reference_work())
            return
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        for helper in self.helpers:
            self.samples.append(float(helper.stdout.readline()))

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
            helper.wait()

    @property
    def slowness(self) -> float:
        return statistics.median(self.samples) / REF_NOMINAL_S


class Layers:
    """Totals of time and counts per layer metric, with call counts."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, name: str, value: float) -> None:
        if name not in PER_LAYER:
            raise KeyError(name)
        self.totals[name] = self.totals.get(name, 0.0) + value
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def time(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def timed_sum(self) -> float:
        """Sum of every ``*_s`` total so far (for unattributed time)."""
        return sum(v for k, v in self.totals.items() if k.endswith("_s"))


@dataclass
class Metric:
    value: float
    unit: str
    n: int
    spread: float | None = None  # quartile distance / median, when n >= 2
    note: str = ""


@dataclass
class Report:
    """What one workload run measured and checked."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def metric(self, name, value, unit, n, spread=None, note="") -> None:
        self.metrics[name] = Metric(float(value), unit, int(n), spread, note)

    def ratio(self, name: str, samples: list[float], note: str) -> None:
        """A ratio metric as the median of paired samples, with its spread."""
        if samples:
            self.metric(name, statistics.median(samples), "ratio", len(samples),
                        spread(samples), note)

    def calibrate(self, slowness: float) -> None:
        """Report times and rates at the reference host speed: a time is
        divided by the run's ``slowness``, a rate multiplied by it."""
        for m in self.metrics.values():
            if m.unit in ("s", "1/s"):
                raw = m.value
                m.value = raw / slowness if m.unit == "s" else raw * slowness
                m.note = f"raw {raw:.6g}; {m.note}"

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def spread(values) -> float | None:
    """Distance between first and third quartile as a share of the median."""
    values = list(values)
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def tail(values) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with >= 10 samples
    beyond it.  Fewer than 11 samples support no tail above the median, so
    the median is returned (percentile 50)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], math.floor(1000.0 * (n - 10) / n) / 10.0


def latency_metrics(report: Report, latencies: list[float], unit_name: str) -> None:
    if not latencies:  # every operation failed; `failed` says so
        return
    value, pct = tail(latencies)
    report.metric("job_latency_p50_s", statistics.median(latencies), "s",
                  len(latencies), spread(latencies), f"per {unit_name}")
    report.metric("job_latency_tail_s", value, "s", len(latencies), None,
                  f"p{pct:g} per {unit_name}")
    report.record["tail_percentile"] = pct


def throughput_metric(report: Report, blocks: list[tuple[int, float]], what: str) -> None:
    """``events_per_s`` as all events over all timed wall time, from
    blocks of ``(events, seconds)``.  A rate over the whole run averages
    changes of host speed within it; the spread printed is that of the
    block rates."""
    if not blocks:
        return
    total = sum(events for events, _ in blocks)
    wall = sum(seconds for _, seconds in blocks)
    report.metric("events_per_s", total / wall, "1/s", len(blocks),
                  spread([events / seconds for events, seconds in blocks]),
                  f"{total} events in {wall:.3f} s over {len(blocks)} {what}")


def timed_rounds(fn, host: HostSpeed, rounds: int = SETUP_ROUNDS) -> tuple[list, list[float]]:
    """Run set-up round ``fn(i)`` ``rounds`` times, sampling the host's
    speed after each; results and durations."""
    results, times = [], []
    for i in range(rounds):
        start = time.perf_counter()
        results.append(fn(i))
        times.append(time.perf_counter() - start)
        host.sample()
    return results, times


def setup_metric(report: Report, times: list[float], what: str) -> None:
    report.metric("setup_s", statistics.median(times), "s", len(times),
                  spread(times), f"median of {len(times)} set-up rounds: {what}")


def column_digest(trace) -> str:
    """SHA-256 over every rank's raw event columns (bit identity)."""
    h = hashlib.sha256()
    for rank in trace.ranks:
        log = trace.logs[rank]
        h.update(str(rank).encode())
        for col in (log.timestamps, log.etypes, log.a, log.b, log.c, log.d):
            h.update(col.tobytes())
    return h.hexdigest()


def stage_counts(stages) -> list:
    """Per-stage ``(name, p2p checked/violated, collective checked/violated)``."""
    return [
        (s.stage, s.p2p.checked, s.p2p.violated,
         s.collective.checked, s.collective.violated)
        for s in stages
    ]


def staged_correct(trace, init, final, layers: Layers):
    """``correct_trace``'s default chain (linear + CLC + scans), one timed
    public call at a time, in the facade's own order.

    Returns ``(corrected trace, ClcResult, violations before, after)``.
    """
    from repro.sync.clc import ControlledLogicalClock
    from repro.sync.interpolation import linear_interpolation
    from repro.sync.violations import scan_collectives, scan_messages

    def violations(t) -> int:
        with layers.time("sync.violations.scan_s"):
            p2p = scan_messages(t.messages(strict=False), 0.0)
            coll, _ = scan_collectives(t, 0.0)
        return p2p.violated + coll.violated

    before = violations(trace)
    with layers.time("sync.interpolation.apply_s"):
        trace = linear_interpolation(init, final).apply(trace)
    violations(trace)
    with layers.time("sync.schedule.compile_s"):
        trace.compiled_schedule()
    with layers.time("sync.clc.correct_s"):
        clc = ControlledLogicalClock(gamma=0.99).correct(trace, lmin=0.0)
    after = violations(clc.trace)
    layers.add("sync.clc.jumps", clc.jumps)
    layers.add("sync.violations.before", before)
    layers.add("sync.violations.after", after)
    return clc.trace, clc, before, after


if __name__ == "__main__" and sys.argv[1:] == ["--reference"]:
    for _ in sys.stdin:
        print(reference_work(), flush=True)
