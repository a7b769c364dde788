"""The four user paths the benchmark drives, through public calls only.

Each workload function takes a :class:`Context` and returns a
:class:`harness.Report`.  Untraced runs measure the end-to-end metrics;
traced runs (``--trace 1``) time the calls into each layer from here
and report the per-layer table.  Why each workload exists, and which
end-to-end metric each layer metric should move, is in README.md.

Run sizes are fixed per run and scaled from ``--seconds``: every
``*_S`` constant is the nominal time of one unit of work measured on a
2-core x86-64 host with Python 3.11, so a run measures about
``--seconds`` there while doing the same work on every run and commit.
"""

from __future__ import annotations

import math
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

from harness import (
    PER_LAYER,
    SETUP_ROUNDS,
    HostSpeed,
    Layers,
    Report,
    SeedRegistry,
    column_digest,
    latency_metrics,
    setup_metric,
    throughput_metric,
    stage_counts,
    staged_correct,
    timed_rounds,
)

# cold-pipeline: pop-32@0.05 (60.8k events, collective-heavy), smg2000-32@0.2
# (20.5k, long-range p2p), sweep3d-16@0.5 (22.4k, long chains, no CLC jumps).
PIPELINE_SHAPES = (("pop", 32, 0.05), ("smg2000", 32, 0.2), ("sweep3d", 16, 0.5))
PIPELINE_CYCLE_S = 3.6

# service-loopback: small pop-32 payloads (6080 events) so one run holds
# enough jobs for a tail percentile with ten samples beyond it.
SERVICE_SHAPE = ("pop", 32, 0.005)
SERVICE_JOB_S = 0.39
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
POLL_S = 0.02

# sharded-stream: pop-32@0.1 (121.6k events) in small shards.
SHARDED_SHAPE = ("pop", 32, 0.1)
SHARD_EVENTS = 1024
SHARDED_ITEM_S = 3.6

# figure-grid: one fig7 grid of GRID_RUNS pop-32@0.05 cells over 2 workers.
# Eight cells let work stealing balance the two lanes; with four, a lane
# holds two cells and one slow cell (a batch-engine fallback takes twice
# as long) stretches the whole grid.
GRID_RUNS = 8
GRID_JOBS = 2
GRID_ITEM_S = 6.5
GRID_WARMUP = dict(nprocs=8, scale=0.02, runs=2)
GRID_SETUP_ROUNDS = 5  # a warm-up grid is short, so take more of them
# Three grids a run at least: fewer let one slow grid set the run's rate.
GRID_MIN_ITEMS = 3
# Cells of the first grid an untraced run re-runs serially for its check.
# A full serial grid takes twice the grid's own time; traced runs do it.
GRID_CHECK_RUNS = 2


@dataclass
class Context:
    seconds: int
    traced: bool
    seeds: SeedRegistry
    work: Path
    host: HostSpeed  # sampled between items, never inside a timed call


def _units(seconds: int, nominal_s: float, multiple: int = 1, minimum: int = 1) -> int:
    """Work units for a run of about ``seconds`` (at least ``minimum``), a
    multiple of ``multiple``."""
    return multiple * max(minimum, math.ceil(seconds / nominal_s / multiple))


def _attempt(report: Report, fn):
    """One timed operation; an exception counts as a failed operation."""
    report.attempted += 1
    try:
        return fn()
    except Exception:  # the benchmark keeps running and reports the failure
        report.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None


def _simulate(shape, seed, telemetry=None):
    from repro import RunOptions
    from repro.workloads import simulate_workload

    name, nprocs, scale = shape
    return simulate_workload(
        name, nprocs=nprocs, scale=scale, seed=seed,
        options=RunOptions(engine="batch", telemetry=telemetry),
    )


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _shape_name(shape) -> str:
    return f"{shape[0]}-{shape[1]}@{shape[2]}"


# ----------------------------------------------------------------------
# cold-pipeline: simulate_workload(engine="batch") + correct_trace, serial
# ----------------------------------------------------------------------
def cold_pipeline(ctx: Context) -> Report:
    from repro import correct_trace

    rep = Report()
    # What every `repro simulate` / `repro sync` call pays before its work.
    _, times = timed_rounds(lambda i: subprocess.run(
        [sys.executable, "-c", "import repro"], check=True), ctx.host)
    setup_metric(rep, times, "a fresh interpreter importing repro")
    cycles = _units(ctx.seconds, PIPELINE_CYCLE_S)
    rep.record.update(
        shapes=[_shape_name(s) for s in PIPELINE_SHAPES], cycles=cycles,
        job="one cycle: one simulate + correct_trace per shape",
    )
    if ctx.traced:
        return _cold_pipeline_traced(ctx, rep, cycles)

    blocks, residual, engaged = [], 0, 0
    for _ in range(cycles):
        cycle_s, events = 0.0, 0
        for shape in PIPELINE_SHAPES:
            seed = ctx.seeds.fresh()
            ctx.host.sample()

            def item():
                run = _simulate(shape, seed)
                return run, correct_trace(run)

            start = time.perf_counter()
            out = _attempt(rep, item)
            cycle_s += time.perf_counter() - start
            if out is None:
                continue
            run, result = out
            events += result.trace.total_events()
            residual += result.report_after.total_violated
            engaged += run.engine == "batch"
        blocks.append((events, cycle_s))
    ctx.host.sample()
    peak = _peak_rss_mb(resource.RUSAGE_SELF)

    throughput_metric(rep, blocks, "cycles")
    latency_metrics(rep, [seconds for _, seconds in blocks], "cycle")
    rep.metric("peak_rss_mb", peak, "MB", 1, note="benchmark process")
    rep.record["batch_engaged"] = f"{engaged}/{rep.attempted}"
    rep.check("violations after CLC == 0", residual == 0, f"{residual} left")
    return rep


def _cold_pipeline_traced(ctx: Context, rep: Report, cycles: int) -> Report:
    """Rounds of three variants of every item, in rotating order: plain
    (as untraced), staged (layer calls timed one by one) and telemetry
    (a TelemetryRecorder through the public arguments)."""
    from repro import TelemetryRecorder, correct_trace
    from repro.tracing.writer import trace_to_jsonl

    layers = Layers()
    variants = ("plain", "staged", "telemetry")
    eps: dict[tuple, float] = {}
    sims = engaged = mismatches = residual = 0

    def plain(shape, seed):
        run = _simulate(shape, seed)
        return run, correct_trace(run).trace

    def with_telemetry(shape, seed):
        recorder = TelemetryRecorder()
        run = _simulate(shape, seed, recorder)
        return run, correct_trace(run, telemetry=recorder).trace

    def staged(shape, seed):
        with layers.time("sim.batch.run_s"):
            run = _simulate(shape, seed)
        trace = staged_correct(
            run.trace, run.init_offsets, run.final_offsets, layers
        )[0]
        return run, trace

    for r in range(cycles):
        for variant in variants[r % 3:] + variants[:r % 3]:
            fn = {"plain": plain, "staged": staged, "telemetry": with_telemetry}[variant]
            for k, shape in enumerate(PIPELINE_SHAPES):
                seed = ctx.seeds.fresh()
                attributed = layers.timed_sum()
                start = time.perf_counter()
                out = _attempt(rep, lambda: fn(shape, seed))
                wall = time.perf_counter() - start
                if out is None:
                    continue
                run, trace = out
                sims += 1
                engaged += run.engine == "batch"
                eps[variant, r, k] = trace.total_events() / wall
                if variant != "staged":
                    continue
                layers.add("bench.unattributed_s",
                           wall - (layers.timed_sum() - attributed))
                layers.add("sim.events", run.trace.total_events())
                # Outside the item: the same inputs again (plan cache hit),
                # and the byte check against the facade.
                with layers.time("sim.batch.run_warm_s"):
                    warm = _simulate(shape, seed)
                sims += 1
                engaged += warm.engine == "batch"
                expected = correct_trace(run)
                residual += expected.report_after.total_violated
                mismatches += trace_to_jsonl(trace) != trace_to_jsonl(expected.trace)

    t = layers.totals
    layers.add("sim.batch.cold_gap_s",
               t.get("sim.batch.run_s", 0.0) - t.get("sim.batch.run_warm_s", 0.0))
    pairs = [key[1:] for key in eps if key[0] == "plain"]
    rep.ratio("bench.trace_overhead_ratio",
              [eps[("staged",) + p] / eps[("plain",) + p] for p in pairs
               if ("staged",) + p in eps],
              "staged / plain events_per_s, paired per item")
    rep.ratio("telemetry.overhead_ratio",
              [eps[("plain",) + p] / eps[("telemetry",) + p] for p in pairs
               if ("telemetry",) + p in eps],
              "item time with / without a TelemetryRecorder, paired per item")
    _layer_metrics(rep, layers)
    rep.metric("sim.batch.engaged_ratio", engaged / sims if sims else 0.0,
               "ratio", sims, note="simulate calls with RunResult.engine == 'batch'")
    rep.check("violations after CLC == 0",
              t.get("sync.violations.after", 0) == 0 and residual == 0)
    rep.check("staged calls byte-identical to correct_trace", mismatches == 0,
              f"{mismatches} mismatched")
    return rep


def _layer_metrics(rep: Report, layers: Layers) -> None:
    for name, total in layers.totals.items():
        rep.metric(name, total, PER_LAYER[name], layers.calls[name])


# ----------------------------------------------------------------------
# service-loopback: 2 closed-loop clients against `repro serve --no-cache`
# ----------------------------------------------------------------------
class _Server:
    """A `repro serve --port 0 --no-cache` subprocess; ``stop`` waits for it."""

    def __init__(self, work: Path) -> None:
        from repro import ServiceClient

        work.mkdir(parents=True)
        self.log = work / "server.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--no-cache", "--workers", str(SERVICE_WORKERS),
                 "--work-dir", str(work / "jobs")],
                stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self.url = self._wait_for_url()
            self.client = ServiceClient(self.url)
            self.client.health()
        except BaseException:
            self.stop()
            raise

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            found = re.search(r"serving on (http://\S+)", self.log.read_text())
            if found:
                return found.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"service did not start:\n{self.log.read_text()}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


@dataclass
class _Payload:
    payload: str
    expected: str
    events: int
    inprocess_s: float  # decode + correct + encode of this payload here
    batch: bool  # the set-up simulation ran on the batch engine


def _prepare_payload(seed: int, layers: Layers | None) -> _Payload:
    """A pop-32 trace as .jsonl, and the bytes the service must return:
    in-process decode + correction + encode of the same payload."""
    from repro import correct_trace
    from repro.core.correct import measurements_from_meta
    from repro.tracing.reader import trace_from_jsonl
    from repro.tracing.writer import trace_to_jsonl

    if layers is None:
        run = _simulate(SERVICE_SHAPE, seed)
        payload = trace_to_jsonl(run.trace)
        start = time.perf_counter()
        corrected = correct_trace(trace_from_jsonl(payload)).trace
        expected = trace_to_jsonl(corrected)
        return _Payload(payload, expected, corrected.total_events(),
                        time.perf_counter() - start, run.engine == "batch")

    with layers.time("sim.batch.run_s"):
        run = _simulate(SERVICE_SHAPE, seed)
    layers.add("sim.events", run.trace.total_events())
    with layers.time("tracing.writer.encode_s"):
        payload = trace_to_jsonl(run.trace)
    layers.add("tracing.writer.bytes", len(payload.encode()))
    start = time.perf_counter()
    with layers.time("tracing.reader.decode_s"):
        trace = trace_from_jsonl(payload)
    corrected, *_ = staged_correct(
        trace, measurements_from_meta(trace.meta, "init_offsets"),
        measurements_from_meta(trace.meta, "final_offsets"), layers,
    )
    with layers.time("tracing.writer.encode_s"):
        expected = trace_to_jsonl(corrected)
    return _Payload(payload, expected, corrected.total_events(),
                    time.perf_counter() - start, run.engine == "batch")


@dataclass
class _JobSample:
    index: int
    latency: float
    job: dict | None
    text: str | None


def _drive(url: str, jobs: list[tuple[int, _Payload]]) -> tuple[list[_JobSample], float]:
    """Closed loop over ``(index, payload)`` jobs: each client submits its
    next payload only after the previous one's corrected trace has been
    fetched.  Returns the samples and the loop's wall time."""
    from repro import ServiceClient

    lock = threading.Lock()
    queue = iter(jobs)

    def client_loop() -> list[_JobSample]:
        client = ServiceClient(url, timeout=120.0)
        out = []
        while True:
            with lock:
                nxt = next(queue, None)
            if nxt is None:
                return out
            index, p = nxt
            start = time.perf_counter()
            job = text = None
            try:
                job = client.submit({"trace_inline": p.payload})
                job = client.wait(job["id"], timeout=120.0, poll=POLL_S)
                if job["state"] == "done":
                    text = client.fetch_trace(job["id"])
            except Exception:  # a failed job; counted by the caller
                traceback.print_exc(file=sys.stderr)
            out.append(_JobSample(index, time.perf_counter() - start, job, text))

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=SERVICE_CLIENTS) as pool:
        futures = [pool.submit(client_loop) for _ in range(SERVICE_CLIENTS)]
        samples = [s for f in futures for s in f.result()]
    return samples, time.perf_counter() - start


def _counter(metrics_text: str, name: str) -> float:
    found = re.search(rf"^{re.escape(name)} (\S+)$", metrics_text, re.M)
    return float(found.group(1)) if found else 0.0


def service_loopback(ctx: Context) -> Report:
    rep = Report()
    layers = Layers() if ctx.traced else None
    n_jobs = _units(ctx.seconds, SERVICE_JOB_S, SETUP_ROUNDS)
    per_round = n_jobs // SETUP_ROUNDS
    servers: list[_Server] = []
    try:
        def setup_round(i: int) -> list[_Payload]:
            servers.append(_Server(ctx.work / f"server{i}"))
            return [_prepare_payload(ctx.seeds.fresh(), layers)
                    for _ in range(per_round)]

        batches, times = timed_rounds(setup_round, ctx.host)
        for server in servers[:-1]:
            server.stop()
        payloads = [p for batch in batches for p in batch]
        # One closed-loop segment per set-up batch, so the host's speed is
        # also sampled between segments of the timed loop.
        samples, blocks = [], []
        for k in range(SETUP_ROUNDS):
            jobs = list(enumerate(payloads))[k * per_round:(k + 1) * per_round]
            segment, segment_s = _drive(servers[-1].url, jobs)
            ctx.host.sample()
            samples += segment
            blocks.append((sum(payloads[s.index].events for s in segment
                               if s.text is not None), segment_s))
        metrics_text = servers[-1].client.metrics()
    finally:
        for server in servers:
            server.stop()
    peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    rep.attempted = len(samples)
    done = [s for s in samples if s.text is not None]
    rep.failed = len(samples) - len(done)
    setup_metric(rep, times, f"server start + {per_round} payloads and their expected output")
    rep.record.update(
        shape=_shape_name(SERVICE_SHAPE), jobs=n_jobs, clients=SERVICE_CLIENTS,
        server_workers=SERVICE_WORKERS, poll_interval_s=POLL_S,
        job="submit + wait + fetch_trace of one inline payload",
    )

    mismatched = sum(s.text != payloads[s.index].expected for s in done)
    cached = sum(bool(s.job and s.job.get("from_cache")) for s in samples)
    joins = _counter(metrics_text, "repro_service_jobs_deduplicated")
    submitted = _counter(metrics_text, "repro_service_jobs_submitted")
    rep.check("fetched traces byte-identical to in-process correction",
              mismatched == 0, f"{mismatched} of {len(done)} differ")
    rep.check("cold-input guard: no from_cache jobs", cached == 0, f"{cached}")
    rep.check("cold-input guard: no dedup joins", joins == 0 and submitted == len(samples),
              f"{joins:g} joins, {submitted:g}/{len(samples)} submits seen in /metrics")

    if not ctx.traced:
        throughput_metric(rep, blocks, "closed-loop segments")
        latency_metrics(rep, [s.latency for s in done], "job")
        rep.metric("peak_rss_mb", peak, "MB", 1, note="server subprocess")
        return rep

    records = [s for s in done if s.job.get("started") and s.job.get("finished")]
    queue_wait = sum(s.job["started"] - s.job["created"] for s in records)
    execute = sum(s.job["finished"] - s.job["started"] for s in records)
    overhead = sum(s.latency - (s.job["finished"] - s.job["created"]) for s in records)
    inprocess = sum(payloads[s.index].inprocess_s for s in records)
    for name, value in (("service.queue_wait_s", queue_wait),
                        ("service.exec_s", execute),
                        ("service.client_overhead_s", overhead)):
        rep.metric(name, value, "s", len(records))
    rep.metric("service.exec_inflation", execute / inprocess if inprocess else 0.0,
               "ratio", len(records), note="server exec / in-process decode+correct+encode")
    rep.metric("service.attempts_per_job",
               sum(s.job["attempts"] for s in records) / max(len(records), 1),
               "ratio", len(records))
    rep.metric("service.dedup_joins", joins, "count", 1)
    _layer_metrics(rep, layers)
    rep.metric("sim.batch.engaged_ratio", sum(p.batch for p in payloads) / len(payloads),
               "ratio", len(payloads))
    rep.metric("bench.unattributed_s", overhead, "s", len(records),
               note="job latency outside queue wait and exec")
    _untimed_loop(rep, "layer times come from job records and set-up")
    return rep


def _untimed_loop(rep: Report, why: str) -> None:
    """``bench.trace_overhead_ratio`` where the traced run adds no span
    inside the timed calls, so there is no overhead to measure."""
    rep.metric("bench.trace_overhead_ratio", 0.0, "ratio", 0,
               note=f"not on path: timed loop identical in both modes ({why})")


# ----------------------------------------------------------------------
# sharded-stream: correct_trace(<sharded dir>, output=<fresh dir>), serial
# ----------------------------------------------------------------------
def prepare_sharded(seed: int, root: str) -> dict:
    """Set-up of one input, in a child process: simulate,
    write_sharded_trace, and the in-memory correct_trace the streamed
    result must match.  ``setup_s`` is its duration.

    The child keeps the benchmark process's peak memory that of the
    streaming kernels, not of the in-memory set-up.
    """
    from repro import correct_trace
    from repro.tracing import ShardedTraceReader, write_sharded_trace

    t0 = time.perf_counter()
    run = _simulate(SHARDED_SHAPE, seed)
    t1 = time.perf_counter()
    directory = Path(root) / f"input-{seed}"
    write_sharded_trace(run.trace, directory, shard_events=SHARD_EVENTS)
    t2 = time.perf_counter()
    expected = correct_trace(run)
    digest = column_digest(expected.trace)
    return dict(
        directory=str(directory), seed=seed, sim_s=t1 - t0, write_s=t2 - t1,
        setup_s=time.perf_counter() - t0, digest=digest,
        engine=run.engine, events=run.trace.total_events(),
        shards=ShardedTraceReader(directory).shard_count(),
        bytes=sum(f.stat().st_size for f in directory.iterdir()),
        stages=stage_counts(expected.stages),
    )


def _staged_stream(source: str, output: Path, scratch: Path, layers: Layers):
    """``correct_trace``'s streaming chain, one timed public call at a time."""
    from repro.core.correct import measurements_from_meta
    from repro.sync.interpolation import linear_interpolation
    from repro.sync.streaming import (
        streaming_apply_correction,
        streaming_clc_correct,
        streaming_scan_trace,
    )
    from repro.tracing.store import ChunkedTrace

    def scan(stage, chunked):
        with layers.time("sync.streaming.scan_s"):
            r = streaming_scan_trace(chunked, lmin=0.0)
        p2p, coll = r["p2p"], r["collective"]
        return (stage, p2p.checked, p2p.violated, coll.checked, coll.violated)

    chunked = ChunkedTrace(source)
    stages = [scan("raw", chunked)]
    correction = linear_interpolation(
        measurements_from_meta(chunked.meta, "init_offsets"),
        measurements_from_meta(chunked.meta, "final_offsets"),
    )
    with layers.time("sync.streaming.apply_s"):
        interpolated = streaming_apply_correction(correction, chunked, scratch)
    stages.append(scan("linear", interpolated))
    with layers.time("sync.streaming.clc_s"):
        clc = streaming_clc_correct(interpolated, output, gamma=0.99, lmin=0.0)
    corrected = ChunkedTrace(output)
    stages.append(scan("clc", corrected))
    layers.add("sync.clc.jumps", clc.jumps)
    layers.add("sync.violations.before", stages[0][2] + stages[0][4])
    layers.add("sync.violations.after", stages[-1][2] + stages[-1][4])
    return corrected, stages


def sharded_stream(ctx: Context) -> Report:
    from repro import correct_trace

    rep = Report()
    layers = Layers() if ctx.traced else None
    n_items = _units(ctx.seconds, SHARDED_ITEM_S)
    if ctx.traced:  # plain and staged items alternate
        n_items *= 2
    inputs_dir = ctx.work / "inputs"
    inputs_dir.mkdir()
    seeds = [ctx.seeds.fresh() for _ in range(n_items)]
    # Two inputs are set up at once, one a vCPU, while this process idles.
    # Forked, not spawned: a spawn pool starts a resource tracker process
    # that nothing waits for and that outlives this process.  This process
    # has run no simulation yet, so forked workers start with cold caches.
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("fork")) as pool:
        inputs = list(pool.map(prepare_sharded, seeds, [str(inputs_dir)] * n_items))
    for _ in range(SETUP_ROUNDS):
        ctx.host.sample()
    setup_metric(rep, [inp["setup_s"] for inp in inputs],
                 "one input (simulate + write_sharded_trace + in-memory correct_trace)"
                 " in a child process, two at once")
    rep.record.update(
        shape=_shape_name(SHARDED_SHAPE), shard_events=SHARD_EVENTS, items=len(inputs),
        job="one streamed correct_trace of a sharded directory",
    )

    results, latencies = [], []
    for i, inp in enumerate(inputs):
        output = ctx.work / f"out-{inp['seed']}"
        staged = ctx.traced and i % 2 == 1
        attributed = layers.timed_sum() if staged else 0.0
        t0 = time.perf_counter()
        if staged:
            out = _attempt(rep, lambda: _staged_stream(
                inp["directory"], output, ctx.work / f"interp-{inp['seed']}", layers))
        else:
            out = _attempt(rep, lambda: correct_trace(inp["directory"], output=output))
            if out is not None:
                out = (out.trace, stage_counts(out.stages))
        latencies.append(time.perf_counter() - t0)
        ctx.host.sample()
        if staged:
            layers.add("bench.unattributed_s",
                       latencies[-1] - (layers.timed_sum() - attributed))
        if out is not None:
            results.append((inp, latencies[-1], staged, *out))
    peak = _peak_rss_mb(resource.RUSAGE_SELF)

    mismatched = sum(
        column_digest(corrected.materialize()) != inp["digest"]
        or [tuple(s) for s in stages] != [tuple(s) for s in inp["stages"]]
        for inp, _, _, corrected, stages in results
    )
    rep.check("streamed == in-memory correct_trace (bits and stage counts)",
              mismatched == 0, f"{mismatched} of {len(results)} differ")
    if not ctx.traced:
        throughput_metric(rep, [(r[3].total_events(), r[1]) for r in results],
                          "sharded corrections")
        latency_metrics(rep, latencies, "sharded correction")
        rep.metric("peak_rss_mb", peak, "MB", 1, note="benchmark process (set-up in a child)")
        return rep

    for inp in inputs:
        layers.add("sim.batch.run_s", inp["sim_s"])
        layers.add("sim.events", inp["events"])
        layers.add("tracing.store.write_s", inp["write_s"])
        layers.add("tracing.store.shards", inp["shards"])
        layers.add("tracing.store.bytes", inp["bytes"])
    _layer_metrics(rep, layers)
    rep.metric("sim.batch.engaged_ratio",
               sum(inp["engine"] == "batch" for inp in inputs) / len(inputs),
               "ratio", len(inputs))
    eps = [r[3].total_events() / r[1] for r in results]
    kinds = [r[2] for r in results]
    rep.ratio("bench.trace_overhead_ratio",
              [eps[i + 1] / eps[i] for i in range(0, len(results) - 1, 2)
               if not kinds[i] and kinds[i + 1]],
              "staged / plain streamed events_per_s, paired per item")
    return rep


# ----------------------------------------------------------------------
# figure-grid: fig7_app_violations over a 2-worker process pool
# ----------------------------------------------------------------------
def _fig7(seed: int, jobs: int, nprocs=32, scale=0.05, runs=GRID_RUNS):
    from repro import RunOptions
    from repro.analysis.experiments import fig7_app_violations

    return fig7_app_violations(
        "pop", nprocs=nprocs, scale=scale, runs=runs,
        options=RunOptions(jobs=jobs, cache=None, engine="batch", seed=seed),
    )


def figure_grid(ctx: Context) -> Report:
    rep = Report()
    _, times = timed_rounds(
        lambda i: _fig7(ctx.seeds.fresh(), GRID_JOBS, **GRID_WARMUP), ctx.host,
        GRID_SETUP_ROUNDS
    )
    setup_metric(rep, times, "one small fig7 grid over the pool (pool start, imports)")
    n_items = _units(ctx.seconds, GRID_ITEM_S, minimum=GRID_MIN_ITEMS)
    rep.record.update(
        grid=f"fig7 pop-32@0.05 runs={GRID_RUNS} jobs={GRID_JOBS}", items=n_items,
        job="one fig7_app_violations call",
    )
    layers = Layers() if ctx.traced else None
    latencies, blocks, efficiency = [], [], []
    first = None
    for _ in range(n_items):
        # fig7 derives distinct per-repetition seeds seed*1000+rep from it.
        seed = ctx.seeds.fresh()
        t0 = time.perf_counter()
        result = _attempt(rep, lambda: _fig7(seed, GRID_JOBS))
        latencies.append(time.perf_counter() - t0)
        ctx.host.sample()
        if result is None:
            continue
        item_events = sum(r.events for r in result.runs)
        blocks.append((item_events, latencies[-1]))
        first = first or (seed, result)
        if ctx.traced:
            # The serial pass of a grid always follows its parallel pass,
            # so no pool worker inherits a plan this process compiled for
            # the same seeds.
            layers.add("analysis.runner.parallel_s", latencies[-1])
            layers.add("sim.events", item_events)
            t1 = time.perf_counter()
            serial = _fig7(seed, 1)
            serial_s = time.perf_counter() - t1
            layers.add("analysis.runner.serial_s", serial_s)
            efficiency.append(serial_s / (GRID_JOBS * latencies[-1]))
            rep.check(f"jobs={GRID_JOBS} == jobs=1 (seed {seed})", serial.runs == result.runs)
    peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    if not ctx.traced:
        # After every timed item (see above).  fig7 computes cell r from
        # seed*1000+r alone, so a grid of the first cells is a prefix.
        if first is not None:
            seed, result = first
            rep.check(f"jobs={GRID_JOBS} == jobs=1 (seed {seed}, first "
                      f"{GRID_CHECK_RUNS} cells)",
                      _fig7(seed, 1, runs=GRID_CHECK_RUNS).runs
                      == result.runs[:GRID_CHECK_RUNS])
        throughput_metric(rep, blocks, "grids")
        latency_metrics(rep, latencies, "grid")
        rep.metric("peak_rss_mb", peak, "MB", 1, note="largest pool worker")
        return rep

    _layer_metrics(rep, layers)
    rep.ratio("analysis.runner.parallel_efficiency", efficiency,
              f"serial / ({GRID_JOBS} x parallel), same grid")
    _untimed_loop(rep, "a grid item is one public call")
    rep.metric("bench.unattributed_s", 0.0, "s", 0,
               note="a grid item is one timed call")
    return rep


#: Each workload, and the processes its host-speed reference runs in
#: (:class:`harness.HostSpeed`): 1 where the work runs in this process,
#: 2 where it runs in other processes across both vCPUs.
WORKLOADS = {
    "cold-pipeline": (cold_pipeline, 1),
    "service-loopback": (service_loopback, 2),
    "sharded-stream": (sharded_stream, 1),
    "figure-grid": (figure_grid, 2),
}
