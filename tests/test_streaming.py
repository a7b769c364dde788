"""Tests for the out-of-core streaming kernels (repro.sync.streaming).

The heavy lifting — bit-identity of the streaming CLC and violation
scan against the in-memory kernels — is delegated to the same
:func:`repro.verify.oracles.assert_streamed_matches_inmemory` helper
the ``streaming`` fuzz campaign uses, pinned here at the shard sizes
that exercise every boundary case: one event per shard, two, a prime
that misaligns with every rank length, and one larger than the trace.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import TelemetryRecorder, correct_trace
from repro.cli import main
from repro.cluster import inter_node, xeon_cluster
from repro.errors import ConfigurationError
from repro.mpi.runtime import MpiWorld
from repro.options import RunOptions
from repro.sync.clc import (
    ControlledLogicalClock,
    _amortize_backward,
    _ClcStats,
    compute_clc_stats,
)
from repro.sync.streaming import streaming_clc_correct, streaming_scan_trace
from repro.sync.violations import scan_trace
from repro.tracing.events import CollectiveOp, EventLog, EventType
from repro.tracing.store import ChunkedTrace, write_sharded_trace
from repro.tracing.trace import Trace, pair_collectives
from repro.verify.oracles import assert_streamed_matches_inmemory
from repro.workloads import build_workload


def _run(options=None, nprocs: int = 4, seed: int = 5):
    preset = xeon_cluster()
    world = MpiWorld(
        preset, inter_node(preset.machine, nprocs), timer="tsc", seed=seed,
        duration_hint=10.0,
    )
    built = build_workload("sparse", nprocs, 0.2, seed)
    return world.run(
        built.worker,
        tracing_initially=built.tracing_initially,
        options=options or RunOptions(),
    )


@pytest.fixture(scope="module")
def sim_trace():
    return _run().trace


class TestBitIdentity:
    @pytest.mark.parametrize("shard_events", [1, 2, 7, 10**6])
    def test_matches_inmemory(self, sim_trace, shard_events):
        assert_streamed_matches_inmemory(sim_trace, shard_events)

    def test_matches_with_window_and_lmin(self, sim_trace):
        assert_streamed_matches_inmemory(
            sim_trace, 3, lmin=1e-6, gamma=1.0, window=0.5
        )

    def test_scan_counts(self, sim_trace, tmp_path):
        d = write_sharded_trace(sim_trace, tmp_path / "s", shard_events=5)
        ref = scan_trace(sim_trace)
        got = streaming_scan_trace(d)
        for kind in ref:
            assert got[kind].checked == ref[kind].checked
            assert got[kind].violated == ref[kind].violated
            np.testing.assert_array_equal(got[kind].indices, ref[kind].indices)

    def test_clc_result_is_chunked(self, sim_trace, tmp_path):
        d = write_sharded_trace(sim_trace, tmp_path / "s", shard_events=5)
        result = streaming_clc_correct(d, tmp_path / "out")
        assert isinstance(result.trace, ChunkedTrace)
        ref = ControlledLogicalClock().correct(sim_trace)
        assert result.jumps == ref.jumps
        assert result.max_shift == ref.max_shift


def _allreduce_trace(nranks: int, instances: int, seed: int = 0) -> Trace:
    """Back-to-back N-to-N collectives on skewed clocks (no p2p traffic)."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-5e-5, 5e-5, nranks)
    logs = {}
    for rank in range(nranks):
        t0 = np.arange(instances) * 1e-3
        enter = t0 + rng.uniform(0.0, 1e-4, instances)
        exit_ = t0 + 1e-4 + rng.uniform(0.0, 1e-5, instances)
        ts = np.column_stack([enter, exit_]).ravel() + offsets[rank]
        et = np.tile([int(EventType.COLL_ENTER), int(EventType.COLL_EXIT)], instances)
        op = np.full(2 * instances, int(CollectiveOp.ALLREDUCE))
        inst = np.repeat(np.arange(instances), 2)
        zeros = np.zeros(2 * instances, dtype=np.int64)
        logs[rank] = EventLog.from_arrays(ts, et, op, zeros, zeros + 8, inst)
    return Trace(logs)


class TestFacade:
    """``correct_trace`` over a shard directory == over the trace."""

    @pytest.mark.parametrize("interpolation", ["none", "linear"])
    @pytest.mark.parametrize("window", [None, 0.0, 1e-3])
    def test_window_reaches_the_streamed_clc(self, sim_trace, tmp_path, interpolation, window):
        src = write_sharded_trace(sim_trace, tmp_path / "s", shard_events=7)
        knobs = dict(interpolation=interpolation, amortization_window=window)
        ref = correct_trace(sim_trace, **knobs)
        got = correct_trace(src, output=tmp_path / "out", **knobs)
        materialized = got.trace.materialize()
        for rank in sim_trace.ranks:
            assert (
                materialized.logs[rank].timestamps.tobytes()
                == ref.trace.logs[rank].timestamps.tobytes()
            )
        assert materialized.meta["clc"] == ref.trace.meta["clc"]
        assert got.clc.jumps == ref.clc.jumps
        assert got.clc.max_shift == ref.clc.max_shift
        assert [s.to_dict() for s in got.stages] == [s.to_dict() for s in ref.stages]

    def test_same_span_tree(self, sim_trace, tmp_path):
        src = write_sharded_trace(sim_trace, tmp_path / "s", shard_events=7)

        def spans(source, **kw):
            rec = TelemetryRecorder()
            correct_trace(source, telemetry=rec, **kw)
            names = [s.name for s in rec.spans]
            return {
                (s.name, names[s.parent] if s.parent >= 0 else None) for s in rec.spans
            }

        # A fixed window: the amortization pass runs on both paths.
        inmemory = spans(sim_trace, amortization_window=1e-3)
        streamed = spans(src, output=tmp_path / "out", amortization_window=1e-3)
        assert ("sync.clc.compile", "sync.clc") in inmemory
        assert ("sync.clc.forward", "sync.clc") in streamed
        assert ("sync.clc.amortize", "sync.clc") in streamed
        assert ("sync.stream.prescan", "sync.clc") in streamed
        assert ("sync.stream.finalize", "sync.clc") in streamed
        assert inmemory - {("sync.clc.compile", "sync.clc")} == {
            edge for edge in streamed if not edge[0].startswith("sync.stream.")
        }


class TestBoundedMemory:
    def test_collective_heavy_clc(self, tmp_path):
        # 32 ranks x 60 allreduces: 59,520 flavor-expanded edges and as
        # many send caps, against 1,920 members (one cap per enter).
        trace = _allreduce_trace(32, 60)
        src = write_sharded_trace(trace, tmp_path / "s", shard_events=40)
        tracemalloc.start()
        try:
            result = streaming_clc_correct(src, tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.jumps > 0
        assert peak < 4e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


class TestSharedSteps:
    """The steps the streaming driver borrows, chunked == whole."""

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_amortize_backward_carry(self, chunk):
        rng = np.random.default_rng(chunk)
        n = 40
        times = np.cumsum(rng.uniform(0.0, 1e-3, n))
        times[17] -= 5e-4  # one non-monotone step
        jumps = [(k, float(j), float(times[k])) for k, j in ((9, 2e-3), (25, 7e-4), (39, 1e-3))]
        caps = np.where(rng.random(n) < 0.3, times + rng.uniform(0.0, 1e-3, n), np.inf)
        whole, _ = _amortize_backward(times, jumps, 5e-3, caps)
        parts, carry = [], None
        for lo in reversed(range(0, n, chunk)):
            out, carry = _amortize_backward(
                times[lo:lo + chunk], jumps, 5e-3, caps[lo:lo + chunk], lo=lo, carry=carry
            )
            parts.append(out)
        assert np.concatenate(parts[::-1]).tobytes() == whole.tobytes()
        assert not np.array_equal(whole, times)

    def test_clc_stats_chunks(self, sim_trace):
        result = ControlledLogicalClock().correct(sim_trace)
        original = {r: sim_trace.logs[r].timestamps for r in sim_trace.ranks}
        corrected = {r: result.trace.logs[r].timestamps for r in sim_trace.ranks}
        whole = compute_clc_stats(sim_trace, original, corrected, 0, 0.0, {})
        stats = _ClcStats()
        for rank in sim_trace.ranks:
            for lo in range(0, original[rank].size, 5):
                stats.add(original[rank][lo:lo + 5], corrected[rank][lo:lo + 5], first=lo == 0)
        chunked = stats.result(None, sim_trace.total_events(), 0, 0.0)
        for field_ in ("corrected_events", "max_shift", "interval_distortion",
                       "max_interval_growth"):
            assert getattr(chunked, field_) == getattr(whole, field_)

    def test_pair_collectives_over_shards(self, tmp_path):
        trace = _allreduce_trace(5, 4)
        chunked = ChunkedTrace(write_sharded_trace(trace, tmp_path / "s", shard_events=3))
        table = pair_collectives(
            (rank, rec.start, cols)
            for rank in chunked.ranks
            for rec, cols in chunked.iter_shards(rank)
        )
        ref = trace.collectives()
        assert len(table) == len(ref) == 4
        for a, b in zip(table, ref):
            assert (a.instance, a.op, a.root) == (b.instance, b.op, b.root)
            for name in ("ranks", "enter_ts", "exit_ts", "enter_idx", "exit_idx"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestRunOptionsValidation:
    def test_shard_events_requires_trace_dir(self):
        with pytest.raises(ConfigurationError, match="requires trace_dir"):
            RunOptions(shard_events=64)

    def test_shard_events_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="positive"):
            RunOptions(trace_dir=tmp_path, shard_events=0)


class TestSpillRun:
    def test_spill_run_is_bit_identical(self, sim_trace, tmp_path):
        run = _run(RunOptions(trace_dir=tmp_path / "spill", shard_events=8))
        assert isinstance(run.trace, ChunkedTrace)
        got = run.trace.materialize()
        assert got.ranks == sim_trace.ranks
        for rank in sim_trace.ranks:
            a, b = sim_trace.logs[rank], got.logs[rank]
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.etypes, b.etypes)
            np.testing.assert_array_equal(a.d, b.d)


class TestCliSharded:
    def test_full_tool_loop(self, tmp_path, capsys):
        shards = tmp_path / "shards"
        rc = main([
            "simulate", "--workload", "sparse", "--nprocs", "4", "--seed", "5",
            "--scale", "0.2", "--trace-out", str(shards), "--shard-events", "8",
        ])
        assert rc == 0
        rc = main(["report", str(shards)])
        assert rc == 0
        assert "(sharded)" in capsys.readouterr().out
        rc = main(["scan", str(shards)])
        assert rc in (0, 1)
        fixed = tmp_path / "fixed"
        rc = main(["sync", str(shards), "--clc", "-o", str(fixed)])
        assert rc == 0
        assert main(["scan", str(fixed)]) == 0

    def test_materializing_interpolation_is_refused(self, tmp_path, capsys):
        shards = tmp_path / "shards"
        assert main([
            "simulate", "--nprocs", "2", "--trace-out", str(shards),
        ]) == 0
        rc = main([
            "sync", str(shards), "--interpolation", "hull",
            "-o", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "whole trace in memory" in capsys.readouterr().err

    def test_output_flags_are_exclusive(self, tmp_path, capsys):
        rc = main([
            "simulate", "--nprocs", "2", "-o", str(tmp_path / "t.npz"),
            "--trace-out", str(tmp_path / "s"),
        ])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err
