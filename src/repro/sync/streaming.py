"""Out-of-core drivers for the CLC, the violation scan and interpolation.

The in-memory kernels of :mod:`repro.sync.clc` and
:mod:`repro.sync.violations` hold the whole trace (and its
:class:`~repro.sync.schedule.CompiledSchedule`) in RAM.  The functions
here drive the **same algorithm steps** over a
:class:`~repro.tracing.store.ChunkedTrace`, one shard per rank resident
at a time, and reproduce the in-memory results bit for bit.  Each step
exists once, in its in-memory module:

* collective pairing — :func:`repro.tracing.trace.pair_collectives`;
* collective flavor to senders —
  :func:`repro.sync.order.collective_senders`;
* the forward pass's local recurrence —
  :func:`repro.sync.schedule.do_stretch` / ``run_tail``;
* backward amortization (with a carry across chunk boundaries), the
  auto window and the CLC statistics — ``_amortize_backward``,
  ``ControlledLogicalClock._auto_window`` and ``_ClcStats`` of
  :mod:`repro.sync.clc`.

This module keeps only what exists because the trace is on disk: shard
I/O, the round-robin cross-rank scheduler of the forward pass (a rank
blocks at a receive whose matching send, or a collective exit whose
constraining enters, are not published yet), the values carried across
shard boundaries, the spill of send caps to per-shard bucket files,
point-to-point stream matching for the scan, and per-shard
interpolation.

* :func:`streaming_clc_correct` — the controlled logical clock, written
  back out as a sharded store;
* :func:`streaming_scan_trace` — Eq. 1 violation scan.  Point-to-point
  matching streams with the same id/FIFO semantics as
  :meth:`Trace.messages(strict=False) <repro.tracing.trace.Trace.messages>`
  (unmatched ends dropped); collective instances are paired and
  expanded through the in-memory logical-message mapping;
* :func:`streaming_apply_correction` — per-shard offset interpolation.

Memory beyond the resident shards: one record per collective member
(never one per flavor-expanded edge), the forward jumps, published
values not yet consumed, and at most ``_CAPS_BUDGET`` buffered send
caps.  Boundary-state requirements: every receive's matching send must
come from the rank named in its source field, and match ids must be
unique.  Simulator-written traces guarantee both.  A dependency cycle
(corrupt trace) stalls every rank and raises
:class:`~repro.errors.SynchronizationError`, mirroring the in-memory
replay.  The ``streamed_matches_inmemory`` oracle in
:mod:`repro.verify.oracles` enforces the bit-identity contract.
"""

from __future__ import annotations

import tempfile
from bisect import bisect_left, bisect_right
from collections import deque
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.clc import (
    ClcResult,
    ControlledLogicalClock,
    _amortize_backward,
    _ClcStats,
    _lmin_callable,
)
from repro.sync.collectives_map import logical_messages
from repro.sync.order import collective_senders, collective_shape
from repro.sync.schedule import do_stretch
from repro.sync.violations import LminSpec, ViolationReport, scan_messages
from repro.telemetry import ensure_telemetry
from repro.tracing.events import EventType
from repro.tracing.store import ChunkedTrace, ShardedTraceReader, ShardedTraceWriter
from repro.tracing.trace import CollectiveTable, pair_collectives

__all__ = [
    "streaming_clc_correct",
    "streaming_scan_trace",
    "streaming_apply_correction",
]

_SEND = int(EventType.SEND)
_RECV = int(EventType.RECV)
_CENT = int(EventType.COLL_ENTER)
_CEXIT = int(EventType.COLL_EXIT)

#: Caps spill records: rank-local event index + cap value.
_CAPS_DTYPE = np.dtype([("i", "<i8"), ("v", "<f8")])
#: Events whose send cap may sit in memory at once, over all buckets.
_CAPS_BUDGET = 1 << 15


def _source_is_chunked(source) -> ChunkedTrace:
    if isinstance(source, ChunkedTrace):
        return source
    if isinstance(source, ShardedTraceReader):
        return ChunkedTrace(source)
    return ChunkedTrace(ShardedTraceReader(source))


def _id_mode(reader: ShardedTraceReader) -> bool:
    """Ground-truth match ids available?  (Same rule as ``Trace``.)"""
    for rank in reader.ranks:
        for rec in reader.rank_shards(rank):
            if rec.neg_send_ids:
                return False
    return True


class _Resident:
    """Resident-events accounting shared by all streaming passes."""

    __slots__ = ("tele", "cur")

    def __init__(self, tele) -> None:
        self.tele = tele
        self.cur = 0

    def load(self, events: int) -> None:
        self.cur += events
        if self.tele.enabled:
            self.tele.count("sync.stream.shards_read")
            self.tele.gauge_max("sync.clc.peak_resident_events", self.cur)

    def release(self, events: int) -> None:
        self.cur -= events


def _stream_shards(chunked: ChunkedTrace, resident: _Resident):
    """``(rank, first index, columns)`` of every shard, rank by rank."""
    for rank in chunked.ranks:
        for rec, cols in chunked.iter_shards(rank):
            resident.load(rec.events)
            yield rank, rec.start, cols
            resident.release(rec.events)


# ----------------------------------------------------------------------
# Collective stops and publications
# ----------------------------------------------------------------------
def _collective_plan(table: CollectiveTable):
    """Where the streaming forward stops and publishes for collectives.

    Returns ``(exits, enters)``: ``exits[rank]`` maps the log index of
    an exit that some member's enter constrains to ``(shape, position)``
    with ``shape = (instance, member ranks, flavor, root position)``;
    ``enters[rank]`` maps the log index of a constraining enter to
    ``(instance, number of exits reading it)``.  One entry per member:
    an exit's senders are derived from its instance when the forward
    reaches it.
    """
    exits: dict[int, dict[int, tuple]] = {}
    enters: dict[int, dict[int, tuple[int, int]]] = {}
    for rec in table:
        n = rec.ranks.size
        if n < 2:
            continue
        flavor, root_pos = collective_shape(rec)
        ranks = rec.ranks.tolist()
        shape = (rec.instance, ranks, flavor, root_pos)
        readers = [0] * n
        for i in range(n):
            senders = collective_senders(flavor, root_pos, n, i)
            if senders:
                exits.setdefault(ranks[i], {})[int(rec.exit_idx[i])] = (shape, i)
                for j in senders:
                    readers[j] += 1
        for j, count in enumerate(readers):
            if count:
                enters.setdefault(ranks[j], {})[int(rec.enter_idx[j])] = (
                    rec.instance, count,
                )
    return exits, enters


# ----------------------------------------------------------------------
# Caps spill
# ----------------------------------------------------------------------
class _CapsSpill:
    """Per-event send caps in per-(rank, shard) bucket files.

    A bucket keeps one cap per event, the minimum of those offered (min
    is exact and order-free, so combining early changes no bit).  When
    ``_CAPS_BUDGET`` events are buffered over all buckets, every bucket
    is appended to its file and the buffers start over.
    """

    def __init__(self, tmpdir: Path, shard_starts: dict[int, list[int]]) -> None:
        self.tmpdir = tmpdir
        self.starts = shard_starts
        self.buffers: dict[tuple[int, int], dict[int, float]] = {}
        self.buffered = 0

    def _path(self, rank: int, ordinal: int) -> Path:
        return self.tmpdir / f"caps_r{rank}_s{ordinal}.bin"

    def add(self, rank: int, idx: int, val: float) -> None:
        key = (rank, bisect_right(self.starts[rank], idx) - 1)
        buf = self.buffers.get(key)
        if buf is None:
            buf = self.buffers[key] = {}
        old = buf.get(idx)
        if old is None:
            buf[idx] = val
            self.buffered += 1
            if self.buffered >= _CAPS_BUDGET:
                self._spill()
        elif val < old:
            buf[idx] = val

    def _spill(self) -> None:
        for key, buf in self.buffers.items():
            arr = np.array(list(buf.items()), dtype=_CAPS_DTYPE)
            with self._path(*key).open("ab") as fh:
                fh.write(arr.tobytes())
        self.buffers.clear()
        self.buffered = 0

    def load(self, rank: int, ordinal: int, lo: int, n: int) -> np.ndarray:
        """Dense caps of one shard (``inf`` where an event has none)."""
        caps = np.full(n, np.inf, dtype=np.float64)
        path = self._path(rank, ordinal)
        if path.exists():
            arr = np.frombuffer(path.read_bytes(), dtype=_CAPS_DTYPE)
            np.minimum.at(caps, arr["i"] - lo, arr["v"])
        buf = self.buffers.get((rank, ordinal))
        if buf:
            arr = np.array(list(buf.items()), dtype=_CAPS_DTYPE)
            np.minimum.at(caps, arr["i"] - lo, arr["v"])
        return caps


# ----------------------------------------------------------------------
# Streaming forward pass
# ----------------------------------------------------------------------
class _RankForward:
    """One rank's CLC recurrence, advanced shard by shard.

    The per-shard working lists carry a one-slot prefix holding the
    previous shard's last original/corrected value, so the recurrence
    indexes ``corr[q - 1]`` uniformly across shard boundaries and
    :func:`~repro.sync.schedule.do_stretch` runs on them unchanged (the
    rank's first event sits at list index ``1 - lo``).  Splitting a
    stretch at a shard or publication boundary is bit-identical because
    the resume condition (``corr[prev] > orig[prev]``) recovers exactly
    the kernel's running tail state.
    """

    __slots__ = (
        "rank", "recs", "reader", "gamma", "si", "cols",
        "lo", "n_s", "origl", "corr", "gdl", "spont", "sp_ptr",
        "stops", "stop_ptr", "pubs", "pub_ptr", "cur",
        "prev_orig", "prev_corr", "finished", "jumps", "resident",
        "fwd_paths", "tmpdir",
    )

    def __init__(self, rank, recs, reader, gamma, tmpdir, resident) -> None:
        self.rank = rank
        self.recs = recs
        self.reader = reader
        self.gamma = gamma
        self.tmpdir = tmpdir
        self.resident = resident
        self.si = -1
        self.cols = None
        self.finished = not recs
        self.prev_orig = 0.0
        self.prev_corr = 0.0
        self.jumps: list[tuple[int, float, float]] = []  # (local idx, jump, value)
        self.fwd_paths: list[Path] = []

    # -- shard management ------------------------------------------------
    def load_next(self, coll_exits, coll_enters) -> None:
        self.si += 1
        rec = self.recs[self.si]
        cols = self.reader.load_shard(rec)
        self.cols = cols
        self.resident.load(rec.events)
        ts = np.asarray(cols[0], dtype=np.float64)
        self.lo = rec.start
        self.n_s = rec.events
        # List index q holds event lo + q - 1; index 0 is the carried prefix.
        orig = np.concatenate(([self.prev_orig], ts))
        gd = self.gamma * np.diff(orig)
        self.origl = orig.tolist()
        self.corr = [self.prev_corr] + ts.tolist()
        self.gdl = [0.0] + gd.tolist()
        # Spontaneous positions, as ``_spont_positions`` finds them.
        mask = (orig[:-1] + gd) > ts
        if self.lo == 0:
            mask[:1] = False  # the rank's first event has no predecessor
        self.spont = (np.nonzero(mask)[0] + 1).tolist()
        self.sp_ptr = 0
        et = cols[1]
        my_exits = coll_exits.get(self.rank, {})
        my_enters = coll_enters.get(self.rank, {})
        stops = []  # (list index, code): 0 = recv, 1 = constrained coll exit
        pubs = []   # list indices of sends and constraining enters
        for i in np.nonzero(et == _RECV)[0]:
            stops.append((int(i) + 1, 0))
        for i in np.nonzero(et == _CEXIT)[0]:
            if self.lo + int(i) in my_exits:
                stops.append((int(i) + 1, 1))
        for i in np.nonzero(et == _SEND)[0]:
            pubs.append(int(i) + 1)
        for i in np.nonzero(et == _CENT)[0]:
            if self.lo + int(i) in my_enters:
                pubs.append(int(i) + 1)
        stops.sort()
        pubs.sort()
        self.stops = stops
        self.stop_ptr = 0
        self.pubs = pubs
        self.pub_ptr = 0
        self.cur = 1

    def stretch_to(self, stop: int) -> None:
        """The dependency-free recurrence up to list index ``stop``."""
        self.sp_ptr = do_stretch(
            self.corr, self.origl, self.gdl, self.spont, self.sp_ptr,
            self.cur, stop, 1 - self.lo,
        )
        self.cur = stop

    def flush_shard(self) -> None:
        path = self.tmpdir / f"fwd_r{self.rank}_s{self.si}.npy"
        np.save(path, np.asarray(self.corr[1:], dtype=np.float64))
        self.fwd_paths.append(path)
        self.prev_orig = self.origl[self.n_s]
        self.prev_corr = self.corr[self.n_s]
        self.resident.release(self.n_s)
        self.cols = None
        self.origl = self.corr = self.gdl = None
        if self.si + 1 >= len(self.recs):
            self.finished = True


def _forward_pass(
    chunked, reader, gamma, lmin_fn, id_mode, coll_exits, coll_enters,
    caps, tmpdir, resident,
):
    """Round-robin streaming forward pass over every rank's shards.

    Returns per-rank forward state (temp file paths, jump lists) plus
    the global jump count and maximum jump.
    """
    ranks = chunked.ranks
    states = {r: _RankForward(r, reader.rank_shards(r), reader, gamma, tmpdir, resident)
              for r in ranks}
    pending_sends: dict[int, tuple[float, int, int]] = {}  # mid -> (corr, rank, idx)
    fifo_sends: dict[tuple[int, int, int], deque] = {}     # (src, dst, tag) -> deque
    # (inst, rank) -> [corr, idx, exits still to read it]
    coll_pubs: dict[tuple[int, int], list] = {}
    njumps = 0
    max_jump = 0.0

    def publish_upto(st: _RankForward) -> None:
        """Publish sends / constraining enters the cursor moved past."""
        pubs = st.pubs
        k = st.pub_ptr
        npub = len(pubs)
        cols = st.cols
        my_enters = coll_enters.get(st.rank, {})
        while k < npub and pubs[k] < st.cur:
            q = pubs[k]
            k += 1
            i = q - 1
            value = st.corr[q]
            gidx = st.lo + i
            if int(cols[1][i]) == _SEND:
                if id_mode:
                    pending_sends[int(cols[5][i])] = (value, st.rank, gidx)
                else:
                    key = (st.rank, int(cols[2][i]), int(cols[3][i]))
                    fifo_sends.setdefault(key, deque()).append((value, gidx))
            else:
                inst, readers = my_enters[gidx]
                coll_pubs[(inst, st.rank)] = [value, gidx, readers]
        st.pub_ptr = k

    def resolve_recv(st: _RankForward, i: int):
        """The receive's dependency edge, ``None`` for no dep, or 'block'."""
        cols = st.cols
        if id_mode:
            mid = int(cols[5][i])
            if mid < 0:
                return None
            edge = pending_sends.pop(mid, None)
            if edge is not None:
                return edge
            src = int(cols[2][i])
            if src not in states or states[src].finished:
                return None
            return "block"
        key = (int(cols[2][i]), st.rank, int(cols[3][i]))
        q = fifo_sends.get(key)
        if q:
            s_corr, s_idx = q.popleft()
            return s_corr, key[0], s_idx
        src = key[0]
        if src not in states or states[src].finished:
            return None
        return "block"

    def collective_edges(st: _RankForward, gidx: int):
        """The exit's constraining enters, or ``None`` if one is unpublished."""
        (inst, members, flavor, root_pos), pos = coll_exits[st.rank][gidx]
        edges = []
        for j in collective_senders(flavor, root_pos, len(members), pos):
            pub = coll_pubs.get((inst, members[j]))
            if pub is None:
                return None
            edges.append((pub[0], members[j], pub[1]))
        for _, m_rank, _ in edges:
            key = (inst, m_rank)
            pub = coll_pubs[key]
            pub[2] -= 1
            if pub[2] == 0:
                del coll_pubs[key]
        return edges

    def advance(st: _RankForward) -> bool:
        nonlocal njumps, max_jump
        progress = False
        if st.cols is None:
            if st.finished:
                return False
            st.load_next(coll_exits, coll_enters)
            progress = True
        while True:
            if st.cur > st.n_s:
                publish_upto(st)
                st.flush_shard()
                return True
            while st.stop_ptr < len(st.stops) and st.stops[st.stop_ptr][0] < st.cur:
                st.stop_ptr += 1
            if st.stop_ptr >= len(st.stops):
                st.stretch_to(st.n_s + 1)
                publish_upto(st)
                progress = True
                continue
            q, code = st.stops[st.stop_ptr]
            i = q - 1
            gidx = st.lo + i
            # Stretch up to the stop and publish the sends/enters this
            # passes over BEFORE resolving the stop's own dependency —
            # a peer may be blocked waiting for exactly those values.
            if st.cur < q:
                st.stretch_to(q)
                publish_upto(st)
                progress = True
            # Gather this event's dependency edges (or block).
            if code == 0:
                edge = resolve_recv(st, i)
                if edge == "block":
                    publish_upto(st)
                    return progress
                edges = [] if edge is None else [edge]
            else:
                edges = collective_edges(st, gidx)
                if edges is None:
                    publish_upto(st)
                    return progress
            # The kernel's dependency-event update.
            value = st.origl[q]
            if gidx > 0:
                follow = st.corr[q - 1] + st.gdl[q]
                if follow > value:
                    value = follow
            remote_floor = -np.inf
            lms = []
            for s_corr, s_rank, s_idx in edges:
                lm = lmin_fn(s_rank, st.rank)
                lms.append(lm)
                floor = s_corr + lm
                if floor > remote_floor:
                    remote_floor = floor
            if remote_floor > value:
                jump = remote_floor - value
                value = remote_floor
                st.jumps.append((gidx, jump, value))
                njumps += 1
                if jump > max_jump:
                    max_jump = jump
            st.corr[q] = value
            st.cur = q + 1
            st.stop_ptr += 1
            # Send caps for every consumed edge (reference nudge loop).
            for (s_corr, s_rank, s_idx), lm in zip(edges, lms):
                cap = value - lm
                while cap + lm > value:
                    cap = float(np.nextafter(cap, -np.inf))
                caps.add(s_rank, s_idx, cap)
            publish_upto(st)
            progress = True

    unfinished = set(r for r in ranks if not states[r].finished)
    while unfinished:
        any_progress = False
        for rank in ranks:
            st = states[rank]
            if st.finished and st.cols is None:
                unfinished.discard(rank)
                continue
            if advance(st):
                any_progress = True
            if st.finished and st.cols is None:
                unfinished.discard(rank)
        if unfinished and not any_progress:
            raise SynchronizationError(
                "streaming CLC stalled: every rank is blocked on an unpublished "
                "dependency (dependency cycle, or a receive whose matching send "
                "is recorded under a different source rank)"
            )
    return states, njumps, max_jump


# ----------------------------------------------------------------------
# Entry point: streaming CLC
# ----------------------------------------------------------------------
def streaming_clc_correct(
    source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
    out_dir: Union[str, Path],
    gamma: float = 0.99,
    amortization_window: Optional[float] = None,
    include_collectives: bool = True,
    lmin: LminSpec = 0.0,
    telemetry=None,
    shard_events: Optional[int] = None,
) -> ClcResult:
    """Apply the CLC to a sharded trace, writing a sharded corrected trace.

    Bit-identical to
    :meth:`ControlledLogicalClock.correct <repro.sync.clc.ControlledLogicalClock.correct>`
    on the materialized trace (same ``gamma`` / window / lmin), with one
    shard per rank resident at a time.  Records the in-memory CLC's
    ``sync.clc.forward`` / ``sync.clc.amortize`` spans plus
    ``sync.stream.prescan`` and ``sync.stream.finalize``.  The returned
    :class:`~repro.sync.clc.ClcResult` carries a
    :class:`~repro.tracing.store.ChunkedTrace` over ``out_dir``.
    """
    # Parameter validation shared with the in-memory corrector.
    ControlledLogicalClock(gamma=gamma, amortization_window=amortization_window)
    chunked = _source_is_chunked(source)
    reader = chunked.reader
    tele = ensure_telemetry(telemetry)
    resident = _Resident(tele)
    lmin_fn = _lmin_callable(lmin)
    id_mode = _id_mode(reader)
    out_dir = Path(out_dir)
    ranks = chunked.ranks

    with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
        tmpdir = Path(tmp)
        with tele.span("sync.stream.prescan"):
            table = (
                pair_collectives(_stream_shards(chunked, resident))
                if include_collectives
                else CollectiveTable([])
            )
            coll_exits, coll_enters = _collective_plan(table)
            del table
        shard_starts = {r: [rec.start for rec in reader.rank_shards(r)] for r in ranks}
        caps = _CapsSpill(tmpdir, shard_starts)
        with tele.span("sync.clc.forward", events=chunked.total_events()):
            states, njumps, max_jump = _forward_pass(
                chunked, reader, gamma, lmin_fn, id_mode, coll_exits, coll_enters,
                caps, tmpdir, resident,
            )
        if tele.enabled:
            tele.count("sync.clc.events", chunked.total_events())
            tele.count("sync.clc.jumps", njumps)

        window = amortization_window
        if window is None:
            window = ControlledLogicalClock._auto_window(
                {r: states[r].jumps for r in ranks}
            )
        if window > 0:
            with tele.span("sync.clc.amortize", window=window):
                for rank in ranks:
                    st = states[rank]
                    if not st.jumps:
                        continue
                    # Last shard first; the carry links each shard to the next.
                    carry = None
                    for si in range(len(st.recs) - 1, -1, -1):
                        rec = st.recs[si]
                        resident.load(rec.events)
                        times = np.load(st.fwd_paths[si])
                        out, carry = _amortize_backward(
                            times, st.jumps, window,
                            caps.load(rank, si, rec.start, rec.events),
                            lo=rec.start, carry=carry,
                        )
                        if out is not times:
                            np.save(st.fwd_paths[si], out)
                        resident.release(rec.events)

        # Finalize: statistics and the sharded output.
        stats = _ClcStats()
        out_meta = dict(chunked.meta)
        out_meta["clc"] = {"gamma": gamma, "window": window, "jumps": njumps}
        writer = ShardedTraceWriter(
            out_dir,
            shard_events=shard_events or reader.shard_events,
            run_id=reader.run_id or "clc",
        )
        with tele.span("sync.stream.finalize"), writer:
            for rank in ranks:
                writer.register_rank(rank)
                fwd_paths = states[rank].fwd_paths
                for si, (rec, cols) in enumerate(chunked.iter_shards(rank)):
                    resident.load(rec.events)
                    corr = np.load(fwd_paths[si])
                    stats.add(np.asarray(cols[0], dtype=np.float64), corr, first=si == 0)
                    writer.append_batch(rank, corr, *cols[1:])
                    resident.release(rec.events)
            writer.finish(meta=out_meta)
        if tele.enabled:
            tele.count("sync.stream.shards_written", writer._seq)

    out = ChunkedTrace(ShardedTraceReader(out_dir))
    return stats.result(out, chunked.total_events(), njumps, max_jump)


# ----------------------------------------------------------------------
# Streaming violation scan
# ----------------------------------------------------------------------
def streaming_scan_trace(
    source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
    lmin: LminSpec = 0.0,
    include_collectives: bool = True,
    telemetry=None,
) -> dict[str, ViolationReport]:
    """Eq. 1 scan over a sharded trace, one shard resident at a time.

    Matches :func:`repro.sync.violations.scan_trace` on the
    materialized trace exactly (counts, violation indices in message-
    table order, worst magnitude); unmatched transfer ends are dropped
    as with ``strict=False`` matching.
    """
    chunked = _source_is_chunked(source)
    reader = chunked.reader
    tele = ensure_telemetry(telemetry)
    resident = _Resident(tele)
    lmin_fn = _lmin_callable(lmin)
    id_mode = _id_mode(reader)
    ranks = chunked.ranks

    pending_sends: dict[int, tuple[float, int]] = {}   # mid -> (ts, src rank)
    pending_recvs: dict[int, tuple[float, int, int]] = {}  # mid -> (ts, rank, r_ord)
    fifo_sends: dict[tuple[int, int, int], deque] = {}
    fifo_parked: dict[tuple[int, int, int], deque] = {}
    recv_seen: dict[int, int] = {r: 0 for r in ranks}
    unmatched: dict[int, list[int]] = {r: [] for r in ranks}
    violators: list[tuple[int, int]] = []  # (dst rank, recv ordinal in rank)
    worst = 0.0

    def emit(sts: float, src: int, rts: float, dst: int, r_ord: int) -> None:
        nonlocal worst
        slack = rts - (sts + lmin_fn(src, dst))
        if slack < 0:
            violators.append((dst, r_ord))
            if -slack > worst:
                worst = -slack

    def match_p2p(rank: int, cols) -> None:
        ts, et, a, b, _, d = cols
        et_arr = np.asarray(et)
        r_ord = recv_seen[rank]
        for i in np.nonzero((et_arr == _SEND) | (et_arr == _RECV))[0]:
            t_i = float(ts[i])
            if int(et_arr[i]) == _SEND:
                if id_mode:
                    mid = int(d[i])
                    hit = pending_recvs.pop(mid, None)
                    if hit is not None:
                        emit(t_i, rank, hit[0], hit[1], hit[2])
                    else:
                        pending_sends[mid] = (t_i, rank)
                else:
                    key = (rank, int(a[i]), int(b[i]))
                    parked = fifo_parked.get(key)
                    if parked:
                        rts, ro = parked.popleft()
                        emit(t_i, rank, rts, key[1], ro)
                    else:
                        fifo_sends.setdefault(key, deque()).append(t_i)
                continue
            if id_mode:
                mid = int(d[i])
                if mid < 0:
                    unmatched[rank].append(r_ord)
                else:
                    hit = pending_sends.pop(mid, None)
                    if hit is not None:
                        emit(hit[0], hit[1], t_i, rank, r_ord)
                    else:
                        pending_recvs[mid] = (t_i, rank, r_ord)
            else:
                key = (int(a[i]), rank, int(b[i]))
                q = fifo_sends.get(key)
                parked = fifo_parked.get(key)
                if q and not parked:
                    emit(q.popleft(), key[0], t_i, rank, r_ord)
                else:
                    fifo_parked.setdefault(key, deque()).append((t_i, r_ord))
            r_ord += 1
        recv_seen[rank] = r_ord

    per_rank = {r: reader.rank_shards(r) for r in ranks}
    max_shards = max((len(v) for v in per_rank.values()), default=0)

    def shards():
        """Every shard, round-robin over ranks, after its p2p matching."""
        for si in range(max_shards):
            for rank in ranks:
                if si >= len(per_rank[rank]):
                    continue
                rec = per_rank[rank][si]
                cols = reader.load_shard(rec)
                resident.load(rec.events)
                match_p2p(rank, cols)
                yield rank, rec.start, cols
                resident.release(rec.events)

    with tele.span("sync.stream.scan", events=chunked.total_events()):
        if include_collectives:
            collectives = pair_collectives(shards())
        else:
            for _ in shards():
                pass

    # Leftover pending receives are unmatched (strict=False semantics).
    for mid, (_, rank, r_ord) in pending_recvs.items():
        unmatched[rank].append(r_ord)
    for key, parked in fifo_parked.items():
        for _, r_ord in parked:
            unmatched[key[1]].append(r_ord)

    matched_per_rank = {
        r: recv_seen[r] - len(unmatched[r]) for r in ranks
    }
    offsets: dict[int, int] = {}
    total = 0
    for r in ranks:
        offsets[r] = total
        total += matched_per_rank[r]
    for r in ranks:
        unmatched[r].sort()
    ordinals = sorted(
        offsets[r] + ro - bisect_left(unmatched[r], ro) for r, ro in violators
    )
    p2p = ViolationReport(
        "p2p", total, len(ordinals), np.asarray(ordinals, dtype=np.int64), worst
    )
    out = {"p2p": p2p}
    if include_collectives:
        report = scan_messages(logical_messages(collectives), lmin)
        out["collective"] = ViolationReport(
            "collective", report.checked, report.violated, report.indices, report.worst
        )
    return out


# ----------------------------------------------------------------------
# Streaming offset interpolation
# ----------------------------------------------------------------------
def streaming_apply_correction(
    correction,
    source: Union[ChunkedTrace, ShardedTraceReader, str, Path],
    out_dir: Union[str, Path],
    telemetry=None,
) -> ChunkedTrace:
    """Apply a :class:`~repro.sync.interpolation.ClockCorrection` per shard.

    The per-rank offset model is evaluated on one shard's timestamps at
    a time — identical to ``correction.apply(trace)`` because the model
    is elementwise.  Returns a :class:`ChunkedTrace` over ``out_dir``.
    """
    chunked = _source_is_chunked(source)
    reader = chunked.reader
    tele = ensure_telemetry(telemetry)
    resident = _Resident(tele)
    meta = dict(chunked.meta)
    meta["correction"] = repr(correction)
    writer = ShardedTraceWriter(
        out_dir, shard_events=reader.shard_events, run_id=reader.run_id or "interp"
    )
    with tele.span("sync.stream.interpolate"), writer:
        for rank in chunked.ranks:
            writer.register_rank(rank)
            for rec, cols in chunked.iter_shards(rank):
                resident.load(rec.events)
                new_ts = correction.apply_rank(rank, np.asarray(cols[0], dtype=np.float64))
                writer.append_batch(rank, new_ts, cols[1], cols[2], cols[3], cols[4], cols[5])
                resident.release(rec.events)
        writer.finish(meta=meta)
    return ChunkedTrace(ShardedTraceReader(Path(out_dir)))
