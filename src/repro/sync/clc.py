"""The controlled logical clock (CLC) with forward and backward amortization.

Section V: *"the controlled logical clock (CLC) algorithm developed by
one of the authors retroactively corrects clock condition violations in
event traces of message-passing applications by shifting message events
in time while trying to preserve the length of intervals between local
events.  ...  If the clock condition is violated for a send-receive
event pair, the receive event is moved forward in time.  To preserve
the length of intervals between local events, events following or
immediately preceding the corrected event are moved forward as well.
These adjustments are called forward and backward amortization."*

Algorithm (following Rabenseifner [28] and the collective extension of
Becker et al. [30]):

**Forward pass** — events are processed in a happened-before-consistent
replay order (:mod:`repro.sync.order`).  Each event's corrected time is

.. math::

    LC'(e) = \\max\\bigl( LC(e),\\;
                         LC'(pred(e)) + \\gamma\\,\\delta(e),\\;
                         \\max_{s \\in deps(e)} LC'(s) + l_{min}(s, e) \\bigr)

where ``pred(e)`` is the previous local event, ``delta(e)`` the original
local interval, and ``deps(e)`` the matching send (for receives) or the
constraining collective enters (for collective exits).  The control
factor ``gamma`` slightly below 1 is the *forward amortization*: after a
jump the corrected clock keeps (gamma-compressed) local intervals and
thereby glides back toward the original timestamps instead of staying
shifted forever.  The ``LC(e)`` term guarantees the corrected clock
never runs behind the measured one.

**Backward pass** — a jump at a receive leaves a compressed interval
*before* it.  Backward amortization pre-spreads each jump linearly over
the preceding ``amortization_window`` seconds of the same rank, subject
to two caps that keep the result legal: a send event may never be pushed
past ``LC'(matching receive) - l_min`` (it would create a *new*
violation), and corrected times must stay monotone per rank.

The corrected trace provably satisfies the clock condition: receives sit
at or above their send constraints after the forward pass, and the
backward pass only ever moves events *up* while respecting the send
caps.  The accuracy of the result still depends on the input timestamps
(Section V), which is why it should run after linear interpolation —
the chain of :func:`repro.core.correct.correct_trace`.

**Implementation note.**  The default entry points run on the trace's
:class:`repro.sync.schedule.CompiledSchedule` (array-native kernels,
cached per trace); :meth:`ControlledLogicalClock.correct_reference` and
:func:`naive_shift_correct_reference` keep the original event-by-event
scalar formulation and serve as the bit-for-bit equivalence oracle in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import SynchronizationError
from repro.sync.order import build_dependencies, replay_schedule
from repro.telemetry import ensure_telemetry
from repro.sync.schedule import CompiledSchedule, clc_forward, send_caps_kernel
from repro.sync.violations import LminSpec
from repro.tracing.trace import Trace

__all__ = [
    "ControlledLogicalClock",
    "ClcResult",
    "naive_shift_correct",
    "naive_shift_correct_reference",
    "compute_clc_stats",
]


@dataclass
class ClcResult:
    """Outcome of one CLC application."""

    trace: Trace
    corrected_events: int  # events whose timestamp changed
    total_events: int
    jumps: int  # events where a remote constraint was binding
    max_jump: float  # largest single forward shift, seconds
    max_shift: float  # largest total shift of any event, seconds
    #: Largest relative change of a local interval, with sub-microsecond
    #: intervals measured against a 1 us floor (a 50 ns gap stretched by
    #: 2 us would otherwise read as 4000 % while being harmless).
    interval_distortion: float
    #: Largest absolute change of a local interval, seconds.
    max_interval_growth: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CLC: {self.jumps} jumps, {self.corrected_events}/{self.total_events} "
            f"events moved, max shift {self.max_shift * 1e6:.3f} us"
        )


#: Denominator floor for the relative interval-distortion metric.
_DISTORTION_FLOOR = 1.0e-6


class _ClcStats:
    """Running CLC statistics over ``(original, corrected)`` chunks.

    Each rank's chunks come in log order, the first with ``first=True``;
    the interval across a chunk boundary is measured like any other.
    A whole rank is one chunk (:func:`compute_clc_stats`), a shard is
    another (:func:`repro.sync.streaming.streaming_clc_correct`).
    """

    __slots__ = ("corrected_events", "max_shift", "distortion", "growth", "_last")

    def __init__(self) -> None:
        self.corrected_events = 0
        self.max_shift = 0.0
        self.distortion = 0.0
        self.growth = 0.0
        self._last: Optional[tuple[float, float]] = None

    def add(self, original: np.ndarray, corrected: np.ndarray, first: bool) -> None:
        shift = corrected - original
        self.corrected_events += int(np.count_nonzero(shift > 1e-15))
        if shift.size:
            self.max_shift = max(self.max_shift, float(shift.max()))
        if first:
            self._last = None
        if self._last is not None:
            original = np.concatenate(([self._last[0]], original))
            corrected = np.concatenate(([self._last[1]], corrected))
        if original.size:
            self._last = (original[-1], corrected[-1])
        if original.size > 1:
            d_orig = np.diff(original)
            change = np.abs(np.diff(corrected) - d_orig)
            self.growth = max(self.growth, float(change.max()))
            rel = change / np.maximum(d_orig, _DISTORTION_FLOOR)
            self.distortion = max(self.distortion, float(rel.max()))

    def result(self, trace, total_events: int, jumps: int, max_jump: float) -> ClcResult:
        return ClcResult(
            trace=trace,
            corrected_events=self.corrected_events,
            total_events=total_events,
            jumps=jumps,
            max_jump=max_jump,
            max_shift=self.max_shift,
            interval_distortion=self.distortion,
            max_interval_growth=self.growth,
        )


def compute_clc_stats(
    trace: Trace,
    original: dict[int, np.ndarray],
    corrected: dict[int, np.ndarray],
    jumps_count: int,
    max_jump: float,
    meta: dict,
) -> ClcResult:
    """Assemble a :class:`ClcResult` from before/after timestamp arrays."""
    stats = _ClcStats()
    for rank in trace.ranks:
        stats.add(original[rank], corrected[rank], first=True)
    out = trace.with_timestamps(corrected)
    out.meta["clc"] = meta
    return stats.result(out, trace.total_events(), jumps_count, max_jump)


class ControlledLogicalClock:
    """Configured CLC corrector.

    Parameters
    ----------
    gamma:
        Control factor in (0, 1]: fraction of each original local
        interval preserved after a jump.  1.0 never returns to the
        original timeline (pure interval preservation); the default
        0.99 glides back at 1 % of elapsed local time.
    amortization_window:
        Backward-amortization span in seconds; ``0`` disables the
        backward pass.  ``None`` picks ``50 x`` the largest jump, a
        span wide enough that local intervals change only slightly.
    include_collectives:
        Also enforce the logical clock conditions of collective
        operations (the [30] extension).
    telemetry:
        A :class:`repro.telemetry.TelemetryRecorder` recording per-pass
        spans (``sync.clc.compile``, ``sync.clc.forward``,
        ``sync.clc.amortize``) and jump counters, or ``None``.
    """

    def __init__(
        self,
        gamma: float = 0.99,
        amortization_window: Optional[float] = None,
        include_collectives: bool = True,
        telemetry=None,
    ) -> None:
        if not 0.0 < gamma <= 1.0:
            raise SynchronizationError(f"gamma must be in (0, 1], got {gamma}")
        if amortization_window is not None and amortization_window < 0:
            raise SynchronizationError("amortization_window must be non-negative")
        self.gamma = gamma
        self.amortization_window = amortization_window
        self.include_collectives = include_collectives
        self.telemetry = ensure_telemetry(telemetry)

    # ------------------------------------------------------------------
    def correct(self, trace: Trace, lmin: LminSpec = 0.0) -> ClcResult:
        """Apply the CLC to ``trace``; returns the corrected trace + stats."""
        with self.telemetry.span("sync.clc.compile"):
            schedule = trace.compiled_schedule(self.include_collectives)
        return self.correct_with_schedule(trace, schedule, lmin)

    def correct_with_dependencies(
        self,
        trace: Trace,
        deps: "dict[tuple[int, int], list[tuple[int, int]]]",
        lmin: LminSpec = 0.0,
    ) -> ClcResult:
        """Apply the CLC under an explicit happened-before constraint set.

        ``deps`` maps an event reference ``(rank, index)`` to the remote
        events that must precede it by ``lmin``.  This is the extension
        point for non-message semantics — e.g. the POMP constraints of
        :func:`repro.openmp.correction.pomp_clc`.
        """
        schedule = CompiledSchedule.from_dependencies(trace, deps)
        return self.correct_with_schedule(trace, schedule, lmin)

    def correct_with_schedule(
        self, trace: Trace, schedule: CompiledSchedule, lmin: LminSpec = 0.0
    ) -> ClcResult:
        """Apply the CLC on a pre-compiled happened-before schedule."""
        tele = self.telemetry
        edge_lmin = schedule.edge_lmin(lmin)
        original = {rank: trace.logs[rank].timestamps for rank in trace.ranks}
        orig_flat = schedule.flatten(original)

        with tele.span("sync.clc.forward", events=orig_flat.size):
            corr_flat, jumps, njumps, max_jump = clc_forward(
                schedule, orig_flat, edge_lmin, self.gamma
            )
        corrected = schedule.split(corr_flat)
        if tele.enabled:
            tele.count("sync.clc.events", orig_flat.size)
            tele.count("sync.clc.jumps", njumps)
            # The in-memory kernel holds every event at once; the gauge
            # makes the memory model comparable with the streaming path.
            tele.gauge_max("sync.clc.peak_resident_events", orig_flat.size)

        window = self.amortization_window
        if window is None:
            window = self._auto_window(jumps)
        if window > 0:
            with tele.span("sync.clc.amortize", window=window):
                caps = schedule.split(send_caps_kernel(schedule, corr_flat, edge_lmin))
                for rank in trace.ranks:
                    if jumps[rank]:
                        corrected[rank], _ = _amortize_backward(
                            corrected[rank], jumps[rank], window, caps.get(rank)
                        )

        return compute_clc_stats(
            trace,
            original,
            corrected,
            jumps_count=njumps,
            max_jump=max_jump,
            meta={"gamma": self.gamma, "window": window, "jumps": njumps},
        )

    # ------------------------------------------------------------------
    # Scalar reference implementation (the equivalence-test oracle)
    # ------------------------------------------------------------------
    def correct_reference(self, trace: Trace, lmin: LminSpec = 0.0) -> ClcResult:
        """Event-by-event scalar CLC; bit-identical oracle for :meth:`correct`."""
        deps = build_dependencies(trace, include_collectives=self.include_collectives)
        return self.correct_with_dependencies_reference(trace, deps, lmin)

    def correct_with_dependencies_reference(
        self,
        trace: Trace,
        deps: "dict[tuple[int, int], list[tuple[int, int]]]",
        lmin: LminSpec = 0.0,
    ) -> ClcResult:
        """Scalar formulation of :meth:`correct_with_dependencies` (oracle)."""
        lmin_fn = _lmin_callable(lmin)

        original = {rank: trace.logs[rank].timestamps for rank in trace.ranks}
        corrected = {rank: original[rank].copy() for rank in trace.ranks}
        jumps: dict[int, list[tuple[int, float, float]]] = {rank: [] for rank in trace.ranks}
        max_jump = 0.0
        njumps = 0

        # ---- forward pass --------------------------------------------
        for rank, idx in replay_schedule(trace, deps):
            orig = original[rank]
            corr = corrected[rank]
            value = orig[idx]
            if idx > 0:
                delta = orig[idx] - orig[idx - 1]
                follow = corr[idx - 1] + self.gamma * delta
                if follow > value:
                    value = follow
            remote_floor = -np.inf
            for dep_rank, dep_idx in deps.get((rank, idx), ()):
                floor = corrected[dep_rank][dep_idx] + lmin_fn(dep_rank, rank)
                if floor > remote_floor:
                    remote_floor = floor
            if remote_floor > value:
                jump = remote_floor - value
                value = remote_floor
                jumps[rank].append((idx, jump, value))
                njumps += 1
                if jump > max_jump:
                    max_jump = jump
            corr[idx] = value

        # ---- backward amortization -----------------------------------
        window = self.amortization_window
        if window is None:
            window = self._auto_window(jumps)
        if window > 0:
            send_caps = self._send_caps_reference(trace, deps, corrected, lmin_fn)
            for rank in trace.ranks:
                if jumps[rank]:
                    corrected[rank], _ = _amortize_backward(
                        corrected[rank], jumps[rank], window, send_caps.get(rank)
                    )

        # ---- statistics & result --------------------------------------
        return compute_clc_stats(
            trace,
            original,
            corrected,
            jumps_count=njumps,
            max_jump=max_jump,
            meta={"gamma": self.gamma, "window": window, "jumps": njumps},
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _auto_window(jumps: "dict[int, list[tuple]]") -> float:
        """``50 x`` the largest jump of ``{rank: [(index, jump, ...), ...]}``."""
        biggest = 0.0
        for items in jumps.values():
            for item in items:
                biggest = max(biggest, item[1])
        # Span the jump over a region much wider than the jump itself so
        # local interval lengths change only slightly.
        return 50.0 * biggest if biggest > 0 else 0.0

    @staticmethod
    def _send_caps_reference(trace, deps, corrected, lmin_fn) -> dict[int, np.ndarray]:
        """Upper bound per event: sends must stay below partner receive - l_min."""
        caps: dict[int, np.ndarray] = {
            rank: np.full(len(trace.logs[rank]), np.inf) for rank in trace.ranks
        }
        for (dst_rank, dst_idx), sources in deps.items():
            recv_time = corrected[dst_rank][dst_idx]
            for src_rank, src_idx in sources:
                lm = lmin_fn(src_rank, dst_rank)
                cap = recv_time - lm
                # Same conservative rounding as ``send_caps_kernel``:
                # the cap must satisfy ``cap + l_min <= recv`` exactly.
                while cap + lm > recv_time:
                    cap = float(np.nextafter(cap, -np.inf))
                if cap < caps[src_rank][src_idx]:
                    caps[src_rank][src_idx] = cap
        return caps


def naive_shift_correct(trace: Trace, lmin: LminSpec = 0.0) -> ClcResult:
    """Lamport-style correction *without* amortization (baseline).

    Section V's first option: "If a receive event appears before its
    corresponding send event ... the receive event is shifted forward in
    time according to the clock value exchanged."  Each violated receive
    jumps to ``send + l_min``; subsequent local events are only clamped
    for monotonicity (they keep their original timestamps when possible).

    The result satisfies the clock condition but *collapses local
    intervals to zero* behind every jump — events pile up at the
    corrected receive time — which is precisely the distortion the CLC's
    forward/backward amortization exists to avoid.  Use it as the
    comparison point in ablations.
    """
    schedule = trace.compiled_schedule(True)
    edge_lmin = schedule.edge_lmin(lmin)
    original = {rank: trace.logs[rank].timestamps for rank in trace.ranks}
    orig_flat = schedule.flatten(original)
    corr_flat, _jumps, njumps, max_jump = clc_forward(
        schedule, orig_flat, edge_lmin, gamma=None
    )
    return compute_clc_stats(
        trace,
        original,
        schedule.split(corr_flat),
        jumps_count=njumps,
        max_jump=max_jump,
        meta={"naive_shift": True, "jumps": njumps},
    )


def naive_shift_correct_reference(trace: Trace, lmin: LminSpec = 0.0) -> ClcResult:
    """Scalar formulation of :func:`naive_shift_correct` (oracle)."""
    deps = build_dependencies(trace, include_collectives=True)
    lmin_fn = _lmin_callable(lmin)
    original = {rank: trace.logs[rank].timestamps for rank in trace.ranks}
    corrected = {rank: original[rank].copy() for rank in trace.ranks}
    njumps = 0
    max_jump = 0.0
    for rank, idx in replay_schedule(trace, deps):
        corr = corrected[rank]
        value = original[rank][idx]
        if idx > 0 and corr[idx - 1] > value:
            value = corr[idx - 1]  # monotonicity clamp only
        remote_floor = -np.inf
        for dep_rank, dep_idx in deps.get((rank, idx), ()):
            floor = corrected[dep_rank][dep_idx] + lmin_fn(dep_rank, rank)
            if floor > remote_floor:
                remote_floor = floor
        if remote_floor > value:
            jump = remote_floor - value
            value = remote_floor
            njumps += 1
            max_jump = max(max_jump, jump)
        corr[idx] = value
    return compute_clc_stats(
        trace,
        original,
        corrected,
        jumps_count=njumps,
        max_jump=max_jump,
        meta={"naive_shift": True, "jumps": njumps},
    )


def _amortize_backward(
    times: np.ndarray,
    jump_list: list[tuple[int, float, float]],
    window: float,
    caps: Optional[np.ndarray],
    lo: int = 0,
    carry: Optional[tuple[float, float, float]] = None,
) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Pre-spread each jump linearly over the preceding window.

    For a jump of size ``J`` at event ``k`` (corrected time ``T``), the
    desired advance of an earlier event at time ``t`` is
    ``J * (1 - (T - J - t)/window)`` clipped to ``[0, J]``; multiple
    jumps combine by maximum.  Caps (send constraints) and per-rank
    monotonicity are enforced in a single reverse scan: processing
    events right-to-left, the advance of event ``i`` may not exceed
    ``advance(i+1) + (t(i+1) - t(i))`` (monotonicity) nor
    ``caps[i] - t(i)`` (clock condition of its own sends).

    ``jump_list`` holds the rank's ``(k, J, T)`` with rank-local ``k``.
    The pass also runs over a rank one chunk at a time, last chunk
    first: ``times`` / ``caps`` are the chunk starting at rank-local
    index ``lo``, and ``carry`` is what the call for the following
    chunk returned.  Returns ``(times after amortization, carry)``; a
    whole-rank call leaves ``lo`` and ``carry`` at their defaults.
    """
    n = times.size
    if n == 0:
        return times, carry
    # Anchor each ramp at the event's *pre-jump* time: an event just
    # before where the receive originally sat advances by (almost) the
    # full jump, events `window` earlier don't move at all.  A jump only
    # pre-spreads over *earlier* events, and its ramp is zero wherever
    # ``T - J - t >= window``; rows that are zero over the whole chunk
    # are skipped (max over jumps is exact, so dropping all-zero rows
    # changes no bit).
    t_max = times.max()
    rows = [(k - lo, j, t - j) for k, j, t in jump_list if k > lo and (t - j) - t_max < window]
    if rows:
        # One (jumps, events) matrix evaluates every ramp at every event
        # — the elementwise operations and the clip are exactly the
        # per-jump formulation's, so the combined desired advance is
        # bit-identical to folding jumps one at a time.
        ks = [k for k, _, _ in rows]
        js = np.array([j for _, j, _ in rows], dtype=np.float64)
        anchors = np.array([a for _, _, a in rows], dtype=np.float64)
        ramp = js[:, None] * (1.0 - (anchors[:, None] - times[None, :]) / window)
        np.maximum(ramp, 0.0, out=ramp)
        np.minimum(ramp, js[:, None], out=ramp)
        for row, k in enumerate(ks):
            ramp[row, k:] = 0.0
        desired = ramp.max(axis=0)
    if not rows or not desired.any():
        # Nothing moves; the carry is what the full scan would hand on.
        first = float(times[0])
        return times, (0.0, first, first)

    allowed = desired
    if caps is not None:
        headroom = caps - times
        np.minimum(allowed, np.maximum(headroom, 0.0), out=allowed)
    # Reverse monotonicity scan: advance may grow by at most the original
    # gap to the next event (which itself might be the jump event with
    # advance 0 — the ramp is anchored there by construction).  The scan
    # is inherently sequential; it runs on plain lists because Python
    # float arithmetic is the same IEEE double as numpy scalars.  The
    # next chunk's first (advance, time, output) ride at the list ends.
    tl = times.tolist()
    al = allowed.tolist()
    if carry is not None:
        al.append(carry[0])
        tl.append(carry[1])
    for i in range(len(al) - 2, -1, -1):
        limit = al[i + 1] + (tl[i + 1] - tl[i])
        if al[i] > limit:
            al[i] = limit
        if al[i] < 0.0:
            # A negative original gap (non-monotone recorded log, e.g.
            # an NTP step backwards) makes the limit negative; an
            # advance must never turn into a retreat — that would move
            # a receive below send + l_min and re-violate Eq. 1.
            al[i] = 0.0
    out = times + np.asarray(al[:n], dtype=np.float64)
    if caps is not None:
        # ``times + (caps - times)`` can round one ulp above ``caps``;
        # clamp exactly so verifiers using strict comparison stay happy
        # (never below the original time, though).
        np.minimum(out, np.maximum(caps, times), out=out)
    # ``t[i] + al[i]`` rounds independently per event, so an advance
    # sitting exactly on the monotonicity limit can land one ulp above
    # its successor (same for the caps clamp above).  Re-clamp on the
    # summed values; the ``>= t[i]`` guard leaves a non-monotone
    # recorded log as-is instead of dragging events backward.
    ol = out.tolist()
    if carry is not None:
        ol.append(carry[2])
    for i in range(len(ol) - 2, -1, -1):
        if ol[i] > ol[i + 1] >= tl[i]:
            ol[i] = ol[i + 1]
    return np.asarray(ol[:n], dtype=np.float64), (al[0], tl[0], ol[0])


def _lmin_callable(lmin: LminSpec):
    if callable(lmin):
        return lmin
    if isinstance(lmin, np.ndarray):
        return lambda s, d: float(lmin[s, d])
    value = float(lmin)
    return lambda s, d: value
