"""Happened-before dependencies and replay order over a trace.

Logical-clock algorithms (Lamport, vector, CLC) process events in an
order consistent with the happened-before relation: a rank's events in
log order, and every receive after its matching send.  This module
extracts those dependencies once — sparsely, since only receives and
collective exits have remote predecessors — and provides a Kahn
topological schedule shared by all three algorithms.

Dependency kinds:

* ``RECV`` event -> its matching ``SEND`` event;
* ``COLL_EXIT`` event -> the ``COLL_ENTER`` of every *other* member of
  the instance whose flavor constrains it (root only for 1-to-N, all
  for N-to-N, see :mod:`repro.sync.collectives_map`).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

import numpy as np

from repro.errors import SynchronizationError
from repro.tracing.events import COLLECTIVE_FLAVORS, CollectiveFlavor, EventType
from repro.tracing.trace import CollectiveRecord, Trace

__all__ = [
    "EventRef",
    "build_dependencies",
    "collective_senders",
    "collective_shape",
    "replay_schedule",
]

EventRef = tuple[int, int]  # (rank, index into that rank's log)


def collective_shape(rec: CollectiveRecord) -> tuple[CollectiveFlavor, int]:
    """``rec``'s flavor and its root's position in ``rec.ranks`` (-1 for N-to-N)."""
    flavor = COLLECTIVE_FLAVORS[rec.op]
    if flavor is CollectiveFlavor.N_TO_N:
        return flavor, -1
    return flavor, int(np.nonzero(rec.ranks == rec.root)[0][0])


def collective_senders(
    flavor: CollectiveFlavor, root_pos: int, n: int, i: int
) -> list[int]:
    """Member positions whose enter constrains member ``i``'s exit.

    Positions index the instance's ``n`` ascending member ranks; see
    :func:`collective_shape` for ``flavor`` and ``root_pos``.
    """
    if flavor is CollectiveFlavor.ONE_TO_N:
        return [root_pos] if i != root_pos else []
    if flavor is CollectiveFlavor.N_TO_ONE:
        return [j for j in range(n) if j != i] if i == root_pos else []
    if flavor is CollectiveFlavor.PREFIX:
        return list(range(i))  # lower ranks only (MPI_Scan)
    return [j for j in range(n) if j != i]


def build_dependencies(
    trace: Trace, include_collectives: bool = True
) -> dict[EventRef, list[EventRef]]:
    """Sparse map from an event to its remote happened-before predecessors."""
    deps: dict[EventRef, list[EventRef]] = {}

    messages = trace.messages(strict=False)
    for k in range(len(messages)):
        ref = (int(messages.dst[k]), int(messages.recv_idx[k]))
        deps.setdefault(ref, []).append((int(messages.src[k]), int(messages.send_idx[k])))

    if include_collectives:
        for rec in trace.collectives():
            n = rec.ranks.size
            if n < 2:
                continue
            flavor, root_pos = collective_shape(rec)
            for i in range(n):
                senders = collective_senders(flavor, root_pos, n, i)
                if not senders:
                    continue
                ref = (int(rec.ranks[i]), int(rec.exit_idx[i]))
                deps.setdefault(ref, []).extend(
                    (int(rec.ranks[j]), int(rec.enter_idx[j])) for j in senders
                )
    return deps


def replay_schedule(
    trace: Trace, deps: dict[EventRef, list[EventRef]] | None = None
) -> Iterator[EventRef]:
    """Yield every event of the trace in a happened-before-consistent order.

    Kahn's algorithm over the sparse dependency map plus implicit local
    program-order edges.  Raises :class:`SynchronizationError` if the
    graph has a cycle (possible only with a corrupt trace).
    """
    if deps is None:
        deps = build_dependencies(trace)

    lengths = {rank: len(trace.logs[rank]) for rank in trace.ranks}
    # Remaining unmet remote deps per event.
    pending: dict[EventRef, int] = {}
    # Reverse edges: once an event is emitted, which events it unblocks.
    unblocks: dict[EventRef, list[EventRef]] = {}
    for ref, sources in deps.items():
        pending[ref] = len(sources)
        for src in sources:
            unblocks.setdefault(src, []).append(ref)

    emitted: dict[EventRef, bool] = {}
    cursor = {rank: 0 for rank in trace.ranks}  # next local index to try
    ready: deque[int] = deque(rank for rank in trace.ranks if lengths[rank] > 0)
    in_ready = {rank: True for rank in ready}
    total = sum(lengths.values())
    count = 0

    def local_ready(rank: int) -> bool:
        idx = cursor[rank]
        if idx >= lengths[rank]:
            return False
        return pending.get((rank, idx), 0) == 0

    while ready:
        rank = ready.popleft()
        in_ready[rank] = False
        # Drain this rank as far as possible.
        while local_ready(rank):
            idx = cursor[rank]
            cursor[rank] = idx + 1
            ref = (rank, idx)
            emitted[ref] = True
            count += 1
            yield ref
            for dependent in unblocks.get(ref, ()):
                pending[dependent] -= 1
                if pending[dependent] == 0:
                    dep_rank = dependent[0]
                    # Only wake the rank if this is its next event.
                    if cursor[dep_rank] == dependent[1] and not in_ready.get(dep_rank):
                        ready.append(dep_rank)
                        in_ready[dep_rank] = True
        # If the rank stalled on a remote dep, it will be re-queued when
        # that dep is emitted (handled above).

    if count != total:
        raise SynchronizationError(
            f"replay schedule incomplete ({count}/{total} events); "
            "the trace's happened-before graph has a cycle or dangling dependency"
        )
