"""Timestamp synchronization: measurement, correction, and verification.

This package implements the paper's Section III/V toolchain:

* :mod:`repro.sync.offset` — Cristian's probabilistic remote clock
  reading (Eq. 2) and the master/worker measurement protocol;
* :mod:`repro.sync.interpolation` — offset alignment and linear offset
  interpolation (Eq. 3), plus the piecewise variant;
* :mod:`repro.sync.violations` — clock-condition scans over p2p
  messages, collectives (via logical messages), and POMP regions;
* :mod:`repro.sync.lamport` / :mod:`repro.sync.vector` — logical clocks;
* :mod:`repro.sync.clc` — the controlled logical clock with forward and
  backward amortization;
* :mod:`repro.sync.collectives_map` — collective -> logical p2p mapping;
* :mod:`repro.sync.error_estimation` — Duda/Hofmann/Jezequel offset-line
  estimation from message timestamps;
* :mod:`repro.sync.replay` — replay-ordered (parallelizable) CLC;
* :mod:`repro.sync.schedule` — compiled happened-before schedules and
  the array kernels behind CLC, Lamport, vector, and replay;
* :mod:`repro.sync.streaming` — out-of-core drivers of the same CLC,
  scan and interpolation steps over sharded trace directories,
  bit-identical to the in-memory kernels with one shard per rank
  resident at a time.
"""

from repro.sync.offset import OffsetMeasurement, cristian_offset, measurement_protocol
from repro.sync.interpolation import (
    ClockCorrection,
    align_offsets,
    linear_interpolation,
    piecewise_interpolation,
)
from repro.sync.violations import (
    ViolationReport,
    scan_collectives,
    scan_messages,
    scan_pomp,
    scan_trace,
)
from repro.sync.clc import (
    ClcResult,
    ControlledLogicalClock,
    naive_shift_correct,
    naive_shift_correct_reference,
)
from repro.sync.lamport import lamport_clocks, lamport_clocks_reference
from repro.sync.schedule import CompiledSchedule
from repro.sync.vector import happened_before_graph, vector_clocks, vector_clocks_reference
from repro.sync.collectives_map import logical_messages
from repro.sync.error_estimation import (
    estimate_pairwise_offsets,
    synchronize_by_spanning_tree,
)
from repro.sync.exchange import exchange_correction, offsets_from_exchanges
from repro.sync.replay import ReplayResult, replay_correct
from repro.sync.streaming import (
    streaming_apply_correction,
    streaming_clc_correct,
    streaming_scan_trace,
)

__all__ = [
    "OffsetMeasurement",
    "cristian_offset",
    "measurement_protocol",
    "ClockCorrection",
    "align_offsets",
    "linear_interpolation",
    "piecewise_interpolation",
    "ViolationReport",
    "scan_messages",
    "scan_collectives",
    "scan_pomp",
    "scan_trace",
    "ControlledLogicalClock",
    "ClcResult",
    "CompiledSchedule",
    "naive_shift_correct",
    "naive_shift_correct_reference",
    "replay_correct",
    "ReplayResult",
    "exchange_correction",
    "offsets_from_exchanges",
    "lamport_clocks",
    "lamport_clocks_reference",
    "vector_clocks",
    "vector_clocks_reference",
    "happened_before_graph",
    "logical_messages",
    "estimate_pairwise_offsets",
    "synchronize_by_spanning_tree",
    "streaming_apply_correction",
    "streaming_clc_correct",
    "streaming_scan_trace",
]
