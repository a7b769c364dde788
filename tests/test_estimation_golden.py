"""Golden knots for the spanning-tree error estimation.

``tests/data/estimation_golden.jsonl`` stores, as exact float hex, the
:class:`~repro.sync.interpolation.ClockCorrection` knots that
:func:`synchronize_by_spanning_tree` produced for a few seeded sparse
traces.  The traces are chosen so that several rank pairs carry the same
message count: their spanning-tree edges tie on weight, so the tree
(and the BFS order the offset lines are composed in) depends on how the
ties are broken.  Any rewrite of the tree construction or of the line
fits must reproduce these bits exactly.

Regenerate (only when an intended numerical change lands) with::

    PYTHONPATH=src python tests/test_estimation_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import inter_node, xeon_cluster
from repro.mpi import MpiWorld
from repro.sync.error_estimation import synchronize_by_spanning_tree
from repro.workloads import SparseConfig, sparse_worker

GOLDEN = Path(__file__).parent / "data" / "estimation_golden.jsonl"

#: (nprocs, rounds, density, seed, master)
CASES = [
    (6, 8, 0.3, 1, 0),
    (7, 10, 0.25, 3, 0),
    (8, 6, 0.3, 4, 3),
    (8, 12, 0.2, 5, 0),
]
METHODS = ("regression", "hull", "minmax")
WINDOWS = (1, 3)


def case_id(case) -> str:
    return "n{}-r{}-d{}-s{}-m{}".format(*case)


def traced(case):
    nprocs, rounds, density, seed, _ = case
    preset = xeon_cluster()
    world = MpiWorld(
        preset, inter_node(preset.machine, nprocs), timer="mpi_wtime",
        seed=seed, duration_hint=60.0,
    )
    return world.run(
        sparse_worker(SparseConfig(rounds=rounds, density=density), seed=seed),
        measure_offsets=False,
    ).trace


def knots_hex(case, method: str, windows: int) -> dict[str, list[list[str]]]:
    corr = synchronize_by_spanning_tree(
        traced(case), lmin=1e-6, master=case[4], method=method, windows=windows
    )
    return {
        str(rank): [[float(v).hex() for v in t], [float(v).hex() for v in o]]
        for rank, (t, o) in sorted(corr.knots.items())
    }


@pytest.fixture(scope="module")
def golden():
    records = map(json.loads, GOLDEN.read_text().splitlines())
    return {(r["case"], r["method"], r["windows"]): r["knots"] for r in records}


@pytest.mark.parametrize("windows", WINDOWS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_knots_bit_identical(golden, case, method, windows):
    assert knots_hex(case, method, windows) == golden[case_id(case), method, windows]


if __name__ == "__main__":
    GOLDEN.write_text("".join(
        json.dumps({
            "case": case_id(case), "method": method, "windows": windows,
            "knots": knots_hex(case, method, windows),
        }) + "\n"
        for case in CASES for method in METHODS for windows in WINDOWS
    ))
