"""Tests for Lamport and vector clocks (repro.sync.lamport / vector)."""

from __future__ import annotations

from graphlib import TopologicalSorter

import numpy as np
import pytest

from repro.cluster import inter_node, xeon_cluster
from repro.mpi import MpiWorld
from repro.sync.lamport import lamport_clocks
from repro.sync.vector import (
    concurrent,
    happened_before_graph,
    vector_clocks,
    vector_leq,
)
from repro.tracing.events import EventLog, EventType
from repro.tracing.trace import Trace
from repro.workloads import SparseConfig, sparse_worker


def small_trace():
    """0:S(->1) C ; 1:R C S(->2) ; 2:R   (C = local ENTER events)."""
    log0 = EventLog()
    log0.append(1.0, EventType.SEND, 1, 0, 0, 0)
    log0.append(2.0, EventType.ENTER, 1)
    log1 = EventLog()
    log1.append(1.5, EventType.RECV, 0, 0, 0, 0)
    log1.append(1.6, EventType.ENTER, 1)
    log1.append(2.0, EventType.SEND, 2, 0, 0, 1)
    log2 = EventLog()
    log2.append(2.5, EventType.RECV, 1, 0, 0, 1)
    return Trace({0: log0, 1: log1, 2: log2})


def descendants(graph, start):
    """Every node reachable from ``start`` (iterative DFS)."""
    seen, stack = set(), list(graph[start])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(graph[node])
    return seen


def simulated_trace(nprocs=5, rounds=6, seed=3):
    preset = xeon_cluster()
    world = MpiWorld(
        preset, inter_node(preset.machine, nprocs), timer="tsc", seed=seed, duration_hint=30.0
    )
    return world.run(sparse_worker(SparseConfig(rounds=rounds), seed=seed)).trace


class TestLamport:
    def test_local_monotonicity(self):
        clocks = lamport_clocks(small_trace())
        for rank, values in clocks.items():
            assert np.all(np.diff(values) >= 1)

    def test_message_ordering(self):
        clocks = lamport_clocks(small_trace())
        assert clocks[1][0] > clocks[0][0]  # recv after send
        assert clocks[2][0] > clocks[1][2]

    def test_exact_values_small_example(self):
        clocks = lamport_clocks(small_trace())
        np.testing.assert_array_equal(clocks[0], [1, 2])
        np.testing.assert_array_equal(clocks[1], [2, 3, 4])
        np.testing.assert_array_equal(clocks[2], [5])

    def test_consistent_with_happened_before_on_simulated_trace(self):
        trace = simulated_trace()
        clocks = lamport_clocks(trace)
        g = happened_before_graph(trace)
        # e -> f implies LC(e) < LC(f) for every edge (hence every path).
        for (r1, i1), successors in g.items():
            for r2, i2 in successors:
                assert clocks[r1][i1] < clocks[r2][i2]


class TestVector:
    def test_exact_values_small_example(self):
        vecs = vector_clocks(small_trace())
        np.testing.assert_array_equal(vecs[0][0], [1, 0, 0])
        np.testing.assert_array_equal(vecs[0][1], [2, 0, 0])
        np.testing.assert_array_equal(vecs[1][0], [1, 1, 0])
        np.testing.assert_array_equal(vecs[1][2], [1, 3, 0])
        np.testing.assert_array_equal(vecs[2][0], [1, 3, 1])

    def test_own_component_counts_events(self):
        trace = small_trace()
        vecs = vector_clocks(trace)
        for pos, rank in enumerate(trace.ranks):
            own = vecs[rank][:, pos]
            np.testing.assert_array_equal(own, np.arange(1, len(trace.logs[rank]) + 1))

    def test_order_equals_reachability(self):
        """The fundamental vector-clock theorem: V(e) < V(f) iff e -> f."""
        trace = simulated_trace(nprocs=4, rounds=4)
        vecs = vector_clocks(trace)
        g = happened_before_graph(trace)
        closure = {node: descendants(g, node) for node in g}
        nodes = list(g)
        rng = np.random.default_rng(0)
        idx = rng.choice(len(nodes), size=min(400, len(nodes) ** 2), replace=True)
        jdx = rng.choice(len(nodes), size=idx.size, replace=True)
        for a, b in zip(idx, jdx):
            e, f = nodes[a], nodes[b]
            if e == f:
                continue
            reaches = f in closure[e]
            dominated = vector_leq(vecs[e[0]][e[1]], vecs[f[0]][f[1]])
            assert reaches == dominated, (e, f)

    def test_concurrent_helper(self):
        vecs = vector_clocks(small_trace())
        # 0's second event and 2's receive are causally unrelated.
        assert concurrent(vecs[0][1], vecs[2][0])
        assert not concurrent(vecs[0][0], vecs[1][0])


class TestHappenedBeforeGraph:
    def test_node_and_edge_counts(self):
        trace = small_trace()
        g = happened_before_graph(trace)
        assert len(g) == trace.total_events()
        # Local edges: (2-1) + (3-1) + 0 = 3; message edges: 2.
        assert sum(len(successors) for successors in g.values()) == 5

    def test_acyclic(self):
        g = happened_before_graph(simulated_trace(nprocs=4, rounds=3))
        # static_order() raises graphlib.CycleError on any cycle.
        assert len(list(TopologicalSorter(g).static_order())) == len(g)
