"""The public API surface: exports, RunOptions, and the removed shims.

This module is run in CI with ``-W error::DeprecationWarning``, so any
deprecated usage that slips into the package itself (not just into user
code) fails loudly.  The export snapshot below is deliberate friction:
adding or removing a top-level name is an API decision and must update
this list in the same change.
"""

from __future__ import annotations

import importlib
import warnings

import pytest

import repro
from repro import RunOptions, RunResult, TelemetryRecorder, TracingSession
from repro.cluster import inter_node, xeon_cluster
from repro.analysis import experiments
from repro.analysis.runner import run_grid
from repro.errors import ConfigurationError
from repro.mpi import MpiWorld

#: The one and only list of top-level exports.  Update deliberately.
EXPECTED_EXPORTS = [
    "CorrectionResult",
    "ReproError",
    "RunOptions",
    "RunResult",
    "SampleSummary",
    "ServiceClient",
    "StoppingRule",
    "TelemetryRecorder",
    "TracingSession",
    "__version__",
    "correct_trace",
]


def _worker(ctx):
    yield from ctx.compute(1e-4)
    return ctx.rank


def _world(seed: int = 0) -> MpiWorld:
    preset = xeon_cluster()
    return MpiWorld(
        preset, inter_node(preset.machine, 2), timer="tsc", seed=seed,
        duration_hint=10.0,
    )


class TestExports:
    def test_all_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_EXPORTS

    def test_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_canonical_identities(self):
        from repro.core.correct import correct_trace as inner_correct
        from repro.mpi.runtime import RunResult as inner_result
        from repro.options import RunOptions as inner_options
        from repro.service.client import ServiceClient as inner_client
        from repro.telemetry import TelemetryRecorder as inner_recorder

        assert RunOptions is inner_options
        assert RunResult is inner_result
        assert TelemetryRecorder is inner_recorder
        assert repro.correct_trace is inner_correct
        assert repro.ServiceClient is inner_client


class TestRunOptions:
    def test_defaults(self):
        opts = RunOptions()
        assert opts.engine == "reference"
        assert opts.jobs is None and opts.cache is None
        assert opts.seed is None and opts.telemetry is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunOptions().engine = "batch"

    def test_replace(self):
        opts = RunOptions(seed=3).replace(engine="batch")
        assert (opts.engine, opts.seed) == ("batch", 3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunOptions(engine="warp")
        with pytest.raises(ConfigurationError):
            RunOptions(jobs=-1)
        with pytest.raises(ConfigurationError):
            RunOptions(seed="zero")

    def test_resolved_seed(self):
        assert RunOptions().resolved_seed(9) == 9
        assert RunOptions(seed=4).resolved_seed(9) == 4

    def test_telemetry_or_null(self):
        assert not RunOptions().telemetry_or_null.enabled
        recorder = TelemetryRecorder()
        assert RunOptions(telemetry=recorder).telemetry_or_null is recorder


#: Every per-call keyword the 1.x shims accepted, by entry point.  2.0
#: removed them all: ``options=RunOptions(...)`` is the only spelling.
REMOVED_KEYWORDS = {
    "MpiWorld.run": ("engine",),
    "run_grid": ("jobs", "cache"),
    "TracingSession": ("seed",),
    "table2_latencies": ("seed", "jobs", "cache", "engine"),
    "fig4_all_panels": ("seed", "jobs", "cache"),
    "fig7_app_violations": ("seed", "jobs", "cache", "engine"),
    "fig8_openmp_violations": ("seed", "jobs", "cache"),
    "ext_waitstate_accuracy": ("seed", "jobs", "cache"),
}

_ENTRY_POINTS = {
    "MpiWorld.run": lambda **kw: _world().run(_worker, **kw),
    "run_grid": lambda **kw: run_grid(_square, [dict(x=2)], **kw),
    "TracingSession": lambda **kw: TracingSession(nprocs=2, duration_hint=10.0, **kw),
    **{
        name: getattr(experiments, name)
        for name in (
            "table2_latencies", "fig4_all_panels", "fig7_app_violations",
            "fig8_openmp_violations", "ext_waitstate_accuracy",
        )
    },
}

_LEGACY_VALUES = {"engine": "reference", "jobs": None, "cache": None, "seed": 0}


class TestDeprecationShims:
    """The 1.x shims are gone: legacy keywords are ``TypeError``s."""

    def test_options_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run = _world().run(_worker, options=RunOptions(engine="reference"))
        assert isinstance(run, RunResult)

    def test_session_options_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = TracingSession(
                nprocs=2, duration_hint=10.0, options=RunOptions(seed=5)
            )
            run = session.trace(_worker)
        assert session.seed == 5
        assert run.results == {0: 0, 1: 1}

    @pytest.mark.parametrize(
        "entry, keyword",
        [(e, k) for e, kws in REMOVED_KEYWORDS.items() for k in kws],
    )
    def test_removed_keyword_is_type_error(self, entry, keyword):
        with pytest.raises(TypeError, match=keyword):
            _ENTRY_POINTS[entry](**{keyword: _LEGACY_VALUES[keyword]})

    def test_old_positional_seed_slot_is_type_error(self):
        # ``table2_latencies(seed, repeats, ...)``: with ``seed`` gone the
        # remaining parameters are keyword-only, so an old positional
        # call fails instead of silently shifting into ``repeats``.
        with pytest.raises(TypeError):
            experiments.table2_latencies(0, 5)
        with pytest.raises(TypeError):
            experiments.fig7_app_violations("pop", 0, 3)

    def test_shim_modules_are_gone(self):
        assert importlib.import_module("repro.options").__all__ == ["ENGINES", "RunOptions"]
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.pipeline")


def _square(x):
    return x * x
