"""``import repro`` needs numpy only.

scipy is an install dependency for one estimator (the hull LP), and it
is imported lazily there; nothing else may pull it, or any graph
library, into a bare ``import repro``.  Both checks run in a fresh
interpreter so modules imported by other tests cannot mask a leak.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
HEAVY = ("scipy", "networkx")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; ``sys.argv[1:]`` is :data:`HEAVY`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *HEAVY],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_scipy_nor_networkx():
    out = run_fresh(
        """
        import sys
        import repro
        print(sorted(m for m in sys.modules if m.split(".")[0] in sys.argv[1:]))
        """
    )
    assert out.strip() == "[]"


def test_numpy_only_modes_run_with_scipy_and_networkx_blocked():
    out = run_fresh(
        """
        import sys

        class Block:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] in sys.argv[1:]:
                    raise ImportError(f"{name} is blocked")
                return None

        sys.meta_path.insert(0, Block())

        from repro import correct_trace
        from repro.workloads import simulate_workload

        run = simulate_workload("sparse", nprocs=6, scale=1.0, seed=5)
        for mode in ("linear", "regression", "minmax"):
            result = correct_trace(run, interpolation=mode, clc=True)
            assert result.stage("clc").total_violated == 0, mode
            print(mode)
        """
    )
    assert out.split() == ["linear", "regression", "minmax"]
