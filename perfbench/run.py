"""Cold-input benchmark of the four user paths of the ``repro`` package.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cold-pipeline --seed 1 --seconds 10 --trace 0

Workloads: cold-pipeline, service-loopback, sharded-stream, figure-grid
(README.md in this directory says why each exists).  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` prints the per-layer
table.  The output is a run record, a metric table with units, sample
counts and spreads, the output checks, and as the last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every output check passed.

The package is imported from ``src/`` of the checkout this file sits in;
without it the command exits with code 2 and prints no result.  All
scratch files live under ``.perfbench-work/`` in the checkout and are
removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import PER_LAYER, REF_NOMINAL_S, HostSpeed, Report, SeedRegistry

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _print_report(rep: Report, names: dict[str, str], record: dict) -> None:
    print("record: " + json.dumps(record, sort_keys=True))
    print(f"{'metric':38s} {'value':>16s} {'unit':6s} {'n':>4s} {'spread':>8s}  note")
    for name, unit in names.items():
        m = rep.metrics.get(name)
        if m is None:
            print(f"{name:38s} {0.0:16.6f} {unit:6s} {0:4d} {'':>8s}  not on path")
            continue
        spread = "" if m.spread is None else f"{m.spread:.4f}"
        print(f"{name:38s} {m.value:16.6f} {m.unit:6s} {m.n:4d} {spread:>8s}  {m.note}")
    if names is END_TO_END:
        rate = rep.failed / rep.attempted if rep.attempted else 0.0
        print(f"{'error_rate':38s} {rate:16.6f} {'ratio':6s} {rep.attempted:4d} "
              f"{'':>8s}  {rep.failed} failed of {rep.attempted} attempted")
    for name, ok, detail in rep.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src.name}/repro; run from a "
              "full source checkout", file=sys.stderr)
        return 2
    from paths import WORKLOADS, Context

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    # Scratch space, temp files and caches of this process, the set-up
    # child and the service subprocess all stay inside the checkout.
    work = root / ".perfbench-work" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    tempfile.tempdir = None
    sys.path.insert(0, str(src))
    try:
        start = time.perf_counter()
        import numpy
        import repro

        import_s = time.perf_counter() - start
        if Path(repro.__file__).resolve().parent != src / "repro":
            print(f"perfbench: imported repro from {repro.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        seeds = SeedRegistry(args.seed)
        workload, reference_processes = WORKLOADS[args.workload]
        host = HostSpeed(reference_processes)
        try:
            ctx = Context(seconds=args.seconds, traced=bool(args.trace), seeds=seeds,
                          work=work, host=host)
            rep = workload(ctx)
        finally:
            host.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    names = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        rep.calibrate(host.slowness)
    record = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), python=platform.python_version(),
        numpy=numpy.__version__, repro=repro.__version__,
        git_sha=_git_sha(root), source_sha256=_source_sha256(src / "repro"),
        import_s=round(import_s, 4), seeds_issued=seeds.issued,
        host_reference=dict(
            processes=reference_processes, samples=len(host.samples),
            median_s=statistics.median(host.samples), nominal_s=REF_NOMINAL_S,
            slowness=host.slowness, applied=not args.trace,
        ),
        samples={k: m.n for k, m in rep.metrics.items()},
        **rep.record,
    )
    _print_report(rep, names, record)
    metrics = {}
    for name, unit in names.items():
        m = rep.metrics.get(name)
        metrics[name] = {"value": m.value if m else 0.0, "unit": unit}
    print(json.dumps({
        "correct": rep.correct,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": metrics,
    }))
    return 0 if rep.correct else 1


if __name__ == "__main__":
    sys.exit(main())
