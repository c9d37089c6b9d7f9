"""Run one benchmark workload against the islocc sources of this checkout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-map --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: ``pass_s``, the median
wall time of one pass over the workload's fixed input set; ``setup_s``, the
median time from starting a fresh interpreter to having ``islocc`` imported
and the inputs generated; and ``peak_rss_mb``.  With ``--trace 1`` it runs
untraced passes for half the time and traced passes for the rest, prints the
per-layer metrics and writes every span to ``perfbench/out/trace-<workload>.json.gz``.
Each workload runs in a closed loop in this one process.  Outputs are checked
after timing; an operation that raises or fails its check is counted as
failed.  The last line of standard output is the JSON result; the line
before it is a JSON report of the run's conditions and details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5

#: Untraced passes needed before a run may stop (two, for the determinism check).
MIN_PASSES = 2

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def _clock_ns() -> int:
    # CLOCK_MONOTONIC is one clock for every process on the machine, so a
    # child's reading can be compared with the parent's.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up the workload, print the clock and exit "
                             "(the set-up timing child)")
    return parser.parse_args(argv)


def _conditions(args) -> dict:
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ISLOCC_THREADS": os.environ.get("ISLOCC_THREADS"),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def _probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the workload's inputs being ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    started = _clock_ns()
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return (int(done.stdout.strip().splitlines()[-1]) - started) / 1e9


def _measure(workload, checked, seconds: float, first: int, min_passes: int,
             untraced=contextlib.nullcontext) -> list[float]:
    """Closed loop of timed passes, each checked right after its timing (in
    the ``untraced`` context); a pass is not started if the median pass so
    far would carry the run past ``seconds``.  Returns the pass times."""
    samples = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes = workload.run_pass(first + len(samples))
        samples.append(time.perf_counter() - t0)
        with untraced():
            checked.record(outcomes, workload.check)
        elapsed = time.perf_counter() - began
        if len(samples) >= min_passes and elapsed + statistics.median(samples) > seconds:
            return samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "islocc").rglob("*.py")))


def _traced_run(workload, checked, args, plain: list[float], spent: float):
    """Traced passes for the rest of the run; returns the per-layer metrics
    and details for the report."""
    from perfbench.layers import METRICS, PATCHES, layer_metrics
    from perfbench.spans import Tracer, layer_totals, write_trace

    tracer = Tracer()
    tracer.install(PATCHES)
    try:
        traced = _measure(workload, checked, args.seconds - spent, len(plain), 1,
                          untraced=tracer.paused)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    values = layer_metrics(layer_totals(spans), tracer.counters, len(traced))
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    values["src.lines"] = _src_lines()
    path = OUT / f"trace-{args.workload}.json.gz"
    write_trace(path, spans, tracer.counters,
                {"workload": args.workload, "seed": args.seed, "passes": len(traced)})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
    details = {"traced_passes": len(traced), "spans": len(spans),
               "trace_file": str(path.relative_to(ROOT)), "peak_rss_mb": _peak_rss_mb()}
    return metrics, details


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "islocc" / "__init__.py").is_file():
        print(f"benchmark: no islocc sources at {SRC}", file=sys.stderr)
        return 2
    conditions = _conditions(args)
    # The workloads run the program with its default thread count.
    os.environ.pop("ISLOCC_THREADS", None)
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.stats import Tally, summarize
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import islocc
    if not Path(islocc.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: imported islocc from {islocc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.probe:
            print(_clock_ns())
            return 0

        report = {"conditions": conditions}
        checked = Tally()
        if args.trace == 0:
            setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
            samples = _measure(workload, checked, args.seconds, 0, MIN_PASSES)
            metrics = {
                "pass_s": {"value": statistics.median(samples), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MiB"},
            }
            report["setup_s"] = setup
        else:
            began = time.perf_counter()
            samples = _measure(workload, checked, args.seconds / 2, 0, 1)
            metrics, report["trace"] = _traced_run(
                workload, checked, args, samples, time.perf_counter() - began)
        report["pass_s"] = summarize(samples)
        report["pass_samples"] = samples
        report["checks"] = workload.finish(checked)
        report["problems"] = checked.problems

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": checked.failed == 0 and not checked.problems,
                      "attempted": checked.attempted, "failed": checked.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
