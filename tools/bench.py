"""End-to-end timings of fresh ``python -m islocc`` processes, written as JSON.

Usage::

    python tools/bench.py [--repeats N] [--baseline REV] [--workloads NAME,...]
                          [--output PATH]

Each workload is one ``islocc`` command that writes its output to a temporary
file; ``verify``, which takes no ``--output``, writes its report to stdout, which
the script sends to that file.  Every repeat starts a new process, so a run
pays start-up as a user does.  With ``--baseline REV`` the ``src/`` tree of git
revision REV is extracted (``git archive``) under a temporary directory and each
workload runs from both trees in the same session, alternating which side runs
first.

For each side and workload the report holds the median and interquartile
range of the wall time and of the peak RSS (the child's own ``ru_maxrss``, as
``os.wait4`` reports it, never below the script's own peak, which is reported too).  A workload counts only if its output is right: every
run of a side must exit 0 and write the same bytes, and with a baseline those
bytes must equal the baseline's.  A workload with a pin in ``tools/digests.json``
(the sha256 its output must have, which CI checks too) first runs once on this
checkout's tree, untimed; if its bytes differ from the pin it is not timed.  A
workload that breaks any of these rules is reported as failed, with no timings,
and the script exits 1.

Standard library only; numpy's version and SIMD dispatch (the CPU baseline
it was built for, its dispatch targets and those this CPU supports) are read
from a child process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> the islocc arguments, less ``--output``.
WORKLOADS = {
    "sweep-41": ("sweep", "--indist-grid", "0:1:41", "--p-grid", "0:1:41", "--format", "csv"),
    "bell-region-41": ("bell-region", "--indist-grid", "0:1:41", "--p-grid", "0:1:41",
                       "--format", "csv"),
    "sweep-41-svg": ("sweep", "--indist-grid", "0:1:41", "--p-grid", "0:1:41", "--format", "svg"),
    "bell-region-41-svg": ("bell-region", "--indist-grid", "0:1:41", "--p-grid", "0:1:41",
                           "--format", "svg"),
    "l-scan-json": ("sweep", "--statistics", "boson", "--target", "1_plus", "--theta", "1",
                    "--constraint", "l_eq_lprime", "--l-grid", "0:1:801",
                    "--p-grid", "0.5:0.5:1", "--format", "json"),
    "map-301-csv": ("sweep", "--indist-grid", "0:1:301", "--p-grid", "0:1:301", "--format", "csv"),
    "map-301-json": ("sweep", "--indist-grid", "0:1:301", "--p-grid", "0:1:301",
                     "--format", "json"),
    "cap-csv": ("sweep", "--indist-grid", "0:1:1000", "--p-grid", "0:1:1000", "--format", "csv"),
    "cap-json": ("sweep", "--indist-grid", "0:1:1000", "--p-grid", "0:1:1000",
                 "--format", "json"),
    "cap-sweep-svg": ("sweep", "--indist-grid", "0:1:1000", "--p-grid", "0:1:1000",
                      "--format", "svg"),
    "cap-bell-region-svg": ("bell-region", "--indist-grid", "0:1:1000", "--p-grid", "0:1:1000",
                            "--format", "svg"),
    "threshold": ("threshold", "--statistics", "fermion", "--target", "1_minus"),
    "threshold-fermion-1_plus": ("threshold", "--statistics", "fermion", "--target", "1_plus"),
    "threshold-boson-1_minus": ("threshold", "--statistics", "boson", "--target", "1_minus"),
    "threshold-boson-1_plus": ("threshold", "--statistics", "boson", "--target", "1_plus"),
    # just below theta = pi: the sharp-dip search that finds no threshold
    "threshold-boson-1_plus-3.14159": ("threshold", "--statistics", "boson", "--target", "1_plus",
                                       "--theta", "3.14159"),
    # a search that finds a threshold away from the canonical phase
    "threshold-fermion-1_minus--0.3": ("threshold", "--statistics", "fermion", "--target",
                                       "1_minus", "--theta", "-0.3"),
    "verify": ("verify",),
}

#: Commands that take no ``--output``: their stdout is the output.
STDOUT_COMMANDS = {"verify"}

#: Output name -> the sha256 of its bytes: the workloads' and CI's pinned outputs.
PINS = json.loads((ROOT / "tools" / "digests.json").read_text(encoding="utf-8"))


def run_once(src: Path, args, workdir: Path) -> dict:
    """One fresh ``python -m islocc`` process on ``src``: exit code, wall time, peak
    RSS and the output's sha256 (None unless it exits 0)."""
    output, errors = workdir / "output", workdir / "stderr"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    to_stdout = args[0] in STDOUT_COMMANDS
    flags = () if to_stdout else ("--output", str(output))
    with open(errors, "wb") as stderr, open(output if to_stdout else os.devnull, "wb") as stdout:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "islocc", *args, *flags],
                                 env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    digest = file_sha256(output) if child.returncode == 0 and output.is_file() else None
    output.unlink(missing_ok=True)
    return {"code": child.returncode, "seconds": seconds, "peak_mib": usage.ru_maxrss / 1024,
            "sha256": digest, "stderr": errors.read_text(errors="replace")[-500:]}


def file_sha256(path: Path) -> str:
    """The file's sha256, read in chunks.  A child runs in this process's memory
    until it execs, so its ``ru_maxrss`` is at least this process's peak: that peak
    must stay below every child's."""
    digest = hashlib.sha256()
    with open(path, "rb") as file:
        for chunk in iter(lambda: file.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def summary(values: list[float]) -> dict:
    """Median, quartiles and IQR of ``values``, with the values themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def judge(runs: dict[str, list[dict]]) -> dict:
    """The report of one workload from each side's runs: failed, with the reason
    and no timings, unless every run exits 0 and all sides write one output."""
    problems = []
    for side, side_runs in runs.items():
        if bad := [run for run in side_runs if run["code"] != 0]:
            problems.append(f"{side}: exit code {bad[0]['code']}: {bad[0]['stderr'].strip()}")
        elif len({run["sha256"] for run in side_runs}) > 1:
            problems.append(f"{side}: output differs between runs")
    if not problems and len({side_runs[0]["sha256"] for side_runs in runs.values()}) > 1:
        problems.append("output differs from the baseline's")
    if problems:
        return {"status": "failed", "problems": problems}
    report = {"status": "ok", "sha256": next(iter(runs.values()))[0]["sha256"]}
    for side, side_runs in runs.items():
        report[side] = {"wall_s": summary([run["seconds"] for run in side_runs]),
                        "peak_rss_mib": summary([run["peak_mib"] for run in side_runs])}
    if "baseline" in runs:  # pairs in run order, where the change took less time
        pairs = zip(runs["change"], runs["baseline"])
        report["change_faster_pairs"] = sum(c["seconds"] < b["seconds"] for c, b in pairs)
    return report


def measure(workloads: dict, sides: dict[str, Path], repeats: int, pins: dict = PINS) -> dict:
    """Run every workload ``repeats`` times on each side, the sides alternating
    which runs first, and judge each workload.  A workload pinned in ``pins`` first
    runs once on the ``change`` side; if its output is not the pinned one it fails
    there, with no timed run."""
    runs = {name: {side: [] for side in sides} for name in workloads}
    reports = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, args in workloads.items():
            if name in pins:
                run = run_once(sides["change"], args, Path(scratch))
                if run["sha256"] != pins[name]:
                    reports[name] = {"status": "failed", "problems": [
                        f"change: exit code {run['code']}: {run['stderr'].strip()}" if run["code"]
                        else "change: output differs from its pin"]}
        timed = [name for name in workloads if name not in reports]
        for repeat in range(repeats):
            for name in timed:
                order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
                for side in order:
                    runs[name][side].append(run_once(sides[side], workloads[name],
                                                     Path(scratch)))
    return {name: reports.get(name) or judge(runs[name]) for name in workloads}


def baseline_src(rev: str, directory: Path) -> Path:
    """The ``src/`` tree of git revision ``rev``, extracted under ``directory``."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                     else {}))
    return directory / "src"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def src_lines(src: Path) -> int:
    """Lines of the Python files under ``src``."""
    return sum(len(path.read_bytes().splitlines()) for path in src.rglob("*.py"))


#: Run in a child, so that this script never imports numpy.
_NUMPY_PROBE = """
import json, numpy
try:
    from numpy._core._multiarray_umath import (
        __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import (
        __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
print(json.dumps([numpy.__version__, __cpu_baseline__, __cpu_dispatch__,
                  [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]]))
"""
_NUMPY_KEYS = ("numpy", "numpy_cpu_baseline", "numpy_cpu_dispatch",
               "numpy_cpu_dispatch_supported")


def environment(src: Path) -> dict:
    probe = subprocess.run([sys.executable, "-c", _NUMPY_PROBE],
                           capture_output=True, text=True).stdout
    numpy = dict(zip(_NUMPY_KEYS, json.loads(probe) if probe else [None] * len(_NUMPY_KEYS)))
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), **numpy, "head": git("rev-parse", "HEAD"),
            "src_lines": src_lines(src)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="runs per side (default 7)")
    parser.add_argument("--baseline", metavar="REV", help="git revision to compare against")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help=f"comma-separated subset of {', '.join(WORKLOADS)}")
    parser.add_argument("--output", help="report path (default: stdout)")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    if unknown := [name for name in names if name not in WORKLOADS]:
        parser.error(f"unknown workload {unknown[0]!r}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    src = ROOT / "src"
    report = {"schema": 1, "repeats": args.repeats, "environment": environment(src)}
    with tempfile.TemporaryDirectory() as directory:
        sides = {"change": src}
        if args.baseline is not None:
            sides["baseline"] = baseline_src(args.baseline, Path(directory))
            report["baseline"] = {"rev": args.baseline,
                                  "commit": git("rev-parse", f"{args.baseline}^{{commit}}"),
                                  "src_lines": src_lines(sides["baseline"])}
        report["workloads"] = measure({name: WORKLOADS[name] for name in names}, sides,
                                      args.repeats)
    report["environment"]["bench_peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    text = json.dumps(report, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0 if all(w["status"] == "ok" for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
