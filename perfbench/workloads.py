"""The benchmark's workloads: inputs made from a seed, one timed pass, and checks.

Every workload calls the program through module attributes looked up at
call time (``cli.main``, ``sweeps.run_sweep``, ...), so the tracer's
wrappers see the calls.  A pass runs the workload's fixed input set once and
returns one :class:`~perfbench.stats.Outcome` per operation; checks run
after timing, against references computed independently of the timed path
(the closed forms and the physical channel construction).

Why these three:

* ``grid-map`` is the paper's headline 41x41 (indistinguishability, noise)
  map through the CLI; per-point work repeats across the noise grid, which
  is what batching in the noise probability would remove.
* ``l-scan`` runs the same layers on 801 families with a single noise value,
  so nothing is shared across the noise grid; it also covers bosons, the
  triplet-type target, a phase off the closed forms and flagged rows.
* ``threshold`` is three dependent bisection/golden-section searches, the
  traffic a direct threshold solve would replace.

A general-N workload (N = 3..6 amplitudes, norms and projections) was
tried and left out: on a 2-vCPU machine its median pass time spread 37%
across ten runs, more than any bound the benchmark may set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from islocc import cli, entanglement, slocc, sweeps, werner
from islocc.amplitudes import BOSON, FERMION
from islocc.states import SpatialWave

from .stats import Outcome, Tally, attempt

C_ATOL = 1e-9          # grid-map rows against the closed forms
CHANNEL_ATOL = 1e-10   # l-scan rows against the depolarize-then-deform construction
THRESHOLD = 0.76
THRESHOLD_WINDOW = 0.002
BELL_MAX = 2.0 * math.sqrt(2.0)
BOUND_ATOL = 1e-12


class Workload:
    """A fixed input set made from a seed; subclasses define one pass and its checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def run_pass(self, index: int) -> list[Outcome]:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        """Problems with one operation's output; empty when it is correct."""
        raise NotImplementedError

    def finish(self, checked: Tally) -> dict:
        """Checks across passes, run once at the end; returns report details."""
        return {}


# ---------------------------------------------------------------------------
# grid-map
# ---------------------------------------------------------------------------

class GridMap(Workload):
    name = "grid-map"
    ARGS = ("sweep", "--statistics", "fermion", "--target", "1_minus",
            "--indist-grid", "0:1:41", "--p-grid", "0:1:41", "--format", "csv")
    STEPS = 41

    def run_pass(self, index: int) -> list[Outcome]:
        path = self.workdir / f"grid-map-{index}.csv"
        return [attempt("sweep", self._sweep, path)]

    @staticmethod
    def _sweep(path: Path):
        return cli.main([*GridMap.ARGS, "--output", str(path)]), path

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.digests: list[str] = []

    def check(self, outcome: Outcome) -> list[str]:
        """Compare every row with the closed forms; records the file's digest
        for the determinism check and deletes the file."""
        code, path = outcome.value
        if code != 0:
            return [f"exit code {code}"]
        data = path.read_bytes()
        path.unlink()
        self.digests.append(hashlib.sha256(data).hexdigest())
        lines = data.decode("utf-8").splitlines()
        if lines[0] != ",".join(sweeps.CSV_FIELDS):
            return [f"header {lines[0]!r}"]
        rows = [dict(zip(sweeps.CSV_FIELDS, line.split(","))) for line in lines[1:]]
        if len(rows) != self.STEPS ** 2:
            return [f"{len(rows)} rows"]
        grid = np.linspace(0.0, 1.0, self.STEPS)
        problems = []
        for k, row in enumerate(rows):
            p, l, lp = float(row["p"]), float(row["l"]), float(row["lprime"])
            # the r' = l family: r = l' and r' = l
            c_ref = werner.closed_form_concurrence_minus(l, lp, lp, l, p)
            p_ref = werner.closed_form_probability_minus(l, lp, lp, l, p, FERMION)
            if (abs(p - grid[k % self.STEPS]) > 1e-12
                    or abs(float(row["indist"]) - grid[k // self.STEPS]) > 1e-6
                    or abs(l * l + lp * lp - 1.0) > 1e-9
                    or row["statistics"] != "fermion"):
                problems.append(f"row {k} is not grid point {k}")
            if abs(float(row["concurrence"]) - c_ref) > C_ATOL:
                problems.append(f"row {k}: C {row['concurrence']} vs closed form {c_ref!r}")
            if abs(float(row["p_lr"]) - p_ref) > C_ATOL:
                problems.append(f"row {k}: P_LR {row['p_lr']} vs closed form {p_ref!r}")
        return problems

    def finish(self, checked: Tally) -> dict:
        """Every pass must write byte-identical CSV."""
        for k, digest in enumerate(self.digests[1:], start=1):
            if digest != self.digests[0]:
                checked.fail(f"pass {k}", ["CSV differs from the first pass"])
        if len(self.digests) < 2:
            checked.problems.append("determinism needs two checked passes")
        return {"csv_sha256": self.digests[0] if self.digests else None,
                "csv_passes_compared": len(self.digests)}


# ---------------------------------------------------------------------------
# l-scan
# ---------------------------------------------------------------------------

class LScan(Workload):
    name = "l-scan"
    STEPS = 801
    THETA = 1.0
    SAMPLE = 12

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.p = round(float(self.rng.uniform(0.1, 0.9)), 6)
        self.config = sweeps.SweepConfig(
            statistics=BOSON, target="1_plus", theta=self.THETA, constraint="l_eq_lprime",
            l_grid=sweeps.GridSpec(0.0, 1.0, self.STEPS),
            p_grid=sweeps.GridSpec(self.p, self.p, 1))
        self.sample = sorted(int(i) for i in self.rng.choice(
            np.arange(1, self.STEPS - 1), size=self.SAMPLE, replace=False))
        self._references: dict[int, tuple[float, float, float]] = {}

    def run_pass(self, index: int) -> list[Outcome]:
        return [attempt("sweep", self._sweep)]

    def _sweep(self):
        records = sweeps.run_sweep(self.config)
        return records, sweeps.records_to_json(records, sweeps.CSV_FIELDS)

    def _reference(self, k: int, l: float) -> tuple[float, float, float]:
        if k not in self._references:
            psi1 = SpatialWave.from_l(l)
            psi2 = SpatialWave.from_l(l, self.THETA)
            state = slocc.project(werner.depolarize_then_deform(
                self.p, "1_plus", psi1, psi2, BOSON), ("L", "R"))
            report = entanglement.analyze(state)
            self._references[k] = (report.concurrence, state.probability, report.bell)
        return self._references[k]

    def check(self, outcome: Outcome) -> list[str]:
        records, text = outcome.value
        if len(records) != self.STEPS:
            return [f"{len(records)} rows"]
        problems = []
        flagged = [k for k, r in enumerate(records) if r.flagged]
        if flagged != [0, self.STEPS - 1]:
            problems.append(f"flagged rows {flagged}, expected the two grid ends")
        for k, r in enumerate(records):
            if not (-BOUND_ATOL <= r.concurrence <= 1 + BOUND_ATOL
                    and -BOUND_ATOL <= r.p_lr <= 1 + BOUND_ATOL
                    and r.bell <= BELL_MAX + BOUND_ATOL):
                problems.append(f"row {k} out of bounds: C={r.concurrence!r} "
                                f"P_LR={r.p_lr!r} B={r.bell!r}")
        for k in self.sample:
            r = records[k]
            ref = self._reference(k, r.l)
            got = (r.concurrence, r.p_lr, r.bell)
            if max(abs(a - b) for a, b in zip(got, ref)) > CHANNEL_ATOL:
                problems.append(f"row {k}: (C, P_LR, B) {got} vs channel {ref}")
        payload = json.loads(text)["records"]
        if len(payload) != len(records) or any(
                abs(entry[name] - getattr(r, name)) > 1e-11 * max(1.0, abs(getattr(r, name)))
                for entry, r in zip(payload, records)
                for name in ("p", "l", "concurrence", "p_lr", "bell")):
            problems.append("JSON rows differ from the records")
        return problems


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

class Threshold(Workload):
    name = "threshold"
    #: (statistics, target, expected to find a threshold)
    CASES = (("fermion", "1_minus", True), ("boson", "1_minus", True),
             ("fermion", "1_plus", False))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.cases = [self.CASES[i] for i in self.rng.permutation(len(self.CASES))]

    def run_pass(self, index: int) -> list[Outcome]:
        return [attempt(f"{stats}/{target}", self._search, stats, target, found)
                for stats, target, found in self.cases]

    @staticmethod
    def _search(stats: str, target: str, found: bool):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["threshold", "--statistics", stats, "--target", target])
        return code, out.getvalue(), found

    def check(self, outcome: Outcome) -> list[str]:
        code, text, found = outcome.value
        if code != 0:
            return [f"exit code {code}"]
        result = json.loads(text)
        if result["found"] is not found:
            return [f"found={result['found']}, expected {found}"]
        if found and not abs(result["indist"] - THRESHOLD) <= THRESHOLD_WINDOW:
            return [f"threshold {result['indist']!r} outside {THRESHOLD} +- {THRESHOLD_WINDOW}"]
        return []


WORKLOADS = {w.name: w for w in (GridMap, LScan, Threshold)}
