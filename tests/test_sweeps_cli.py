import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import islocc
from islocc.amplitudes import BOSON, FERMION
from islocc.cli import load_config_file, main
from islocc.entanglement import binary_entropy
from islocc.indistinguishability import degree_two
from islocc.states import UP, SpatialWave
from islocc.sweeps import (BELL_REGION_FIELDS, CSV_FIELDS, MAX_SWEEP_ROWS, ConfigError,
                           GridSpec, SweepConfig, SweepRecord, _peaked_degree,
                           find_threshold, indist_on_family, l_for_indist,
                           records_to_csv, records_to_json, run_sweep)
from islocc.verify import run_verify
from islocc.werner import WernerFamily, wave_state

SQRT_HALF = 1.0 / math.sqrt(2.0)


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports this checkout's islocc."""
    src = str(Path(islocc.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


class TestGridSpec:
    def test_parse(self):
        grid = GridSpec.parse("0:1:5")
        np.testing.assert_allclose(grid.values(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_single_point(self):
        np.testing.assert_allclose(GridSpec.parse("0.3:0.9:1").values(), [0.3])

    def test_rejects_malformed(self):
        with pytest.raises(ConfigError):
            GridSpec.parse("0:1")
        with pytest.raises(ConfigError):
            GridSpec.parse("a:b:c")
        with pytest.raises(ConfigError):
            GridSpec(1.0, 0.0, 5)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 0)
        for start, stop in ((math.nan, math.nan), (0.0, math.nan), (math.nan, 1.0),
                            (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ConfigError, match="finite"):
                GridSpec(start, stop, 3)


class TestIndistInversion:
    def test_endpoints(self):
        assert l_for_indist(1.0) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert l_for_indist(0.0) == 1.0

    def test_round_trip(self):
        for target in np.linspace(0.02, 0.98, 25):
            l = l_for_indist(float(target))
            assert indist_on_family(l) == pytest.approx(target, abs=1e-10)

    def test_family_formula_matches_entropy_definition(self):
        for l in np.linspace(SQRT_HALF, 1.0, 20):
            t = l * l
            z = t * t + (1 - t) ** 2
            assert indist_on_family(float(l)) == pytest.approx(
                binary_entropy(t * t / z), abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            l_for_indist(1.5)

    def test_closed_form_matches_degree_two(self, rng):
        for _ in range(200):
            l, lp = rng.uniform(0, 1, size=2)
            theta = rng.uniform(0, 2 * math.pi)
            psi1, psi2 = SpatialWave.from_l(l), SpatialWave.from_l(lp, theta)
            expected = degree_two(wave_state(psi1, UP), wave_state(psi2, UP)).entropy
            assert abs(_peaked_degree(psi1.l, psi1.r, psi2.l, psi2.r) - expected) <= 1e-12

    @pytest.mark.parametrize("l", [0.0, 1.0])
    def test_both_waves_on_one_region_raise(self, l):
        psi = SpatialWave.from_l(l)
        with pytest.raises(ValueError, match="undefined"):
            degree_two(wave_state(psi, UP), wave_state(psi, UP))
        with pytest.raises(ValueError, match="undefined"):
            _peaked_degree(psi.l, psi.r, psi.l, psi.r)

    def test_array_degree_matches_scalar(self, rng):
        # the last two pairs put both waves on R, then both on L
        l1 = np.append(rng.uniform(0, 1, 30), [0.0, 1.0])
        l2 = np.append(rng.uniform(0, 1, 30), [0.0, 1.0])
        r1, r2 = np.sqrt(1 - l1 * l1), np.sqrt(1 - l2 * l2)
        with pytest.raises(ValueError, match="undefined"):
            _peaked_degree(l1, r1, l2, r2)
        degrees = _peaked_degree(l1, r1, l2, r2, zero_undefined=True)
        assert degrees[-2:].tolist() == [0.0, 0.0]
        for k in range(30):
            assert degrees[k] == _peaked_degree(float(l1[k]), float(r1[k]),
                                                float(l2[k]), float(r2[k]))

    def test_array_inversion_matches_scalar(self):
        targets = np.linspace(0.0, 1.0, 41)
        ls = l_for_indist(targets)
        assert ls.tolist() == [l_for_indist(float(t)) for t in targets]

    def test_non_positive_tolerance_stops_at_adjacent_floats(self):
        # a bracket of two adjacent floats is never narrower than tol <= 0;
        # the inversion runs in a child process, so a hang fails the test
        script = ("from islocc.sweeps import l_for_indist\n"
                  "print(*(repr(float(l_for_indist(0.5, tol=t))) for t in (0.0, -1.0)))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        zero, negative = map(float, done.stdout.split())
        assert zero == negative == pytest.approx(float(l_for_indist(0.5)), abs=1e-12)
        assert indist_on_family(zero) == pytest.approx(0.5, abs=1e-15)


class TestRunSweep:
    def test_noise_free_family_has_constant_concurrence(self):
        config = SweepConfig(statistics=FERMION, target="1_minus",
                             constraint="l_eq_lprime",
                             l_grid=GridSpec(0.6, 0.9, 4), p_grid=GridSpec(0, 1, 11))
        records = run_sweep(config)
        assert len(records) == 44
        for record in records:
            assert record.concurrence == pytest.approx(1.0, abs=1e-9)
            assert record.indist == pytest.approx(1.0, abs=1e-12)

    def test_triplet_family_follows_closed_form(self):
        config = SweepConfig(statistics=BOSON, target="1_plus",
                             constraint="l_eq_lprime",
                             l_grid=GridSpec(SQRT_HALF, SQRT_HALF, 1),
                             p_grid=GridSpec(0, 1, 21))
        for record in run_sweep(config):
            expected = max(0.0, (4 - 5 * record.p) / (4 - record.p))
            assert record.concurrence == pytest.approx(expected, abs=1e-9)

    def test_distinguishable_family_recovers_standard_werner(self):
        config = SweepConfig(statistics=FERMION, target="1_minus",
                             constraint="l_eq_rprime",
                             indist_grid=GridSpec(0, 0, 1), p_grid=GridSpec(0, 1, 21))
        for record in run_sweep(config):
            assert record.concurrence == pytest.approx(
                max(0.0, 1 - 1.5 * record.p), abs=1e-9)
            assert record.p_lr == pytest.approx(1.0, abs=1e-12)

    def test_cross_metric_identity(self):
        config = SweepConfig(statistics=BOSON, target="1_minus",
                             indist_grid=GridSpec(0.2, 0.9, 5), p_grid=GridSpec(0, 1, 7))
        for record in run_sweep(config):
            expected = binary_entropy((1 + math.sqrt(1 - record.concurrence ** 2)) / 2)
            assert record.eof == pytest.approx(expected, abs=1e-12)

    def test_rows_ordered_outer_then_inner(self):
        config = SweepConfig(statistics=FERMION, indist_grid=GridSpec(0.1, 0.9, 3),
                             p_grid=GridSpec(0, 1, 4))
        records = run_sweep(config)
        degrees = [r.indist for r in records]
        assert degrees == sorted(degrees)
        for i in range(0, len(records), 4):
            ps = [r.p for r in records[i:i + 4]]
            assert ps == sorted(ps)

    def test_flagged_rows_kept_with_warning(self):
        # l = l' extremely close to 1: detection probability below the flag
        # threshold but the family is still well defined
        l = math.sqrt(1 - 1e-13)
        config = SweepConfig(statistics=FERMION, target="1_minus",
                             constraint="l_eq_lprime", l_grid=GridSpec(l, l, 1),
                             p_grid=GridSpec(0, 0, 1))
        with pytest.warns(RuntimeWarning, match="detection probability"):
            records = run_sweep(config)
        assert len(records) == 1
        assert records[0].flagged
        assert records[0].p_lr < 1e-12

    def test_degenerate_family_fully_flagged(self):
        config = SweepConfig(statistics=FERMION, target="1_minus",
                             constraint="l_eq_lprime", l_grid=GridSpec(1.0, 1.0, 1),
                             p_grid=GridSpec(0, 1, 3))
        with pytest.warns(RuntimeWarning):
            records = run_sweep(config)
        assert all(r.flagged for r in records)
        assert all(r.concurrence == 0.0 for r in records)

    def test_flagged_row_warning_names_the_caller(self):
        config = SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(1, 1, 1),
                             p_grid=GridSpec(0, 1, 3))
        with pytest.warns(RuntimeWarning, match="detection probability") as caught:
            run_sweep(config)
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("config", [
        # the grid-map and l-scan benchmark configurations; l-scan's grid
        # ends put both waves on one mode
        SweepConfig(statistics=FERMION, target="1_minus", indist_grid=GridSpec(0, 1, 41),
                    p_grid=GridSpec(0, 1, 41)),
        SweepConfig(statistics=BOSON, target="1_plus", theta=1.0, constraint="l_eq_lprime",
                    l_grid=GridSpec(0, 1, 801), p_grid=GridSpec(0.5, 0.5, 1)),
    ], ids=["grid-map", "l-scan"])
    def test_sweep_raises_no_floating_point_error(self, config):
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = run_sweep(config)
        flagged = [k for k, r in enumerate(records) if r.flagged]
        assert flagged == ([] if config.l_grid is None else [0, len(records) - 1])
        assert all(r.concurrence == r.p_lr == r.bell == r.indist == 0.0
                   for r in records if r.flagged)

    def test_determinism_and_thread_independence(self):
        config = SweepConfig(statistics=BOSON, target="1_plus",
                             indist_grid=GridSpec(0, 1, 4), p_grid=GridSpec(0, 1, 5))
        first = records_to_csv(run_sweep(config), CSV_FIELDS)
        assert records_to_csv(run_sweep(config), CSV_FIELDS) == first

    def test_json_and_csv_encode_identical_records(self):
        config = SweepConfig(statistics=FERMION, indist_grid=GridSpec(0.3, 0.8, 3),
                             p_grid=GridSpec(0, 1, 4))
        records = run_sweep(config)
        csv_text = records_to_csv(records, CSV_FIELDS)
        json_rows = json.loads(records_to_json(records, CSV_FIELDS))["records"]
        csv_lines = csv_text.strip().splitlines()
        assert csv_lines[0] == ",".join(CSV_FIELDS)
        assert len(csv_lines) == len(json_rows) + 1
        for line, row in zip(csv_lines[1:], json_rows):
            for name, cell in zip(CSV_FIELDS, line.split(",")):
                if name == "statistics":
                    assert cell == row[name]
                else:
                    assert float(cell) == row[name]

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="not both"):
            SweepConfig(indist_grid=GridSpec(0, 1, 3), l_grid=GridSpec(0, 1, 3)).validate()
        with pytest.raises(ConfigError, match="l_eq_rprime"):
            SweepConfig(constraint="l_eq_lprime", indist_grid=GridSpec(0, 1, 3)).validate()
        with pytest.raises(ConfigError, match="lprime"):
            SweepConfig(constraint="free", l_grid=GridSpec(0, 1, 3)).validate()
        with pytest.raises(ConfigError, match="constraint"):
            SweepConfig(constraint="bogus").validate()
        with pytest.raises(ConfigError, match="target"):
            SweepConfig(target="bell").validate()
        with pytest.raises(ConfigError, match="theta"):
            SweepConfig(theta=math.nan).validate()
        with pytest.raises(ConfigError, match="lprime"):
            SweepConfig(constraint="free", lprime=math.inf,
                        l_grid=GridSpec(0, 1, 3)).validate()

    def test_sweep_size_cap(self, monkeypatch):
        def no_grid(self):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(GridSpec, "values", no_grid)
        assert MAX_SWEEP_ROWS == 1_000_000
        for config in (SweepConfig(indist_grid=GridSpec(0, 1, 100_000_000_000)),
                       SweepConfig(indist_grid=GridSpec(0, 1, 1000),
                                   p_grid=GridSpec(0, 1, 1001)),
                       SweepConfig(p_grid=GridSpec(0, 1, 90_910)),  # default 11 x p
                       SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(0, 1, 2),
                                   p_grid=GridSpec(0, 1, 500_001))):
            with pytest.raises(ConfigError, match="exceeds the limit of 1000000 rows"):
                config.validate()
        SweepConfig(indist_grid=GridSpec(0, 1, 1000), p_grid=GridSpec(0, 1, 1000)).validate()
        SweepConfig(p_grid=GridSpec(0, 1, 90_909)).validate()


class TestBellRegion:
    def test_full_indistinguishability_always_violates(self):
        config = SweepConfig(statistics=FERMION, target="1_minus",
                             indist_grid=GridSpec(1, 1, 1), p_grid=GridSpec(0, 1, 11))
        rows = run_sweep(config)
        assert all(row.violated for row in rows)
        assert all(row.bell == pytest.approx(2 * math.sqrt(2), abs=1e-9) for row in rows)

    def test_distinguishable_boundary(self):
        config = SweepConfig(statistics=FERMION, target="1_minus",
                             indist_grid=GridSpec(0, 0, 1), p_grid=GridSpec(0, 1, 101))
        boundary = 1 - SQRT_HALF
        for row in run_sweep(config):
            assert row.violated == int(row.p < boundary)

    def test_triplet_target_boundary_at_full_indistinguishability(self):
        config = SweepConfig(statistics=BOSON, target="1_plus",
                             indist_grid=GridSpec(1, 1, 1), p_grid=GridSpec(0, 1, 100))
        for row in run_sweep(config):
            assert row.violated == int(row.p < 4.0 / 11.0)

    def test_flagged_rows_warn(self):
        # both wave functions on L: nothing is ever detected in both regions
        config = SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(1, 1, 1),
                             p_grid=GridSpec(0, 1, 3))
        with pytest.warns(RuntimeWarning, match="detection probability"):
            rows = run_sweep(config)
        assert [(row.bell, row.violated) for row in rows] == [(0.0, 0)] * 3


class TestEncoding:
    """The exact bytes of both encoders, for both column sets."""

    RECORDS = [
        SweepRecord(0.0, 1.0, 1e-13, 1 / 3, "fermion", 0.1234567890125, 1.0, 0.0, 1 / 3,
                    2 * math.sqrt(2)),
        # B = 2 exactly is not a violation; flagged is not a column
        SweepRecord(1.0, 1 / 3, 0.0, 2 * math.sqrt(2), "boson", 1e-13, 0.1234567890125,
                    1e-13, 1.0, 2.0, flagged=True),
    ]

    def test_csv_bytes(self):
        assert records_to_csv(self.RECORDS, CSV_FIELDS) == (
            "p,l,lprime,theta,statistics,indist,concurrence,eof,p_lr,bell\n"
            "0,1,1e-13,0.333333333333,fermion,0.123456789012,1,0,0.333333333333,"
            "2.82842712475\n"
            "1,0.333333333333,0,2.82842712475,boson,1e-13,0.123456789012,1e-13,1,2\n")
        assert records_to_csv(self.RECORDS, BELL_REGION_FIELDS) == (
            "p,indist,bell,violated\n"
            "0,0.123456789012,2.82842712475,1\n"
            "1,1e-13,2,0\n")

    def test_json_bytes(self):
        assert records_to_json(self.RECORDS, CSV_FIELDS) == """{
  "records": [
    {
      "p": 0.0,
      "l": 1.0,
      "lprime": 1e-13,
      "theta": 0.333333333333,
      "statistics": "fermion",
      "indist": 0.123456789012,
      "concurrence": 1.0,
      "eof": 0.0,
      "p_lr": 0.333333333333,
      "bell": 2.82842712475
    },
    {
      "p": 1.0,
      "l": 0.333333333333,
      "lprime": 0.0,
      "theta": 2.82842712475,
      "statistics": "boson",
      "indist": 1e-13,
      "concurrence": 0.123456789012,
      "eof": 1e-13,
      "p_lr": 1.0,
      "bell": 2.0
    }
  ]
}
"""
        assert records_to_json(self.RECORDS, BELL_REGION_FIELDS) == """{
  "records": [
    {
      "p": 0.0,
      "indist": 0.123456789012,
      "bell": 2.82842712475,
      "violated": 1
    },
    {
      "p": 1.0,
      "indist": 1e-13,
      "bell": 2.0,
      "violated": 0
    }
  ]
}
"""

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    def test_no_records(self, fields):
        assert records_to_csv([], fields) == ",".join(fields) + "\n"
        assert records_to_json([], fields) == '{\n  "records": []\n}\n'


class TestThreshold:
    def test_singlet_target_threshold_window(self):
        result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"))
        assert result.found
        assert 0.75 <= result.indist <= 0.77
        assert 0.55 <= result.concurrence_at_worst <= 0.57
        assert result.bell_at_worst > 2.0
        # the minimum over noise sits at the fully noisy end on this family
        assert result.worst_p == pytest.approx(1.0, abs=1e-3)

    def test_statistics_independence(self):
        fermion = find_threshold(SweepConfig(statistics=FERMION, target="1_minus")).as_dict()
        boson = find_threshold(SweepConfig(statistics=BOSON, target="1_minus")).as_dict()
        assert (fermion.pop("statistics"), boson.pop("statistics")) == ("fermion", "boson")
        assert (fermion["indist"], fermion["l"]) == (boson["indist"], boson["l"])
        assert fermion == pytest.approx(boson, abs=1e-12)

    def test_triplet_target_has_no_all_noise_threshold(self):
        result = find_threshold(SweepConfig(statistics=FERMION, target="1_plus"))
        assert not result.found
        assert result.indist is None
        assert result.as_dict()["found"] is False

    def test_requires_family_constraint(self):
        with pytest.raises(ConfigError, match="l_eq_rprime"):
            find_threshold(SweepConfig(constraint="free", lprime=0.3,
                                       l_grid=GridSpec(0.8, 0.9, 2)))

    def test_singlet_target_threshold_regression(self):
        # the final degree bracket of the earlier search (bisection in the
        # degree, grid plus golden-section minimum over p), widened by tol
        tol = 1e-4
        result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"), tol=tol)
        assert 0.76007 - tol <= result.indist <= 0.76013 + tol
        assert result.indist == indist_on_family(result.l)

    def test_bracket_ends_straddle_the_predicate(self):
        # the reported end violates at every p; a degree tol below it does not
        tol = 1e-4
        result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"), tol=tol)
        assert WernerFamily("1_minus", SpatialWave.from_l(result.l),
                            SpatialWave.from_l(math.sqrt(1 - result.l ** 2)),
                            FERMION).worst_bell()[1][0] == result.bell_at_worst > 2.0
        l_below = float(l_for_indist(result.indist - tol))
        below = WernerFamily("1_minus", SpatialWave.from_l(l_below),
                             SpatialWave.from_l(math.sqrt(1 - l_below ** 2)), FERMION)
        assert below.worst_bell()[1][0] <= 2.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # a NaN tol would end both bisections at once: l_for_indist(0.5)
        # would read 0.853553 and the threshold search report degree 1
        with pytest.raises(ConfigError, match="tolerance"):
            l_for_indist(0.5, tol=tol)
        with pytest.raises(ConfigError, match="tolerance"):
            find_threshold(SweepConfig(statistics=FERMION, target="1_minus"), tol=tol)

    def test_zero_tolerance_stops_at_float_resolution(self):
        # the degree bracket never reaches 0: the search stops once the l
        # bracket is down to adjacent floats
        result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"), tol=0.0)
        assert 0.76007 <= result.indist <= 0.76013

    @pytest.mark.parametrize("statistics, target, found", [
        (FERMION, "1_minus", True), (BOSON, "1_minus", True),
        (FERMION, "1_plus", False), (BOSON, "1_plus", False)])
    def test_found_at_canonical_theta(self, statistics, target, found):
        with np.errstate(all="raise"):
            result = find_threshold(SweepConfig(statistics=statistics, target=target))
        assert result.found is found

    def test_sharp_dip_raises_no_floating_point_error(self):
        # boson/1_plus just below theta = pi: at full indistinguishability B
        # falls to 2 near p = 1e-11, so the search finds no threshold
        with np.errstate(all="raise"):
            result = find_threshold(SweepConfig(statistics=BOSON, target="1_plus",
                                                theta=3.14159))
        assert not result.found


class TestVerify:
    def test_all_suites_pass_within_budget(self):
        import time

        start = time.monotonic()
        report = run_verify()
        elapsed = time.monotonic() - start
        assert report.ok, "\n".join(report.summary_lines())
        assert len(report.suites) == 10
        assert all("worst" in s.detail or "boundaries" in s.detail
                   for s in report.suites)
        assert elapsed < 60.0, f"verification took {elapsed:.1f}s"

    def test_fault_injection_is_detected(self, monkeypatch):
        monkeypatch.setattr("islocc.werner.closed_form_concurrence_minus",
                            lambda *args, **kwargs: 0.123)
        report = run_verify()
        assert not report.ok
        failed = {s.name for s in report.suites if not s.passed}
        assert "closed-forms-vs-pipeline" in failed

    def test_nan_deviation_is_detected(self, monkeypatch):
        # a NaN deviation must fail the suite, not vanish into max()
        monkeypatch.setattr("islocc.werner.closed_form_concurrence_minus",
                            lambda *args, **kwargs: math.nan)
        report = run_verify()
        failed = {s.name for s in report.suites if not s.passed}
        assert failed == {"closed-forms-vs-pipeline"}

    def test_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the suites' checks must still fail
        script = ("import sys, islocc.werner\n"
                  "from islocc import cli\n"
                  "islocc.werner.closed_form_concurrence_minus = lambda *args, **kwargs: 0.123\n"
                  "sys.exit(cli.main(['verify']))\n")
        done = subprocess.run([sys.executable, "-O", "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 1, done.stdout + done.stderr
        assert "[FAIL] closed-forms-vs-pipeline" in done.stdout


class TestCli:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--statistics", "fermion", "--target", "1_minus",
                     "--constraint", "l_eq_lprime", "--l-grid", "0.8:0.8:1",
                     "--p-grid", "0:1:3", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 4

    def test_sweep_stdout_json(self, capsys):
        code = main(["sweep", "--statistics", "boson", "--target", "1_plus",
                     "--indist-grid", "1:1:1", "--p-grid", "0:1:3",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 3
        assert payload["records"][0]["statistics"] == "boson"

    def test_bell_region_csv_fields(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["bell-region", "--indist-grid", "0:1:3", "--p-grid", "0:1:3",
                     "--output", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(BELL_REGION_FIELDS)

    def test_threshold_prints_json(self, capsys):
        code = main(["threshold", "--statistics", "fermion"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True
        assert 0.75 <= payload["indist"] <= 0.77

    def test_svg_output(self, tmp_path):
        out = tmp_path / "plot.svg"
        code = main(["sweep", "--indist-grid", "0.5:1:2", "--p-grid", "0:1:5",
                     "--format", "svg", "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_svg_requires_output(self, capsys):
        code = main(["sweep", "--format", "svg"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# sweep configuration\n"
            "statistics = boson\n"
            "target = 1_plus\n"
            "constraint = l_eq_lprime\n"
            "l_grid = 0.75:0.75:1\n"
            "p_grid = 0:1:2\n")
        values = load_config_file(str(config))
        assert values["statistics"] == "boson"
        out = tmp_path / "out.csv"
        code = main(["sweep", "--config", str(config), "--statistics", "fermion",
                     "--output", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert all(row.split(",")[4] == "fermion" for row in rows)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("franken = key\n")
        assert main(["sweep", "--config", str(config)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/file.conf"]) == 2

    @pytest.mark.parametrize("command", ["sweep", "bell-region", "threshold"])
    def test_unwritable_output_exits_2(self, command, tmp_path, capsys, monkeypatch):
        calls = []
        for runner in ("run_sweep", "find_threshold"):
            monkeypatch.setattr(f"islocc.cli.{runner}",
                                lambda *args, name=runner: calls.append(name))
        out = tmp_path / "missing" / "out.txt"
        assert main([command, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "cannot write output file" in captured.err and "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert calls == []

    def test_threshold_output_goes_to_file_only(self, tmp_path, capsys):
        out = tmp_path / "threshold.json"
        assert main(["threshold", "--statistics", "fermion", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["found"] is True

    @pytest.mark.parametrize("flag", [["--p-grid", "0:1:3"], ["--indist-grid", "0:1:3"],
                                      ["--l-grid", "0:1:3"], ["--format", "svg"]])
    def test_threshold_rejects_grid_and_format_flags(self, flag, capsys, monkeypatch):
        monkeypatch.setattr("islocc.cli.find_threshold", lambda *args: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            main(["threshold", *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_threshold_ignores_unused_config_keys(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("statistics = fermion\np_grid = 0:1:3\nindist_grid = 0:1:3\n"
                          "format = svg\n")
        assert main(["threshold", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["found"] is True

    def test_oversized_sweep_exits_2(self, capsys, monkeypatch):
        def no_grid(self):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(GridSpec, "values", no_grid)
        monkeypatch.setattr("islocc.cli.run_sweep", lambda *args: pytest.fail("ran"))
        assert main(["sweep", "--indist-grid", "0:1:100000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "1000000 rows" in captured.err and captured.out == ""

    def test_bad_grid_flag_exits_2(self, capsys):
        assert main(["sweep", "--p-grid", "zero:one:ten"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--constraint", "l_eq_lprime", "--l-grid", "nan:nan:1"],
        ["--p-grid", "0:nan:3"],
        ["--theta", "nan"],
        ["--theta", "inf"],
        ["--constraint", "free", "--l-grid", "0.2:0.8:3", "--lprime", "nan"],
        ["--constraint", "free", "--l-grid", "0.2:0.8:3", "--lprime", "2"],
    ])
    def test_non_finite_input_exits_2(self, flags, capsys):
        assert main(["sweep", *flags]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_non_finite_config_file_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "nan.conf"
        config.write_text("theta = nan\n")
        assert main(["sweep", "--config", str(config)]) == 2
        assert "theta must be finite" in capsys.readouterr().err

    def test_zero_global_trace_row_is_flagged(self, tmp_path):
        # psi1 = psi2: the fermionic triplet-type target has zero norm, so
        # the p = 0 mixture is empty; noisier rows are well defined
        flags = ["--statistics", "fermion", "--target", "1_plus", "--theta", "0",
                 "--constraint", "l_eq_lprime", "--l-grid", "0.5:0.5:1", "--p-grid", "0:1:3"]
        out = tmp_path / "sweep.csv"
        with pytest.warns(RuntimeWarning, match="1 grid point"):
            assert main(["sweep", *flags, "--output", str(out)]) == 0
        rows = [dict(zip(CSV_FIELDS, line.split(",")))
                for line in out.read_text().splitlines()[1:]]
        assert [float(r["p"]) for r in rows] == [0.0, 0.5, 1.0]
        assert all(float(rows[0][name]) == 0.0 for name in ("concurrence", "p_lr", "bell"))
        assert all(math.isfinite(float(r[name])) and float(r["p_lr"]) > 0
                   for r in rows[1:] for name in ("concurrence", "eof", "bell"))
        config = SweepConfig(statistics=FERMION, target="1_plus", theta=0.0,
                             constraint="l_eq_lprime", l_grid=GridSpec(0.5, 0.5, 1),
                             p_grid=GridSpec(0, 1, 3))
        with pytest.warns(RuntimeWarning):
            records = run_sweep(config)
        assert [r.flagged for r in records] == [True, False, False]

    def test_unwritable_existing_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # permission bits do not stop root, so the access check is what decides
        monkeypatch.setattr("islocc.cli.os.access", lambda path, mode: False)
        monkeypatch.setattr("islocc.cli.run_sweep", lambda *args: pytest.fail("ran"))
        assert main(["sweep", "--output", str(tmp_path / "out.csv")]) == 2
        captured = capsys.readouterr()
        assert "is not writable" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, flag, value, code", [
        (["sweep"], "--theta", "-1e-07", 0),
        (["sweep"], "--theta", "-2.9e-112", 0),
        (["sweep"], "--theta", "-3E+0", 0),
        (["sweep"], "--theta", "-inf", 2),
        (["sweep", "--constraint", "free"], "--lprime", "-0e0", 0),
        (["sweep", "--constraint", "free"], "--lprime", "-1e-07", 2),
        (["threshold"], "--theta", "-1e-07", 0),
    ])
    def test_negative_exponent_value_after_a_bare_flag(self, capsys, command, flag, value, code):
        # argparse alone reads "-1e-07" after a bare flag as an unknown option
        grid = ["--l-grid", "0.2:0.8:3", "--p-grid", "0:1:3"] if command[0] == "sweep" else []
        separate = (main([*command, *grid, flag, value]), capsys.readouterr())
        attached = (main([*command, *grid, f"{flag}={value}"]), capsys.readouterr())
        assert separate == attached
        assert separate[0] == code and "Traceback" not in separate[1].err

    @pytest.mark.parametrize("seed, code", [("-1", 2), ("1", 0)])
    def test_verify_seed(self, seed, code, capsys):
        assert main(["verify", "--seed", seed]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err == "config error: verification seed must be non-negative, " \
                                   "got -1\n"
            assert captured.out == ""
        else:
            assert captured.out.splitlines()[-1] == "10/10 suites passed"

    def test_verify_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr("islocc.werner.closed_form_concurrence_plus",
                            lambda *args, **kwargs: -1.0)
        code = main(["verify"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] closed-forms-vs-pipeline" in out


def _near(*centres: float, spread: float = 1e-6):
    """Floats at, or within ``spread`` of, each centre."""
    return st.one_of(st.sampled_from(centres), *(
        st.floats(c - spread, c + spread, allow_nan=False) for c in centres))


_unit = st.floats(0.0, 1.0, allow_nan=False)
_shapes = st.one_of(_near(SQRT_HALF, 0.7071, 0.0, 1.0), _unit).map(lambda x: min(max(x, 0.0), 1.0))
_phases = st.one_of(_near(0.0, math.pi, 2 * math.pi), st.floats(0.0, 2 * math.pi))


class TestCliExitRule:
    """Every input ends in a finite result (exit 0) or a configuration error
    (exit 2), never in a traceback."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(statistics=st.sampled_from(["boson", "fermion"]),
           target=st.sampled_from(["1_minus", "1_plus"]),
           theta=_phases,
           constraint=st.sampled_from(["l_eq_rprime", "l_eq_lprime", "free"]),
           ls=st.lists(_shapes, min_size=1, max_size=2),
           lprime=st.one_of(st.none(), _shapes),
           p_grid=st.sampled_from(["0:1:2", "0:1:3", "0:1:6", "0:0:1", "1:1:1"]))
    @example(statistics="boson", target="1_minus", theta=0.0, constraint="l_eq_rprime",
             ls=[0.7071], lprime=None, p_grid="0:1:3")
    def test_sweep_exits_0_or_2_with_finite_rows(self, statistics, target, theta, constraint,
                                                  ls, lprime, p_grid):
        # numbers as separate tokens, negative ones in exponent form included
        # (theta = -2.9e-112); a grid that starts with "-" still needs "="
        argv = ["sweep", "--statistics", statistics, "--target", target,
                "--theta", repr(theta), "--constraint", constraint,
                f"--l-grid={min(ls)!r}:{max(ls)!r}:{len(ls)}", "--p-grid", p_grid]
        if lprime is not None:
            argv += ["--lprime", repr(lprime)]
        out, err = io.StringIO(), io.StringIO()
        # underflow (numpy's default: ignore) only rounds a subnormal input
        # such as theta = 5e-324 toward zero and cannot make a value non-finite
        with np.errstate(all="raise", under="ignore"), warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)  # flagged rows
            code = main(argv)
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        assert code == 2 or (constraint == "free") == (lprime is not None)
        if code == 2:
            assert err.getvalue().startswith("config error:") and out.getvalue() == ""
            return
        lines = out.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        for line in lines[1:]:
            row = dict(zip(CSV_FIELDS, line.split(",")))
            values = {name: float(v) for name, v in row.items() if name != "statistics"}
            assert all(math.isfinite(v) for v in values.values()), line
            assert 0.0 <= values["p_lr"] <= 1.0, line
            assert 0.0 <= values["concurrence"] <= 1.0, line
