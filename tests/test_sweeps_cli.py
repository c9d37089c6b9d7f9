import contextlib
import dataclasses
import errno
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import islocc
from islocc import cli, sweeps
from islocc.amplitudes import BOSON, FERMION
from islocc.cli import load_config_file, main
from islocc.entanglement import binary_entropy
from islocc.indistinguishability import degree_two
from islocc.states import UP, SpatialWave, make_peaked
from islocc.svg import bell_region_svg, sweep_svg
from islocc.sweeps import (BELL_REGION_FIELDS, CONSTRAINTS, CSV_FIELDS, FORMATS,
                           MAX_SWEEP_ROWS, ROW_DTYPE, TARGETS, ConfigError, GridSpec,
                           SweepConfig, ThresholdResult, _flagged, _peaked_degree,
                           find_threshold, indist_on_family, l_for_indist, records_to_csv,
                           records_to_json, run_sweep, sweep_text)
from islocc.verify import run_verify
from islocc.werner import LR_BASIS
from islocc.xstate import WernerFamily, _unit_r, canonical_theta
from test_golden import THRESHOLD_THETAS

SQRT_HALF = 1.0 / math.sqrt(2.0)


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports this checkout's islocc."""
    src = str(Path(islocc.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


#: The grid-map and l-scan benchmark configurations; l-scan's grid ends put
#: both waves on one mode.
BENCHMARK_CONFIGS = pytest.mark.parametrize("config", [
    SweepConfig(statistics=FERMION, target="1_minus", indist_grid=GridSpec(0, 1, 41),
                p_grid=GridSpec(0, 1, 41)),
    SweepConfig(statistics=BOSON, target="1_plus", theta=1.0, constraint="l_eq_lprime",
                l_grid=GridSpec(0, 1, 801), p_grid=GridSpec(0.5, 0.5, 1)),
], ids=["grid-map", "l-scan"])


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

    @pytest.mark.parametrize("steps", [2.5, "3", True, False, None, np.int64(3)])
    def test_steps_must_be_an_int(self, steps):
        with pytest.raises(ConfigError, match="grid steps must be an int"):
            GridSpec(0, 1, steps)

    @pytest.mark.parametrize("bound", ["0", b"0", True, None, 1j, [0.5],
                                       pytest.param(10**400, id="beyond-float")])
    def test_bounds_must_be_real(self, bound):
        with pytest.raises(ConfigError, match="grid start must be finite and real"):
            GridSpec(bound, 1, 3)

    def test_bounds_are_stored_as_floats(self):
        grid = GridSpec(Fraction(1, 3), np.float32(1.0), 3)
        assert type(grid.start) is float and type(grid.stop) is float
        assert grid.values().tolist() == GridSpec(1 / 3, 1.0, 3).values().tolist()


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

    @pytest.mark.parametrize("l", [-0.3, 1.5, math.nan, math.inf, -math.inf])
    def test_family_rejects_l_outside_unit_interval(self, l):
        with pytest.raises(ConfigError, match="l must be finite"):
            indist_on_family(l)
        with pytest.raises(ConfigError, match="l must be finite"):
            indist_on_family(np.array([0.8, l]))

    def test_closed_form_matches_degree_two(self, rng):
        for _ in range(200):
            l, lp = rng.uniform(0, 1, size=2)
            theta = rng.uniform(0, 2 * math.pi)
            psi1, psi2 = SpatialWave.from_l(l), SpatialWave.from_l(lp, theta)
            expected = degree_two(make_peaked(psi1, UP, LR_BASIS),
                                  make_peaked(psi2, UP, LR_BASIS)).entropy
            assert abs(_peaked_degree(psi1.l, psi1.r, psi2.l, psi2.r) - expected) <= 1e-12

    @pytest.mark.parametrize("l", [0.0, 1.0])
    def test_both_waves_on_one_region_raise(self, l):
        psi = make_peaked(SpatialWave.from_l(l), UP, LR_BASIS)
        with pytest.raises(ValueError, match="undefined"):
            degree_two(psi, psi)

    def test_array_degree_matches_scalar(self, rng):
        # the last two pairs put both waves on R, then both on L
        l1 = np.append(rng.uniform(0, 1, 30), [0.0, 1.0])
        l2 = np.append(rng.uniform(0, 1, 30), [0.0, 1.0])
        r1, r2 = np.sqrt(1 - l1 * l1), np.sqrt(1 - l2 * l2)
        degrees = _peaked_degree(l1, r1, l2, r2)  # undefined degrees read 0
        assert degrees[-2:].tolist() == [0.0, 0.0]
        for k in range(30):
            assert degrees[k] == _peaked_degree(float(l1[k]), float(r1[k]),
                                                float(l2[k]), float(r2[k]))

    def test_sweep_indist_column_is_the_family_degree(self):
        # the r' = l family has one degree: indist_on_family's (l, r, r, l)
        config = SweepConfig(indist_grid=GridSpec(0, 1, 301), p_grid=GridSpec(0, 0, 1))
        records = run_sweep(config)
        ls = np.array([r.l for r in records])
        assert [r.indist for r in records] == indist_on_family(ls).tolist()

    def test_array_inversion_matches_scalar(self):
        targets = np.linspace(0.0, 1.0, 41)
        ls = l_for_indist(targets)
        assert ls.tolist() == [l_for_indist(float(t)) for t in targets]

    @staticmethod
    def reference_l_for_indist(target) -> np.ndarray:
        """The bisection of :func:`l_for_indist` with every step through the checked
        ``_peaked_degree(l, r, r, l)``: the sequential reference it must match."""
        target = np.asarray(target, dtype=float)
        lo, hi = np.full(target.shape, SQRT_HALF), np.ones(target.shape)
        active = (hi - lo > sweeps._L_TOL) & (0.0 < target) & (target < 1.0)
        while active.any():
            mid = 0.5 * (lo + hi)
            active &= (lo < mid) & (mid < hi)
            r = _unit_r(mid)
            above = active & (_peaked_degree(mid, r, r, mid) > target)
            np.copyto(lo, mid, where=above)
            np.copyto(hi, mid, where=active & ~above)
            active &= hi - lo > sweeps._L_TOL
        return np.where(target >= 1.0, SQRT_HALF, np.where(target <= 0.0, 1.0, 0.5 * (lo + hi)))

    #: Degrees within 1e-12 of 0 and of 1, where the degree is flat or steep in l.
    NEAR_ENDS = np.concatenate([np.geomspace(1e-300, 1e-12, 40),
                                1.0 - np.geomspace(1.2e-16, 1e-12, 40)])

    @pytest.mark.parametrize("targets", [
        np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 301), np.linspace(0.0, 1.0, 1_000),
        np.random.default_rng(7).uniform(0.0, 1.0, 20_000),
        np.array([1e-300, 5e-324, 1 - 1e-16, 0.9999999999999999]), NEAR_ENDS],
        ids=["41", "301", "1000", "uniform", "edges", "near-ends"])
    def test_inversion_matches_reference_bits(self, targets):
        ls = l_for_indist(targets)
        assert np.array_equal(ls.view(np.int64),
                              self.reference_l_for_indist(targets).view(np.int64))
        # the unchecked family degree is the checked one at every l it returns
        r = _unit_r(ls)
        assert np.array_equal(indist_on_family(ls).view(np.int64),
                              _peaked_degree(ls, r, r, ls).view(np.int64))

    @pytest.mark.parametrize("targets", [np.linspace(0.0, 1.0, 41), NEAR_ENDS,
                                         np.random.default_rng(8).uniform(0.0, 1.0, 500)],
                             ids=["41", "near-ends", "uniform"])
    def test_wrong_guess_falls_back_to_the_bisection(self, targets, monkeypatch):
        # a guess 1e-9 off puts every walk's last bracket, 5e-13 wide, away from the
        # root: some step's degree test disagrees, so every interior target is
        # bisected again, to the same bits
        guess, bisected = sweeps._root_guess, []
        monkeypatch.setattr(sweeps, "_root_guess", lambda t: guess(t) + 1e-9)
        monkeypatch.setattr(sweeps, "_bisect",
                            lambda t, bisect=sweeps._bisect: bisected.extend(t) or bisect(t))
        ls = l_for_indist(targets)
        assert sorted(bisected) == sorted(t for t in targets if 0.0 < t < 1.0)
        assert np.array_equal(ls.view(np.int64),
                              self.reference_l_for_indist(targets).view(np.int64))

    #: Brackets after 20 halvings are 2^-20 (1 - 1/sqrt(2)) wide, but for rounding of
    #: about 1e-10 either way: at a tolerance just below that width some targets stop a
    #: halving early, just above it some stop late.  1e-17 and 0 stop at adjacent
    #: floats, 0.5 before the first halving.
    W20 = (1.0 - SQRT_HALF) / 2 ** 20

    @pytest.mark.parametrize("tol", [W20 * (1.0 - 1e-12), W20, W20 * (1.0 + 1e-12),
                                     1e-3, 0.5, 1e-17, 0.0])
    def test_walk_keeps_the_bisection_stops(self, tol, monkeypatch):
        monkeypatch.setattr(sweeps, "_L_TOL", tol)
        targets = np.random.default_rng(9).uniform(0.0, 1.0, 300)
        assert np.array_equal(l_for_indist(targets).view(np.int64),
                              self.reference_l_for_indist(targets).view(np.int64))

    def test_guess_is_close(self):
        # the closed form lands within 1e-12 of the bisection's l, so the walk
        # agrees with the bisection at all but the last few steps
        targets = np.linspace(0.01, 0.99, 99)
        assert np.abs(sweeps._root_guess(targets) - l_for_indist(targets)).max() < 1e-12

    def test_non_positive_tolerance_stops_at_adjacent_floats(self):
        # a bracket of two adjacent floats is never narrower than _L_TOL <= 0;
        # the inversion runs in a child process, so a hang fails the test
        script = ("from islocc import sweeps\n"
                  "for tol in (0.0, -1.0):\n"
                  "    sweeps._L_TOL = tol\n"
                  "    print(repr(float(sweeps.l_for_indist(0.5))))\n")
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

    @BENCHMARK_CONFIGS
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
            SweepConfig(indist_grid=GridSpec(0, 1, 3), l_grid=GridSpec(0, 1, 3))
        with pytest.raises(ConfigError, match="l_eq_rprime"):
            SweepConfig(constraint="l_eq_lprime", indist_grid=GridSpec(0, 1, 3))
        with pytest.raises(ConfigError, match="lprime"):
            SweepConfig(constraint="free", l_grid=GridSpec(0, 1, 3))
        with pytest.raises(ConfigError, match="constraint"):
            SweepConfig(constraint="bogus")
        with pytest.raises(ConfigError, match="target"):
            SweepConfig(target="bell")
        with pytest.raises(ConfigError, match="theta"):
            SweepConfig(theta=math.nan)
        with pytest.raises(ConfigError, match="lprime"):
            SweepConfig(constraint="free", lprime=math.inf, l_grid=GridSpec(0, 1, 3))
        with pytest.raises(ConfigError, match="'l_eq_lprime' needs an explicit l_grid"):
            SweepConfig(constraint="l_eq_lprime")
        with pytest.raises(ConfigError, match="'free' needs an explicit l_grid"):
            SweepConfig(constraint="free", lprime=0.3)

    @pytest.mark.parametrize("fields, match", [
        (dict(statistics="boson"), "statistics must be a ParticleStatistics"),
        (dict(statistics=-1), "statistics must be a ParticleStatistics"),
        (dict(p_grid="0:1:3"), "grids must be GridSpecs"),
        (dict(p_grid=None), "grids must be GridSpecs"),
        (dict(indist_grid=(0, 1, 3)), "grids must be GridSpecs"),
        (dict(constraint="l_eq_lprime", l_grid="0:1:3"), "grids must be GridSpecs"),
        (dict(target=np.array(["1_minus", "1_plus"])), "target must be"),
        (dict(constraint=np.array(["free", "free"])), "constraint must be"),
        (dict(format=np.array(["csv", "svg"])), "format must be"),
        (dict(theta="1.0"), "theta must be finite and real"),
        (dict(theta=True), "theta must be finite and real"),
        (dict(theta=10**400), "theta must be finite and real"),
        (dict(constraint="free", lprime="0.5", l_grid=GridSpec(0, 1, 3)),
         "lprime must be finite and real"),
    ])
    def test_config_types(self, fields, match):
        with pytest.raises(ConfigError, match=match):
            SweepConfig(**fields)

    @pytest.mark.parametrize("build, match", [
        (lambda: SweepConfig(theta=10**5000), "theta must be finite and real"),
        (lambda: GridSpec(0, 10**5000, 3), "grid stop must be finite and real"),
        (lambda: GridSpec(0, 1, -10**5000), "grid needs at least one point"),
        (lambda: SweepConfig(p_grid=GridSpec(0, 1, 10**5000)), "exceeds the limit"),
        (lambda: SweepConfig(statistics=10**5000), "statistics must be"),
        (lambda: SweepConfig(p_grid=GridSpec(0, 1, 10**5000), l_grid=[0.5]),
         "grids must be GridSpecs"),
    ], ids=["theta", "grid-stop", "grid-steps", "row-cap", "statistics", "grids"])
    def test_int_too_long_to_write_is_a_config_error(self, build, match):
        # repr of an int past 4,300 digits raises ValueError, so the message
        # cannot quote the value as given
        with pytest.raises(ConfigError, match=match):
            build()

    def test_config_numbers_are_stored_as_floats(self):
        config = SweepConfig(theta=Fraction(1, 3), constraint="free", lprime=np.float32(0.5),
                             l_grid=GridSpec(0, 1, 3))
        assert type(config.theta) is float and type(config.lprime) is float
        assert config.resolved_theta() == 1 / 3 and config.lprime == 0.5

    def test_config_is_frozen(self):
        config = SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(0, 1, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.l_grid = None  # would break the l_grid rule checked when built
        assert config.l_grid == GridSpec(0, 1, 3)

    def test_sweep_size_cap(self, monkeypatch):
        def no_grid(self):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(GridSpec, "values", no_grid)
        assert MAX_SWEEP_ROWS == 1_000_000
        for fields in (dict(indist_grid=GridSpec(0, 1, 100_000_000_000)),
                       dict(indist_grid=GridSpec(0, 1, 1000), p_grid=GridSpec(0, 1, 1001)),
                       dict(p_grid=GridSpec(0, 1, 90_910)),  # default 11 x p
                       dict(constraint="l_eq_lprime", l_grid=GridSpec(0, 1, 2),
                            p_grid=GridSpec(0, 1, 500_001))):
            with pytest.raises(ConfigError, match="exceeds the limit of 1000000 rows"):
                SweepConfig(**fields)
        SweepConfig(indist_grid=GridSpec(0, 1, 1000), p_grid=GridSpec(0, 1, 1000))
        SweepConfig(p_grid=GridSpec(0, 1, 90_909))


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


class TestRowTable:
    """``run_sweep`` returns one ``ROW_DTYPE`` table, and every encoder takes
    it, a list of its rows or the rows of several sweeps alike."""

    @BENCHMARK_CONFIGS
    def test_columns_match_the_family_rows(self, config):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # l-scan's flagged rows
            table = run_sweep(config)
        assert isinstance(table, np.recarray) and table.dtype == ROW_DTYPE
        steps = config.p_grid.steps
        family = WernerFamily(config.target, table.l[::steps], table.lprime[::steps],
                              config.statistics, config.resolved_theta())
        rows = family.evaluate(config.p_grid.values())
        assert table.violated.tolist() == (table.bell > 2.0).tolist()
        assert table.flagged.tolist() == _flagged(rows).tolist()
        assert table.concurrence.tolist() == rows.concurrence.tolist()

    def test_table_and_row_lists_encode_alike(self):
        first = run_sweep(TestSvg.SMALL)
        second = run_sweep(SweepConfig(statistics=FERMION, constraint="l_eq_lprime",
                                       l_grid=GridSpec(0.7, 0.9, 2), p_grid=GridSpec(0, 1, 3)))
        renderers = [functools.partial(encode, fields=fields)
                     for encode in (records_to_csv, records_to_json)
                     for fields in (CSV_FIELDS, BELL_REGION_FIELDS)] + [sweep_svg, bell_region_svg]
        for render in renderers:
            assert render(first) == render(list(first))
            assert render([*first, *second]) == render(np.concatenate([first, second]))


@st.composite
def _sweep_configs(draw):
    """Valid sweep configurations: every constraint, l and degree grids, set and
    canonical phases, one-point grids, and l grids through the ends, where the
    l_eq_lprime family flags rows."""
    constraint = draw(st.sampled_from(CONSTRAINTS))
    grid = st.builds(lambda ends, steps: GridSpec(min(ends), max(ends), steps if
                                                  min(ends) < max(ends) else 1),
                     st.lists(st.sampled_from([0.0, 0.3, SQRT_HALF, 0.8, 1.0]) | _shapes,
                              min_size=2, max_size=2),
                     st.sampled_from([1, 2, 5, 13]))
    fields = dict(statistics=draw(st.sampled_from([BOSON, FERMION])),
                  target=draw(st.sampled_from(TARGETS)),
                  theta=draw(st.one_of(st.none(), _phases)), constraint=constraint,
                  p_grid=draw(grid))
    if constraint != "l_eq_rprime" or draw(st.booleans()):
        fields["l_grid"] = draw(grid)
    elif draw(st.booleans()):
        fields["indist_grid"] = draw(grid)
    if constraint == "free":
        fields["lprime"] = draw(st.sampled_from([0.0, 0.3, 1.0]) | _shapes)
    return SweepConfig(**fields)


class TestLayout:
    """The CLI writes a sweep's CSV and JSON from its family x noise layout
    (:func:`sweep_text`), with no flat table: byte for byte the encoders' text of
    the table :func:`run_sweep` returns."""

    @staticmethod
    def flat_texts(config: SweepConfig, fields) -> tuple[str, str]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # flagged rows
            table = run_sweep(config)
        return records_to_csv(table, fields), records_to_json(table, fields)

    @staticmethod
    def layout_texts(config: SweepConfig, fields) -> tuple[str, str]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return tuple(sweep_text(dataclasses.replace(config, format=fmt), fields)
                         for fmt in ("csv", "json"))

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(config=_sweep_configs())
    @example(config=SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(0, 1, 41),
                                p_grid=GridSpec(0, 1, 41)))
    @example(config=SweepConfig(constraint="free", lprime=0.3, l_grid=GridSpec(0, 1, 41),
                                p_grid=GridSpec(0, 1, 41)))
    @example(config=SweepConfig(indist_grid=GridSpec(0.5, 0.5, 1), p_grid=GridSpec(1, 1, 1)))
    def test_layout_writes_the_flat_table_bytes(self, config):
        for fields in (CSV_FIELDS, BELL_REGION_FIELDS):
            assert self.layout_texts(config, fields) == self.flat_texts(config, fields)

    @BENCHMARK_CONFIGS
    def test_benchmark_sweeps(self, config):
        for fields in (CSV_FIELDS, BELL_REGION_FIELDS):
            assert self.layout_texts(config, fields) == self.flat_texts(config, fields)

    @pytest.mark.parametrize("rows", [1, 7, 41, 1_000])
    def test_blocks_split_families(self, rows, monkeypatch):
        # blocks of rows that end inside a family, or hold several
        config = SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(0, 1, 31),
                             p_grid=GridSpec(0, 1, 41))
        expected = {fields: self.flat_texts(config, fields)
                    for fields in (CSV_FIELDS, BELL_REGION_FIELDS)}
        monkeypatch.setattr(sweeps, "_BLOCK_ROWS", rows)
        for fields, texts in expected.items():
            assert self.layout_texts(config, fields) == texts

    @pytest.mark.parametrize("command, fields", [("sweep", CSV_FIELDS),
                                                 ("bell-region", BELL_REGION_FIELDS)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_builds_no_flat_table(self, command, fields, fmt, capsys, monkeypatch):
        config = SweepConfig(statistics=BOSON, target="1_plus", theta=1.0,
                             constraint="l_eq_lprime", l_grid=GridSpec(0, 1, 9),
                             p_grid=GridSpec(0, 1, 5), format=fmt)
        expected = self.flat_texts(config, fields)[fmt == "json"]
        for name in ("run_sweep", "records_to_csv", "records_to_json"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail(f"{name} ran"))
        with pytest.warns(RuntimeWarning, match="10 grid point"):  # l = 0 and l = 1
            assert main([command, "--statistics", "boson", "--target", "1_plus", "--theta", "1",
                         "--constraint", "l_eq_lprime", "--l-grid", "0:1:9",
                         "--p-grid", "0:1:5", "--format", fmt]) == 0
        assert capsys.readouterr().out == expected

    def test_flagged_row_warning_names_the_caller(self):
        config = SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(1, 1, 1),
                             p_grid=GridSpec(0, 1, 3))
        with pytest.warns(RuntimeWarning, match="3 grid point") as caught:
            sweep_text(config, CSV_FIELDS)
        assert [w.filename for w in caught] == [__file__]

    def test_unwritten_field_is_a_value_error(self):
        with pytest.raises(ValueError, match="no encoder writes a field 'flagged'"):
            sweep_text(SweepConfig(), ("p", "flagged"))


class TestEncoding:
    """The exact bytes of both encoders, for both column sets."""

    RECORDS = np.rec.fromrecords([
        (0.0, 1.0, 1e-13, 1 / 3, "fermion", 0.1234567890125, 1.0, 0.0, 1 / 3,
         2 * math.sqrt(2), 1, False),
        # B = 2 exactly is not a violation; flagged is not a column
        (1.0, 1 / 3, 0.0, 2 * math.sqrt(2), "boson", 1e-13, 0.1234567890125,
         1e-13, 1.0, 2.0, 0, True),
    ], dtype=ROW_DTYPE)

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

    @pytest.mark.parametrize("fields", [("p", "flagged"), ("flagged",), ("p", "nope"),
                                        ("P",), ("p", "")])
    @pytest.mark.parametrize("encode", [records_to_csv, records_to_json])
    def test_unwritten_field_is_one_value_error(self, encode, fields):
        # the same error from both encoders, raised before an empty table's text
        for rows in (self.RECORDS, []):
            with pytest.raises(ValueError, match=f"field {fields[-1]!r}"):
                encode(rows, fields)


def _reference_encoding(rows, fields) -> tuple[str, str]:
    """CSV and JSON written cell by cell: each cell formatted to text by its
    column's dtype kind and, for JSON, parsed back and written by
    ``json.dumps``.  The reference the encoders must match byte for byte."""
    rules = {"U": (str, str), "i": (str, int), "f": ("{:.12g}".format, float)}
    table = np.asarray(rows, dtype=ROW_DTYPE)
    cells, values = [], []
    for name in fields:
        write, read = rules[table.dtype[name].kind]
        cells.append(list(map(write, table[name].tolist())))
        values.append(list(map(read, cells[-1])))
    csv_text = "\n".join([",".join(fields), *map(",".join, zip(*cells))]) + "\n"
    payload = [dict(zip(fields, row)) for row in zip(*values)]
    return csv_text, json.dumps({"records": payload}, indent=2) + "\n"


class TestEncodingReference:
    """The encoders against :func:`_reference_encoding`, byte for byte."""

    #: Floats where the 12-digit CSV cell and the ``repr`` JSON writes for the
    #: value it reads back differ in form: %.12g turns to exponent form at
    #: 1e12 and ``repr`` only at 1e16; subnormals, signed zeros, integer values
    #: and the floats that are not JSON numbers.
    FLOATS = [1e12, 1.5e13, 9.99e15, 1e16, 123456789012.0, 1234567890123.0, 5e-324, -5e-324,
              1e-300, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.0, 1.0, -2.0,
              3.0, 100.0, 0.1, 1 / 3, 2 * math.sqrt(2), 1e-5, 0.000123456789012345, 1e22,
              math.nan, math.inf, -math.inf,
              # 1e11 and its neighbours, and values just below it that 12
              # digits round up to it
              1e11, math.nextafter(1e11, 0.0), math.nextafter(1e11, math.inf),
              99999999999.5, 99999999999.99999,
              # near-integers: the first and last round to an integer at 12
              # digits, the middle one does not
              0.9999999999995, 0.99999999999949, 2.9999999999996,
              # %g picks its form after rounding: the first is written 0.0001
              9.99999999999e-5, 0.0001,
              # subnormals: the smallest normal's predecessor and 1e-310
              math.nextafter(2.2250738585072014e-308, 0.0), 1e-310]
    #: Text that ``json`` escapes, and text that looks like a ``%`` format.
    TEXTS = ["fermion", "boson", "", "é\"\\\n\t", "%s%d", "%", "\x01"]
    INTS = [0, 1, -1, 2**62, -2**63]

    @classmethod
    def edges(cls) -> np.recarray:
        """A ``ROW_DTYPE`` table whose float columns are each a rotation of ``FLOATS``."""
        n = len(cls.FLOATS)
        table = np.recarray(n, dtype=ROW_DTYPE)
        floats = [name for name in ROW_DTYPE.names if ROW_DTYPE[name].kind == "f"]
        for shift, name in enumerate(floats):
            table[name] = np.roll(cls.FLOATS, shift)
        table.statistics = [cls.TEXTS[k % len(cls.TEXTS)] for k in range(n)]
        table.violated = [cls.INTS[k % len(cls.INTS)] for k in range(n)]
        table.flagged = np.arange(n) % 2 == 0
        return table

    @staticmethod
    def assert_matches_reference(rows, fields):
        encoded = records_to_csv(rows, fields), records_to_json(rows, fields)
        for text, reference in zip(encoded, _reference_encoding(rows, fields)):
            # line by line, so that a failure names one line and no diff of
            # the whole text is built
            lines, reference_lines = (t.splitlines(keepends=True) for t in (text, reference))
            for number, (line, reference_line) in enumerate(zip(lines, reference_lines)):
                assert line == reference_line, f"line {number}"
            assert len(lines) == len(reference_lines)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    @BENCHMARK_CONFIGS
    def test_benchmark_tables(self, config, fields):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # l-scan's flagged rows
            self.assert_matches_reference(run_sweep(config), fields)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    def test_concatenated_rows(self, fields):
        first = run_sweep(TestSvg.SMALL)
        rows = [*first, *self.edges(), *first[::-1]]
        self.assert_matches_reference(rows, fields)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    def test_empty_table(self, fields):
        self.assert_matches_reference(np.recarray(0, dtype=ROW_DTYPE), fields)
        self.assert_matches_reference([], fields)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    def test_edge_cells(self, fields):
        table = self.edges()
        csv_text, json_text = _reference_encoding(table, fields)
        # the two forms of one cell differ, as the edges were chosen to make them
        assert "\n1e+12," in csv_text and '"p": 1000000000000.0,' in json_text
        assert '"p": NaN,' in json_text and '"p": -Infinity,' in json_text
        self.assert_matches_reference(table, fields)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    def test_tiled_edge_cells(self, fields):
        # each edge value three times in every float column
        self.assert_matches_reference(np.tile(self.edges(), 3), fields)

    #: Odd floats a repeated column mixes: both zeros, NaNs with different
    #: payloads and signs (quiet and signalling), both infinities, subnormals,
    #: near-integers and huge values.
    REPEATED = np.concatenate([
        [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
         math.nextafter(2.2250738585072014e-308, 0.0), 1.0, -2.0, 0.9999999999995,
         2.9999999999996, 99999999999.5, 1e12, 1e16, 1 / 3],
        np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                  0x7FF0000000000001, 0xFFF4000000000123], dtype=np.uint64).view(np.float64)])

    @classmethod
    def repeated_odd(cls, rng, n: int) -> np.recarray:
        """A table of ``n`` rows whose float columns draw from ``REPEATED``."""
        table = np.recarray(n, dtype=ROW_DTYPE)
        for name in ROW_DTYPE.names:
            if ROW_DTYPE[name].kind == "f":
                table[name] = cls.REPEATED[rng.integers(len(cls.REPEATED), size=len(table))]
        table.statistics = rng.choice(cls.TEXTS, size=len(table))
        table.violated = rng.choice(cls.INTS, size=len(table))
        return table

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    def test_repeated_odd_cells(self, fields, rng):
        self.assert_matches_reference(self.repeated_odd(rng, 3_000), fields)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    @pytest.mark.parametrize("extra", [0, 1], ids=["half", "half+1"])
    def test_half_distinct_columns(self, fields, extra, rng):
        """Columns of n rows with n/2 and n/2 + 1 distinct bit patterns match the
        reference."""
        table = np.recarray(2 * 18, dtype=ROW_DTYPE)
        patterns = np.unique(np.array(self.FLOATS).view(np.uint64)).view(np.float64)
        floats = [name for name in ROW_DTYPE.names if ROW_DTYPE[name].kind == "f"]
        for shift, name in enumerate(floats):
            distinct = np.roll(patterns, 4 * shift)[:len(table) // 2 + extra]
            table[name] = rng.permutation(np.resize(distinct, len(table)))
        table.statistics = "boson"
        table.violated = 1
        self.assert_matches_reference(table, fields)

    @classmethod
    def random_bits(cls, rng, n: int) -> np.recarray:
        """A table of ``n`` rows whose floats and ints are raw 64-bit patterns."""
        table = np.recarray(n, dtype=ROW_DTYPE)
        for name in ROW_DTYPE.names:
            if ROW_DTYPE[name].kind == "f":
                table[name] = rng.integers(0, 2**64, size=len(table), dtype=np.uint64,
                                           endpoint=False).view(np.float64)
        table.statistics = rng.choice(cls.TEXTS, size=len(table))
        table.violated = rng.integers(-2**63, 2**63, size=len(table), dtype=np.int64,
                                      endpoint=False)
        return table

    def test_random_bit_patterns(self, rng):
        """Doubles drawn as raw 64-bit patterns cover every exponent, sign and
        NaN payload."""
        table = self.random_bits(rng, 2_000)
        self.assert_matches_reference(table, CSV_FIELDS)
        self.assert_matches_reference(table, BELL_REGION_FIELDS)

    def test_near_integers(self, rng):
        """108,000 values n + delta, n an integer up to 1e13 in magnitude and delta
        relative to max(|n|, 1) between 1e-13 and 1e-9: values whose 12-digit cell
        may or may not round to an integer, which random bit patterns almost
        never reach."""
        table = np.recarray(12_000, dtype=ROW_DTYPE)
        for name in ROW_DTYPE.names:
            if ROW_DTYPE[name].kind == "f":
                n = np.round(rng.choice([-1.0, 1.0], len(table))
                             * 10.0 ** rng.uniform(-1.0, 13.0, len(table)))
                relative = rng.choice([-1.0, 1.0], len(table)) * 10.0 ** rng.uniform(
                    -13.0, -9.0, len(table))
                table[name] = n + relative * np.maximum(np.abs(n), 1.0)
        table.statistics = "fermion"
        table.violated = 0
        self.assert_matches_reference(table, CSV_FIELDS)


    @staticmethod
    def written(monkeypatch) -> list[np.ndarray]:
        """The columns the encoders write cells for from here on, in call order: the
        constant, grid and family columns one at a time, a block's row columns
        together."""
        calls, cells, row_cells = [], sweeps._cells, sweeps._row_cells

        def spy(column, *args):
            calls.append(column.copy())
            return cells(column, *args)

        def row_spy(columns, *args):
            calls.extend(column.copy() for column in columns)
            return row_cells(columns, *args)

        monkeypatch.setattr(sweeps, "_cells", spy)
        monkeypatch.setattr(sweeps, "_row_cells", row_spy)
        return calls

    @pytest.mark.parametrize("make", [
        pytest.param(lambda cls, rng: cls.edges(), id="edges"),
        pytest.param(lambda cls, rng: cls.repeated_odd(rng, 150), id="repeated-odd"),
        pytest.param(lambda cls, rng: cls.random_bits(rng, 150), id="random-bits")])
    def test_block_size_invariance(self, make, monkeypatch, rng):
        """Blocks of 1, 2, 7, n - 1 and n rows write the bytes of one whole block,
        each block's slots as wide as its own widest cells."""
        table = make(type(self), rng)
        for rows in (1, 2, 7, len(table) - 1, len(table)):
            monkeypatch.setattr(sweeps, "_BLOCK_ROWS", rows)
            for fields in (CSV_FIELDS, BELL_REGION_FIELDS):
                self.assert_matches_reference(table, fields)

    def test_block_of_rows(self, rng):
        """A table of exactly ``_BLOCK_ROWS`` rows is one block."""
        table = self.repeated_odd(rng, sweeps._BLOCK_ROWS)
        table.l = rng.integers(0, 2**64, size=len(table), dtype=np.uint64).view(np.float64)
        self.assert_matches_reference(table, (*CSV_FIELDS, "violated"))

    def test_no_fields(self):
        self.assert_matches_reference(self.edges(), ())

    def test_nul_and_surrogate_in_text(self):
        """A NUL inside a text cell is written, not dropped with the padding, and a
        lone surrogate is written as it is."""
        table = self.edges()[:4]
        table.statistics = ["a\x00b", "\x00x", "\ud800x", "fermion"]
        for fields in (CSV_FIELDS, BELL_REGION_FIELDS + ("statistics",)):
            self.assert_matches_reference(table, fields)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    def test_one_row(self, fields):
        """Every column of a one-row table is constant: the row is one text."""
        table = self.edges()
        for k in range(len(table)):
            self.assert_matches_reference(table[k:k + 1], fields)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS])
    def test_constant_columns(self, fields, monkeypatch, rng):
        """A column whose bit patterns are all equal has one cell written: all
        ``-0.0``, one signalling NaN payload, text that looks like a ``%`` format
        and the smallest int64.  Equal values of other bits are not constant."""
        table = self.random_bits(rng, 60)
        table.p = -0.0
        table.theta = np.full(len(table), 0xFFF4000000000123, dtype=np.uint64).view(np.float64)
        table.statistics = "%s%d"
        table.violated = -2**63
        table.indist = np.resize([0.0, -0.0], len(table))  # equal values, two patterns
        assert (table.theta.view(np.uint64) == 0xFFF4000000000123).all()
        written = self.written(monkeypatch)
        for encode in (records_to_csv, records_to_json):
            written.clear()
            encode(table, fields)
            constant = [name for name in fields if name in ("p", "theta", "statistics",
                                                            "violated")]
            assert sorted(map(len, written)) == (
                [1] * len(constant) + [len(table)] * (len(fields) - len(constant)))
        monkeypatch.undo()
        self.assert_matches_reference(table, fields)

    @pytest.mark.parametrize("fields", [CSV_FIELDS, BELL_REGION_FIELDS + ("eof",)])
    def test_shared_columns(self, fields, monkeypatch, rng):
        """A column bit-identical to the previous written column of its dtype reuses
        its cells; one equal to it by value only (``-0.0`` for ``0.0``), or
        bit-identical to an earlier column only (``bell`` to ``p``, with columns
        between them), is written on its own."""
        table = self.random_bits(rng, 40)
        table.lprime = table.l
        table.concurrence = np.resize([0.0, 0.25, 1.0, 3.0], len(table))
        table.indist = table.concurrence
        table.eof = np.where(table.concurrence == 0.0, -0.0, table.concurrence)
        table.bell = table.p
        written = self.written(monkeypatch)
        for encode in (records_to_csv, records_to_json):
            written.clear()
            encode(table, fields)
            shared = {"lprime", "concurrence"} if "l" in fields else set()
            assert len(written) == len(fields) - len(shared)
            patterns = [column.view(np.uint64).tobytes() for column in written
                        if column.dtype.kind == "f"]
            # p's cells are written twice, for p and for bell; no other column's are
            assert patterns.count(table.p.view(np.uint64).tobytes()) == 2
            assert len(set(patterns)) == len(patterns) - 1
        monkeypatch.undo()
        self.assert_matches_reference(table, fields)

    @pytest.mark.parametrize("config", [
        SweepConfig(indist_grid=GridSpec(0, 1, 41), p_grid=GridSpec(0, 1, 41)),
        SweepConfig(statistics=BOSON, target="1_plus", indist_grid=GridSpec(0, 1, 9),
                    p_grid=GridSpec(0.5, 0.5, 1)),
        SweepConfig(indist_grid=GridSpec(0.3, 0.3, 1), p_grid=GridSpec(0, 1, 9)),
        SweepConfig(target="1_plus", l_grid=GridSpec(0, 1, 21), p_grid=GridSpec(0, 0, 1)),
        SweepConfig(statistics=BOSON, target="1_plus", theta=1.0, constraint="l_eq_lprime",
                    l_grid=GridSpec(0, 1, 801), p_grid=GridSpec(0.5, 0.5, 1)),
        SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(0, 1, 21),
                    p_grid=GridSpec(0, 1, 21)),
        SweepConfig(statistics=BOSON, constraint="l_eq_lprime", l_grid=GridSpec(0.8, 0.8, 1),
                    p_grid=GridSpec(0, 1, 5)),
        SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(0.2, 0.9, 15),
                    p_grid=GridSpec(1, 1, 1)),
        SweepConfig(constraint="free", lprime=0.3, l_grid=GridSpec(0, 1, 21),
                    p_grid=GridSpec(0, 1, 21)),
        SweepConfig(statistics=BOSON, target="1_plus", constraint="free", lprime=0.6,
                    l_grid=GridSpec(0, 1, 31), p_grid=GridSpec(0.25, 0.25, 1)),
        SweepConfig(constraint="free", lprime=0.8, l_grid=GridSpec(0.6, 0.6, 1),
                    p_grid=GridSpec(0, 1, 11)),
        SweepConfig(target="1_plus", constraint="free", lprime=1.0, l_grid=GridSpec(0, 1, 21),
                    p_grid=GridSpec(0, 0, 1)),
    ])
    def test_program_tables_have_twins_only_in_runs(self, config):
        """On the tables ``run_sweep`` builds, a varying float column with the bits
        of an earlier varying one has the bits of the one right before it, so twins
        sit in runs: ``l``, ``lprime`` under ``l_eq_lprime``, and runs of
        ``indist``, ``concurrence``, ``eof`` and ``p_lr`` where those read only 0
        and 1.  Comparing each column with the previous written one of its dtype
        then shares every column that comparing with all earlier ones would."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # flagged rows
            table = run_sweep(config)
        for fields in (CSV_FIELDS, BELL_REGION_FIELDS):
            bits = {name: table[name].view(np.uint64) for name in fields
                    if table.dtype[name].kind == "f"}
            varying = [name for name, column in bits.items() if (column != column[0]).any()]
            for k, name in enumerate(varying):
                if any(np.array_equal(bits[other], bits[name]) for other in varying[:k]):
                    assert np.array_equal(bits[varying[k - 1]], bits[name]), name
            if "l" in varying:
                assert np.array_equal(bits["l"], bits["lprime"]) == (
                    config.constraint == "l_eq_lprime")


class TestFloatCells:
    """The float cells built in numpy (:func:`sweeps._float_cells`) against Python's
    formatter, with the formatter's fallback cells told apart."""

    #: Values at the edges of the numpy path: just below 1e-4 (12 digits round it
    #: to 0.0001), just below 1e12 (a tie that rounds to exponent form), 1e12, the
    #: first and last fixed-form decades, the extreme and subnormal doubles, both
    #: zeros, NaN payloads and infinities.
    EDGES = [9.99999999999949e-5, 9.9999999999995e-5, 1e-4, 999999999999.5, 999999999999.4,
             0.000123456789012345, -0.000987654321, 123456789012.3, -98765432109.8,
             999999999999.0, 1e12, 1e11, 99999999999.5, 5e-324, -5e-324, 1e-310,
             2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0, 1.0, -1.0, 0.5,
             2.5, 0.125, 1 / 3, 2 * math.sqrt(2), 0.9999999999995, 0.99999999999949,
             *np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                        0x7FF0000000000001, 0xFFF4000000000123], dtype=np.uint64)
             .view(np.float64).tolist(), math.inf, -math.inf]

    @staticmethod
    def fallback_allowed(value: float) -> bool:
        """Whether the numpy path may leave ``value`` to the formatter: not finite,
        -0.0, a cell in exponent form, a 12-digit mantissa within twice the margin of
        a tie, or a value within 1e-12 of a power of ten, where ``log10`` may propose
        the neighbouring exponent."""
        if not math.isfinite(value) or value == 0.0:
            return math.copysign(1.0, value) < 0.0 or not math.isfinite(value)
        if "e" in format(value, ".12g"):
            return True
        size = abs(Fraction(value))
        exponent = math.floor(math.log10(abs(value)))
        while Fraction(10) ** exponent > size:
            exponent -= 1
        while Fraction(10) ** (exponent + 1) <= size:
            exponent += 1
        mantissa = size * Fraction(10) ** (11 - exponent)
        if abs(mantissa - math.floor(mantissa) - Fraction(1, 2)) < 2 * sweeps._TIE_MARGIN:
            return True
        return min(abs(size / Fraction(10) ** k - 1) for k in (exponent, exponent + 1)) < 1e-12

    @classmethod
    def check(cls, values: list[float]) -> None:
        """The cells of ``values`` in both formats: each numpy cell equals the
        formatter's, and only the values ``fallback_allowed`` names fall back."""
        values = np.array(values, dtype=float)
        for json_cells, reference in ((False, sweeps._csv_floats(values)),
                                      (True, sweeps._json_floats(values))):
            with pytest.MonkeyPatch.context() as patch:  # the fallback cells marked
                patch.setattr(sweeps, "_json_floats" if json_cells else "_csv_floats",
                              lambda rest: ["?"] * len(rest))
                cells = sweeps._float_cells(values, json_cells)
            for value, row, expected in zip(values.tolist(), cells, reference):
                cell = row[row != 0].tobytes().decode()
                if cell == "?":
                    assert cls.fallback_allowed(value), (value, json_cells)
                else:
                    assert cell == expected, (value, json_cells)

    def test_edges(self):
        self.check(self.EDGES)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(values=st.lists(
        st.integers(0, 2 ** 64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item())
        | st.floats(1e-5, 1e13)
        # every decade alike, from exponent form below 1e-4 to exponent form from 1e12
        | st.builds(lambda digits, exponent: digits * 10.0 ** exponent,
                    st.floats(-10.0, 10.0), st.integers(-6, 12))
        # (k + 1/2) 10^j a few ulps either way: ties of the 12-digit rounding
        | st.builds(lambda k, j, ulps: functools.reduce(
            lambda x, _: math.nextafter(x, math.copysign(math.inf, ulps)), range(abs(ulps)),
            (k + 0.5) * 10.0 ** j), st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-16, 0),
            st.integers(-3, 3)), min_size=1, max_size=40))
    def test_random_values(self, values):
        self.check(values)

    def test_program_values_take_the_numpy_path(self, monkeypatch):
        """Of the grid-map sweep's computed cells, at most 1% fall back."""
        layout = sweeps._sweep_layout(SweepConfig(indist_grid=GridSpec(0, 1, 41),
                                                  p_grid=GridSpec(0, 1, 41)))
        values = np.concatenate([layout.rows[name] for name in ("concurrence", "eof",
                                                                  "p_lr", "bell")])
        fallback = []
        monkeypatch.setattr(sweeps, "_csv_floats", lambda rest: fallback.extend(rest) or
                            ["?"] * len(rest))
        sweeps._float_cells(values, False)
        assert len(fallback) < 0.01 * len(values)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: TestEncodingReference.edges(), id="edges"),
        pytest.param(lambda: TestEncodingReference.repeated_odd(np.random.default_rng(1), 600),
                     id="repeated-odd"),
        pytest.param(lambda: TestEncodingReference.random_bits(np.random.default_rng(2), 600),
                     id="random-bits"),
        pytest.param(lambda: np.tile(TestEncodingReference.edges(), 3), id="tiled-edges")])
    def test_all_fallback_writes_the_same_bytes(self, make, monkeypatch):
        """With a tie margin of 1/2 every float cell falls back to the formatter, and
        the bytes are those of the numpy path, on the reference tables and on the
        benchmark sweeps."""
        table = make()
        configs = [SweepConfig(indist_grid=GridSpec(0, 1, 41), p_grid=GridSpec(0, 1, 41)),
                   SweepConfig(statistics=BOSON, target="1_plus", theta=1.0,
                               constraint="l_eq_lprime", l_grid=GridSpec(0, 1, 801),
                               p_grid=GridSpec(0.5, 0.5, 1))]

        def texts():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # l-scan's flagged rows
                sweeps_ = [sweep_text(dataclasses.replace(config, format=fmt), fields)
                           for config in configs for fmt in ("csv", "json")
                           for fields in (CSV_FIELDS, BELL_REGION_FIELDS)]
            return [encode(table, fields) for encode in (records_to_csv, records_to_json)
                    for fields in (CSV_FIELDS, BELL_REGION_FIELDS)] + sweeps_

        expected = texts()
        monkeypatch.setattr(sweeps, "_TIE_MARGIN", 0.5)
        with monkeypatch.context() as patch:  # every float cell is the formatter's
            patch.setattr(sweeps, "_csv_floats", lambda rest: ["?"] * len(rest))
            patch.setattr(sweeps, "_json_floats", lambda rest: ["?"] * len(rest))
            for values in (np.array(self.EDGES), table.bell, table.p):
                for json_cells in (False, True):
                    cells = sweeps._float_cells(values, json_cells)
                    assert all(row[row != 0].tobytes() == b"?" for row in cells)
        assert texts() == expected


class TestSvg:
    """The exact bytes of both renderers, pinned by digest."""

    SMALL = SweepConfig(statistics=BOSON, target="1_plus", indist_grid=GridSpec(0, 1, 3),
                        p_grid=GridSpec(0, 1, 4))

    @pytest.mark.parametrize("renderer, rows, digest", [
        (sweep_svg, "sweep",
         "57b650f2e67874a3781965ad5a5f41bc4008a5fa10ee45d97ebfc069d931f82f"),
        (bell_region_svg, "sweep",
         "e8028e14040de8c80ca7043cfe226b46b5f8e3bd14eb4fe5c665bf0e23566894"),
        # the hand-built rows; B = 2 exactly is drawn as not violated
        (sweep_svg, "encoding",
         "03f8959623970b567c6e2a1c76aa1dd981489ff09316f0b4c0c4c9370f0241b9"),
        (bell_region_svg, "encoding",
         "037663fd3f9a40ade78fc65ed2ee3c1668cb1ea4abee95eeb56653faede2ac81"),
    ])
    def test_bytes(self, renderer, rows, digest):
        rows = run_sweep(self.SMALL) if rows == "sweep" else TestEncoding.RECORDS
        assert hashlib.sha256(renderer(rows).encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("renderer", [sweep_svg, bell_region_svg])
    def test_no_rows(self, renderer):
        assert renderer([]) == "<svg xmlns='http://www.w3.org/2000/svg'/>"

    @pytest.mark.parametrize("command", ["sweep", "bell-region"])
    def test_one_step_noise_grid(self, command, tmp_path):
        """A one-point p grid gives an empty x range, drawn at the middle of the
        plot: every coordinate stays on the 640 x 420 canvas, and two runs write
        the same bytes."""
        texts = []
        for run in range(2):
            path = tmp_path / f"{run}.svg"
            assert main([command, "--p-grid", "0.5:0.5:1", "--format", "svg",
                         "--output", str(path)]) == 0
            texts.append(path.read_text(encoding="utf-8"))
        assert texts[0] == texts[1]
        text = texts[0]
        xs = [float(v) for v in re.findall(r' (?:x|x1|x2)="([^"]+)"', text)]
        ys = [float(v) for v in re.findall(r' (?:y|y1|y2)="([^"]+)"', text)]
        for points in re.findall(r' points="([^"]+)"', text):
            for point in points.split():
                x, y = map(float, point.split(","))
                xs.append(x)
                ys.append(y)
        for x, width in re.findall(r'<rect x="([^"]+)" y="[^"]+" width="([^"]+)"', text):
            xs.append(float(x) + float(width))
        for y, height in re.findall(r'<rect x="[^"]+" y="([^"]+)" width="[^"]+" '
                                    r'height="([^"]+)"', text):
            ys.append(float(y) + float(height))
        assert len(xs) > 20 and len(ys) > 20
        assert all(0.0 <= x <= 640.0 for x in xs) and all(0.0 <= y <= 420.0 for y in ys)

    @staticmethod
    def polylines(text: str) -> list[list[str]]:
        return [points.split() for points in re.findall(r'<polyline points="([^"]+)"', text)]

    @staticmethod
    def reference_points(table) -> list[str]:
        """Each row's point as a scalar loop over Python floats places it: p on
        [56, 584] and concurrence on [364, 56], an empty range at the middle."""
        def scale(value, lo, hi, out_lo, out_hi):
            if hi <= lo:
                return 0.5 * (out_lo + out_hi)
            return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)
        p, concurrence = table.p.tolist(), table.concurrence.tolist()
        top = max(max(concurrence), 1.0)
        return [f"{scale(x, min(p), max(p), 56, 584):.2f},{scale(y, 0.0, top, 364, 56):.2f}"
                for x, y in zip(p, concurrence)]

    @BENCHMARK_CONFIGS
    def test_polylines_follow_the_family_layout(self, config):
        # every row's point once, in row order, and a new polyline at each family
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # l-scan's flagged rows
            table = run_sweep(config)
        polylines = self.polylines(sweep_svg(table))
        assert [point for line in polylines for point in line] == self.reference_points(table)
        steps = config.p_grid.steps
        assert [len(line) for line in polylines] == [steps] * (len(table) // steps)

    def test_concatenated_sweeps_of_one_family_keep_one_polyline_each(self):
        # demo 04's three sweeps: the singlet and triplet targets share l = l' = 1/sqrt(2)
        line = GridSpec(SQRT_HALF, SQRT_HALF, 1)
        p_grid = GridSpec(0, 1, 51)
        sweeps_ = [run_sweep(config) for config in (
            SweepConfig(statistics=FERMION, target="1_minus", constraint="l_eq_lprime",
                        l_grid=line, p_grid=p_grid),
            SweepConfig(statistics=FERMION, target="1_plus", constraint="l_eq_lprime",
                        l_grid=line, p_grid=p_grid),
            SweepConfig(statistics=FERMION, target="1_minus", indist_grid=GridSpec(0, 0, 1),
                        p_grid=p_grid))]
        text = sweep_svg([row for table in sweeps_ for row in table])
        assert self.polylines(text) == [self.polylines(sweep_svg(table))[0]
                                        for table in sweeps_]
        assert [len(line) for line in self.polylines(text)] == [51, 51, 51]
        assert len(re.findall(r"<text[^>]*>l=", text)) == 3

    def test_families_of_one_l_in_one_sweep_keep_one_polyline_each(self):
        table = run_sweep(SweepConfig(constraint="l_eq_lprime", l_grid=GridSpec(0.5, 0.5, 3)))
        assert [len(line) for line in self.polylines(sweep_svg(table))] == [51, 51, 51]


def _spy_stacks(monkeypatch) -> list[list[float]]:
    """The l of each family stack the threshold search builds from now on, in order."""
    built = []

    def spy(target, l, *args):
        built.append(np.atleast_1d(l).tolist())
        return WernerFamily(target, l, *args)

    monkeypatch.setattr("islocc.sweeps.WernerFamily", spy)
    return built


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

    @pytest.mark.parametrize("statistics, target, theta, digest", [
        (FERMION, "1_minus", None,
         "4cb28aa31dfb8df28fad14a6e96d3411f09578b0774aa36ba3870607965bc580"),
        (FERMION, "1_plus", None,
         "0f5fc4ee4ced596f53eac4bc08195b39d9240c5c71aa39ba33b4d65385a9e969"),
        (BOSON, "1_minus", None,
         "e351ee0759d4109636d5111bea48890347123f39049583681e67c9f160b52343"),
        (BOSON, "1_plus", None,
         "bb6decc16683ff4b6923834cbf5beb45a80f42b5f967ccce24af947cf1c03674"),
        (BOSON, "1_minus", 1.0,
         "9642c42dd5bc3edac0bc6eaadda36d2228d577261a3efd9d3a4bf524c9339ea1"),
        (BOSON, "1_plus", 3.14159,
         "bb6decc16683ff4b6923834cbf5beb45a80f42b5f967ccce24af947cf1c03674"),
    ])
    def test_result_bytes(self, statistics, target, theta, digest):
        # the exact bytes `islocc threshold` writes, pinned by digest
        result = find_threshold(SweepConfig(statistics=statistics, target=target, theta=theta))
        text = json.dumps(result.as_dict(), indent=2)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    #: Phases at which the l = 1 end is checked and the search is compared
    #: with its reference.
    EDGE_THETAS = [0.0, math.pi, 2 * math.pi, 3.14159, 1e-300, 1e308]

    @pytest.mark.parametrize("statistics", [FERMION, BOSON])
    @pytest.mark.parametrize("target", ["1_minus", "1_plus"])
    def test_degree_zero_end_never_violates(self, statistics, target, rng):
        # at l = 1 the waves are |L> and e^{i theta}|R>, so the p = 1 candidate
        # is the maximally mixed state: the search takes B* = 0 there unprobed
        assert indist_on_family(1.0) == 0.0
        for theta in [*self.EDGE_THETAS, *rng.uniform(-100.0, 100.0, 500).tolist()]:
            _, bell, _ = WernerFamily(target, 1.0, 0.0, statistics, theta).worst_bell()
            assert bell[0] == 0.0, theta

    def test_degree_zero_end_is_not_probed(self, monkeypatch):
        built = _spy_stacks(monkeypatch)
        for statistics in (FERMION, BOSON):
            for target, found in (("1_minus", True), ("1_plus", False)):
                built.clear()
                assert find_threshold(SweepConfig(statistics=statistics,
                                                  target=target)).found is found
                # one stack, the 1/sqrt(2) end first, then the guided path (none
                # where no threshold is found); l = 1 is never probed
                assert len(built) == 1 and built[0][0] == SQRT_HALF
                assert 1.0 not in built[0]
                assert (len(built[0]) > 1) is found

    def test_search_that_finds_none_computes_no_degree(self, monkeypatch):
        # the degrees are read only once the degree-1 end violates
        degrees, family_degree = [], sweeps._family_degree
        monkeypatch.setattr(sweeps, "_family_degree",
                            lambda l: degrees.append(len(l)) or family_degree(l))
        for statistics, target, theta, found in ((FERMION, "1_plus", None, False),
                                                 (BOSON, "1_plus", 3.14159, False),
                                                 (FERMION, "1_minus", None, True)):
            degrees.clear()
            config = SweepConfig(statistics=statistics, target=target, theta=theta)
            assert find_threshold(config).found is found
            assert bool(degrees) is found

    @pytest.mark.parametrize("statistics", [FERMION, BOSON])
    @pytest.mark.parametrize("target", ["1_minus", "1_plus"])
    def test_guide_matches_worst_bell(self, statistics, target, rng):
        # the guide's B* in plain floats against the checked rows', relative, on
        # random families of the r' = l line and on its degree-1 end; a B* near 0
        # is the cancellation of |a|^2 - |b|^2, rounded differently on each side,
        # so the tolerance does not fall below 1e-14
        canonical = canonical_theta(target, statistics)
        cases = [(SQRT_HALF, canonical), (SQRT_HALF, 0.0), *zip(
            rng.uniform(SQRT_HALF, 1.0, 1000).tolist(), rng.uniform(-10.0, 10.0, 1000).tolist())]
        for l, theta in cases:
            _, bell, _ = WernerFamily(target, l, _unit_r(l), statistics, theta).worst_bell()
            assert sweeps._guide_bell(target, statistics.eta, theta, l) == pytest.approx(
                float(bell[0]), rel=1e-12, abs=1e-14), (l, theta)

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
        # degree, grid plus golden-section minimum over p), widened by the
        # search's tolerance in degree
        tol = 1e-4
        result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"))
        assert 0.76007 - tol <= result.indist <= 0.76013 + tol
        assert result.indist == indist_on_family(result.l)

    def test_bracket_ends_straddle_the_predicate(self):
        # the reported end violates at every p; one tolerance (1e-4 in degree)
        # below it does not
        tol = 1e-4
        result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"))
        assert WernerFamily("1_minus", result.l, math.sqrt(1 - result.l ** 2), FERMION,
                            0.0).worst_bell()[1][0] == result.bell_at_worst > 2.0
        l_below = float(l_for_indist(result.indist - tol))
        below = WernerFamily("1_minus", l_below, math.sqrt(1 - l_below ** 2), FERMION, 0.0)
        assert below.worst_bell()[1][0] <= 2.0

    def test_zero_tolerance_stops_at_float_resolution(self):
        # the degree bracket never narrows to 0: the search stops once the l
        # bracket is down to adjacent floats; a child process runs it, so a
        # hang fails the test
        script = ("from islocc import sweeps\n"
                  "sweeps._DEGREE_TOL = 0.0\n"
                  "config = sweeps.SweepConfig(target='1_minus')\n"
                  "print(repr(sweeps.find_threshold(config).indist))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert 0.76007 <= float(done.stdout) <= 0.76013

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


class _ReferenceProbe(NamedTuple):
    l: float
    degree: float
    family: WernerFamily
    worst_p: float
    bell: float


def _reference_find_threshold(config: SweepConfig) -> ThresholdResult:
    """The threshold search as one bisection in l that builds one family per
    step, the loop :func:`find_threshold` walks on its guided stack; it reads
    ``sweeps._DEGREE_TOL`` when called."""
    theta, stats = config.resolved_theta(), config.statistics

    def probe(l: float) -> _ReferenceProbe:
        family = WernerFamily(config.target, l, _unit_r(l), stats, theta)
        worst_p, bell, _ = family.worst_bell()
        return _ReferenceProbe(l, float(indist_on_family(l)), family, float(worst_p[0]),
                               float(bell[0]))

    inside = probe(SQRT_HALF)
    if inside.bell <= 2.0:
        return ThresholdResult(False, config.target, str(stats))
    outside_l, outside_degree = 1.0, 0.0
    while inside.degree - outside_degree > sweeps._DEGREE_TOL:
        mid = 0.5 * (inside.l + outside_l)
        if mid in (inside.l, outside_l):
            break
        at_mid = probe(mid)
        if at_mid.bell > 2.0:
            inside = at_mid
        else:
            outside_l, outside_degree = at_mid.l, at_mid.degree
    concurrence_at = float(inside.family.evaluate(np.array([inside.worst_p])).concurrence[0])
    return ThresholdResult(True, config.target, str(stats), inside.degree, inside.l,
                           inside.worst_p, inside.bell, concurrence_at)


class TestThresholdReference:
    """:func:`find_threshold` against :func:`_reference_find_threshold`: the
    same ``repr`` of every result field."""

    @staticmethod
    def assert_matches_reference(config):
        assert repr(find_threshold(config).as_dict()) == repr(
            _reference_find_threshold(config).as_dict()), config

    @pytest.mark.parametrize("statistics", [FERMION, BOSON])
    @pytest.mark.parametrize("target", ["1_minus", "1_plus"])
    def test_phases(self, statistics, target, rng, monkeypatch):
        # random phases find a threshold about one time in eight; fewer than 1%
        # of the searches leave the guided stack for a lone probe
        built, missed = _spy_stacks(monkeypatch), 0
        thetas = [None, *TestThreshold.EDGE_THETAS, *rng.uniform(-10.0, 10.0, 500).tolist()]
        for theta in thetas:
            built.clear()
            self.assert_matches_reference(SweepConfig(statistics=statistics, target=target,
                                                      theta=theta))
            missed += len(built) > 1
        assert missed < 0.01 * len(thetas)

    @staticmethod
    def golden_configs() -> list[SweepConfig]:
        """The 36 (statistics, target, theta) points of the golden threshold bits."""
        return [SweepConfig(statistics=statistics, target=target, theta=theta)
                for statistics in (FERMION, BOSON) for target in TARGETS
                for theta in THRESHOLD_THETAS]

    def test_golden_points_build_one_stack(self, monkeypatch):
        built = _spy_stacks(monkeypatch)
        for config in self.golden_configs():
            built.clear()
            self.assert_matches_reference(config)
            assert len(built) == 1, config

    @pytest.mark.parametrize("wrong", ["always", "never", "shifted"])
    def test_wrong_guide_keeps_the_bisection(self, wrong, monkeypatch):
        # a guide that always or never finds a violation, or looks 1e-9 off in l,
        # costs lone probes and never a result bit
        guide = sweeps._guide_bell
        monkeypatch.setattr(sweeps, "_guide_bell", {
            "always": lambda *args: 3.0,
            "never": lambda *args: 0.0,
            "shifted": lambda target, eta, theta, l: guide(target, eta, theta, l + 1e-9),
        }[wrong])
        built, lone = _spy_stacks(monkeypatch), 0
        for config in self.golden_configs():
            built.clear()
            self.assert_matches_reference(config)
            assert all(len(ls) == 1 for ls in built[1:]), config
            lone += len(built) - 1
        if wrong != "shifted":
            assert lone > 0

    def test_zero_tolerance_crosses_blocks(self):
        # with no tolerance in degree the search runs about fifty steps, down
        # to adjacent floats; a child process runs it, so a hang fails the test
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
                  "from islocc import sweeps\n"
                  "from islocc.xstate import BOSON, FERMION\n"
                  "from test_sweeps_cli import _reference_find_threshold\n"
                  "sweeps._DEGREE_TOL = 0.0\n"
                  "for statistics, theta in ((FERMION, None), (BOSON, None), (BOSON, 1.0)):\n"
                  "    config = sweeps.SweepConfig(statistics=statistics, theta=theta)\n"
                  "    print(repr(sweeps.find_threshold(config).as_dict()))\n"
                  "    print(repr(_reference_find_threshold(config).as_dict()))\n")
        done = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 6 and "'found': True" in lines[0]
        assert lines[0::2] == lines[1::2]


class TestStackInvariance:
    """Each family of a stack gives the bits it gives alone: what lets the
    threshold search probe many levels of its bisection in one stack."""

    P = np.array([0.0, 0.25, 0.5, 1.0])

    @staticmethod
    def bits(values) -> bytes:
        return np.ascontiguousarray(values).tobytes()

    @pytest.mark.parametrize("low", [SQRT_HALF, 0.0], ids=["branch", "unit"])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 1000])
    def test_each_family_alone(self, n, low, rng):
        statistics = (FERMION, BOSON)[rng.integers(2)]
        target = TARGETS[rng.integers(2)]
        theta = float(rng.uniform(-10.0, 10.0))
        ls = rng.uniform(low, 1.0, n)
        stack = WernerFamily(target, ls, _unit_r(ls), statistics, theta)
        worst, rows = stack.worst_bell(), stack.evaluate(self.P)
        degrees = indist_on_family(ls)
        # eof is derived when read, not a dataclass field
        fields = [field.name for field in dataclasses.fields(rows)] + ["eof"]
        for f, l in enumerate(ls.tolist()):
            one = WernerFamily(target, l, _unit_r(l), statistics, theta)
            assert [self.bits(a) for a in one.worst_bell()] == [
                self.bits(a[f:f + 1]) for a in worst], (f, l)
            one_rows, block = one.evaluate(self.P), slice(f * len(self.P), (f + 1) * len(self.P))
            for name in fields:
                assert self.bits(getattr(one_rows, name)) == self.bits(
                    getattr(rows, name)[block]), (f, l, name)
            assert self.bits(indist_on_family(l)) == self.bits(degrees[f]), (f, l)


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

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xff\xfe bad")
        assert main(["sweep", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err and "Traceback" not in err

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
                                      ["--l-grid", "0:1:3"], ["--format", "svg"],
                                      # the search runs on the r' = l family alone, so no
                                      # run could give the l_grid another family needs
                                      ["--constraint", "l_eq_lprime"],
                                      ["--constraint", "free", "--lprime=0.5"]])
    def test_threshold_rejects_grid_and_format_flags(self, flag, capsys, monkeypatch):
        monkeypatch.setattr("islocc.cli.find_threshold", lambda *args: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            main(["threshold", *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("lines", ["constraint = l_eq_lprime\n",
                                       "constraint = free\nlprime = 0.5\n",
                                       "constraint = free\n"])
    def test_threshold_config_file_constraint_exits_2(self, lines, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("statistics = fermion\n" + lines)
        assert main(["threshold", "--config", str(config)]) == 2
        assert capsys.readouterr() == (
            "", "config error: threshold search is defined on the l_eq_rprime family\n")

    @staticmethod
    def _call(argv, capsys) -> tuple[int, str, str]:
        """Exit code, stdout and stderr of one ``main`` call, argparse's exits included."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_built_once_per_process(self, capsys):
        """Calls in one process share one parser and write what a fresh parser makes them."""
        calls = [["sweep", "--theta", "1", "--format", "json"], ["sweep", "--format", "xml"],
                 ["threshold"], ["threshold", "--statistics", "boson"]]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(self._call(argv, capsys))
        cached = [self._call(argv, capsys) for argv in calls]
        assert cached == fresh
        assert cli._build_parser.cache_info().misses == 1  # the last fresh call's parser
        assert [code for code, _, _ in cached] == [0, 2, 0, 0]
        assert "invalid choice: 'xml'" in cached[1][2]
        # the fermion and boson 1_minus digests that TestThreshold.test_result_bytes pins
        assert [hashlib.sha256(out.removesuffix("\n").encode("utf-8")).hexdigest()
                for _, out, _ in cached[2:]] == [
            "4cb28aa31dfb8df28fad14a6e96d3411f09578b0774aa36ba3870607965bc580",
            "e351ee0759d4109636d5111bea48890347123f39049583681e67c9f160b52343"]
        code, out, _ = self._call(["--help"], capsys)
        assert code == 0 and "threshold" in out

    def test_parser_not_built_at_import(self):
        # the child exits with the number of parsers its import built
        subprocess.run([sys.executable, "-c", "import sys, islocc.cli as cli; "
                        "sys.exit(cli._build_parser.cache_info().misses)"],
                       env=_child_env(), check=True)

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

    @pytest.mark.parametrize("flags, config, field", [
        (["--p-grid", "0:1:" + "x" * 5000], None, "bad grid '0:1:xxx"),
        (["--p-grid", "0:1:" + "9" * 4000], None, "exceeds the limit of 1000000 rows"),
        (["--theta", "x" * 5000], None, "could not convert string to float"),
        ([], "statistics = " + "x" * 5000, "statistics must be 'boson' or 'fermion'"),
        ([], "k" * 5000 + " = 1", "unknown config key 'kkk"),
        ([], "l" * 5000, "expected 'key = value'"),
    ], ids=["grid-text", "row-cap", "theta", "config-statistics", "config-key",
            "config-line"])
    def test_echoed_values_are_bounded(self, flags, config, field, tmp_path, capsys):
        # each echoed value is cut to its first 60 characters and its length
        if config is not None:
            (tmp_path / "run.conf").write_text(config + "\n")
            flags = ["--config", str(tmp_path / "run.conf")]
        assert main(["sweep", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) <= 300 and field in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--config", "--output"])
    @pytest.mark.parametrize("directory", ["missing/", ""],
                             ids=["missing-directory", "name-too-long"])
    def test_echoed_paths_are_bounded(self, flag, directory, tmp_path, capsys):
        # the path is echoed cut to its first 60 characters, and an OSError's
        # reason without the file name it repeats
        path = f"{tmp_path}/{directory}"
        path += "x" * (3000 - len(path))
        assert main(["sweep", flag, path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot ") and captured.err.count("\n") == 1
        # the length given is that of the path's repr, quotes included
        assert len(captured.err.encode()) < 200 and "(3002 characters)" in captured.err
        assert captured.out == ""

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

    def test_family_without_l_grid_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--constraint", "l_eq_lprime", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: constraint 'l_eq_lprime' needs an explicit " \
                               "l_grid\n"
        assert captured.out == "" and not out.exists()

    def test_failed_write_exits_2(self, tmp_path, capsys, monkeypatch):
        # the path passes the writability check; the write itself fails
        def disk_full(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        assert main(["sweep", "--output", str(tmp_path / "sweep.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot write output file")
        assert "No space left on device" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_non_numeric_theta_exits_2(self, capsys):
        assert main(["sweep", "--theta", "abc"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: could not convert string to float: 'abc'\n"
        assert captured.out == ""

    def test_unwritable_existing_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # permission bits do not stop root, so the access check is what decides
        monkeypatch.setattr("islocc.cli.os.access", lambda path, mode: False)
        monkeypatch.setattr("islocc.cli.run_sweep", lambda *args: pytest.fail("ran"))
        assert main(["sweep", "--output", str(tmp_path / "out.csv")]) == 2
        captured = capsys.readouterr()
        assert "is not writable" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "bell-region", "threshold"])
    def test_directory_as_output_exits_2(self, command, tmp_path, capsys, monkeypatch):
        for runner in ("run_sweep", "find_threshold"):
            monkeypatch.setattr(f"islocc.cli.{runner}", lambda *args: pytest.fail("ran"))
        assert main([command, "--output", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "is a directory" in captured.err and "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1 and captured.out == ""

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

    #: One run of each command that writes to stdout, on a small grid, and the
    #: help of the program and of a subcommand, which argparse writes.
    STDOUT_COMMANDS = pytest.mark.parametrize("argv", [
        ["sweep", "--indist-grid", "0:1:3", "--p-grid", "0:1:3"],
        ["bell-region", "--indist-grid", "0:1:3", "--p-grid", "0:1:3"],
        ["threshold"], ["verify"], ["--help"], ["sweep", "--help"]],
        ids=["sweep", "bell-region", "threshold", "verify", "help", "sweep-help"])

    @staticmethod
    def _child(argv, stdout) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "islocc", *argv], env=_child_env(),
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)

    @STDOUT_COMMANDS
    def test_closed_stdout_pipe_exits_2(self, argv):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        try:
            done = self._child(argv, write)
        finally:
            os.close(write)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error: cannot write to stdout:")
        assert "Broken pipe" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="the platform has no /dev/full")
    @STDOUT_COMMANDS
    def test_full_device_on_stdout_exits_2(self, argv):
        with open("/dev/full", "w") as full:
            done = self._child(argv, full)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error: cannot write to stdout:")
        assert "No space left on device" in done.stderr and "Traceback" not in done.stderr

    class _FailingStdout(io.StringIO):
        """A stdout whose ``write`` or ``flush`` fails as a full disk does."""

        def __init__(self, failing: str):
            super().__init__()
            self.failing = failing

        def write(self, text):
            if self.failing == "write":
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(text)

        def flush(self):
            if self.failing == "flush":
                raise OSError(errno.ENOSPC, "No space left on device")

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @STDOUT_COMMANDS
    def test_failed_stdout_write_in_process_exits_2(self, argv, failing):
        # verify's report goes through the same write: a failed write is exit 2,
        # never the verification failure's 1
        err = io.StringIO()
        with contextlib.redirect_stdout(self._FailingStdout(failing)), \
                contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue() == ("config error: cannot write to stdout: "
                                  "[Errno 28] No space left on device\n")

    def test_help_writes_the_parser_help(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--help"]) == 0
        assert out.getvalue() == cli._build_parser().format_help()

    def test_stdout_bytes_are_the_output_file_bytes(self, tmp_path, capsys):
        """What a command writes to a replaced stdout is what it writes with --output."""
        for argv in (["sweep", "--indist-grid", "0:1:3", "--p-grid", "0:1:3", "--format", "json"],
                     ["bell-region", "--indist-grid", "0:1:3", "--p-grid", "0:1:3"],
                     ["threshold", "--statistics", "boson"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            path = tmp_path / "out"
            assert main([*argv, "--output", str(path)]) == 0
            assert out.getvalue() == path.read_text(encoding="utf-8")
        assert capsys.readouterr() == ("", "")


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

    @staticmethod
    def _main(argv) -> tuple[int, str, str]:
        """Exit code, stdout and stderr of ``main(argv)`` under the sweep test's rules."""
        out, err = io.StringIO(), io.StringIO()
        with np.errstate(all="raise", under="ignore"), warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)  # flagged rows
            code = main(argv)
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("config error:") and out.getvalue() == ""
        return code, out.getvalue(), err.getvalue()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(statistics=st.sampled_from(["boson", "fermion"]),
           target=st.sampled_from(["1_minus", "1_plus"]),
           theta=_phases,
           constraint=st.sampled_from(["l_eq_rprime", "l_eq_lprime", "free"]),
           ls=st.lists(_shapes, min_size=1, max_size=2),
           lprime=st.one_of(st.none(), _shapes),
           p_grid=st.sampled_from(["0:1:2", "0:1:3", "0:1:6", "0:0:1", "1:1:1"]))
    def test_bell_region_exits_0_or_2_with_finite_rows(self, statistics, target, theta,
                                                       constraint, ls, lprime, p_grid):
        argv = ["bell-region", "--statistics", statistics, "--target", target,
                "--theta", repr(theta), "--constraint", constraint,
                f"--l-grid={min(ls)!r}:{max(ls)!r}:{len(ls)}", "--p-grid", p_grid]
        if lprime is not None:
            argv += ["--lprime", repr(lprime)]
        code, out, _ = self._main(argv)
        assert code == 2 or (constraint == "free") == (lprime is not None)
        if code == 2:
            return
        lines = out.splitlines()
        assert lines[0] == ",".join(BELL_REGION_FIELDS)
        assert len(lines) == 1 + len(ls) * int(p_grid.rsplit(":", 1)[1])
        for line in lines[1:]:
            p, indist, bell, violated = line.split(",")
            assert all(math.isfinite(float(v)) for v in (p, indist, bell)), line
            assert 0.0 <= float(indist) <= 1.0 and violated in ("0", "1"), line

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(statistics=st.sampled_from(["boson", "fermion"]),
           target=st.sampled_from(["1_minus", "1_plus"]),
           theta=st.one_of(_phases, st.floats()))
    @example(statistics="boson", target="1_plus", theta=3.14159)
    def test_threshold_exits_0_or_2_with_finite_result(self, statistics, target, theta):
        code, out, err = self._main(["threshold", "--statistics", statistics,
                                     "--target", target, "--theta", repr(theta)])
        assert code == 0 or not math.isfinite(theta), err
        if code == 2:
            return
        result = json.loads(out)
        assert (result["statistics"], result["target"]) == (statistics, target)
        if result["found"]:
            assert all(math.isfinite(result[name]) for name in (
                "indist", "l", "worst_p", "bell_at_worst", "concurrence_at_worst"))
            assert 0.0 <= result["indist"] <= 1.0 and 0.0 <= result["worst_p"] <= 1.0
            assert result["bell_at_worst"] > 2.0
            assert 0.0 <= result["concurrence_at_worst"] <= 1.0


#: Values of the wrong type for any field: bools, unparsed text, other objects.
_wrong = st.sampled_from([None, True, False, "0.5", "0:1:3", "boson", b"1", 1j, [0.5],
                          (0, 1, 3), 10**400, np.int64(2), np.array(["1_minus", "1_plus"])])
#: Any value a corrupted field takes: of the wrong type, or a number of any
#: size, finite or not.
_corrupt = st.one_of(_wrong, st.floats(allow_nan=True, allow_infinity=True),
                     st.integers(-2, 3), st.fractions(-1, 2, max_denominator=7))


def _real(values):
    """``values`` as each type of real number a library caller may pass."""
    return st.one_of(values, values.map(Fraction), values.map(np.float32),
                     values.map(np.float64))


class _GridArgs(NamedTuple):
    """The arguments of a ``GridSpec``, built inside the test so that building
    it is under test too."""

    start: object
    stop: object
    steps: object

    def _repr_pretty_(self, printer, cycle):
        """How hypothesis writes an example: its printer writes an int past
        Python's limit on digits in hex, where ``repr`` raises."""
        printer.text(type(self).__name__)
        printer.pretty(tuple(self))


@st.composite
def _grid_args(draw, points):
    ends = sorted(draw(st.lists(points, min_size=1, max_size=2)))
    start, stop = draw(_real(st.just(ends[0]))), draw(_real(st.just(ends[-1])))
    return _GridArgs(start, stop, len(ends))


@st.composite
def _library_fields(draw):
    """The fields of a valid configuration, as in ``TestCliExitRule`` but with
    numbers of any real type, then up to two fields or grid arguments
    replaced by a corrupt value."""
    constraint = draw(st.sampled_from(CONSTRAINTS))
    fields = dict(statistics=draw(st.sampled_from([BOSON, FERMION])),
                  target=draw(st.sampled_from(TARGETS)),
                  theta=draw(st.one_of(st.none(), _real(_phases))), constraint=constraint,
                  p_grid=draw(_grid_args(st.sampled_from([0.0, 0.5, 1.0]))),
                  format=draw(st.sampled_from(FORMATS)))
    outer = "l_grid" if constraint != "l_eq_rprime" else draw(
        st.sampled_from(["l_grid", "indist_grid", None]))
    if outer is not None:
        fields[outer] = draw(_grid_args(_shapes))
    if constraint == "free":
        fields["lprime"] = draw(_real(_shapes))
    names = sorted({*fields, "lprime", "indist_grid", "l_grid"})
    names += [f"{name}.{arg}" for name, value in fields.items()
              if isinstance(value, _GridArgs) for arg in _GridArgs._fields]
    for name in sorted(draw(st.sets(st.sampled_from(names), max_size=2))):
        grid, _, arg = name.partition(".")
        if not arg:
            fields[name] = draw(_corrupt)
        elif isinstance(fields[grid], _GridArgs):  # not already replaced as a whole
            fields[grid] = fields[grid]._replace(**{arg: draw(_corrupt)})
    return fields


class TestLibraryExitRule:
    """A library caller gets the CLI's rule: building a config with values of
    any type ends in a ``ConfigError``, or the config runs to a finite table
    and, on the r' = l family, to a finite threshold result."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(fields=_library_fields())
    @example(fields=dict(statistics="boson"))
    @example(fields=dict(p_grid="0:1:3"))
    @example(fields=dict(theta="1.0"))
    @example(fields=dict(p_grid=_GridArgs(0, 1, 2.5)))
    @example(fields=dict(p_grid=_GridArgs(0, 1, "3")))
    @example(fields=dict(p_grid=_GridArgs(0, 1, True)))
    @example(fields=dict(theta=10**5000))
    @example(fields=dict(p_grid=_GridArgs(0, 10**5000, 3)))
    @example(fields=dict(p_grid=_GridArgs(0, 1, -10**5000)))
    @example(fields=dict(p_grid=_GridArgs(0, 1, 10**5000)))
    def test_config_ends_in_config_error_or_finite_rows(self, fields):
        try:
            config = SweepConfig(**{name: GridSpec(*value) if isinstance(value, _GridArgs)
                                    else value for name, value in fields.items()})
        except ConfigError:
            return
        # as in the CLI rule, underflow only rounds a subnormal input toward zero
        with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # flagged rows
            table = run_sweep(config)
            result = find_threshold(config) if config.constraint == "l_eq_rprime" else None
        for name in CSV_FIELDS:
            if table.dtype[name].kind == "f":
                assert np.isfinite(table[name]).all(), name
        assert ((0.0 <= table.p_lr) & (table.p_lr <= 1.0)).all()
        assert ((0.0 <= table.concurrence) & (table.concurrence <= 1.0)).all()
        if result is not None:
            assert all(math.isfinite(value) for value in result.as_dict().values()
                       if isinstance(value, float))
