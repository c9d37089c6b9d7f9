"""Golden regression: regenerate the sweeps of demos 04 and 05 and compare
them with the CSVs committed under ``tests/golden/``.

Floats are compared after parsing, within ``ATOL``; text cells and the
integer ``violated`` flag must match exactly.
"""

import math
from pathlib import Path

import pytest

from islocc.amplitudes import FERMION
from islocc.sweeps import (BELL_REGION_FIELDS, CSV_FIELDS, GridSpec, SweepConfig,
                           records_to_csv, run_sweep)

GOLDEN = Path(__file__).resolve().parent / "golden"
ATOL = 1e-9
SQRT_HALF = 1.0 / math.sqrt(2.0)
EXACT = {"statistics", "violated"}


def _entanglement_vs_noise() -> str:
    """The three sweeps of demos/04_entanglement_vs_noise.py."""
    configs = (
        SweepConfig(statistics=FERMION, target="1_minus", constraint="l_eq_lprime",
                    l_grid=GridSpec(SQRT_HALF, SQRT_HALF, 1), p_grid=GridSpec(0, 1, 51)),
        SweepConfig(statistics=FERMION, target="1_plus", constraint="l_eq_lprime",
                    l_grid=GridSpec(SQRT_HALF, SQRT_HALF, 1), p_grid=GridSpec(0, 1, 51)),
        SweepConfig(statistics=FERMION, target="1_minus", constraint="l_eq_rprime",
                    indist_grid=GridSpec(0, 0, 1), p_grid=GridSpec(0, 1, 51)),
    )
    return records_to_csv([r for c in configs for r in run_sweep(c)], CSV_FIELDS)


def _bell_region(target: str) -> str:
    """One map of demos/05_bell_violation_regions.py."""
    config = SweepConfig(statistics=FERMION, target=target,
                         indist_grid=GridSpec(0, 1, 21), p_grid=GridSpec(0, 1, 41))
    return records_to_csv(run_sweep(config), BELL_REGION_FIELDS)


@pytest.mark.parametrize("name, generate", [
    ("entanglement_vs_noise", _entanglement_vs_noise),
    ("bell_region_1_minus", lambda: _bell_region("1_minus")),
    ("bell_region_1_plus", lambda: _bell_region("1_plus")),
])
def test_regenerated_output_matches_golden(name, generate):
    expected = (GOLDEN / f"{name}.csv").read_text().splitlines()
    got = generate().splitlines()
    assert got[0] == expected[0]
    assert len(got) == len(expected)
    header = expected[0].split(",")
    for k, (row, ref) in enumerate(zip(got[1:], expected[1:]), start=1):
        for field, cell, ref_cell in zip(header, row.split(","), ref.split(",")):
            if field in EXACT:
                assert cell == ref_cell, f"{name} line {k} {field}: {cell} != {ref_cell}"
            else:
                assert abs(float(cell) - float(ref_cell)) <= ATOL, \
                    f"{name} line {k} {field}: {cell} vs golden {ref_cell}"
