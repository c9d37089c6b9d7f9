"""Golden regression: regenerate the sweeps of demos 04 and 05 and compare
them with the CSVs committed under ``tests/golden/``, and the threshold
searches with the bits in ``tests/golden/threshold_bits.json``.

Sweep floats are compared after parsing, within ``ATOL``; text cells and the
integer ``violated`` flag must match exactly.  Threshold results must match
bit for bit; a failure reports the largest absolute deviation, so a last-bit
platform difference reads apart from a regression.
"""

import json
import math
from pathlib import Path

import pytest

from islocc.amplitudes import BOSON, FERMION
from islocc.sweeps import (BELL_REGION_FIELDS, CSV_FIELDS, GridSpec, SweepConfig,
                           find_threshold, records_to_csv, run_sweep)

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


#: The phases at which the threshold bits are pinned; None is each pair's canonical phase.
THRESHOLD_THETAS = (None, 0.0, math.pi, 1.0, 2.5, -0.3, 3.14159, 0.7, 1e-7)


def threshold_bits() -> dict[str, dict]:
    """``find_threshold``'s result for each statistics x target pair at each of
    ``THRESHOLD_THETAS``, every float field written as ``float.hex``.  Running this
    module as a script writes them to ``tests/golden/threshold_bits.json``."""
    results = {}
    for statistics in (FERMION, BOSON):
        for target in ("1_minus", "1_plus"):
            for theta in THRESHOLD_THETAS:
                result = find_threshold(SweepConfig(statistics=statistics, target=target,
                                                    theta=theta)).as_dict()
                key = f"{statistics}:{target}:{'canonical' if theta is None else repr(theta)}"
                results[key] = {name: value.hex() if isinstance(value, float) else value
                                for name, value in result.items()}
    return results


def _floats(results: dict[str, dict]) -> dict[tuple[str, str], float]:
    """The float fields of ``threshold_bits()``-shaped results, read back from hex."""
    return {(key, name): float.fromhex(value) for key, fields in results.items()
            for name, value in fields.items() if isinstance(value, str) and "0x" in value}


def _largest_deviation(got: dict, expected: dict) -> float:
    """The largest absolute difference between float fields pinned in both."""
    got, expected = _floats(got), _floats(expected)
    return max((abs(got[k] - expected[k]) for k in got.keys() & expected.keys()), default=0.0)


def test_threshold_results_match_golden_bits():
    expected = json.loads((GOLDEN / "threshold_bits.json").read_text())
    got = threshold_bits()
    # a last-bit difference is platform rounding; one above ~1e-12 a regression
    assert got == expected, (f"largest absolute deviation from the golden bits: "
                             f"{_largest_deviation(got, expected)!r}")


if __name__ == "__main__":
    (GOLDEN / "threshold_bits.json").write_text(json.dumps(threshold_bits(), indent=2) + "\n")
