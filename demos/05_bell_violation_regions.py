"""Nonlocality maps: where does the prepared state beat the CHSH bound?

Scans the (noise, indistinguishability) plane for both targets, prints the
violation boundaries, and runs the threshold search for the degree of
indistinguishability that guarantees violation at every noise level.
Writes CSV and SVG maps to demos/out/.
"""

import json
from pathlib import Path

from islocc import FERMION, GridSpec, SweepConfig, find_threshold, run_sweep
from islocc.sweeps import BELL_REGION_FIELDS, records_to_csv
from islocc.svg import bell_region_svg

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

for target in ("1_minus", "1_plus"):
    config = SweepConfig(statistics=FERMION, target=target,
                         indist_grid=GridSpec(0, 1, 21), p_grid=GridSpec(0, 1, 41))
    rows = run_sweep(config)
    name = f"bell_region_{target}"
    (OUT / f"{name}.csv").write_text(records_to_csv(rows, BELL_REGION_FIELDS))
    (OUT / f"{name}.svg").write_text(bell_region_svg(rows))
    print(f"wrote {OUT / (name + '.csv')} and .svg")

    print(f"--- target {target}: largest violating p per indistinguishability ---")
    by_degree = {}
    for row in rows:
        if row.violated:
            by_degree[row.indist] = max(by_degree.get(row.indist, 0.0), row.p)
    for degree in sorted(by_degree)[::4]:
        print(f"  I = {degree:.2f}: violated up to p ~ {by_degree[degree]:.3f}")
    print()

print("=== threshold search: all-noise violation window ===")
result = find_threshold(SweepConfig(statistics=FERMION, target="1_minus"))
print(json.dumps(result.as_dict(), indent=2))

result_plus = find_threshold(SweepConfig(statistics=FERMION, target="1_plus"))
print("triplet target reaches an all-noise window:", result_plus.found)
