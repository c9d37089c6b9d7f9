"""``tools/bench.py`` on a tiny grid, one repeat: what it reports and when it
refuses to time a workload."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from islocc import FERMION, GridSpec, SweepConfig, records_to_csv, run_sweep
from islocc.sweeps import CSV_FIELDS
from islocc.verify import run_verify

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TINY = {"tiny": ("sweep", "--indist-grid", "0:1:3", "--p-grid", "0:1:4", "--format", "csv")}


def _tiny_digest() -> str:
    config = SweepConfig(statistics=FERMION, indist_grid=GridSpec(0, 1, 3),
                         p_grid=GridSpec(0, 1, 4))
    return hashlib.sha256(records_to_csv(run_sweep(config), CSV_FIELDS).encode()).hexdigest()


def _fake_side(tmp_path: Path, body: str) -> Path:
    """A source tree whose ``python -m islocc`` runs ``body`` with ``out`` the
    ``--output`` path."""
    package = tmp_path / "src" / "islocc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        "import sys\nout = sys.argv[sys.argv.index('--output') + 1]\n" + body)
    return tmp_path / "src"


def test_one_side_reports_median_iqr_and_digest():
    report = bench.measure(TINY, {"change": ROOT / "src"}, repeats=1)["tiny"]
    assert report["status"] == "ok"
    assert report["sha256"] == _tiny_digest()
    for metric in ("wall_s", "peak_rss_mib"):
        (value,) = report["change"][metric]["runs"]
        assert report["change"][metric] == {"median": value, "q1": value, "q3": value,
                                            "iqr": 0.0, "runs": [value]}
        assert value > 0
    assert "change_faster_pairs" not in report


def test_bell_region_map_writes_the_pinned_bytes():
    # the 41 x 41 bell-region CSV, whose digest the hash-seed CI step also pins
    workload = {"bell-region-41": bench.WORKLOADS["bell-region-41"]}
    report = bench.measure(workload, {"change": ROOT / "src"}, repeats=1)["bell-region-41"]
    assert report["status"] == "ok"
    assert report["sha256"] == "7a3b5ad9edd3b2e8b407570baefbde55d8518c63ded5a3c1d3825915837188b0"


def test_verify_report_is_its_output():
    # verify takes no --output: its stdout report is what the script hashes
    report = bench.measure({"verify": bench.WORKLOADS["verify"]}, {"change": ROOT / "src"},
                           repeats=1)["verify"]
    assert report["status"] == "ok"
    text = "".join(line + "\n" for line in run_verify().summary_lines())
    assert report["sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_summary_quartiles():
    assert bench.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "runs": [4.0, 1.0, 3.0, 2.0, 5.0]}


def test_output_unequal_to_the_baseline_is_not_timed(tmp_path):
    fake = _fake_side(tmp_path, "open(out, 'w').write('p,l\\n')\n")
    report = bench.measure(TINY, {"change": ROOT / "src", "baseline": fake}, repeats=1)["tiny"]
    assert report == {"status": "failed", "problems": ["output differs from the baseline's"]}


def test_unstable_output_and_exit_codes_fail(tmp_path):
    unstable = _fake_side(tmp_path / "a", "import os\nopen(out, 'wb').write(os.urandom(8))\n")
    report = bench.measure(TINY, {"change": unstable}, repeats=2)["tiny"]
    assert report == {"status": "failed", "problems": ["change: output differs between runs"]}
    crashing = _fake_side(tmp_path / "b", "sys.exit('no output')\n")
    report = bench.measure(TINY, {"change": crashing}, repeats=1)["tiny"]
    assert report == {"status": "failed", "problems": ["change: exit code 1: no output"]}


def test_main_against_the_head_revision(tmp_path, monkeypatch):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    path = tmp_path / "bench.json"
    assert bench.main(["--repeats", "1", "--baseline", "HEAD", "--output", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["repeats"] == 1
    assert set(report["environment"]) == {"nproc", "affinity", "python", "numpy", "head",
                                          "src_lines", "bench_peak_rss_mib"}
    assert report["environment"]["src_lines"] == bench.src_lines(ROOT / "src")
    assert report["baseline"]["commit"] == report["environment"]["head"]
    tiny = report["workloads"]["tiny"]
    assert tiny["status"] == "ok" and tiny["sha256"] == _tiny_digest()
    assert tiny["change_faster_pairs"] in (0, 1)
    assert set(tiny) == {"status", "sha256", "change", "baseline", "change_faster_pairs"}


@pytest.mark.parametrize("argv", [["--workloads", "nope"], ["--repeats", "0"]])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as raised:
        bench.main(argv)
    assert raised.value.code == 2
