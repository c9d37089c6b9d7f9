"""``tools/bench.py`` on a tiny grid, one repeat: what it reports and when it
refuses to time a workload."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from islocc import FERMION, GridSpec, SweepConfig, records_to_csv, run_sweep
from islocc.svg import bell_region_svg, sweep_svg
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
    # the 41 x 41 bell-region CSV, whose digest the hash-seed CI step also checks
    workload = {"bell-region-41": bench.WORKLOADS["bell-region-41"]}
    report = bench.measure(workload, {"change": ROOT / "src"}, repeats=1)["bell-region-41"]
    assert report["status"] == "ok"
    assert report["sha256"] == bench.PINS["bell-region-41"] == \
        "7a3b5ad9edd3b2e8b407570baefbde55d8518c63ded5a3c1d3825915837188b0"


def test_map_workloads_are_pinned():
    assert {"sweep-41", "bell-region-41", "l-scan-json", "map-301-csv", "map-301-json",
            "cap-csv", "cap-json"} <= bench.PINS.keys() & bench.WORKLOADS.keys()
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest in bench.PINS.values())


def test_startup_imports_the_cli_and_writes_nothing(tmp_path):
    run = bench.run_once(ROOT / "src", bench.WORKLOADS["startup"], tmp_path)
    assert run["code"] == 0 and run["sha256"] == hashlib.sha256(b"").hexdigest()
    assert run["seconds"] > 0 and run["peak_mib"] > 0


def test_startup_runs_at_least_its_minimum_per_side(monkeypatch):
    # 40 alternating starts per side even at one repeat; the other workloads run
    # the repeats asked for
    runs = []
    monkeypatch.setattr(bench, "run_once", lambda src, args, workdir: runs.append((src, args))
                        or {"code": 0, "seconds": 0.1, "peak_mib": 30.0, "sha256": "0",
                            "stderr": ""})
    workloads = {"startup": bench.WORKLOADS["startup"], **TINY}
    sides = {"change": Path("change"), "baseline": Path("baseline")}
    reports = bench.measure(workloads, sides, repeats=1, pins={})
    assert bench.MIN_REPEATS["startup"] >= 40
    startups = [src for src, args in runs if args == bench.WORKLOADS["startup"]]
    assert startups == [Path("change"), Path("baseline"), Path("baseline"),
                        Path("change")] * (bench.MIN_REPEATS["startup"] // 2)
    assert len(runs) - len(startups) == 2
    assert len(reports["startup"]["change"]["wall_s"]["runs"]) == bench.MIN_REPEATS["startup"]
    assert len(reports["tiny"]["baseline"]["wall_s"]["runs"]) == 1


def test_output_unequal_to_its_pin_is_not_timed(tmp_path, monkeypatch):
    fake = _fake_side(tmp_path, "open(out, 'w').write('p,l\\n')\n")
    runs = []
    monkeypatch.setattr(bench, "run_once", lambda *args, run=bench.run_once: runs.append(args)
                        or run(*args))
    pins = {"tiny": _tiny_digest()}
    report = bench.measure(TINY, {"change": fake, "baseline": ROOT / "src"}, repeats=3,
                           pins=pins)["tiny"]
    assert report == {"status": "failed", "problems": ["change: output differs from its pin"]}
    assert [side for side, _, _ in runs] == [fake]  # the one untimed run
    runs.clear()
    report = bench.measure(TINY, {"change": ROOT / "src"}, repeats=2, pins=pins)["tiny"]
    assert report["status"] == "ok" and report["sha256"] == pins["tiny"] and len(runs) == 3


def test_failed_pinned_run_reports_its_exit_code(tmp_path):
    crashing = _fake_side(tmp_path, "sys.exit('no output')\n")
    report = bench.measure(TINY, {"change": crashing}, repeats=2, pins={"tiny": _tiny_digest()})
    assert report["tiny"] == {"status": "failed", "problems": ["change: exit code 1: no output"]}


@pytest.mark.parametrize("name, renderer", [("sweep-41-svg", sweep_svg),
                                            ("bell-region-41-svg", bell_region_svg)])
def test_svg_maps_write_the_renderers_bytes(name, renderer):
    config = SweepConfig(statistics=FERMION, indist_grid=GridSpec(0, 1, 41),
                         p_grid=GridSpec(0, 1, 41))
    report = bench.measure({name: bench.WORKLOADS[name]}, {"change": ROOT / "src"},
                           repeats=1)[name]
    assert report["status"] == "ok"
    assert report["sha256"] == hashlib.sha256(renderer(run_sweep(config)).encode()).hexdigest()


def test_threshold_workloads_write_the_pinned_bytes():
    # the four statistics x target pairs, the sharp-dip search that finds none and
    # a search that finds one off the canonical phase, each pinned in
    # tools/digests.json, so the script times none whose bytes differ
    names = {name for name in bench.WORKLOADS if name.startswith("threshold")}
    assert names <= bench.PINS.keys() and len(names) == 6
    reports = bench.measure({name: bench.WORKLOADS[name] for name in names},
                            {"change": ROOT / "src"}, repeats=1)
    assert {name: (report["status"], report["sha256"]) for name, report in reports.items()} \
        == {name: ("ok", bench.PINS[name]) for name in names}


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
    environment = report["environment"]
    assert set(environment) == {"nproc", "affinity", "python", "numpy", "numpy_cpu_baseline",
                                "numpy_cpu_dispatch", "numpy_cpu_dispatch_supported", "head",
                                "src_lines", "bench_peak_rss_mib"}
    assert set(environment["numpy_cpu_dispatch_supported"]) <= \
        set(environment["numpy_cpu_dispatch"])
    assert environment["src_lines"] == bench.src_lines(ROOT / "src")
    assert report["baseline"]["commit"] == environment["head"]
    tiny = report["workloads"]["tiny"]
    assert tiny["status"] == "ok" and tiny["sha256"] == _tiny_digest()
    assert tiny["change_faster_pairs"] in (0, 1)
    assert set(tiny) == {"status", "sha256", "change", "baseline", "change_faster_pairs"}


@pytest.mark.parametrize("argv", [["--workloads", "nope"], ["--repeats", "0"]])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as raised:
        bench.main(argv)
    assert raised.value.code == 2
