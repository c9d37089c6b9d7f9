"""Module structure: the production path imports none of the oracle, each
shared name has one definition, and the names the benchmark reaches resolve."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import islocc

SRC = Path(islocc.__file__).resolve().parent

#: The amplitude and eigen path that verifies the production rows.
ORACLE = {"states", "amplitudes", "ensembles", "slocc", "indistinguishability",
          "entanglement", "werner", "verify"}

#: Names that moved to ``xstate`` and are defined nowhere else.
MOVED = ("WernerFamily", "XStateRows", "_bell_overlaps", "_check_rows", "_root_in_unit",
         "_unit_r", "canonical_theta", "_check_target", "_SQRT_HALF", "_ZERO_TRACE_ATOL",
         "_UNDEFINED_RTOL", "_HERM_ATOL", "_EIG_ATOL", "_entropy", "_eof",
         "binary_entropy", "ParticleStatistics", "BOSON", "FERMION")

#: Module attributes the benchmark under ``perfbench/`` calls or patches.
BENCHMARK_NAMES = {
    "islocc.werner": ("closed_form_concurrence_minus", "closed_form_concurrence_plus",
                      "closed_form_probability_minus", "closed_form_probability_plus",
                      "depolarize_then_deform", "werner_direct", "project"),
    "islocc.amplitudes": ("BOSON", "FERMION"),
    "islocc.slocc": ("project",),
    "islocc.entanglement": ("analyze",),
    "islocc.sweeps": ("run_sweep", "records_to_json", "SweepConfig", "GridSpec",
                      "CSV_FIELDS"),
    "islocc.cli": ("main", "run_sweep", "find_threshold", "records_to_csv",
                   "records_to_json"),
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The package modules and the outside top-level modules ``module``
    imports, from its import statements."""
    package, outside = set(), set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                package.add(node.module.split(".")[0])
            else:
                package.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            for name in names:
                top, _, rest = name.partition(".")
                if top == "islocc":
                    if rest:
                        package.add(rest.split(".")[0])
                    else:
                        package.update(alias.name for alias in node.names)
                else:
                    outside.add(top)
    return package, outside


def _definitions(module: str) -> set[str]:
    """Names bound at the top level of ``module`` other than by an import."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", ["xstate", "sweeps", "svg"])
def test_production_modules_import_no_oracle(module):
    package, _ = _imports(module)
    assert not package & ORACLE, f"{module} imports {sorted(package & ORACLE)}"


def test_xstate_imports_only_numpy_and_the_standard_library():
    package, outside = _imports("xstate")
    assert package == set()
    assert outside - {"numpy"} <= set(sys.stdlib_module_names)


def test_cli_imports_only_production_modules_and_verify():
    package, _ = _imports("cli")
    assert package <= {"xstate", "sweeps", "svg", "verify"}, sorted(package)


def test_moved_names_have_one_definition():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    defined = {module: _definitions(module) for module in modules}
    for name in MOVED:
        assert [m for m in modules if name in defined[m]] == ["xstate"], name
    assert not {"WernerFamily", "XStateRows"} & defined["werner"]


@pytest.mark.parametrize("module", sorted(BENCHMARK_NAMES))
def test_benchmark_names_resolve(module):
    loaded = importlib.import_module(module)
    missing = [name for name in BENCHMARK_NAMES[module] if not hasattr(loaded, name)]
    assert missing == []
