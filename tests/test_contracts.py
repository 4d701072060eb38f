"""Names the benchmark and the demos use from the package still exist.

Tier-1 runs only this directory, so these checks are what notices when a
deletion under src/ breaks perfbench/ or a demo. They read the other
trees and edit nothing there.
"""

import ast
import sys
from pathlib import Path

import pytest

import xfertrack

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _package_names(path: Path):
    """(module alias, attribute) for every `alias.attr` in path whose alias
    was imported as `from xfertrack import module`."""
    tree = ast.parse(path.read_text())
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "xfertrack"
               for a in node.names}
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in aliases})


def test_perfbench_patch_targets_exist():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import probes
    finally:
        sys.path.remove(str(PERFBENCH))
    # patches() looks up every original it wraps, so building them is the check
    for patches in (probes.Tracer(0).patches(), probes.StepLatencyProbe().patches()):
        for owner, attr, _ in patches:
            assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


def test_workload_configs_pass_the_config_checks():
    # BenchConfig checks each config when it is made, so a check that
    # rejected a workload's config would otherwise show only as a failed
    # benchmark run
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    for name in workloads.NAMES:
        workloads.build(name, workloads.DEFAULT_SEED)
        workloads.setup(name, workloads.DEFAULT_SEED)


def test_workload_attributes_resolve():
    names = _package_names(PERFBENCH / "workloads.py")
    assert {mod for mod, _ in names} >= {"bench", "inverse", "stability"}
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not hasattr(getattr(xfertrack, mod), attr)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text())
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("xfertrack")
                for a in node.names]
    assert imported
    assert [n for n in imported if not hasattr(xfertrack, n)] == []
