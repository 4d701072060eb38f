"""Session fixtures and the acceptance summary printer.

The full benchmark comparison (MLP training plus all three strategies) runs
once per session and is shared by the acceptance checks and the slower
closed-loop properties.
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from xfertrack.bench import default_benchmark_config, run_comparison, run_strategy
from xfertrack.inverse import AnalyticInverse

# acceptance outcomes collected by tests/test_acceptance.py; printed as one
# line per criterion at the end of the run
ACCEPTANCE_RESULTS = []


def record_criterion(number: int, name: str, ok: bool, detail: str):
    ACCEPTANCE_RESULTS.append((number, name, ok, detail))


@pytest.fixture(scope="session")
def bench_config():
    return default_benchmark_config()


@pytest.fixture(scope="session")
def bench_report(bench_config):
    """The three-strategy benchmark run with the bundled MLP config."""
    t0 = time.perf_counter()
    report = run_comparison(bench_config)
    report.suite_wall_s = time.perf_counter() - t0
    return report


@pytest.fixture(scope="session")
def baseline_timing(bench_config):
    """(rms, wall seconds) of a fresh standalone baseline run."""
    t0 = time.perf_counter()
    res = run_strategy(bench_config, "baseline")
    return res.rms_tracking, time.perf_counter() - t0


@pytest.fixture(scope="session")
def analytic_offline_rms(bench_config):
    """Offline strategy with the exact source inverse substituted."""
    cfg = replace(bench_config, inverse_mode="analytic")
    source = cfg.source.build()
    res = run_strategy(cfg, "offline", inverse=AnalyticInverse(source))
    return res.rms_tracking


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    results = sorted(ACCEPTANCE_RESULTS)
    # the suite-runtime half of the property-suite criterion can only be
    # judged here, once every test has run
    suite_s = None
    start = getattr(tr, "_session_start", None)  # pytest >= 8: timing.Instant
    if start is not None and hasattr(start, "elapsed"):
        suite_s = start.elapsed().seconds
    else:
        legacy = getattr(tr, "_sessionstarttime", None)
        if legacy is not None:
            suite_s = time.time() - legacy
    if suite_s is not None:
        results = [
            (num, name, ok and suite_s < 120.0,
             f"{detail}; full suite wall {suite_s:.1f}s (< 120s)")
            if num == 7 else (num, name, ok, detail)
            for num, name, ok, detail in results
        ]
    tr.section("acceptance checks")
    for number, name, ok, detail in results:
        verdict = "PASS" if ok else "FAIL"
        tr.write_line(f"criterion {number} [{verdict}] {name}: {detail}")
