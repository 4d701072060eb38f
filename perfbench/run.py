"""xfertrack benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload compare --seed 13 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ./src. The
run repeats passes of the workload while another fits in --seconds (at least
one) and reports medians over passes. --trace 0 wraps only
`TransferController.control_step` and reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, the tracing overhead being the wall-time difference between the two.
Every pass is checked for correctness. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, for this process and the set-up probes it starts. At the
# default (one thread per core) the helper thread doubles cpu_s and, when the
# host is contended, turns steps near dt into misses: deadline_miss_frac on
# online-wide-window spread 1.5x its median across seeds, against 0.06x with
# one thread. Set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "step_p50_ms": "ms", "step_p99_ms": "ms",
}


def per_layer_unit(name: str) -> str:
    """Unit from the metric's name: *_us*, *_ms*, *_s, *_frac, else a count."""
    for part, unit in (("_us", "us"), ("_ms", "ms"), ("_frac", "fraction")):
        if part in name:
            return unit
    return "s" if name.endswith("_s") else "count"


def openblas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                out[Path(lib).name] = getattr(handle, sym)()
                break
    return out


def environment(load_at_start) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "loadavg_at_start": load_at_start,
    }


def measure_setup(workload: str, seed: int) -> list:
    """Set-up seconds of SETUP_REPEATS fresh processes, one at a time."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Pass:
    pass_id: int
    traced: bool
    wall_s: float
    cpu_s: float
    digest: str | None
    checks: list
    peak_rss_mb: float  # process high-water mark when the pass ended
    step_ns: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_pass(wl, pass_id: int, traced: bool, work: Path) -> Pass:
    import probes
    out_dir = work / f"pass{pass_id}"
    out_dir.mkdir()
    probe = probes.Tracer(pass_id) if traced else probes.StepLatencyProbe()
    with probes.patched(probe.patches()):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run(out_dir)
        except Exception as err:  # the pass itself broke: a failed check
            out = {"errors": [f"{type(err).__name__}: {err}"], "digest": None}
            checks = [("pass completed", False)]
        else:
            checks = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    shutil.rmtree(out_dir)
    checks = [(f"pass {pass_id}: {name}", ok) for name, ok in checks or wl.checks(out)]
    for err in out["errors"]:
        print(f"error  pass {pass_id}: {err}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = Pass(pass_id, traced, wall, cpu, out["digest"], checks, rss_mb)
    if traced:
        table = probe.spans()
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        table.write(spans_dir / f"{wl.name}-seed{wl.cfg.seed}-pass{pass_id}.npz")
        result.checks.append((f"pass {pass_id}: spans nest inside their parents",
                              table.nesting_violations() == 0))
        result.layers = probes.layer_metrics(table, probe.counts)
    else:
        result.step_ns = probe.samples_ns
    return result


def run_passes(wl, seconds: float, trace: bool) -> list:
    """Groups of passes (untraced, then traced when tracing) while another
    group fits in the budget; always at least one group."""
    kinds = (False, True) if trace else (False,)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    passes = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    try:
        while True:
            g0 = time.perf_counter()
            for traced in kinds:
                gc.collect()  # garbage of the last pass must not count against this one
                passes.append(run_pass(wl, len(passes), traced, work))
            longest = max(longest, time.perf_counter() - g0)
            if time.perf_counter() + longest > deadline:
                return passes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def median_over(passes, fn):
    return statistics.median(fn(p) for p in passes if not p.traced)


def step_ms(p: Pass, q: float) -> float:
    return float(np.percentile(p.step_ns, q)) / 1e6 if p.step_ns else 0.0


def deadline_miss_frac(passes, dt_s: float) -> float:
    """Share of timed control steps slower than dt, median over untraced
    passes. Kept out of the bounded metrics: it is near zero where no
    refit runs, and the goal of making refits fit in dt drives it to zero."""
    return median_over(passes, lambda p: (
        float(np.count_nonzero(np.asarray(p.step_ns) > dt_s * 1e9)) / len(p.step_ns)
        if p.step_ns else 0.0))


def end_to_end(passes, setup_times) -> dict:
    return {
        "wall_s": median_over(passes, lambda p: p.wall_s),
        "cpu_s": median_over(passes, lambda p: p.cpu_s),
        "setup_s": statistics.median(setup_times),
        # after one pass, as a user's single run: later passes can only raise
        # the process high-water mark, and how many fit depends on host speed
        "peak_rss_mb": passes[0].peak_rss_mb,
        "step_p50_ms": median_over(passes, lambda p: step_ms(p, 50)),
        "step_p99_ms": median_over(passes, lambda p: step_ms(p, 99)),
    }


def per_layer(passes) -> tuple:
    """Median per-layer figures over traced passes, plus the checks that
    the exact counts repeat across them."""
    import probes
    traced = [p for p in passes if p.traced]
    out = {}
    for name in traced[0].layers:
        values = [p.layers[name] for p in traced]
        out[name] = values[0] if name in probes.COUNT_METRICS else statistics.median(values)
    checks = [(f"count {name} repeats across traced passes",
               len({p.layers[name] for p in traced}) == 1)
              for name in probes.COUNT_METRICS] if len(traced) > 1 else []
    wall = statistics.median(p.wall_s for p in traced)
    out["trace.overhead_frac"] = wall / median_over(passes, lambda p: p.wall_s) - 1.0
    return out, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xfertrack" / "__init__.py").is_file():
        print(f"perfbench: no xfertrack package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)
    passes = run_passes(wl, args.seconds, bool(args.trace))

    checks = [c for p in passes for c in p.checks]
    digests = [p.digest for p in passes]
    checks.append(("report digest identical across passes",
                   None not in digests and len(set(digests)) == 1))
    misses = deadline_miss_frac(passes, wl.cfg.trajectory.dt)
    if args.trace:
        metrics, count_checks = per_layer(passes)
        metrics["control.deadline_miss_frac"] = misses
        checks += count_checks
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(passes, setup_times)
        units = END_TO_END_UNITS
    failed = sum(not ok for _, ok in checks)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} (traced {sum(p.traced for p in passes)})")
    print("env " + json.dumps(environment(load_at_start), sort_keys=True))
    print(f"digest {digests[0]}")
    for p in passes:
        print(f"pass {p.pass_id} traced={int(p.traced)} wall_s={p.wall_s!r} "
              f"cpu_s={p.cpu_s!r} steps_timed={len(p.step_ns)}")
    if setup_times:
        print(f"setup_s samples {setup_times}")
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    if not args.trace:  # printed, not bounded: both are zero when all is well
        print(f"metric deadline_miss_frac {misses!r} fraction")
        print(f"metric failed_frac {failed / len(checks)!r} fraction")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
