"""Run the benchmark over several seeds and summarise it as one point of the
performance trajectory.

    python3 perfbench/collect.py --seeds 1-10 --tag seed \
        --out perfbench/trajectory/BENCH_seed.json

Each workload runs once per seed untraced, then once traced at seed 13. The
raw stdout of every run is kept under .perfbench/runs/<tag>/; the summary
holds, per workload, the median and quartiles of each end-to-end metric
over seeds, their spread as a share of the median, the traced per-layer
figures, the report digest at seed 13 and the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace, log: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    log.write_text(done.stdout)
    lines = done.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.startswith("digest "):
            out["digest"] = line.split()[1]
    return out


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="+", default=list(workloads.NAMES))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--tag", required=True, help="name of this trajectory point")
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args()

    logs = ROOT / ".perfbench" / "runs" / args.tag
    logs.mkdir(parents=True, exist_ok=True)
    point = {"tag": args.tag, "seconds": args.seconds, "seeds": args.seeds,
             "workloads": {}}
    for wl in args.workloads:
        runs = [run(wl, seed, args.seconds, 0, logs / f"{wl}-seed{seed}-trace0.txt")
                for seed in seed_range(args.seeds)]
        traced = run(wl, workloads.DEFAULT_SEED, args.seconds, 1,
                     logs / f"{wl}-seed{workloads.DEFAULT_SEED}-trace1.txt")
        point.setdefault("env", runs[0]["env"])
        point["workloads"][wl] = {
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "digest_seed13": traced["digest"],
            "end_to_end": {name: summary([r["metrics"][name]["value"] for r in runs])
                           | {"unit": runs[0]["metrics"][name]["unit"]}
                           for name in runs[0]["metrics"]},
            "per_layer_seed13": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(f"{wl}: done", file=sys.stderr)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
