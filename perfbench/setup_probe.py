"""Set-up time of one fresh process: import the package, then build the
workload's config, systems and trajectory. Prints the seconds taken.

    python3 perfbench/setup_probe.py --workload compare --seed 13
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args()
    workloads.setup(args.workload, args.seed)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
