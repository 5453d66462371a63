"""Set-up time of one workload in a fresh interpreter; prints the seconds.

Times ``import fracops`` (numpy included), building the CLI parser, parsing
the workload's argv and its one-time input preparation: what a fresh process
pays before its first computation. run.py starts this several times and
reports the median as ``setup_s``.

    python3 perfbench/cold_start.py --workload transmute --seed 0
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args()
    fo = workloads.load_fracops()
    out_dir = workloads.out_dir_for(args.workload, args.seed)
    workloads.prepare(fo, args.workload, args.seed, out_dir)
    print(f"{time.perf_counter() - START!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
