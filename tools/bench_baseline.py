"""Record a benchmark baseline: every perfbench workload, untraced and traced.

    python3 tools/bench_baseline.py --label main
    python3 tools/bench_baseline.py --label base --checkout ../fracops-base --seconds 20

For each workload that the checkout's ``BENCHMARK.json`` lists, runs
``perfbench/run.py --trace 0`` (end-to-end metrics) and ``--trace 1``
(per-layer metrics) in that checkout, and writes ``BENCH_<label>.json``:
the ``env`` line, the final JSON result line and the metric lines of each
run. Two files recorded on the same machine give parent -> change deltas.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=REPO,
                        help="tree whose perfbench/ and src/ are run (default: this one)")
    parser.add_argument("--seconds", type=float,
                        help="run length of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out-dir", type=Path, default=REPO)
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run at the default seed: its env line, result line and the lines between."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    # paths in the output (the trace file) are given relative to the checkout
    lines = proc.stdout.replace(f"{checkout}/", "").splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {
        "env": env,
        "result": json.loads(lines[-1]),
        "lines": [line for line in lines[:-1] if not line.startswith("env ")],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {
            f"trace{trace}": run_once(checkout, workload, seconds, trace)
            for trace in (0, 1)
        }
        print(f"{workload}: done", file=sys.stderr)
    bench = {"label": args.label, "seconds": seconds, "runs": runs}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
