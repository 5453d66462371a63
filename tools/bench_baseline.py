"""Record a benchmark pair: every perfbench workload, parent and change, alternating.

    python3 tools/bench_baseline.py --label pr21 --parent ../fracops-parent
    python3 tools/bench_baseline.py --label main --runs 7 --seconds 20

For each workload that the checkout's ``BENCHMARK.json`` lists, runs
``perfbench/run.py --trace 0`` (end-to-end metrics) ``--runs`` times in each
tree, parent and change in alternation (the side that goes first alternates
too, so drift on the machine falls on both), then ``--trace 1`` (per-layer
metrics) once in each. Writes ``BENCH_<label>.json`` for the change and,
with ``--parent``, ``BENCH_<label>-parent.json``: the ``env`` line, the
final JSON result line and the metric lines of every run, and per workload
the median and quartiles of each end-to-end metric over its trace-0 runs.
With ``--parent``, the i-th trace-0 runs of the two sides form pair i, and
``BENCH_<label>.json`` also holds ``paired``: per workload and end-to-end
metric, the median and quartiles of the per-pair ratio change/parent and
the pairs won by each side, where winning follows the metric's ``better``
in ``BENCHMARK.json`` and a tie counts for neither. Two sides whose runs
report different ``cpu_model`` values are refused: their timings do not
compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MIN_RUNS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=REPO,
                        help="tree of the change, whose perfbench/ and src/ are run (default: this one)")
    parser.add_argument("--parent", type=Path,
                        help="tree of the parent commit; its runs alternate with the change's")
    parser.add_argument("--runs", type=int, default=MIN_RUNS,
                        help=f"trace-0 runs per workload and side (at least {MIN_RUNS})")
    parser.add_argument("--seconds", type=float,
                        help="run length of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out-dir", type=Path, default=REPO)
    args = parser.parse_args(argv)
    if args.runs < MIN_RUNS:
        parser.error(f"--runs must be at least {MIN_RUNS}, got {args.runs}")
    return args


def run_once(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run at the default seed: its env line, result line and the lines between."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    # paths in the output (the trace file) are given relative to the checkout
    lines = proc.stdout.replace(f"{checkout}/", "").splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {
        "env": env,
        "result": json.loads(lines[-1]),
        "lines": [line for line in lines[:-1] if not line.startswith("env ")],
    }


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over trace-0 runs."""
    summary = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": metric["unit"]}
    return summary


def paired(change: list[dict], parent: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: quartiles of the ratio change/parent over pairs, and pairs won.

    Pair i is the i-th trace-0 run of each side. A pair whose parent value
    is 0 has no ratio, but still counts as won, lost or tied.
    """
    out = {}
    for name, direction in better.items():
        pairs = [(c["result"]["metrics"][name]["value"], p["result"]["metrics"][name]["value"])
                 for c, p in zip(change, parent, strict=True)]
        ratios = [c / p for c, p in pairs if p != 0]
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (p - c) > 0 for c, p in pairs)
        lost = sum(sign * (c - p) > 0 for c, p in pairs)
        q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                          if len(ratios) > 1 else [None] * 3)
        out[name] = {"ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
                     "pairs": len(pairs), "won": won, "lost": lost, "better": direction}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {args.label: args.checkout.resolve()}
    if args.parent is not None:
        sides[f"{args.label}-parent"] = args.parent.resolve()
    spec = json.loads((sides[args.label] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = {label: {} for label in sides}
    for workload in (w["name"] for w in spec["workloads"]):
        order = list(sides.items())
        for label in sides:
            runs[label][workload] = {"trace0": []}
        for i in range(args.runs):
            for label, checkout in order[::-1] if i % 2 else order:
                runs[label][workload]["trace0"].append(run_once(checkout, workload, seconds, 0))
        for label, checkout in order:
            runs[label][workload]["trace1"] = run_once(checkout, workload, seconds, 1)
        print(f"{workload}: done", file=sys.stderr)
    models = {
        label: sorted({run["env"]["cpu_model"] for w in by_workload.values()
                       for run in w["trace0"] + [w["trace1"]]})
        for label, by_workload in runs.items()
    }
    if len({m for ms in models.values() for m in ms}) > 1:
        raise SystemExit(f"refusing to write runs from different CPU models: {models}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for label, by_workload in runs.items():
        bench = {
            "label": label,
            "seconds": seconds,
            "runs_per_side": args.runs,
            "pair": sorted(set(sides) - {label}),
            "summary": {w: summarize(r["trace0"]) for w, r in by_workload.items()},
            "runs": by_workload,
        }
        if label == args.label and args.parent is not None:
            parent = runs[f"{args.label}-parent"]
            bench["paired"] = {w: paired(r["trace0"], parent[w]["trace0"], better)
                               for w, r in by_workload.items()}
        out = args.out_dir / f"BENCH_{label}.json"
        out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
