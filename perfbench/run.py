"""Benchmark of fracops: one named workload per run, measured in process.

    python3 perfbench/run.py --workload axioms --seed 0 --seconds 20 --trace 0

One caller runs the workload's passes in a closed loop: the next pass starts
when the previous one has finished. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
traced run. The last line of standard output is the JSON result. See
README.md for the workloads and metrics.
"""

import os

BLAS_THREADS = "1"
# set before numpy loads, so this process and its children use one BLAS thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
COLD_STARTS = 7
COLD_START_TIMEOUT_S = 120
MIN_BEYOND = 10  # samples a reported tail percentile must have above it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(fo) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    l3 = "unknown"
    for level in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/level")):
        if _read(level).strip() == "3":
            l3 = _read(str(Path(level).with_name("size"))).strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "fracops": str(Path(fo.__file__).parent.relative_to(workloads.ROOT)),
    }


def cold_start_seconds(workload: str, seed: int) -> float:
    """Median set-up time of fresh interpreters (see cold_start.py)."""
    cmd = [sys.executable, str(HERE / "cold_start.py"),
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(COLD_STARTS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=COLD_START_TIMEOUT_S)
        if proc.returncode != 0:
            raise workloads.SetupError(f"cold start failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Loop:
    """Runs passes of a workload's operations and checks every output."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.ref_err = 0.0
        self.problems: list[str] = []

    def one_pass(self) -> tuple[float, float]:
        """Wall and CPU seconds of the program calls; checks run after, untimed."""
        wall = cpu = 0.0
        results = []
        for op in self.ops:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                results.append((op, op.run(), None))
            except Exception as exc:  # counted as a failed operation, not fatal
                results.append((op, None, exc))
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
        for op, output, exc in results:
            self._check(op, output, exc)
        return wall, cpu

    def _check(self, op, output, exc) -> None:
        self.attempted += 1
        if exc is not None:
            problems, ref_err = [f"raised {exc!r}"], 0.0
        else:
            try:
                problems, ref_err = op.check(output)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
                problems, ref_err = [f"output unreadable: {err!r}"], 0.0
        self.ref_err = max(self.ref_err, ref_err)
        if problems:
            self.failed += 1
            self.problems.append(f"{op.name}: {'; '.join(problems)}")

    def run_for(self, seconds: float) -> list[tuple[float, float]]:
        """Passes started until ``seconds`` have elapsed, at least one."""
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            samples.append(self.one_pass())
        return samples


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least MIN_BEYOND samples above it, if above the median."""
    n = len(values)
    k = n - MIN_BEYOND
    if k <= (n + 1) // 2:
        return f"no tail percentile above the median (needs {2 * MIN_BEYOND + 2} samples)"
    return f"p{100.0 * k / n:.0f} {sorted(values)[k - 1]:.6f} s"


def end_to_end(loop: Loop, args, setup_s: float) -> dict:
    samples = loop.run_for(args.seconds)
    walls = [w for w, _ in samples]
    print(f"wall_s: median {statistics.median(walls):.6f} s over {len(walls)} passes, "
          f"{tail_percentile(walls)}")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(c for _, c in samples), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "ref_err": {"value": loop.ref_err, "unit": "abs"},
    }


def per_layer(loop: Loop, args, fo, out_dir: Path) -> dict:
    """Half the time untraced, half traced; the difference is the trace overhead."""
    untraced = [w for w, _ in loop.run_for(args.seconds / 2.0)]
    tracer = Tracer(fo, workloads.LAYERS)
    tracer.install()
    passes, traced = [], []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds / 2.0:
            first = len(tracer.spans)
            traced.append(loop.one_pass()[0])
            passes.append(tracer.pass_stats(first))
    finally:
        tracer.uninstall()
    tracer.dump(out_dir / "trace.jsonl")
    print(f"traced {len(traced)} passes, untraced {len(untraced)}; "
          f"{len(tracer.spans)} spans in {out_dir / 'trace.jsonl'}")
    for name in tracer.absent():
        print(f"absent: {name} (reported as 0)")
    if tracer.uninspected:
        print(f"calls whose arguments could not be read: {tracer.uninspected}")
    metrics = layer_metrics(passes, workloads.LAYERS)
    metrics["bench.trace_overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced),
        "unit": "s",
    }
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = workloads.out_dir_for(args.workload, args.seed)
    try:
        fo = workloads.load_fracops()
        setup_s = 0.0 if args.trace else cold_start_seconds(args.workload, args.seed)
        ops = workloads.prepare(fo, args.workload, args.seed, out_dir)
    except (workloads.SetupError, ImportError, OSError, ValueError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(fo), sort_keys=True))

    loop = Loop(ops)
    loop.one_pass()  # warm-up
    if args.trace:
        metrics = per_layer(loop, args, fo, out_dir)
    else:
        metrics = end_to_end(loop, args, setup_s)
    for problem in loop.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
