"""headerscan benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-binary --seed 1 --seconds 20 --trace 0

Run from the root of a headerscan checkout. The workload's inputs are
made from --seed; the timed loop runs for --seconds. The report lines
give every measured figure with its unit and sample count; the last
line is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# pinned in main() before numpy loads, the same on every commit
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUPS = 3        # set-ups per run at least; setup_s is their median
SETUP_SECONDS = 2.0  # ...and more while their total is below this
MIN_PASSES = 2    # the manifest check compares at least two passes
IMPORT_RUNS = 5   # subprocesses timing `import headerscan.cli`

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "min_accuracy": "ratio",
                    "peak_rss_mb": "MB"}


class Result:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.accuracy = None

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def child_env() -> dict:
    """Environment of the subprocesses: this checkout's sources, the
    pinned BLAS threads."""
    return dict(os.environ, PYTHONPATH=SRC)


def import_ms() -> list[float]:
    code = ("import time; t = time.perf_counter(); import headerscan.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout) * 1e3)
    return out


def timed_passes(wl, state, result, t_start: float, until: float,
                 at_least: int, speed: bool) -> list[tuple[float, float]]:
    """Passes, one after another, until `until` seconds after t_start
    and at least `at_least` of them. Returns each pass's wall time and,
    with `speed`, its time in reference seconds (else its wall time)."""
    import hostspeed
    times: list[tuple[float, float]] = []
    while len(times) < at_least or time.perf_counter() - t_start < until:
        if speed:
            with hostspeed.Speedometer() as meter:
                wl.run_pass(state, result, meter.clock)
            times.append((meter.wall_s, meter.reference_s))
        else:
            t0 = time.perf_counter()
            wl.run_pass(state, result)
            wall = time.perf_counter() - t0
            times.append((wall, wall))
    return times


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        work_root: str, out_dir: str) -> tuple[Result, dict, list[str]]:
    """Set up, run the timed loop, check. Returns the result, the metrics
    for the JSON line, and the report lines."""
    import hostspeed
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload_name]()
    result = Result()

    setups, digests = [], []
    while len(setups) < SETUPS or sum(w for w, _ in setups) < SETUP_SECONDS:
        dest = os.path.join(work_root, "inputs")
        shutil.rmtree(dest, ignore_errors=True)
        with hostspeed.Speedometer() as meter:
            state = wl.setup(dest, seed)
        setups.append((meter.wall_s, meter.reference_s))
        digests.append(wl.inputs_digest(state))
    if len(set(digests)) != 1:
        result.fail("set-ups from one seed wrote different inputs")

    wl.start(state)
    t_start = time.perf_counter()
    # with --trace 1 the first half of the window is untraced, so the
    # same process gives the tracing overhead
    passes = timed_passes(wl, state, result, t_start,
                          seconds / 2 if trace else seconds, MIN_PASSES, True)
    wl.cold(state, result, child_env())
    latencies = wl.latencies(state)
    if trace:
        tracer = spans.Tracer(f"{workload_name}-{seed}-{os.getpid()}-"
                              f"{time.time_ns():x}")
        tracer.install()
        root = tracer.begin(tracer.name_id(spans.ROOT))
        try:
            wl.start(state)  # bundles load again, inside the trace
            # no probes here: their time would land in the layers' spans
            traced = timed_passes(wl, state, result, t_start, seconds, 1,
                                  False)
        finally:
            tracer.end(root)
            tracer.uninstall()
    wl.finish(state, result)

    setup_s = statistics.median(r for _, r in setups)
    run_s = statistics.median(r for _, r in passes)
    wall_s = statistics.median(w for w, _ in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = [
        f"setup_s {setup_s:.4f} s (reference seconds, median of "
        f"{len(setups)} set-ups; wall median "
        f"{statistics.median(w for w, _ in setups):.4f} s)",
        f"run_s {run_s:.4f} s (reference seconds, median of {len(passes)} "
        f"untraced passes; wall median {wall_s:.4f} s)",
        f"min_accuracy {result.accuracy} ratio (deterministic per seed)",
        f"peak_rss_mb {peak_rss_mb:.1f} MB (1 process)",
        f"fail_ratio {result.failed / max(result.attempted, 1):.6f} ratio "
        f"({result.failed} of {result.attempted} operations)",
    ]
    for name, (value, unit, samples) in latencies.items():
        lines.append(f"{name} {value:.4f} {unit} ({samples})")

    if not trace:
        metrics = {"setup_s": setup_s, "run_s": run_s,
                   "min_accuracy": result.accuracy, "peak_rss_mb": peak_rss_mb}
        return result, {k: (v, END_TO_END_UNITS[k])
                        for k, v in metrics.items()}, lines

    metrics = spans.layer_metrics(tracer, len(traced))
    for name in spans.LATENCIES:
        value, unit, _ = latencies.get(name, (0.0, "ms", None))
        metrics[name] = (value, unit)
    metrics["cli.import_ms"] = (statistics.median(import_ms()), "ms")
    metrics["trace.overhead_ratio"] = (
        statistics.median(w for w, _ in traced) / wall_s, "ratio")
    self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    lines.append(f"trace: {len(traced)} traced passes, "
                 f"{len(tracer.name_col)} spans, layer self times sum to "
                 f"{self_sum:.6f} of {metrics['trace.total_s'][0]:.6f} s/pass")
    path = os.path.join(out_dir, f"trace-{workload_name}-seed{seed}.json.gz")
    tracer.write(path)
    lines.append(f"trace written to {os.path.relpath(path, ROOT)}")
    return result, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS

    if not os.path.isfile(os.path.join(SRC, "headerscan", "__init__.py")):
        print(f"error: no headerscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import headerscan
    import numpy
    if os.path.dirname(os.path.dirname(os.path.abspath(headerscan.__file__))) != SRC:
        print(f"error: imported headerscan from {headerscan.__file__}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".bench_work",
                             f"{args.workload}-seed{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        result, metrics, lines = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work_root, out_dir)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, BLAS threads {BLAS_THREADS}")
    for line in lines:
        print(line)
    for reason in result.reasons:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
