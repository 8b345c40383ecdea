"""Run every workload on several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --seeds 1-10 --label first --out perfbench/baseline.json

Each run is a fresh `perfbench/run.py` process with --trace 0, made one
after another. The spread is (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4). With --out, the set is merged into
that JSON file under --label, next to any sets already there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """The run's JSON result and its "machine:" report line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.splitlines()
    machine = next(line for line in lines if line.startswith("machine: "))
    return json.loads(lines[-1]), machine[len("machine: "):]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--label", default="set")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    machine = set()
    for workload in args.workloads:
        runs = []
        for seed in seeds_from(args.seeds):
            result, facts = one_run(workload, seed, args.seconds)
            runs.append(result)
            machine.add(facts)
        entry = {"seeds": seeds_from(args.seeds),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "correct": all(r["correct"] for r in runs),
                 "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"values": values, "median": median,
                                      "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload:16s} {name:14s} median {median:10.4f} "
                  f"spread {spread:.4f} bound {bound} "
                  f"{'ok' if spread <= bound / 3 else 'WIDE'}", flush=True)
        print(f"{workload:16s} correct {entry['correct']} failed "
              f"{entry['failed']} of {entry['attempted']}", flush=True)
        summary[workload] = entry

    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc.setdefault("sets", {})[args.label] = {
            "run_seconds": args.seconds, "machine": sorted(machine),
            "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
