"""Run the benchmark over workloads and seeds and print every metric.

    python3 bench/report.py                      # each workload once, seed 0
    python3 bench/report.py --seeds 0-9 --trace  # ten seeds, plus one traced run
    python3 bench/report.py --seeds 0-9 --trace --out bench/baseline.json
    python3 bench/report.py --golden             # rewrite bench/golden.json

Each run is a separate ``run.py`` process.  The table shows, per workload,
every end-to-end metric (median over runs, with the interquartile range as
a share of the median), the per-subcommand timings and ``error_rate``; with
``--trace`` it adds the per-layer metrics of one traced run at the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

import workloads  # noqa: E402  (bench/ is sys.path[0])


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values: list) -> dict:
    median = statistics.median(values)
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0, "values": values}


def write_golden(golden: dict) -> None:
    with open(os.path.join(BENCH, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=str(workloads.DEFAULT_SEED))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--golden", action="store_true")
    args = parser.parse_args()

    if args.golden:
        # start blank, so the runs are not judged against the digests being replaced
        golden = {"seed": workloads.DEFAULT_SEED, "seed_independent": ["binding_grid", "rates_grid"],
                  "digests": {}, "counts": {}}
        write_golden(golden)
        for workload in workloads.WORKLOADS:
            result, detail = run_once(workload, workloads.DEFAULT_SEED, 1, 1)
            if not result["correct"]:
                raise SystemExit(f"{workload}: {detail['problems']}")
            golden["digests"][workload] = detail["digests"]
            golden["counts"][workload] = detail["counts"]
        write_golden(golden)
        return 0

    seconds = bench["run_seconds"]
    report: dict = {"run_seconds": seconds, "workloads": {}}
    gated = {m["name"] for m in bench["end_to_end"]}
    for workload in workloads.WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        entry = {
            "seeds": parse_seeds(args.seeds),
            "correct": all(r["correct"] for r, _ in runs),
            "error_rate": sum(r["failed"] for r, _ in runs) / sum(r["attempted"] for r, _ in runs),
            "end_to_end": {
                m["name"]: dict(spread([r["metrics"][m["name"]]["value"] for r, _ in runs]),
                                unit=m["unit"])
                for m in bench["end_to_end"]
            },
            "subcommands": {
                name: dict(spread([d["subcommands"][name]["value"] for _, d in runs]),
                           unit=info["unit"])
                for name, info in runs[0][1]["subcommands"].items()
            },
            "raw": {
                name: dict(spread([d["end_to_end"][name]["value"] for _, d in runs]))
                for name in runs[0][1]["end_to_end"] if name not in gated
            },
            "counts": runs[0][1]["counts"],
            "environment": runs[0][1]["environment"],
        }
        print(f"== {workload}  ({len(runs)} runs x {seconds} s, "
              f"error_rate {entry['error_rate']:.4g}, correct {entry['correct']})")
        for name, stat in {**entry["end_to_end"], **entry["subcommands"], **entry["raw"]}.items():
            print(f"  {name:<28} {stat['median']:>14.6g} {stat.get('unit', 's'):<6} "
                  f"iqr/median {stat['iqr_over_median']:.4f}")
        if args.trace:
            result, detail = run_once(workload, entry["seeds"][0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer_correct"] = result["correct"]
            for name, metric in result["metrics"].items():
                print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}")
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
