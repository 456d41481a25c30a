"""Run the benchmark the way its acceptance is judged and record the results.

One call records one set: for each workload, one untraced run per seed
0..N-1, then (with --traced) two traced runs at seed 0 and one at seed 1.  It
prints, per end-to-end metric, the median and the quartile spread
(q3 - q1) / median of the untraced runs, and checks that every count metric
repeats exactly between the two traced seed-0 runs.

With --out the set is appended to the sets already in that JSON file, and
every later set's medians are compared with the first set's: a metric fails
when it is worse than the first set's median by more than its bound.

    python3 perfbench/record.py --seeds 10 --traced --out perfbench/results.json
    python3 perfbench/record.py --seeds 10 --out perfbench/results.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".lookup_entries", ".bytes_computed", ".candidates",
                  ".useful_ratio", "artifact_bytes_read", "artifact_bytes_written", ".errors",
                  "trace.spans")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def record_workload(workload: str, seeds: int, seconds: int, traced: bool,
                    bounds: dict) -> tuple[dict, dict]:
    runs, env = [], {}
    for seed in range(seeds):
        report, result = bench(workload, seed, seconds, 0)
        if not result["correct"]:
            print(f"{workload} seed {seed}: NOT CORRECT {report['problems']}", flush=True)
        runs.append({
            "seed": seed,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "passes_s": report["passes_s"],
            "setups_s": report["setups_s"],
            "kind_latency_ms": report["kind_latency_ms"],
            "command_seed": report["command_seed"],
        })
        if seed < 2:
            runs[-1]["artifacts_sha256"] = report["artifacts_sha256"]
        env = report["env"]
        print(f"{workload} seed {seed}: "
              + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    entry = {"runs": runs}
    if len(runs) >= 2:
        entry["summary"] = {name: spread([r["metrics"][name] for r in runs]) for name in bounds}
        for name, s in entry["summary"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- wide"
            if s["spread"] > bounds[name]:
                flag = "  <-- OVER BOUND" + (" (not judged for setup_s)"
                                             if name == "setup_s" else "")
            print(f"  {name}: median {s['median']:.4g} spread {s['spread']:.3f}"
                  f" (bound {bounds[name]}){flag}", flush=True)
    if traced:
        traced_runs = []
        for seed in (0, 0, 1):
            report, result = bench(workload, seed, seconds, 1)
            traced_runs.append({
                "seed": seed,
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                **{k: report[k] for k in ("largest_layer", "predicted_layers",
                                          "prediction_met", "self_times_add_up")},
            })
        first, second = traced_runs[0]["metrics"], traced_runs[1]["metrics"]
        counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
        differ = [k for k in counts if first[k] != second[k]]
        entry["traced"] = traced_runs
        entry["counts_repeat"] = not differ
        print(f"  traced: largest layer {traced_runs[0]['largest_layer']} "
              f"(predicted {'+'.join(traced_runs[0]['predicted_layers'])}, "
              f"met {traced_runs[0]['prediction_met']}); overhead "
              f"{first['trace.overhead_s']:+.3f} s; counts repeat: {not differ} {differ}",
              flush=True)
    return entry, env


def compare(sets: list[dict], bounds: dict, better: dict) -> list[dict]:
    """Each later set's medians against the first set's, per workload and metric."""
    rows = []
    base = sets[0]["workloads"]
    for index, later in enumerate(sets[1:], start=1):
        for workload, entry in later["workloads"].items():
            if "summary" not in entry or "summary" not in base.get(workload, {}):
                continue
            for name, bound in bounds.items():
                first = base[workload]["summary"][name]["median"]
                second = entry["summary"][name]["median"]
                change = (second - first) / first if first else 0.0
                worse = change if better[name] == "lower" else -change
                rows.append({"set": index, "workload": workload, "metric": name,
                             "first": first, "second": second, "change": change,
                             "bound": bound, "within": worse <= bound})
                print(f"set {index} vs set 0 {workload} {name}: {first:.4g} -> {second:.4g}"
                      f" ({change:+.3f}, bound {bound}){'' if worse <= bound else '  <-- WORSE'}",
                      flush=True)
    return rows


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in config[key]] != list(names.items()):
            raise SystemExit(f"BENCHMARK.json {key} does not match the metrics run.py prints")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", help="JSON file to append the set to")
    args = parser.parse_args()
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}

    this_set = {"run_seconds": seconds, "seeds": args.seeds,
                "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in args.workloads:
        entry, env = record_workload(workload, args.seeds, seconds, args.traced, bounds)
        this_set["workloads"][workload] = entry
        this_set["env"] = env

    if args.out:
        path = Path(args.out)
        results = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        results.setdefault("sets", []).append(this_set)
        results["comparison"] = compare(results["sets"], bounds, better)
        path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
