"""One workload process: set up, run passes of CLI requests, check, report.

Started by run.py in a fresh scratch directory with BLAS threads capped at 1.
Prints one JSON object on the last line of stdout.

Modes:
  setup    set up and stop; reports only setup_s
  measure  untraced passes for --seconds (at least one), then the oracles
  trace    one traced pass, then the oracles; reports per-layer numbers
"""

import time

START = time.perf_counter()  # setup_s counts the imports below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import sidlab  # noqa: E402
from sidlab import cli  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _out_files(out: str) -> list[Path]:
    return sorted(p for p in Path(out).rglob("*") if p.is_file())


def _digest(out: str) -> str:
    h = hashlib.sha256()
    for path in _out_files(out):
        h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_pass(workload, tracer) -> tuple[float, list[float], list[int]]:
    """All requests of one pass, back to back; returns (pass_s, latencies, exit codes)."""
    latencies, codes = [], []
    t0 = time.perf_counter()
    for index, request in enumerate(workload.requests):
        if tracer is not None:
            tracer.request = index
        t = time.perf_counter()
        try:
            code = cli.main(list(request.argv))
        except Exception:  # a traceback out of the CLI is a failed request
            traceback.print_exc()
            code = None
        latencies.append(time.perf_counter() - t)
        codes.append(code)
    return time.perf_counter() - t0, latencies, codes


def run(workload, mode: str, seconds: float, tracer) -> dict:
    n = len(workload.requests)
    passes, latencies, bad = [], [], set()
    first = None
    t_start = time.perf_counter()
    while True:
        # every pass writes into empty output directories, so each digest and
        # the oracles only see files that the pass itself wrote
        for request in workload.requests:
            shutil.rmtree(request.out, ignore_errors=True)
        if tracer is not None:
            tracer.install()
        try:
            pass_s, lat, codes = run_pass(workload, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        digests = [_digest(r.out) for r in workload.requests]
        first = first or digests
        offset = len(passes) * n
        for i, (request, code, digest) in enumerate(zip(workload.requests, codes, digests)):
            # a request fails on a wrong exit code or on output that differs
            # from the first pass's (same inputs must give the same bytes)
            if code != request.expect or digest != first[i]:
                bad.add(offset + i)
        if not passes:
            # one pass is what one process of a CLI user runs; later passes
            # only add the allocator's retained memory from earlier ones
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(pass_s)
        latencies.extend(lat)
        elapsed = time.perf_counter() - t_start
        if mode == "trace" or elapsed + pass_s > seconds:
            break

    try:
        problems = workload.check()
    except Exception:  # unreadable or malformed artifacts fail every request
        problems = dict.fromkeys(range(n), [traceback.format_exc(limit=3)])
    for i in problems:
        bad.update(p * n + i for p in range(len(passes)))
    artifacts = {
        path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for request in workload.requests
        for path in _out_files(request.out)
    }
    return {
        "passes_s": passes,
        "latencies_s": latencies,
        "attempted": len(passes) * n,
        "failed": len(bad),
        "problems": [f"request {i}: {p}" for i, ps in sorted(problems.items()) for p in ps][:20],
        "peak_rss_mb": peak_rss_mb,
        "artifacts_sha256": artifacts,
    }


def trace_report(workload, tracer, run_s: float) -> dict:
    """Per-layer numbers of the traced pass."""
    self_s = tracer.self_times()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    largest = max(layer_self, key=layer_self.get)
    predicted = sum(layer_self[m] for m in workload.prediction)
    others = [v for m, v in layer_self.items() if m not in workload.prediction]
    bytes_read = sum(
        Path(path).stat().st_size for r in workload.requests for path in r.reads
    )
    bytes_written = sum(p.stat().st_size for r in workload.requests for p in _out_files(r.out))
    return {
        "self_s": dict(self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "errors": dict(tracer.errors),
        "useful_ratio": {name: tracer.useful_ratio(name) for name in tracer.distinct},
        "lookup_entries": tracer.lookups.entries,
        "artifact_bytes_read": bytes_read,
        "artifact_bytes_written": bytes_written,
        "layer_self_s": layer_self,
        "largest_layer": largest,
        "predicted_layers": list(workload.prediction),
        "prediction_met": predicted >= max(others),
        "spans": len(tracer.spans),
        "unaccounted_s": run_s - sum(self_s.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spans", help="trace mode: file to write the spans to")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    report = {
        "setup_s": time.perf_counter() - START - workload.harness_s,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sidlab": sidlab.__version__,
        },
        "sidlab_file": sidlab.__file__,
        "command_seed": workload.command_seed,
        "kinds": [request.kind for request in workload.requests],
        "best_of": workload.best_of,
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    report.update(run(workload, args.mode, args.seconds, tracer))
    if tracer is not None:
        report["trace"] = trace_report(workload, tracer, report["passes_s"][0])
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
