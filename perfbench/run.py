"""sidlab's benchmark: four CLI workloads, measured end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 25 --trace 0

Every workload runs in fresh single-process children (worker.py) that import
sidlab from ./src, with BLAS threads capped at 1 and all artifacts in a
scratch directory under ./.perfbench_run that is removed afterwards.  The
scratch stays inside the checkout because the benchmark may read and write
nothing outside it; .gitignore lists it.  One client drives the CLI in a
closed loop: each request starts when the previous one has returned.

--trace 0 prints the end-to-end metrics: the median of eleven set-ups (ten
set-up-only children, half of them run before and half after the measuring
child, and the measuring child itself), and passes of the workload for
--seconds (at least one pass).  Requests of one kind are samples of one
cost; a kind's latency is their mean, or on decode-mix their best, and
run_s and the latency percentiles are taken over one pass's requests timed
that way.  --trace 1 runs one untraced pass and one
traced pass in two children and prints the per-layer metrics; the traced
spans go to ./.perfbench_run/spans-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is a report with the environment, the
sha256 of every artifact and, when traced, the layer breakdown.  The exit code
is 0 whenever a result is printed, non-zero when none could be.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_run"
WORKLOADS = ("train-desk", "verify-sweep", "tokenize-rq", "decode-mix")
SETUP_PROBES = 10
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

LAYER_FUNCTIONS = (
    "trainer.train_sgd",
    "trainer.eval_kl",
    "trainer.eval_kl_chain",
    "losses.sequence_log_partition",
    "losses.check_equivalence",
    "losses.full_log_partition",
    "losses.ntp_grad",
    "losses.fv_mle_grad",
    "vocab.identity_token_map",
    "vocab.TokenMap.from_json_dict",
    "vocab.audit_bijection",
    "logits.model_from_json_dict",
    "logits.item_logits_all",
    "cli.main",
    "tokenizer.squared_distances",
    "tokenizer.fit_kmeans",
    "tokenizer.encode_rq",
    "decoder.beam_search",
    "decoder.exact_topk",
    "decoder.mtp_decode",
)
CALLS = ("losses.sequence_log_partition", "vocab.identity_token_map",
         "logits.item_logits_all", "tokenizer.squared_distances", "decoder.beam_search")
# same as tracing.LAYERS; this process does not import sidlab or numpy
LAYERS = ("vocab", "tokenizer", "logits", "losses", "decoder", "trainer", "cli")

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.self_s": "s" for name in LAYER_FUNCTIONS},
    **{f"{name}.calls": "count" for name in CALLS},
    "losses.sequence_log_partition.useful_ratio": "ratio",
    "vocab.identity_token_map.useful_ratio": "ratio",
    "logits.item_logits_all.useful_ratio": "ratio",
    "logits.lookup_entries": "count",
    "tokenizer.squared_distances.bytes_computed": "B",
    "decoder.beam_search.candidates": "count",
    "trainer.sgd_samples_per_s": "1/s",
    "cli.artifact_bytes_read": "B",
    "cli.artifact_bytes_written": "B",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
    "failed_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env(scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIDLAB_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        TMPDIR=str(scratch),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_child(args, mode: str, seconds: float, deadline: float, spans=None) -> dict:
    """Run worker.py in a fresh scratch directory and return its report."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, cwd=scratch, env=_child_env(scratch), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child ran past the deadline") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    sidlab_file = Path(report.pop("sidlab_file")).resolve()
    if ROOT / "src" not in sidlab_file.parents:
        raise BenchError(f"child imported sidlab from outside ./src: {sidlab_file}")
    return report


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(child_env: dict) -> dict:
    cpuinfo = {}
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        key, _, value = line.partition(":")
        cpuinfo.setdefault(key.strip(), value.strip())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    return {
        **child_env,
        "nproc": os.cpu_count(),
        "cpu_model": cpuinfo.get("model name"),
        "cpu_cache_size": cpuinfo.get("cache size"),
        "cpu_caches_per_core": caches,
        "git_commit": _git_commit(),
        "notes": "clocks not pinned; caches not dropped; other tenants may share the host",
    }


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def kind_latencies(main: dict) -> dict[str, float]:
    """Each request kind's latency in seconds over all passes of the run."""
    kinds = main["kinds"]
    samples: dict[str, list[float]] = {}
    for index, latency in enumerate(main["latencies_s"]):
        samples.setdefault(kinds[index % len(kinds)], []).append(latency)
    estimate = min if main["best_of"] else statistics.fmean
    return {kind: estimate(values) for kind, values in samples.items()}


def measure(args, deadline: float) -> tuple[dict, dict, dict]:
    # set-up probes on both sides of the measuring child, so that their
    # median does not hang on the host's speed at a single moment
    probes = SETUP_PROBES // 2
    setups = [run_child(args, "setup", 0, deadline)["setup_s"] for _ in range(probes)]
    main = run_child(args, "measure", args.seconds, deadline)
    setups.append(main["setup_s"])
    setups += [run_child(args, "setup", 0, deadline)["setup_s"]
               for _ in range(SETUP_PROBES - probes)]
    per_kind = kind_latencies(main)
    pass_ms = [1000.0 * per_kind[kind] for kind in main["kinds"]]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": sum(pass_ms) / 1000.0,
        "latency_ms_p50": statistics.median(pass_ms),
        "latency_ms_p90": _quantile(pass_ms, 90),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": 1.0 - main["failed"] / main["attempted"],
    }
    report = {
        "setups_s": setups,
        "passes_s": main["passes_s"],
        "requests": len(main["latencies_s"]),
        "kind_latency_ms": {kind: 1000.0 * v for kind, v in per_kind.items()},
        "kind_estimate": "best" if main["best_of"] else "mean",
    }
    return values, report, main


def trace(args, deadline: float) -> tuple[dict, dict, list[dict], bool]:
    untraced = run_child(args, "measure", 0, deadline)
    spans = WORK_ROOT / f"spans-{args.workload}-{args.seed}.jsonl"
    traced = run_child(args, "trace", 0, deadline, spans=spans)
    t = traced["trace"]
    run_s, untraced_s = traced["passes_s"][0], untraced["passes_s"][0]
    values = {f"{layer}.self_s": t["layer_self_s"][layer] for layer in LAYERS}
    values.update({f"{name}.self_s": t["self_s"].get(name, 0.0) for name in LAYER_FUNCTIONS})
    values.update({f"{name}.calls": t["calls"].get(name, 0) for name in CALLS})
    for name in ("losses.sequence_log_partition", "vocab.identity_token_map",
                 "logits.item_logits_all"):
        values[f"{name}.useful_ratio"] = t["useful_ratio"].get(name, 0.0)
    counts = t["counts"]
    sgd_self = t["self_s"].get("trainer.train_sgd", 0.0)
    samples = counts.get("trainer.train_sgd.samples", 0)
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    values.update({
        "logits.lookup_entries": t["lookup_entries"],
        "tokenizer.squared_distances.bytes_computed":
            counts.get("tokenizer.squared_distances.bytes_computed", 0),
        "decoder.beam_search.candidates": counts.get("decoder.beam_search.candidates", 0),
        "trainer.sgd_samples_per_s": samples / sgd_self if sgd_self else 0.0,
        "cli.artifact_bytes_read": t["artifact_bytes_read"],
        "cli.artifact_bytes_written": t["artifact_bytes_written"],
        **{f"{layer}.errors": t["errors"].get(layer, 0) for layer in LAYERS},
        "trace.run_s": run_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": run_s - untraced_s,
        "trace.unaccounted_s": t["unaccounted_s"],
        "trace.spans": t["spans"],
        "failed_frac": failed / attempted,
    })
    # self times of all spans partition the root spans (cli.main), so they
    # must add up to the traced pass up to the loop's own bookkeeping
    sums_ok = abs(t["unaccounted_s"]) <= 0.02 * run_s + 0.005
    report = {
        "largest_layer": t["largest_layer"],
        "predicted_layers": t["predicted_layers"],
        "prediction_met": t["prediction_met"],
        "self_times_add_up": sums_ok,
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return values, report, [untraced, traced], sums_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "sidlab" / "__init__.py").is_file():
        print(f"error: no sidlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        if args.trace:
            values, report, children, sums_ok = trace(args, deadline)
            units = PER_LAYER
        else:
            values, report, main_child = measure(args, deadline)
            children, sums_ok, units = [main_child], True, END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = children[-1]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    report.update(
        workload=args.workload,
        seed=args.seed,
        command_seed=last["command_seed"],
        trace=args.trace,
        env=environment(last["env"]),
        problems=[p for c in children for p in c["problems"]],
        artifacts_sha256=last["artifacts_sha256"],
    )
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0 and sums_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
