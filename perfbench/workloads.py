"""The four benchmark workloads: inputs made from a seed, the CLI requests of
one pass, and the oracles that check a pass's artifacts.

Every workload drives ``sidlab.cli.main`` with JSON configs written into the
current directory, which the worker sets to a fresh scratch directory.  Paths
in configs are relative so that the configs, and with them the
``config_sha256`` embedded in every artifact, are the same on every run.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sidlab import cli
from sidlab.logits import CascadedLogitModel, ParallelLogitModel, load_model, save_model
from sidlab.tokenizer import load_tokenizer, synth_embeddings
from sidlab.trainer import eval_kl, eval_kl_chain, synth_world
from sidlab.vocab import CodebookSpec, TokenMap, identity_token_map


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv, the exit code it must return, its output dir.

    Requests of one ``kind`` do the same work on different inputs, so their
    latencies are samples of one cost.
    """

    argv: tuple[str, ...]
    expect: int
    out: str
    kind: str
    reads: tuple[str, ...] = ()  # input artifacts named by the config


def _write_config(name: str, payload: dict) -> str:
    path = Path("cfg") / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return str(path)


def _request(command: str, name: str, payload: dict, expect: int, kind=None, reads=()) -> Request:
    out = f"out/{name}"
    argv = (command, "--config", _write_config(name, payload), "--out-dir", out)
    return Request(argv, expect, out, kind or command, tuple(reads))


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


class Workload:
    """Base: subclasses fill ``requests`` in ``__init__`` and implement ``check``."""

    name = ""
    # sidlab modules predicted to hold the largest self time in the traced run
    prediction: tuple[str, ...] = ()
    # how run.py turns a kind's latency samples into the kind's latency: the
    # mean, or the best (fastest) sample, which only short requests repeated
    # many times in a run make steady
    best_of = False

    def __init__(self, seed: int):
        self.seed = seed
        self.command_seed = seed  # the seed the CLI configs carry
        self.requests: list[Request] = []
        # time spent in __init__ on the harness's own choices, not on sidlab's
        # set-up; the worker leaves it out of setup_s
        self.harness_s = 0.0

    def check(self) -> dict[int, list[str]]:
        """Problems found in the last pass's artifacts, keyed by request index."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train-desk


class TrainDesk(Workload):
    """The acceptance desk-scale run: the only workload that writes logit tables."""

    name = "train-desk"
    prediction = ("trainer",)
    # criterion 7's pinned values at seed 0 (tests/test_acceptance.py)
    PINNED = {
        "initial_kl": 0.9669657177122299,
        "final_kl": 0.4494582405128461,
        "final_kl_chain": 0.04061639985945633,
    }
    EPOCHS = 30

    def __init__(self, seed: int):
        super().__init__(seed)
        config = {
            "seed": seed,
            "form": "cascaded",
            "spec": {"k": 3, "X": 4},
            "world": {"C": 4, "N": 64, "alpha": 0.3},
            "init": "zeros",
            "n_samples": 100_000,
            "lr": 0.1,
            "epochs": self.EPOCHS,
        }
        self.requests = [_request("train", "train", config, cli.EXIT_OK)]

    def check(self) -> dict[int, list[str]]:
        out = Path(self.requests[0].out)
        summary = _read_json(out / "summary.json")
        problems = []
        if self.seed == 0:
            for key, want in self.PINNED.items():
                if summary[key] != want:
                    problems.append(f"{key} {summary[key]!r} != pinned {want!r}")
        values = [summary[k] for k in self.PINNED]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite summary values {values}")
        if not summary["final_kl"] < summary["initial_kl"]:
            problems.append("final_kl did not fall below initial_kl")
        if not summary["final_kl_chain"] < summary["final_kl"]:
            problems.append("chained KL is not below flat KL after cascaded training")
        with open(out / "trace.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.EPOCHS or float(rows[-1]["kl"]) != summary["final_kl"]:
            problems.append("trace.csv does not end at the summary's final_kl")
        # re-evaluate the written checkpoint against the world the CLI drew:
        # cmd_train takes the world seed as the first of four draws from its seed
        world_seed = int(np.random.default_rng(self.seed).integers(0, 2**31, size=4)[0])
        world = synth_world(4, 64, 0.3, world_seed)
        model = load_model(out / "checkpoint_final.json")
        tmap = identity_token_map(model.spec)
        if eval_kl(model, tmap, world) != summary["final_kl"]:
            problems.append("final checkpoint's flat KL differs from summary final_kl")
        if eval_kl_chain(model, tmap, world) != summary["final_kl_chain"]:
            problems.append("final checkpoint's chained KL differs from summary final_kl_chain")
        return {0: problems} if problems else {}


# ---------------------------------------------------------------------------
# verify-sweep


VERIFY_SWEEP = {
    "trials": 200,
    "forms": ["cascaded", "parallel"],
    "k_values": [2, 3],
    "X_values": [4, 8, 16],
    "C_values": [1, 2, 4],
    "items_per_context": 2,
    "sigma": 0.5,
    "map_mode": "strict",
}


def replay_verify(seed: int) -> list[tuple[int, int, int, list[list[int]]]]:
    """The (k, X, C, items per context) of every trial ``cmd_verify`` draws.

    Mirrors the order of the command's draws from its seeded generator; the
    oracle compares the result with the command's equivalence.csv, so a
    drift between the two fails loudly instead of skewing the sweep.
    """
    rng = np.random.default_rng(seed)
    k_values, X_values, C_values = (
        np.asarray(VERIFY_SWEEP[key]) for key in ("k_values", "X_values", "C_values")
    )
    trials = []
    for _ in range(VERIFY_SWEEP["trials"]):
        k = int(rng.choice(k_values))
        X = int(rng.choice(X_values))
        C = int(rng.choice(C_values))
        rng.integers(2**31)  # the trial's model seed
        n = X**k
        pick = min(VERIFY_SWEEP["items_per_context"], n)
        items = [[int(i) for i in rng.choice(n, size=pick, replace=False)] for _ in range(C)]
        trials.append((k, X, C, items))
    return trials


def sweep_cost(trials) -> float:
    """Predicted run time in microseconds of a sweep.

    Per trial the identity map costs about 1.5 us per sequence; each report
    enumerates the sequence space once more (about 1.7 us per sequence) plus
    a fixed 80 us.  Measured with ``time.process_time`` on a 2-vCPU Intel
    Xeon KVM guest; only the ratios matter here.
    """
    return sum(
        1.5 * X**k + len(items) * len(items[0]) * (1.7 * X**k + 80.0)
        for k, X, C, items in trials
    )


class VerifySweep(Workload):
    """A strict 200-trial sweep over both forms: losses and vocab only, tables read-only."""

    name = "verify-sweep"
    prediction = ("losses",)
    TOLERANCE = 1e-10
    # Sweeps drawn from different seeds differ by up to +-25% in work (the
    # share of k=3, X=16 trials varies).  So that run time compares across
    # seeds, seed s runs the first command seed s + j * 2**20 (j = 0, 1, ...)
    # whose predicted cost is within COST_WINDOW of seed 0's sweep.
    COST_WINDOW = 0.025

    def __init__(self, seed: int):
        super().__init__(seed)
        # the search replays a seed-dependent number of sweeps, so it is
        # timed and kept out of setup_s
        t = time.perf_counter()
        target = sweep_cost(replay_verify(0))
        candidate = seed
        while True:
            trials = replay_verify(candidate)
            if abs(sweep_cost(trials) - target) <= self.COST_WINDOW * target:
                break
            candidate += 2**20
        self.harness_s = time.perf_counter() - t
        self.command_seed = candidate
        self.trials = trials
        config = dict(VERIFY_SWEEP, seed=candidate)
        self.requests = [_request("verify", "verify", config, cli.EXIT_EQUIVALENCE)]

    def check(self) -> dict[int, list[str]]:
        out = Path(self.requests[0].out)
        summary = _read_json(out / "summary.json")
        problems = []
        if summary["max_abs_partition_gap"] > self.TOLERANCE:
            problems.append(f"partition gap {summary['max_abs_partition_gap']:.3e} > 1e-10")
        parallel_gap = summary["per_form"]["parallel"]["max_abs_loss_gap"]
        if parallel_gap > self.TOLERANCE:
            problems.append(f"parallel-form loss gap {parallel_gap:.3e} > 1e-10")
        want = [(h, i) for _, _, _, items in self.trials for h, row in enumerate(items) for i in row]
        with open(out / "equivalence.csv", encoding="utf-8", newline="") as fh:
            got = [(int(r["context"]), int(r["item"])) for r in csv.DictReader(fh)]
        if summary["n_reports"] != len(want) or got != want:
            problems.append(f"reports {summary['n_reports']} do not match the {len(want)} drawn")
        return {0: problems} if problems else {}


# ---------------------------------------------------------------------------
# tokenize-rq


class TokenizeRQ(Workload):
    """Residual k-means on 4096 x 32 synthetic embeddings: tokenizer and vocab only."""

    name = "tokenize-rq"
    prediction = ("tokenizer",)
    N_ITEMS, DIM = 4096, 32

    def __init__(self, seed: int):
        super().__init__(seed)
        config = {
            "seed": seed,
            "scheme": "rq_kmeans",
            "k": 3,
            "X": 16,
            "mode": "probe",
            "embeddings": {"kind": "synth", "n_items": self.N_ITEMS, "dim": self.DIM},
        }
        self.requests = [_request("tokenize", "tokenize", config, cli.EXIT_OK)]

    def check(self) -> dict[int, list[str]]:
        out = Path(self.requests[0].out)
        tmap = TokenMap.load(out / "token_map.json")
        model = load_tokenizer(out / "tokenizer.json")
        problems = []
        # brute force: all distances at once, nearest centroid per level
        residual = synth_embeddings(self.N_ITEMS, self.DIM, self.seed).values.copy()
        tokens = []
        for cb in model.codebooks:
            t = ((residual[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
            tokens.append(t)
            residual -= cb[t]
        want = np.stack(tokens, axis=1)
        if not np.array_equal(tmap.token_matrix, want):
            bad = int((tmap.token_matrix != want).any(axis=1).sum())
            problems.append(f"{bad} items differ from a nearest-centroid re-encode")
        audit = _read_json(out / "audit.json")
        sequences = [seq for _, seq in tmap.items()]
        distinct = len(set(sequences))
        X = tmap.spec.X
        expected = {
            "n_items": len(sequences),
            "n_distinct_sequences": distinct,
            "collision_count": len(sequences) - distinct,
            "per_position_utilization": [
                len(set(want[:, m].tolist())) / X for m in range(tmap.spec.k)
            ],
            "is_bijective_onto_product": len(sequences) == distinct == X**tmap.spec.k,
        }
        for key, value in expected.items():
            if audit[key] != value:
                problems.append(f"audit {key} {audit[key]!r} != {value!r} from the map")
        return {0: problems} if problems else {}


# ---------------------------------------------------------------------------
# decode-mix


def _path_score(model, h: int, tokens) -> float:
    """Summed token logits along ``tokens``, added in position order."""
    score, prefix = 0.0, 0
    for m, t in enumerate(tokens):
        if model.form == "cascaded":
            score += float(model.tables[m][h, prefix, t])
            prefix = prefix * model.spec.X + t
        else:
            score += float(model.tables[m][h, t])
    return score


class DecodeMix(Workload):
    """Closed loop of decode requests, one client, each reloading its artifacts."""

    name = "decode-mix"
    prediction = ("cli", "vocab")
    # A request takes 10-50 ms and each kind repeats 100+ times in a run.  On
    # a shared 2-vCPU host the same request runs up to 2x slower from one
    # second to the next.  Over ten seeds the median pass time of 25 s runs
    # had quartile spreads of 0.18-0.30; the sum of the kinds' best samples
    # had 0.10.
    best_of = True
    SPEC = CodebookSpec(k=3, X=16)
    C = 8
    TOP_K = 10
    CYCLES = 20  # 20 cycles of the 5-request mix: 100 requests per pass
    # (checkpoint, method, beam width); width 256 = X**(k-1) never prunes a
    # complete sequence from the top 10, width 4096 = X**k prunes nothing
    MIX = (
        ("cascaded", "beam", 16),
        ("cascaded", "beam", 256),
        ("cascaded", "exact", None),
        ("parallel", "mtp", None),
        ("parallel", "beam", 4096),
    )
    CHECKPOINTS = {"cascaded": "ckpt_cascaded.json", "parallel": "ckpt_parallel.json"}
    TOKEN_MAP = "token_map.json"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        casc_seed, par_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
        self.contexts = [int(h) for h in rng.integers(0, self.C, size=self.CYCLES)]
        self.models = {
            "cascaded": CascadedLogitModel.random(self.SPEC, self.C, 1.0, casc_seed),
            "parallel": ParallelLogitModel.random(self.SPEC, self.C, 1.0, par_seed),
        }
        for form, model in self.models.items():
            save_model(model, self.CHECKPOINTS[form])
        identity_token_map(self.SPEC).save(self.TOKEN_MAP)
        for cycle, h in enumerate(self.contexts):
            for slot, (form, method, width) in enumerate(self.MIX):
                config = self._config(form, method, h, width)
                name = f"r{cycle * len(self.MIX) + slot:03d}"
                kind = f"{form}-{method}" + (f"-{width}" if width else "")
                reads = (self.CHECKPOINTS[form], self.TOKEN_MAP)
                self.requests.append(_request("decode", name, config, cli.EXIT_OK, kind, reads))

    def _config(self, form: str, method: str, h: int, width) -> dict:
        config = {
            "seed": self.seed,
            "checkpoint": self.CHECKPOINTS[form],
            "token_map": self.TOKEN_MAP,
            "context": h,
            "method": method,
            "top_k": self.TOP_K,
        }
        if width is not None:
            config["beam_width"] = width
        return config

    def _results(self, out) -> list[tuple[int, float, tuple[int, ...]]]:
        payload = _read_json(Path(out) / "decode.json")
        return [(r["item_id"], r["score"], tuple(r["tokens"])) for r in payload["results"]]

    def check(self) -> dict[int, list[str]]:
        problems: dict[int, list[str]] = {}

        def flag(idx, message):
            problems.setdefault(idx, []).append(message)

        # the exact ranking on the parallel checkpoint is not part of the mix;
        # compute it here, outside the timed phase
        parallel_exact = {}
        for h in sorted(set(self.contexts)):
            request = _request("decode", f"oracle{h}", self._config("parallel", "exact", h, None), 0)
            if cli.main(list(request.argv)) != cli.EXIT_OK:
                raise RuntimeError(f"oracle decode (parallel exact, context {h}) failed")
            parallel_exact[h] = self._results(request.out)

        n_mix = len(self.MIX)
        for cycle, h in enumerate(self.contexts):
            base = cycle * n_mix
            ranked = {}
            for slot, (form, method, width) in enumerate(self.MIX):
                idx = base + slot
                results = self._results(self.requests[idx].out)
                ranked[slot] = results
                if len(results) != self.TOP_K:
                    flag(idx, f"{len(results)} results, expected {self.TOP_K}")
                keys = [(-score, tokens) for _, score, tokens in results]
                if keys != sorted(set(keys)):
                    flag(idx, "results are not in (score desc, tokens asc) order")
                for item, score, tokens in results:
                    if item != self.SPEC.sequence_to_index(tokens):
                        flag(idx, f"item {item} is not the identity item of {tokens}")
                    if score != _path_score(self.models[form], h, tokens):
                        flag(idx, f"score of {tokens} differs from its summed logits")
            casc16, casc256, casc_exact, par_mtp, par_beam = (ranked[s] for s in range(n_mix))
            if casc256 != casc_exact:
                flag(base + 1, "cascaded beam 256 differs from the exact ranking")
            if any(a[1] > b[1] for a, b in zip(casc16, casc_exact)):
                flag(base, "cascaded beam 16 beats the exact ranking")
            if par_mtp != par_beam:
                flag(base + 3, "mtp differs from the exhaustive beam")
            if par_beam != parallel_exact[h]:
                flag(base + 4, "exhaustive beam differs from the exact ranking")
        return problems


WORKLOADS = {cls.name: cls for cls in (TrainDesk, VerifySweep, TokenizeRQ, DecodeMix)}
