"""Command line driver: tokenize, verify, train, decode, bench.

Every run takes one JSON config file; command line flags override only the
seed and the output directory, so a config plus a seed pins a run exactly.
Artifacts are deterministic (stable key order, no timestamps) and embed the
sha256 of the effective config plus the seed.  The output root is resolved
as: --out-dir flag, then the config's "out_dir", then $SIDLAB_OUT, then
./sidlab_out.

Exit codes: 0 success; 1 training divergence (the mean epoch loss went
non-finite); 2 bijection failure (the audit is still written); 3 equivalence
tolerance exceeded; 4 config or artifact-parse error; 5 missing input
artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import count_softmax_ops, ops_sweep, time_losses, write_ops_csv, write_timing_csv
from .decoder import beam_search, exact_topk, mtp_decode
from .logits import FORMS, FormError, model_from_json_dict, model_to_json_dict, table_entry_count
from .losses import check_equivalence, summarize_reports, write_reports_csv
from .tokenizer import (
    FSQModel,
    ItemEmbeddings,
    encode_fsq,
    encode_pq,
    encode_rq,
    fit_pq,
    fit_rq_kmeans,
    load_embeddings_bin,
    load_embeddings_csv,
    save_tokenizer,
    synth_embeddings,
    tokenizer_to_json_dict,
)
from .trainer import (
    DivergenceError,
    eval_kl,
    eval_kl_chain,
    sample_dataset,
    synth_world,
    train_sgd,
)
from .vocab import (
    CodebookSpec,
    CollisionError,
    CoverageError,
    TokenMap,
    audit_bijection,
    identity_token_map,
)

EXIT_OK = 0
EXIT_BIJECTION = 2
EXIT_EQUIVALENCE = 3
EXIT_CONFIG = 4
EXIT_MISSING = 5

OUT_ENV_VAR = "SIDLAB_OUT"


class ConfigError(Exception):
    """Bad config file, bad config value, or unparseable input artifact."""


class _Parser(argparse.ArgumentParser):
    # argparse's default exit code (2) is taken by bijection failures
    def error(self, message):
        raise ConfigError(message)


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    return payload


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _req(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config key {key!r} has wrong type: {type(value).__name__}")
    return value


def _spec_from(cfg: dict) -> CodebookSpec:
    try:
        return CodebookSpec(k=int(_req(cfg, "k")), X=int(_req(cfg, "X")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_artifact_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"input artifact not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"artifact {path} is not valid JSON: {exc}") from exc


def _load_embeddings(cfg: dict, seed: int) -> ItemEmbeddings:
    kind = _req(cfg, "kind", str)
    if kind == "synth":
        return synth_embeddings(int(_req(cfg, "n_items")), int(_req(cfg, "dim")), seed)
    path = _req(cfg, "path", str)
    if not Path(path).is_file():
        raise FileNotFoundError(f"embeddings file not found: {path}")
    if kind == "csv":
        return load_embeddings_csv(path)
    if kind == "bin":
        return load_embeddings_bin(path)
    raise ConfigError(f"unknown embeddings kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_tokenize(cfg: dict, out_dir: Path) -> int:
    seed = int(cfg.get("seed", 0))
    scheme = _req(cfg, "scheme", str)
    spec = _spec_from(cfg)
    mode = cfg.get("mode", "strict")
    if mode not in ("strict", "probe"):
        raise ConfigError(f"mode must be 'strict' or 'probe', got {mode!r}")
    threshold = float(cfg.get("collapse_threshold", 0.75))
    max_iters = int(cfg.get("kmeans", {}).get("max_iters", 50))

    fitted = None
    if scheme == "identity":
        sequences = [spec.index_to_sequence(i) for i in range(spec.sequence_space_size)]
    elif scheme in ("rq_kmeans", "pq"):
        emb = _load_embeddings(_req(cfg, "embeddings", dict), seed)
        if scheme == "rq_kmeans":
            fitted = fit_rq_kmeans(emb, spec, max_iters=max_iters, seed=seed)
            sequences = encode_rq(fitted, emb)
        else:
            fitted = fit_pq(emb, spec, max_iters=max_iters, seed=seed)
            sequences = encode_pq(fitted, emb)
    elif scheme == "fsq":
        emb = _load_embeddings(_req(cfg, "embeddings", dict), seed)
        fsq_cfg = _req(cfg, "fsq", dict)
        levels = [int(v) for v in _req(fsq_cfg, "levels", list)]
        if len(levels) != spec.k:
            raise ConfigError(f"fsq levels must list k={spec.k} entries")
        if max(levels) > spec.X:
            raise ConfigError(f"fsq levels {levels} exceed X={spec.X}")
        bounds_cfg = fsq_cfg.get("bounds", [[-1.0, 1.0]] * spec.k)
        bounds = [(float(lo), float(hi)) for lo, hi in bounds_cfg]
        fitted = FSQModel(levels=levels, per_dim_bounds=bounds)
        sequences = encode_fsq(fitted, emb)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")

    code = EXIT_OK
    error_message = None
    try:
        tmap = TokenMap(spec, sequences, mode)
    except (CollisionError, CoverageError) as exc:
        error_message = str(exc)
        code = EXIT_BIJECTION
        tmap = TokenMap(spec, sequences, "probe")  # audit the failed assignment
    report = audit_bijection(tmap, collapse_threshold=threshold)

    chash = _config_hash(cfg)
    audit_payload = report.to_json_dict()
    audit_payload.update({"config_sha256": chash, "seed": seed, "scheme": scheme})
    _write_json(out_dir / "audit.json", audit_payload)
    if code == EXIT_OK:
        tmap.save(out_dir / "token_map.json")
    if fitted is not None:
        save_tokenizer(fitted, out_dir / "tokenizer.json")
    _write_json(
        out_dir / "summary.json",
        {
            "command": "tokenize",
            "config_sha256": chash,
            "seed": seed,
            "scheme": scheme,
            "mode": mode,
            "n_items": tmap.n_items,
            "status": "ok" if code == EXIT_OK else "bijection_failure",
            "error": error_message,
        },
    )
    if code != EXIT_OK:
        print(f"tokenize: bijection failure: {error_message}", file=sys.stderr)
    return code


def _probe_map_with_duplicate(spec: CodebookSpec, dup_item: int) -> TokenMap:
    """Identity map plus one extra item repeating ``dup_item``'s sequence."""
    forward = [spec.index_to_sequence(i) for i in range(spec.sequence_space_size)]
    forward.append(spec.index_to_sequence(dup_item))
    return TokenMap(spec, forward, "probe")


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    seed = int(cfg.get("seed", 0))
    trials = int(cfg.get("trials", 100))
    if trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    forms = cfg.get("forms", ["cascaded", "parallel"])
    for form in forms:
        if form not in FORMS:
            raise ConfigError(f"unknown model form {form!r}")
    k_values = [int(v) for v in cfg.get("k_values", [1, 2, 3])]
    X_values = [int(v) for v in cfg.get("X_values", [2, 3, 4])]
    C_values = [int(v) for v in cfg.get("C_values", [1, 2, 4])]
    sigma = float(cfg.get("sigma", 0.5))
    tolerance = float(cfg.get("tolerance", 1e-10))
    map_mode = cfg.get("map_mode", "strict")
    if map_mode not in ("strict", "probe_collision"):
        raise ConfigError(f"map_mode must be 'strict' or 'probe_collision', got {map_mode!r}")
    items_per_context = int(cfg.get("items_per_context", 2))

    rng = np.random.default_rng(seed)
    reports = []
    per_form: dict[str, list] = {form: [] for form in forms}
    for t in range(trials):
        spec = CodebookSpec(k=int(rng.choice(k_values)), X=int(rng.choice(X_values)))
        C = int(rng.choice(C_values))
        form = forms[t % len(forms)] if forms else "cascaded"
        model = FORMS[form].random(spec, C, sigma, int(rng.integers(2**31)))
        if map_mode == "strict":
            tmap = identity_token_map(spec)
        else:
            tmap = _probe_map_with_duplicate(spec, int(rng.integers(spec.sequence_space_size)))
        n_pick = min(items_per_context, tmap.n_items)
        for h in range(C):
            for i in rng.choice(tmap.n_items, size=n_pick, replace=False):
                rep = check_equivalence(model, h, tmap, int(i))
                reports.append(rep)
                per_form[form].append(rep)

    chash = _config_hash(cfg)
    write_reports_csv(reports, out_dir / "equivalence.csv")
    summary = summarize_reports(reports)
    summary.update(
        {
            "command": "verify",
            "config_sha256": chash,
            "seed": seed,
            "trials": trials,
            "map_mode": map_mode,
            "tolerance": tolerance,
            "per_form": {form: summarize_reports(rows) for form, rows in per_form.items()},
        }
    )
    _write_json(out_dir / "summary.json", summary)

    if map_mode == "strict" and (
        summary["max_abs_loss_gap"] > tolerance or summary["max_abs_partition_gap"] > tolerance
    ):
        print(
            "verify: strict-mode gap exceeds tolerance "
            f"(max_abs_loss_gap={summary['max_abs_loss_gap']:.3e}, "
            f"max_abs_partition_gap={summary['max_abs_partition_gap']:.3e}, "
            f"tolerance={tolerance:.1e})",
            file=sys.stderr,
        )
        return EXIT_EQUIVALENCE
    return EXIT_OK


def cmd_train(cfg: dict, out_dir: Path) -> int:
    seed = int(cfg.get("seed", 0))
    world_cfg = _req(cfg, "world", dict)
    spec_cfg = _req(cfg, "spec", dict)
    spec = _spec_from(spec_cfg)
    C = int(_req(world_cfg, "C"))
    N = int(_req(world_cfg, "N"))
    if N != spec.sequence_space_size:
        raise ConfigError(f"world N={N} must equal X**k={spec.sequence_space_size}")
    form = cfg.get("form", "cascaded")
    if form not in FORMS:
        raise ConfigError(f"unknown model form {form!r}")
    cap = int(cfg.get("max_table_entries", 10**7))
    entries = table_entry_count(spec, C, form)
    if entries > cap:
        raise ConfigError(f"model would hold {entries} table entries, cap is {cap}")
    lr = float(_req(cfg, "lr"))
    epochs = int(_req(cfg, "epochs"))
    n_samples = int(_req(cfg, "n_samples"))

    rng = np.random.default_rng(seed)
    world_seed, data_seed, shuffle_seed, init_seed = (
        int(v) for v in rng.integers(0, 2**31, size=4)
    )
    try:
        world = synth_world(
            C,
            N,
            float(world_cfg.get("alpha", 1.0)),
            world_seed,
            uniform=bool(world_cfg.get("uniform", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    data = sample_dataset(world, n_samples, data_seed)
    tmap = identity_token_map(spec)
    tmap.save(out_dir / "token_map.json")

    init_cfg = cfg.get("init", "zeros")
    if init_cfg == "zeros":
        model = FORMS[form].zeros(spec, C)
    elif isinstance(init_cfg, dict) and "sigma" in init_cfg:
        model = FORMS[form].random(spec, C, float(init_cfg["sigma"]), init_seed)
    else:
        raise ConfigError("init must be 'zeros' or an object with a 'sigma' key")

    chash = _config_hash(cfg)

    def checkpoint(m, path):
        payload = model_to_json_dict(m)
        payload.update({"config_sha256": chash, "seed": seed})
        _write_json(path, payload)

    checkpoint(model, out_dir / "checkpoint_init.json")
    initial_kl = eval_kl(model, tmap, world)
    initial_kl_chain = eval_kl_chain(model, tmap, world)
    try:
        trained, trace = train_sgd(model, tmap, data, lr, epochs, shuffle_seed, world=world)
    except DivergenceError as exc:
        print(f"train: {exc}", file=sys.stderr)
        return 1
    checkpoint(trained, out_dir / "checkpoint_final.json")
    trace.to_csv(out_dir / "trace.csv")
    last = trace.records[-1]
    _write_json(
        out_dir / "summary.json",
        {
            "command": "train",
            "config_sha256": chash,
            "seed": seed,
            "form": form,
            "epochs": epochs,
            "n_samples": n_samples,
            "lr": lr,
            "initial_kl": initial_kl,
            "initial_kl_chain": initial_kl_chain,
            "final_kl": last.kl,
            "final_kl_chain": eval_kl_chain(trained, tmap, world),
            "final_mean_ntp_loss": last.mean_ntp_loss,
            "final_mean_fv_mle_loss": last.mean_fv_mle_loss,
        },
    )
    return EXIT_OK


def cmd_decode(cfg: dict, out_dir: Path) -> int:
    seed = int(cfg.get("seed", 0))
    checkpoint = _load_artifact_json(_req(cfg, "checkpoint", str))
    token_map = _load_artifact_json(_req(cfg, "token_map", str))
    try:
        model = model_from_json_dict(checkpoint)
        tmap = TokenMap.from_json_dict(token_map)
    except Exception as exc:
        raise ConfigError(f"bad checkpoint or token map artifact: {exc!r}") from exc
    if tmap.spec != model.spec:
        raise ConfigError(
            f"token map spec {tmap.spec} does not match checkpoint spec {model.spec}"
        )
    h = int(_req(cfg, "context"))
    if not 0 <= h < model.C:
        raise ConfigError(f"context {h} outside [0, {model.C})")
    method = _req(cfg, "method", str)
    top_k = int(cfg.get("top_k", 1))

    try:
        if method == "beam":
            beam_width = int(cfg.get("beam_width", top_k))
            hits = beam_search(model, h, beam_width, top_k)
            results = [
                {"rank": r, "tokens": list(s.sequence), "score": s.score,
                 "item_id": tmap.inverse(s.sequence)}
                for r, s in enumerate(hits)
            ]
        elif method == "exact":
            hits = exact_topk(model, h, tmap, top_k)
            results = [
                {"rank": r, "tokens": list(tmap.forward(item)), "score": score,
                 "item_id": item}
                for r, (item, score) in enumerate(hits)
            ]
        elif method == "mtp":
            hits = mtp_decode(model, h, top_k)
            results = [
                {"rank": r, "tokens": list(s.sequence), "score": s.score,
                 "item_id": tmap.inverse(s.sequence)}
                for r, s in enumerate(hits)
            ]
        else:
            raise ConfigError(f"unknown decode method {method!r}")
    except (FormError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    _write_json(
        out_dir / "decode.json",
        {
            "command": "decode",
            "config_sha256": _config_hash(cfg),
            "seed": seed,
            "method": method,
            "context": h,
            "results": results,
        },
    )
    return EXIT_OK


def cmd_bench(cfg: dict, out_dir: Path) -> int:
    seed = int(cfg.get("seed", 0))
    k_values = [int(v) for v in cfg.get("k_values", [1, 2, 3, 4])]
    X_values = [int(v) for v in cfg.get("X_values", [4, 8, 16])]
    C = int(cfg.get("C", 1))
    cap = int(cfg.get("max_instrumented_entries", 10**7))
    rows = ops_sweep(k_values, X_values, C=C, max_instrumented_entries=cap)
    write_ops_csv(rows, out_dir / "bench_ops.csv")
    headline = count_softmax_ops(CodebookSpec(k=3, X=256))
    chash = _config_hash(cfg)
    _write_json(
        out_dir / "summary.json",
        {
            "command": "bench",
            "config_sha256": chash,
            "seed": seed,
            "n_rows": len(rows),
            "include_timing": bool(cfg.get("include_timing", False)),
            "reference_k3_X256": {
                "ntp_ops": headline.ntp_ops,
                "full_ops": headline.full_ops,
                "ratio": headline.ratio,
            },
        },
    )
    if cfg.get("include_timing", False):
        timing = time_losses(
            k_values,
            X_values,
            C=C,
            repeats=int(cfg.get("repeats", 5)),
            sigma=float(cfg.get("sigma", 0.5)),
            seed=seed,
        )
        write_timing_csv(timing, out_dir / "bench_times.csv")
    return EXIT_OK


_COMMANDS = {
    "tokenize": cmd_tokenize,
    "verify": cmd_verify,
    "train": cmd_train,
    "decode": cmd_decode,
    "bench": cmd_bench,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sidlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sidlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", required=True, help="path to the JSON config for this run")
        p.add_argument("--seed", type=int, default=None, help="override the config's seed")
        p.add_argument("--out-dir", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        out_dir = Path(
            args.out_dir
            or cfg.get("out_dir")
            or os.environ.get(OUT_ENV_VAR)
            or "sidlab_out"
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING


def entry() -> None:
    sys.exit(main())
