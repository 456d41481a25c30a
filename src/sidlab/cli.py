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
artifact.  Every config value is read through one typed reader, so a value
of the wrong JSON type, a non-integral float for an integer key or a
negative seed exits 4 as well.  So does a checkpoint or token map whose
``k``, ``X`` or ``C`` header is not a JSON integer (``1.9``, ``true`` or
``"2"``): headers are read as they are, never cast.

Exit 1 means a non-finite mean loss and nothing else: a run whose loss stays
finite exits 0 however poor the model, as ``train`` with ``lr: 1e6`` does
with a final KL near 1e6.  ``summary.json`` reports how good the model is;
the exit code does not judge it.  Non-finite values that a config or
checkpoint forces, such as an init ``sigma`` that draws ``inf`` or decoded
path scores that overflow, exit 4 before any artifact is written.  Every
artifact goes through :mod:`sidlab.artifacts`, so none ever holds NaN or an
infinity: a run that would write one exits 4 and leaves that file unwritten.
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
from .artifacts import NonFiniteError, write_csv, write_json
from .bench import OpsRow, TimingRow, count_softmax_ops, ops_sweep, time_losses
from .decoder import beam_search, exact_topk, mtp_decode
from .logits import (
    FORMS,
    MAX_TABLE_ENTRIES,
    FormError,
    model_from_json_dict,
    model_to_json_dict,
    table_entry_count,
)
from .losses import EquivalenceReport, check_context, summarize_reports
from .tokenizer import (
    DegenerateInputError,
    FSQModel,
    ItemEmbeddings,
    SubspaceSplitError,
    encode_fsq,
    encode_pq,
    encode_rq,
    fit_pq,
    fit_rq_kmeans,
    load_embeddings_bin,
    load_embeddings_csv,
    save_tokenizer,
    synth_embeddings,
)
from .trainer import (
    DivergenceError,
    EpochRecord,
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


_REQUIRED = object()
_JSON_TYPES = {str: "string", bool: "boolean", dict: "object", list: "array"}


def _cast(kind, v):
    if kind in _JSON_TYPES:
        if not isinstance(v, kind):
            raise TypeError(f"expected a JSON {_JSON_TYPES[kind]}")
        return v
    if kind is int and isinstance(v, float) and not v.is_integer():
        raise ValueError("not an integer")
    return kind(v)


def _value(cfg: dict, key: str, kind, default=_REQUIRED, many=False, low=None, choices=None):
    """``cfg[key]`` read as ``kind``, or ``default`` when the key is absent and one is given.

    ``kind`` is ``int`` (a non-integral float is refused, not truncated),
    ``float``, another cast such as :func:`_float_pair`, or one of the JSON
    types ``str``, ``bool``, ``dict`` and ``list``, which the value must
    already be.  ``many`` takes a list and reads each element.  A missing
    key, a value the read refuses, or one below ``low`` or outside
    ``choices`` is a ConfigError.
    """
    if default is _REQUIRED and key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    value = cfg.get(key, default)
    try:
        if many and not isinstance(value, list):
            raise TypeError("expected a JSON array")
        out = [_cast(kind, v) for v in (value if many else [value])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} has a bad value {value!r}: {exc}") from exc
    if low is not None and any(v < low for v in out):
        raise ConfigError(f"config key {key!r} must be >= {low}, got {value!r}")
    if choices is not None and any(v not in choices for v in out):
        raise ConfigError(f"config key {key!r} must be one of {list(choices)}, got {value!r}")
    return out if many else out[0]


def _seed(cfg: dict) -> int:
    return _value(cfg, "seed", int, 0, low=0)


def _float_pair(pair) -> tuple[float, float]:
    lo, hi = pair
    return float(lo), float(hi)


def _spec(k: int, X: int) -> CodebookSpec:
    try:
        return CodebookSpec(k=k, X=X)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _spec_from(cfg: dict) -> CodebookSpec:
    return _spec(_value(cfg, "k", int), _value(cfg, "X", int))


def _sweep_specs(k_values: list[int], X_values: list[int]) -> dict:
    """Every (k, X) spec of a sweep, built up front: a bad one fails before any work."""
    return {(k, X): _spec(k, X) for k in k_values for X in X_values}


def _check_table_size(spec: CodebookSpec, C: int, form: str) -> None:
    entries = table_entry_count(spec, C, form)
    if entries > MAX_TABLE_ENTRIES:
        raise ConfigError(f"model would hold {entries} table entries, cap is {MAX_TABLE_ENTRIES}")


def _random_model(form: str, spec: CodebookSpec, C: int, sigma: float, seed: int):
    """``FORMS[form].random``, refused when sigma is so wide that a draw overflows."""
    model = FORMS[form].random(spec, C, sigma, seed)
    if not all(np.isfinite(t).all() for t in model.tables):
        raise ConfigError(f"sigma {sigma!r} draws non-finite logits")
    return model


def _load_artifact_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"input artifact not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"artifact {path} is not valid JSON: {exc}") from exc


def _load_embeddings(cfg: dict, seed: int) -> ItemEmbeddings:
    loaders = {"csv": load_embeddings_csv, "bin": load_embeddings_bin}
    kind = _value(cfg, "kind", str, choices=("synth", *loaders))
    if kind == "synth":
        return synth_embeddings(
            _value(cfg, "n_items", int, low=1), _value(cfg, "dim", int, low=1), seed
        )
    path = _value(cfg, "path", str)
    if not Path(path).is_file():
        raise FileNotFoundError(f"embeddings file not found: {path}")
    try:
        return loaders[kind](path)
    except ValueError as exc:
        raise ConfigError(f"bad embeddings file: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_tokenize(cfg: dict, out_dir: Path) -> int:
    seed = _seed(cfg)
    scheme = _value(cfg, "scheme", str, choices=("identity", "rq_kmeans", "pq", "fsq"))
    spec = _spec_from(cfg)
    mode = _value(cfg, "mode", str, "strict", choices=("strict", "probe"))
    threshold = _value(cfg, "collapse_threshold", float, 0.75)
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"collapse_threshold must be in (0, 1], got {threshold!r}")
    kmeans_cfg = _value(cfg, "kmeans", dict, {})
    max_iters = _value(kmeans_cfg, "max_iters", int, 50, low=1)

    fitted = None
    if scheme == "identity":
        sequences = identity_token_map(spec).token_matrix
    elif scheme in ("rq_kmeans", "pq"):
        emb = _load_embeddings(_value(cfg, "embeddings", dict), seed)
        fit, encode = (fit_rq_kmeans, encode_rq) if scheme == "rq_kmeans" else (fit_pq, encode_pq)
        try:
            fitted = fit(emb, spec, max_iters=max_iters, seed=seed)
            sequences = encode(fitted, emb)
        except (DegenerateInputError, SubspaceSplitError) as exc:
            raise ConfigError(f"cannot fit {scheme} to these embeddings: {exc}") from exc
    else:  # fsq
        emb = _load_embeddings(_value(cfg, "embeddings", dict), seed)
        fsq_cfg = _value(cfg, "fsq", dict)
        levels = _value(fsq_cfg, "levels", int, many=True)
        if len(levels) != spec.k:
            raise ConfigError(f"fsq levels must list k={spec.k} entries")
        if max(levels) > spec.X:
            raise ConfigError(f"fsq levels {levels} exceed X={spec.X}")
        if emb.dim < len(levels):
            raise ConfigError(f"embeddings have {emb.dim} dims, fsq levels need {len(levels)}")
        bounds = _value(fsq_cfg, "bounds", _float_pair, [[-1.0, 1.0]] * spec.k, many=True)
        try:
            fitted = FSQModel(levels=levels, per_dim_bounds=bounds)
            sequences = encode_fsq(fitted, emb)
        except ValueError as exc:  # DegenerateInputError: bounds too narrow for the values
            raise ConfigError(f"bad fsq config: {exc}") from exc

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
    write_json(out_dir / "audit.json", audit_payload)
    if code == EXIT_OK:
        tmap.save(out_dir / "token_map.json")
    if fitted is not None:
        save_tokenizer(fitted, out_dir / "tokenizer.json")
    write_json(
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


def _probe_map_with_duplicate(identity: TokenMap, dup_item: int) -> TokenMap:
    """``identity`` plus one extra item repeating ``dup_item``'s sequence."""
    table = identity.token_matrix
    return TokenMap(identity.spec, np.vstack([table, table[dup_item]]), "probe")


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    seed = _seed(cfg)
    trials = _value(cfg, "trials", int, 100, low=0)
    forms = _value(cfg, "forms", str, ["cascaded", "parallel"], many=True, choices=FORMS)
    k_values = _value(cfg, "k_values", int, [1, 2, 3], many=True, low=1)
    X_values = _value(cfg, "X_values", int, [2, 3, 4], many=True, low=2)
    C_values = _value(cfg, "C_values", int, [1, 2, 4], many=True, low=1)
    if not (forms and k_values and X_values and C_values):
        raise ConfigError("forms, k_values, X_values and C_values must each be non-empty")
    sigma = _value(cfg, "sigma", float, 0.5, low=0.0)
    tolerance = _value(cfg, "tolerance", float, 1e-10)
    if not (np.isfinite(sigma) and np.isfinite(tolerance)):
        # a NaN tolerance would pass every gap, a NaN sigma give NaN gaps that pass it
        raise ConfigError(f"sigma and tolerance must be finite, got {sigma!r} and {tolerance!r}")
    map_mode = _value(cfg, "map_mode", str, "strict", choices=("strict", "probe_collision"))
    items_per_context = _value(cfg, "items_per_context", int, 2, low=0)
    specs = _sweep_specs(k_values, X_values)
    for spec in specs.values():
        if spec.sequence_space_size > MAX_TABLE_ENTRIES:
            raise ConfigError(
                f"k={spec.k}, X={spec.X} has {spec.sequence_space_size} sequences, "
                f"cap is {MAX_TABLE_ENTRIES}"
            )
        for form in forms:
            for C in C_values:
                _check_table_size(spec, C, form)

    rng = np.random.default_rng(seed)
    identities: dict[CodebookSpec, TokenMap] = {}
    reports = []
    per_form: dict[str, list] = {form: [] for form in forms}
    for t in range(trials):
        spec = specs[int(rng.choice(k_values)), int(rng.choice(X_values))]
        C = int(rng.choice(C_values))
        form = forms[t % len(forms)]
        model = _random_model(form, spec, C, sigma, int(rng.integers(2**31)))
        if spec not in identities:
            identities[spec] = identity_token_map(spec)
        tmap = identities[spec]
        if map_mode == "probe_collision":
            tmap = _probe_map_with_duplicate(tmap, int(rng.integers(spec.sequence_space_size)))
        n_pick = min(items_per_context, tmap.n_items)
        for h in range(C):
            items = rng.choice(tmap.n_items, size=n_pick, replace=False)
            context_reports = check_context(model, h, tmap, items)
            reports.extend(context_reports)
            per_form[form].extend(context_reports)

    chash = _config_hash(cfg)
    write_csv(out_dir / "equivalence.csv", EquivalenceReport, reports)
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
    write_json(out_dir / "summary.json", summary)

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
    seed = _seed(cfg)
    world_cfg = _value(cfg, "world", dict)
    spec = _spec_from(_value(cfg, "spec", dict))
    C = _value(world_cfg, "C", int)
    N = _value(world_cfg, "N", int)
    if N != spec.sequence_space_size:
        raise ConfigError(f"world N={N} must equal X**k={spec.sequence_space_size}")
    form = _value(cfg, "form", str, "cascaded", choices=FORMS)
    _check_table_size(spec, C, form)
    lr = _value(cfg, "lr", float, low=0.0)
    epochs = _value(cfg, "epochs", int, low=1)
    n_samples = _value(cfg, "n_samples", int, low=1)

    rng = np.random.default_rng(seed)
    world_seed, data_seed, shuffle_seed, init_seed = (
        int(v) for v in rng.integers(0, 2**31, size=4)
    )
    try:
        world = synth_world(
            C,
            N,
            _value(world_cfg, "alpha", float, 1.0),
            world_seed,
            uniform=_value(world_cfg, "uniform", bool, False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    data = sample_dataset(world, n_samples, data_seed)

    init_cfg = cfg.get("init", "zeros")
    if init_cfg == "zeros":
        model = FORMS[form].zeros(spec, C)
    elif isinstance(init_cfg, dict) and "sigma" in init_cfg:
        model = _random_model(form, spec, C, _value(init_cfg, "sigma", float, low=0.0), init_seed)
    else:
        raise ConfigError("init must be 'zeros' or an object with a 'sigma' key")
    tmap = identity_token_map(spec)
    tmap.save(out_dir / "token_map.json")

    chash = _config_hash(cfg)

    def checkpoint(m, path):
        payload = model_to_json_dict(m)
        payload.update({"config_sha256": chash, "seed": seed})
        write_json(path, payload)

    checkpoint(model, out_dir / "checkpoint_init.json")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite KL is write_json's to reject
        initial_kl = eval_kl(model, tmap, world)
        initial_kl_chain = eval_kl_chain(model, tmap, world)
    try:
        trained, records = train_sgd(model, tmap, data, lr, epochs, shuffle_seed, world=world)
    except DivergenceError as exc:
        print(f"train: {exc}", file=sys.stderr)
        return 1
    checkpoint(trained, out_dir / "checkpoint_final.json")
    write_csv(out_dir / "trace.csv", EpochRecord, records)
    with np.errstate(over="ignore", invalid="ignore"):
        final_kl_chain = eval_kl_chain(trained, tmap, world)
    last = records[-1]
    write_json(
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
            "final_kl_chain": final_kl_chain,
            "final_mean_ntp_loss": last.mean_ntp_loss,
            "final_mean_fv_mle_loss": last.mean_fv_mle_loss,
        },
    )
    return EXIT_OK


def cmd_decode(cfg: dict, out_dir: Path) -> int:
    seed = _seed(cfg)
    checkpoint = _load_artifact_json(_value(cfg, "checkpoint", str))
    token_map = _load_artifact_json(_value(cfg, "token_map", str))
    try:
        model = model_from_json_dict(checkpoint)
        tmap = TokenMap.from_json_dict(token_map)
    except Exception as exc:
        raise ConfigError(f"bad checkpoint or token map artifact: {exc!r}") from exc
    if tmap.spec != model.spec:
        raise ConfigError(
            f"token map spec {tmap.spec} does not match checkpoint spec {model.spec}"
        )
    h = _value(cfg, "context", int)
    if not 0 <= h < model.C:
        raise ConfigError(f"context {h} outside [0, {model.C})")
    method = _value(cfg, "method", str, choices=("beam", "exact", "mtp"))
    top_k = _value(cfg, "top_k", int, 1)

    try:
        if method == "exact":
            hits = [(item, tmap.forward(item), score)
                    for item, score in exact_topk(model, h, tmap, top_k)]
        else:
            found = (beam_search(model, h, _value(cfg, "beam_width", int, top_k), top_k)
                     if method == "beam" else mtp_decode(model, h, top_k))
            hits = [(tmap.inverse(s.sequence), s.sequence, s.score) for s in found]
    except (FormError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    results = [
        {"rank": r, "tokens": list(tokens), "score": score, "item_id": item}
        for r, (item, tokens, score) in enumerate(hits)
    ]
    if not all(np.isfinite(r["score"]) for r in results):
        raise ConfigError("decoded path scores overflow: the checkpoint's logits are too large")

    write_json(
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
    seed = _seed(cfg)
    k_values = _value(cfg, "k_values", int, [1, 2, 3, 4], many=True, low=1)
    X_values = _value(cfg, "X_values", int, [4, 8, 16], many=True, low=2)
    C = _value(cfg, "C", int, 1, low=1)
    include_timing = _value(cfg, "include_timing", bool, False)
    _sweep_specs(k_values, X_values)
    rows = ops_sweep(k_values, X_values, C=C)
    write_csv(out_dir / "bench_ops.csv", OpsRow, rows)
    headline = count_softmax_ops(CodebookSpec(k=3, X=256))
    chash = _config_hash(cfg)
    write_json(
        out_dir / "summary.json",
        {
            "command": "bench",
            "config_sha256": chash,
            "seed": seed,
            "n_rows": len(rows),
            "include_timing": include_timing,
            "reference_k3_X256": {
                "ntp_ops": headline.ntp_ops,
                "full_ops": headline.full_ops,
                "ratio": headline.ratio,
            },
        },
    )
    if include_timing:
        timing = time_losses(
            k_values,
            X_values,
            C=C,
            repeats=_value(cfg, "repeats", int, 5, low=1),
            sigma=_value(cfg, "sigma", float, 0.5, low=0.0),
            seed=seed,
        )
        write_csv(out_dir / "bench_times.csv", TimingRow, timing)
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
            or _value(cfg, "out_dir", str, "")
            or os.environ.get(OUT_ENV_VAR)
            or "sidlab_out"
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, NonFiniteError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING


def entry() -> None:
    sys.exit(main())
