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
artifact.  An output directory that cannot be made (the path is a file, or
lies below one) exits 4.  ``main`` reads the whole config through its
subcommand's table in ``TABLES`` before any work.  So these exit 4 too: a
key the table does not declare, at any depth (a misspelt ``topk``); a value
of the wrong JSON type; an integer key given anything but a plain JSON
integer (``2.0``, ``true``, ``"2"``); a float key given a string or a bool; a
value below its bound.  A float key takes any JSON number, ``Infinity``
included, but a key with a lower bound (``lr``, ``sigma``) refuses ``NaN``,
which meets no bound.  The ``k``, ``X`` and ``C`` headers of a checkpoint or
token map follow the same integer rule: they are read as they are, never
cast.

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
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .artifacts import NonFiniteError, read_json, write_csv, write_json
from .decoder import beam_search, exact_topk, mtp_decode
from .logits import (
    FORMS,
    MAX_TABLE_ENTRIES,
    FormError,
    model_from_json_dict,
    model_to_json_dict,
    table_entry_count,
)
from .losses import REPORT_COLUMNS, check_contexts, summarize_reports
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


def _config_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _artifact_json(path: Path):
    return read_json(path.read_bytes())


def _load_json(path: str, what: str, missing=FileNotFoundError, read=_config_json):
    """The JSON document at ``path``, read by ``read``: a config as text by
    ``json.loads``, an artifact as bytes by ``read_json``.  ``missing`` is
    raised when there is none."""
    p = Path(path)
    if not p.is_file():
        raise missing(f"{what} not found: {path}")
    try:
        return read(p)
    # JSONDecodeError, an integer of over 4300 digits, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


class Key(NamedTuple):
    """One config key.

    ``kind`` is ``int`` (a plain JSON integer: ``2.0``, ``true`` and ``"2"``
    are refused), ``float`` (any JSON number but a bool), ``str``, ``bool``,
    ``[kind]`` for an array, or a table for a nested object, whose
    ``choices`` are the strings that may stand in its place.  ``low`` and
    ``choices`` bound a number or string, each element of an array.  A
    ``default`` of ``...`` makes the key required; ``None`` leaves it unset,
    for a key that one variant alone reads and checks.
    """

    kind: object
    default: object = ...
    low: object = None
    choices: object = None


def _missing(where: str) -> ConfigError:
    return ConfigError(f"config is missing required key {where!r}")


def _read(key: Key, value, where: str):
    """``value`` read as ``key`` declares, or a ConfigError that names ``where``.

    A table takes only the keys it declares, and reads every one of them, an
    absent key as its default, so a nested table's defaults fill in too.
    """
    kind = key.kind
    if isinstance(kind, dict):
        if value in (key.choices or ()):
            return value
        if not isinstance(value, dict):
            raise ConfigError(f"config key {where!r} must be a JSON object, got {value!r}")
        for name in value:
            if name not in kind:
                raise ConfigError(f"unknown config key {f'{where}.{name}'!r}")
        out = {}
        for name, sub in kind.items():
            path = f"{where}.{name}"
            if name in value:
                out[name] = _read(sub, value[name], path)
            elif sub.default is ...:
                raise _missing(path)
            else:
                out[name] = None if sub.default is None else _read(sub, sub.default, path)
        return out
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {where!r} must be a JSON array, got {value!r}")
        item = key._replace(kind=kind[0])
        return [_read(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    if kind is float and type(value) in (int, float):
        try:
            value = float(value)
        except OverflowError as exc:
            raise ConfigError(f"config key {where!r} is too large for a float") from exc
    elif type(value) is not kind:
        raise ConfigError(f"config key {where!r} must be a JSON {kind.__name__}, got {value!r}")
    if key.low is not None and not value >= key.low:  # NaN too
        raise ConfigError(f"config key {where!r} must be >= {key.low}, got {value!r}")
    if key.choices is not None and value not in key.choices:
        raise ConfigError(f"config key {where!r} must be one of {list(key.choices)}, got {value!r}")
    return value


def _spec(k: int, X: int) -> CodebookSpec:
    try:
        return CodebookSpec(k=k, X=X)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _load_embeddings(emb: dict | None, seed: int):
    """The ``tokenizer.ItemEmbeddings`` that ``tokenize.embeddings`` names."""
    from . import tokenizer

    if emb is None:
        raise _missing("tokenize.embeddings")
    if emb["kind"] == "synth":
        if emb["n_items"] is None or emb["dim"] is None:
            raise ConfigError("synth embeddings need 'tokenize.embeddings.n_items' and '.dim'")
        return tokenizer.synth_embeddings(emb["n_items"], emb["dim"], seed)
    path = emb["path"]
    if path is None:
        raise _missing("tokenize.embeddings.path")
    loaders = {"csv": tokenizer.load_embeddings_csv, "bin": tokenizer.load_embeddings_bin}
    if not Path(path).is_file():
        raise FileNotFoundError(f"embeddings file not found: {path}")
    try:
        return loaders[emb["kind"]](path)
    except ValueError as exc:
        raise ConfigError(f"bad embeddings file: {exc}") from exc


# ---------------------------------------------------------------------------
# config tables: main reads the whole config through one of these before any work

_COMMON = {"seed": Key(int, 0, low=0), "out_dir": Key(str, "")}
_SPEC = {"k": Key(int, low=1), "X": Key(int, low=2)}
_EMBEDDINGS = {
    "kind": Key(str, choices=("synth", "csv", "bin")),
    "n_items": Key(int, None, low=1),  # synth
    "dim": Key(int, None, low=1),  # synth
    "path": Key(str, None),  # csv and bin
}
_KMEANS = {"max_iters": Key(int, 50, low=1)}
_FSQ = {"levels": Key([int]), "bounds": Key([[float]], None)}  # unset bounds: [-1, 1] each
_WORLD = {
    "C": Key(int, low=1), "N": Key(int), "alpha": Key(float, 1.0), "uniform": Key(bool, False)
}
_INIT = {"sigma": Key(float, low=0.0)}

TABLES = {
    "tokenize": {
        **_COMMON,
        "scheme": Key(str, choices=("identity", "rq_kmeans", "pq", "fsq")),
        **_SPEC,
        "mode": Key(str, "strict", choices=("strict", "probe")),
        "collapse_threshold": Key(float, 0.75),
        "kmeans": Key(_KMEANS, {}),
        "embeddings": Key(_EMBEDDINGS, None),  # every scheme but identity
        "fsq": Key(_FSQ, None),  # fsq
    },
    "verify": {
        **_COMMON,
        "trials": Key(int, 100, low=0),
        "forms": Key([str], ["cascaded", "parallel"], choices=FORMS),
        "k_values": Key([int], [1, 2, 3], low=1),
        "X_values": Key([int], [2, 3, 4], low=2),
        "C_values": Key([int], [1, 2, 4], low=1),
        "sigma": Key(float, 0.5, low=0.0),
        "tolerance": Key(float, 1e-10),
        "map_mode": Key(str, "strict", choices=("strict", "probe_collision")),
        "items_per_context": Key(int, 2, low=0),
    },
    "train": {
        **_COMMON,
        "world": Key(_WORLD),
        "spec": Key(_SPEC),
        "form": Key(str, "cascaded", choices=FORMS),
        "init": Key(_INIT, "zeros", choices=("zeros",)),
        "lr": Key(float, low=0.0),
        "epochs": Key(int, low=1),
        "n_samples": Key(int, low=1),
    },
    "decode": {
        **_COMMON,
        "checkpoint": Key(str),
        "token_map": Key(str),
        "context": Key(int),
        "method": Key(str, choices=("beam", "exact", "mtp")),
        "top_k": Key(int, 1, low=1),
        "beam_width": Key(int, None),  # beam; top_k when unset
    },
    "bench": {
        **_COMMON,
        "k_values": Key([int], [1, 2, 3, 4], low=1),
        "X_values": Key([int], [4, 8, 16], low=2),
        "C": Key(int, 1, low=1),
    },
}


# ---------------------------------------------------------------------------
# subcommands


def cmd_tokenize(cfg: dict, out_dir: Path, chash: str) -> int:
    from . import tokenizer

    seed, scheme, mode = cfg["seed"], cfg["scheme"], cfg["mode"]
    spec = _spec(cfg["k"], cfg["X"])
    threshold = cfg["collapse_threshold"]
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"collapse_threshold must be in (0, 1], got {threshold!r}")
    fsq = cfg["fsq"]
    if scheme == "fsq":
        if fsq is None:
            raise _missing("tokenize.fsq")
        levels = fsq["levels"]
        if len(levels) != spec.k:
            raise ConfigError(f"fsq levels must list k={spec.k} entries")
        if max(levels) > spec.X:
            raise ConfigError(f"fsq levels {levels} exceed X={spec.X}")

    fitted = None
    if scheme == "identity":
        sequences = identity_token_map(spec).token_matrix
    elif scheme in ("rq_kmeans", "pq"):
        emb = _load_embeddings(cfg["embeddings"], seed)
        fit, encode = ((tokenizer.fit_rq_kmeans, tokenizer.encode_rq) if scheme == "rq_kmeans"
                       else (tokenizer.fit_pq, tokenizer.encode_pq))
        try:
            fitted = fit(emb, spec, max_iters=cfg["kmeans"]["max_iters"], seed=seed)
            sequences = encode(fitted, emb)
        except (tokenizer.DegenerateInputError, tokenizer.SubspaceSplitError) as exc:
            raise ConfigError(f"cannot fit {scheme} to these embeddings: {exc}") from exc
    else:  # fsq
        emb = _load_embeddings(cfg["embeddings"], seed)
        bounds = [[-1.0, 1.0]] * spec.k if fsq["bounds"] is None else fsq["bounds"]
        try:
            fitted = tokenizer.FSQModel(levels=levels, per_dim_bounds=bounds)
            sequences = tokenizer.encode_fsq(fitted, emb)
        except ValueError as exc:  # too few columns, or bounds too narrow for the values
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

    audit_payload = report.to_json_dict()
    audit_payload.update({"config_sha256": chash, "seed": seed, "scheme": scheme})
    write_json(out_dir / "audit.json", audit_payload)
    if code == EXIT_OK:
        tmap.save(out_dir / "token_map.json")
    if fitted is not None:
        tokenizer.save_tokenizer(fitted, out_dir / "tokenizer.json")
    write_json(out_dir / "summary.json", {
        "command": "tokenize", "config_sha256": chash, "seed": seed, "scheme": scheme,
        "mode": mode, "n_items": tmap.n_items,
        "status": "ok" if code == EXIT_OK else "bijection_failure", "error": error_message,
    })
    if code != EXIT_OK:
        print(f"tokenize: bijection failure: {error_message}", file=sys.stderr)
    return code


# a verify batch holds at most max(1, this // X**k) contexts: the batch's
# (contexts, X**k) sequence scores and flat masses then stay near 64 KB each
_VERIFY_BATCH_SEQUENCES = 2**13


def _verify_rows(form: str, sigma: float, drawn: list, members: list[int]):
    """(trial, context, the context's table rows, its items) of every context
    of the trials ``members``, building each trial's model once."""
    for t in members:
        spec, C, model_seed, _, items = drawn[t]
        tables = _random_model(form, spec, C, sigma, model_seed).tables
        for h in range(C):
            yield t, h, [tab[h] for tab in tables], items[h]


def _probe_map_with_duplicate(identity: TokenMap, dup_item: int) -> TokenMap:
    """``identity`` plus one extra item repeating ``dup_item``'s sequence."""
    table = identity.token_matrix
    return TokenMap(identity.spec, np.vstack([table, table[dup_item]]), "probe")


def _columns(row_type, rows) -> dict[str, list]:
    """Dataclass rows as one list per field of ``row_type``, for ``write_csv``."""
    return {field.name: [getattr(row, field.name) for row in rows]
            for field in dataclasses.fields(row_type)}


def cmd_verify(cfg: dict, out_dir: Path, chash: str) -> int:
    seed, trials, forms = cfg["seed"], cfg["trials"], cfg["forms"]
    k_values, X_values, C_values = cfg["k_values"], cfg["X_values"], cfg["C_values"]
    if not (forms and k_values and X_values and C_values):
        raise ConfigError("forms, k_values, X_values and C_values must each be non-empty")
    sigma, tolerance = cfg["sigma"], cfg["tolerance"]
    if not (np.isfinite(sigma) and np.isfinite(tolerance)):
        # a NaN tolerance would pass every gap, a NaN sigma give NaN gaps that pass it
        raise ConfigError(f"sigma and tolerance must be finite, got {sigma!r} and {tolerance!r}")
    map_mode, items_per_context = cfg["map_mode"], cfg["items_per_context"]
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

    # every draw first, in the trials' order; no model draws from rng
    rng = np.random.default_rng(seed)
    drawn = []  # per trial: (spec, C, model seed, probe duplicate or None, (C, n_pick) items)
    groups: dict[tuple, list[int]] = {}  # (form, spec, own map or None) -> trials
    for t in range(trials):
        spec = specs[int(rng.choice(k_values)), int(rng.choice(X_values))]
        C = int(rng.choice(C_values))
        model_seed = int(rng.integers(2**31))
        n_items, dup = spec.sequence_space_size, None
        if map_mode == "probe_collision":
            dup = int(rng.integers(n_items))
            n_items += 1
        items = np.empty((C, min(items_per_context, n_items)), dtype=np.int64)
        for h in range(C):
            items[h] = rng.choice(n_items, size=items.shape[1], replace=False)
        drawn.append((spec, C, model_seed, dup, items))
        key = (forms[t % len(forms)], spec, None if dup is None else t)
        groups.setdefault(key, []).append(t)

    identities: dict[CodebookSpec, TokenMap] = {}
    parts = []  # per batch: its columns, with each row's trial and the trial's own context ids
    for (form, spec, own), members in groups.items():
        if spec not in identities:
            identities[spec] = identity_token_map(spec)
        tmap = identities[spec]
        if own is not None:
            tmap = _probe_map_with_duplicate(tmap, drawn[own][3])
        rows = _verify_rows(form, sigma, drawn, members)
        cap = max(1, _VERIFY_BATCH_SEQUENCES // spec.sequence_space_size)
        while batch := list(itertools.islice(rows, cap)):
            # one model holds the batch's (trial, context) rows, in order
            tables = [np.stack([tabs[m] for _, _, tabs, _ in batch]) for m in range(spec.k)]
            items = np.stack([row_items for *_, row_items in batch])
            got = check_contexts(FORMS[form](spec, len(batch), tables), tmap, items)
            ids = np.repeat([(t, h) for t, h, *_ in batch], items.shape[1], axis=0)
            got["context"] = ids[:, 1]  # the trial's own context id, not the batch's
            parts.append(dict(got, trial=ids[:, 0]))
    merged = {name: np.concatenate([part[name] for part in parts] or [np.empty(0, np.int64)])
              for name in ("trial", *REPORT_COLUMNS)}
    order = np.argsort(merged["trial"], kind="stable")  # each trial's rows in checking order
    columns = {name: merged[name][order] for name in REPORT_COLUMNS}
    form_of = np.asarray(forms)[merged["trial"][order] % len(forms)]

    write_csv(out_dir / "equivalence.csv", columns)
    summary = summarize_reports(columns)
    summary.update({
        "command": "verify", "config_sha256": chash, "seed": seed, "trials": trials,
        "map_mode": map_mode, "tolerance": tolerance,
        "per_form": {form: summarize_reports({n: c[form_of == form] for n, c in columns.items()})
                     for form in forms},
    })
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


def cmd_train(cfg: dict, out_dir: Path, chash: str) -> int:
    from . import trainer

    seed, form, init = cfg["seed"], cfg["form"], cfg["init"]
    lr, epochs, n_samples = cfg["lr"], cfg["epochs"], cfg["n_samples"]
    world_cfg = cfg["world"]
    spec = _spec(cfg["spec"]["k"], cfg["spec"]["X"])
    C, N = world_cfg["C"], world_cfg["N"]
    if N != spec.sequence_space_size:
        raise ConfigError(f"world N={N} must equal X**k={spec.sequence_space_size}")
    _check_table_size(spec, C, form)

    rng = np.random.default_rng(seed)
    world_seed, data_seed, shuffle_seed, init_seed = (
        int(v) for v in rng.integers(0, 2**31, size=4)
    )
    try:
        world = trainer.synth_world(C, N, world_cfg["alpha"], world_seed,
                                    uniform=world_cfg["uniform"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    data = trainer.sample_dataset(world, n_samples, data_seed)

    if init == "zeros":
        model = FORMS[form].zeros(spec, C)
    else:
        model = _random_model(form, spec, C, init["sigma"], init_seed)
    tmap = identity_token_map(spec)
    tmap.save(out_dir / "token_map.json")

    def checkpoint(m, path):
        payload = model_to_json_dict(m)
        payload.update({"config_sha256": chash, "seed": seed})
        write_json(path, payload)

    checkpoint(model, out_dir / "checkpoint_init.json")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite KL is write_json's to reject
        initial_kl = trainer.eval_kl(model, tmap, world)
        initial_kl_chain = trainer.eval_kl_chain(model, tmap, world)
    try:
        trained, records = trainer.train_sgd(model, tmap, data, lr, epochs, shuffle_seed,
                                             world=world)
    except trainer.DivergenceError as exc:
        print(f"train: {exc}", file=sys.stderr)
        return 1
    checkpoint(trained, out_dir / "checkpoint_final.json")
    write_csv(out_dir / "trace.csv", _columns(trainer.EpochRecord, records))
    with np.errstate(over="ignore", invalid="ignore"):
        final_kl_chain = trainer.eval_kl_chain(trained, tmap, world)
    last = records[-1]
    write_json(out_dir / "summary.json", {
        "command": "train", "config_sha256": chash, "seed": seed, "form": form,
        "epochs": epochs, "n_samples": n_samples, "lr": lr,
        "initial_kl": initial_kl, "initial_kl_chain": initial_kl_chain,
        "final_kl": last.kl, "final_kl_chain": final_kl_chain,
        "final_mean_ntp_loss": last.mean_ntp_loss,
        "final_mean_fv_mle_loss": last.mean_fv_mle_loss,
    })
    return EXIT_OK


def cmd_decode(cfg: dict, out_dir: Path, chash: str) -> int:
    h, method, top_k = cfg["context"], cfg["method"], cfg["top_k"]
    width = top_k if cfg["beam_width"] is None else cfg["beam_width"]
    # both files are parsed before either is read: a missing token map exits 5
    # even where the checkpoint parses but does not fit
    checkpoint = _load_json(cfg["checkpoint"], "input artifact", read=_artifact_json)
    token_map = _load_json(cfg["token_map"], "input artifact", read=_artifact_json)
    try:
        model = model_from_json_dict(checkpoint)
        tmap = TokenMap.from_json_dict(token_map)
    except Exception as exc:
        raise ConfigError(f"bad checkpoint or token map artifact: {exc!r}") from exc
    if tmap.spec != model.spec:
        raise ConfigError(
            f"token map spec {tmap.spec} does not match checkpoint spec {model.spec}"
        )
    if not 0 <= h < model.C:
        raise ConfigError(f"context {h} outside [0, {model.C})")
    if top_k > tmap.n_items:  # for every method, not only exact's own check
        raise ConfigError(f"top_k {top_k} exceeds the token map's {tmap.n_items} items")

    try:
        if method == "exact":
            hits = [(item, tmap.forward(item), score)
                    for item, score in exact_topk(model, h, tmap, top_k)]
        else:
            found = (beam_search(model, h, width, top_k)
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

    write_json(out_dir / "decode.json", {
        "command": "decode", "config_sha256": chash, "seed": cfg["seed"], "method": method,
        "context": h, "results": results,
    })
    return EXIT_OK


def cmd_bench(cfg: dict, out_dir: Path, chash: str) -> int:
    from . import bench

    k_values, X_values = cfg["k_values"], cfg["X_values"]
    _sweep_specs(k_values, X_values)
    rows = bench.ops_sweep(k_values, X_values, C=cfg["C"])
    write_csv(out_dir / "bench_ops.csv", _columns(bench.OpsRow, rows))
    headline = bench.count_softmax_ops(CodebookSpec(k=3, X=256))
    write_json(out_dir / "summary.json", {
        "command": "bench", "config_sha256": chash, "seed": cfg["seed"], "n_rows": len(rows),
        "reference_k3_X256": {"ntp_ops": headline.ntp_ops, "full_ops": headline.full_ops,
                              "ratio": headline.ratio},
    })
    return EXIT_OK


_COMMANDS = {
    "tokenize": cmd_tokenize,
    "verify": cmd_verify,
    "train": cmd_train,
    "decode": cmd_decode,
    "bench": cmd_bench,
}


@functools.cache
def build_parser() -> _Parser:
    """The command line parser, built once per process: building it takes
    about 1 ms, a parse about 40 us, and a parse leaves the parser as it was."""
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
        raw = _load_json(args.config, "config file", ConfigError)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if args.seed is not None:
            raw["seed"] = int(args.seed)
        out_dir = Path(
            args.out_dir
            or _read(_COMMON["out_dir"], raw.get("out_dir", ""), f"{args.command}.out_dir")
            or os.environ.get(OUT_ENV_VAR)
            or "sidlab_out"
        )
        try:
            out_dir.mkdir(parents=True, exist_ok=True)  # so a config error leaves it empty
        except OSError as exc:  # a file, or a path below one
            raise ConfigError(f"output directory {str(out_dir)!r} is unusable: {exc}") from exc
        cfg = _read(Key(TABLES[args.command]), raw, args.command)
        return _COMMANDS[args.command](cfg, out_dir, _config_hash(raw))
    except (ConfigError, NonFiniteError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING


def entry() -> None:
    sys.exit(main())
