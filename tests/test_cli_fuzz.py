"""Fuzzed configs and input artifacts against the CLI's exit-code contract.

Each example starts from a valid set of documents for one subcommand (its
config and, for ``tokenize`` and ``decode``, the files the config names).
Once or twice it draws one document, then the document itself or a value
anywhere in it, and deletes or replaces what it drew; then it runs
``main``.  Drawing the document first keeps a short config from being
drowned out by the hundreds of values of a checkpoint.
Whatever the input, ``main`` must return a code in 0-5 without raising, and
every file it writes must be strict JSON or a CSV of finite numbers.

Every key that sizes work (k, X, C, N, trials, n_items, ...) only ever gets
values up to 64, so no example allocates much; huge floats go to float keys
only.  The decode widths ``beam_width`` and ``top_k`` also get 2**31 and
2**62: the decode documents are k=2, X=3, so a beam round never holds more
than 9 candidates whatever its width.
"""

import copy
import csv
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from sidlab import CascadedLogitModel, CodebookSpec, ParallelLogitModel, identity_token_map
from sidlab import model_to_json_dict
from sidlab.cli import main

FLOAT_KEYS = {"sigma", "tolerance", "lr", "alpha", "collapse_threshold", "bounds", "params",
              "rows"}
ANY_KEY = [None, True, False, "x", "", "2", [], {}, [1], -5, -1, 0, 1, 2, 64, 2.5, -0.5,
           float("nan"), float("inf"), float("-inf")]
FLOAT_KEY = ANY_KEY + [1e3, 1e308, -1e308]
WIDTH_KEYS = {"beam_width", "top_k"}
WIDTH_KEY = ANY_KEY + [2**31, 2**62]

SPEC = CodebookSpec(k=2, X=3)
EMBEDDINGS = [[0.1 * i, -0.2 * i, (-1.0) ** i] for i in range(12)]


def checkpoint_doc(form):
    cls = {"cascaded": CascadedLogitModel, "parallel": ParallelLogitModel}[form]
    return model_to_json_dict(cls.random(SPEC, 2, 0.5, seed=1))


def base_documents(command, variant):
    """The valid documents of one example: "config" plus the input files it names."""
    if command == "tokenize":
        config = {"seed": 0, "scheme": variant, "k": 2, "X": 3, "mode": "probe",
                  "collapse_threshold": 0.75, "kmeans": {"max_iters": 5},
                  "embeddings": {"kind": "csv", "path": "EMBEDDINGS"}}
        if variant == "fsq":
            config["fsq"] = {"levels": [3, 3], "bounds": [[-1.0, 1.0], [-0.5, 0.5]]}
        if variant == "rq_kmeans":
            config["embeddings"] = {"kind": "synth", "n_items": 12, "dim": 3}
        return {"config": config, "rows": copy.deepcopy(EMBEDDINGS)}
    if command == "verify":
        return {"config": {"seed": 0, "trials": 4, "forms": ["cascaded", "parallel"],
                           "k_values": [1, 2], "X_values": [2, 3], "C_values": [1, 2],
                           "sigma": 0.5, "tolerance": 1e-10, "map_mode": variant,
                           "items_per_context": 2}}
    if command == "train":
        return {"config": {"seed": 0, "world": {"C": 2, "N": 4, "alpha": 0.5, "uniform": False},
                           "spec": {"k": 2, "X": 2}, "form": variant, "init": {"sigma": 0.3},
                           "n_samples": 40, "lr": 0.2, "epochs": 2}}
    if command == "decode":
        form, method = variant.split("-")
        return {"config": {"seed": 0, "checkpoint": "CHECKPOINT", "token_map": "TOKEN_MAP",
                           "context": 1, "method": method, "beam_width": 4, "top_k": 3},
                "checkpoint": checkpoint_doc(form),
                "token_map": identity_token_map(SPEC).to_json_dict()}
    return {"config": {"seed": 0, "k_values": [1, 2], "X_values": [2, 4], "C": 1,
                       "include_timing": variant == "timing", "repeats": 2, "sigma": 0.5}}


VARIANTS = {
    "tokenize": ["identity", "rq_kmeans", "pq", "fsq"],
    "verify": ["strict", "probe_collision"],
    "train": ["cascaded", "parallel"],
    "decode": ["parallel-beam", "parallel-mtp", "cascaded-exact"],
    "bench": ["ops", "timing"],
}


def paths(node, prefix=()):
    """The path of every value below ``node``, as tuples of keys and indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


DELETE = object()


def mutate(docs, path, value):
    """Replace the value at ``path``, or delete it when ``value`` is ``DELETE``."""
    parent = docs
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


def write_inputs(docs, where):
    """Write the documents; the config's placeholder paths name the input files."""
    files = {"EMBEDDINGS": where / "emb.csv", "CHECKPOINT": where / "ckpt.json",
             "TOKEN_MAP": where / "map.json"}
    if "rows" in docs:
        rows = docs["rows"]
        lines = ["dim0,dim1,dim2"] + [
            ",".join(map(repr, row)) if isinstance(row, list) else repr(row)
            for row in (rows if isinstance(rows, list) else [rows])
        ]
        files["EMBEDDINGS"].write_text("\n".join(lines) + "\n")
    for name, placeholder in (("checkpoint", "CHECKPOINT"), ("token_map", "TOKEN_MAP")):
        if name in docs:
            files[placeholder].write_text(json.dumps(docs[name]))
    config = docs.get("config")
    text = json.dumps(config)
    for placeholder, path in files.items():
        text = text.replace(json.dumps(placeholder), json.dumps(str(path)))
    (where / "config.json").write_text(text)


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def assert_strict(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=reject_constant)
        return
    assert path.suffix == ".csv", path
    for row in csv.reader(text.splitlines()):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{path.name} holds {cell!r}"


def return_code_and_artifacts_hold(command, docs):
    """Run ``command`` on ``docs``: a code in 0-5, and only strict artifacts."""
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        write_inputs(docs, where)
        out = where / "out"
        code = main([command, "--config", str(where / "config.json"), "--out-dir", str(out)])
        assert code in range(6)
        for path in out.iterdir() if out.exists() else ():
            assert_strict(path)


@pytest.mark.parametrize("command", sorted(VARIANTS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_input_keeps_the_exit_contract(command, data):
    docs = base_documents(command, data.draw(st.sampled_from(VARIANTS[command])))
    for _ in range(data.draw(st.integers(1, 2))):
        if not docs:  # every document was deleted
            break
        name = data.draw(st.sampled_from(sorted(docs)))
        inside = paths(docs[name], (name,)) if isinstance(docs[name], (dict, list)) else ()
        path = data.draw(st.sampled_from([(name,), *inside]))
        keys = set(map(str, path))
        pool = FLOAT_KEY if FLOAT_KEYS & keys else WIDTH_KEY if WIDTH_KEYS & keys else ANY_KEY
        mutate(docs, path, data.draw(st.sampled_from([DELETE, *pool])))
    return_code_and_artifacts_hold(command, docs)


@pytest.mark.parametrize("value", [2**31, 2**62])
@pytest.mark.parametrize("key", sorted(WIDTH_KEYS))
@pytest.mark.parametrize("variant", VARIANTS["decode"])
def test_huge_decode_widths_keep_the_exit_contract(variant, key, value):
    # the draws above seldom give the two width keys these values
    docs = base_documents("decode", variant)
    mutate(docs, ("config", key), value)
    return_code_and_artifacts_hold("decode", docs)
