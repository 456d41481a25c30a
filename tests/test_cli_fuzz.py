"""Fuzzed configs and input artifacts against the CLI's exit-code contract.

Each example starts from a valid set of documents for one subcommand (its
config and, for ``tokenize`` and ``decode``, the files the config names).
Once or twice it draws one document, then the document itself or a value
anywhere in it, and deletes or replaces what it drew; then it runs
``main``.  In the config, the draw also reaches every key that the
subcommand's table in ``cli.TABLES`` declares but the document leaves out,
and a key no table declares may be inserted into any config object.
Drawing the document first keeps a short config from being drowned out by
the hundreds of values of a checkpoint.
Whatever the input, ``main`` must return a code in 0-5 without raising, and
every file it writes must be strict JSON or a CSV of finite numbers.  A
config that still holds an undeclared key must exit 4 and write nothing.

Every key that sizes work (k, X, C, N, trials, n_items, ...) only ever gets
values up to 64, so no example allocates much: no byte cap bounds their
product.  Huge floats go only to the keys whose table kind is float, and to
the float cells of checkpoints and embedding rows.  The decode widths
``beam_width`` and ``top_k`` also get 2**31 and 2**62: the decode documents
are k=2, X=3, so a beam round never holds more than 9 candidates whatever
its width.
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
from sidlab.cli import EXIT_CONFIG, TABLES, main

ARTIFACT_FLOAT_KEYS = {"params", "rows"}  # the float cells of checkpoints and embeddings
ANY_KEY = [None, True, False, "x", "", "2", [], {}, [1], -5, -1, 0, 1, 2, 64, 2.5, -0.5,
           float("nan"), float("inf"), float("-inf")]
FLOAT_KEY = ANY_KEY + [1e3, 1e308, -1e308]
WIDTH_KEYS = {"beam_width", "top_k"}
WIDTH_KEY = ANY_KEY + [2**31, 2**62]
# keys no table declares: misspellings, removed keys, a case slip
UNDECLARED = ["topk", "sigmaa", "x", "include_timing", "max_table_entries", ""]

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
    return {"config": {"seed": 0, "k_values": [1, 2], "X_values": [2, 4], "C": 1}}


VARIANTS = {
    "tokenize": ["identity", "rq_kmeans", "pq", "fsq"],
    "verify": ["strict", "probe_collision"],
    "train": ["cascaded", "parallel"],
    "decode": ["parallel-beam", "parallel-mtp", "cascaded-exact"],
    "bench": ["ops"],
}


def paths(node, prefix=()):
    """The path of every value below ``node``, as tuples of keys and indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


def config_objects(node, table, prefix=("config",)):
    """(path, object, table) of the config object ``node`` and of each object in it."""
    yield prefix, node, table
    for name, key in table.items():
        if isinstance(key.kind, dict) and isinstance(node.get(name), dict):
            yield from config_objects(node[name], key.kind, prefix + (name,))


def declared_key(command, path):
    """The table key that declares the config value at ``path``, or None."""
    key, table = None, TABLES[command]
    for step in path[1:]:
        if isinstance(step, int):  # an array element: its array's key declares it
            continue
        if table is None or step not in table:
            return None
        key = table[step]
        table = key.kind if isinstance(key.kind, dict) else None
    return key


def pool(command, path):
    """The values a draw may put at ``path``: by its table kind in a config, else by name."""
    names = set(map(str, path))
    if path[0] != "config":
        return FLOAT_KEY if ARTIFACT_FLOAT_KEYS & names else ANY_KEY
    if WIDTH_KEYS & names:
        return WIDTH_KEY
    key = declared_key(command, path)
    kind = key.kind if key else None
    while isinstance(kind, list):
        kind = kind[0]
    return FLOAT_KEY if kind is float else ANY_KEY


def holds_undeclared_key(command, docs):
    """Whether the config, or an object nested in it, holds a key its table lacks."""
    config = docs.get("config")
    return isinstance(config, dict) and any(
        name not in table for _, node, table in config_objects(config, TABLES[command])
        for name in node
    )


DELETE = object()


def mutate(docs, path, value):
    """Set the value at ``path``, or delete it (if there) when ``value`` is ``DELETE``."""
    parent = docs
    for key in path[:-1]:
        parent = parent[key]
    if value is not DELETE:
        parent[path[-1]] = copy.deepcopy(value)
    elif isinstance(parent, list) or path[-1] in parent:
        del parent[path[-1]]


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
    """Run ``command`` on ``docs``: a code in 0-5, and only strict artifacts.

    Returns the code and the names of the files written."""
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        write_inputs(docs, where)
        out = where / "out"
        code = main([command, "--config", str(where / "config.json"), "--out-dir", str(out)])
        assert code in range(6)
        written = sorted(path.name for path in out.iterdir()) if out.exists() else []
        for name in written:
            assert_strict(out / name)
    return code, written


@pytest.mark.parametrize("command", sorted(VARIANTS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_input_keeps_the_exit_contract(command, data):
    docs = base_documents(command, data.draw(st.sampled_from(VARIANTS[command])))
    extra = data.draw(st.sampled_from(UNDECLARED))  # the key an insertion adds
    for _ in range(data.draw(st.integers(1, 2))):
        if not docs:  # every document was deleted
            break
        name = data.draw(st.sampled_from(sorted(docs)))
        inside = paths(docs[name], (name,)) if isinstance(docs[name], (dict, list)) else ()
        targets = [(name,), *inside]
        if name == "config" and isinstance(docs[name], dict):
            # the declared keys the config leaves out, and one undeclared key per object
            for path, node, table in config_objects(docs[name], TABLES[command]):
                targets += [path + (key,) for key in [*table, extra] if key not in node]
        path = data.draw(st.sampled_from(targets))
        mutate(docs, path, data.draw(st.sampled_from([DELETE, *pool(command, path)])))
    code, written = return_code_and_artifacts_hold(command, docs)
    if holds_undeclared_key(command, docs):
        assert (code, written) == (EXIT_CONFIG, [])


@pytest.mark.parametrize("value", [2**31, 2**62])
@pytest.mark.parametrize("key", sorted(WIDTH_KEYS))
@pytest.mark.parametrize("variant", VARIANTS["decode"])
def test_huge_decode_widths_keep_the_exit_contract(variant, key, value):
    # the draws above seldom give the two width keys these values
    docs = base_documents("decode", variant)
    mutate(docs, ("config", key), value)
    return_code_and_artifacts_hold("decode", docs)
