"""Outside-in tracing of sidlab's layers.

``Tracer.install`` replaces every public function of the traced modules with a
wrapper that records a span (name, start, end, parent span, request id) and a
few counts, then calls the original.  sidlab binds names with
``from .x import y``, so each function is replaced in every ``sidlab`` module
that holds it, not only where it is defined.  ``uninstall`` puts the
originals back.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from sidlab.logits import CascadedLogitModel, LookupCounter, ParallelLogitModel
from sidlab.vocab import TokenMap

LAYERS = ("vocab", "tokenizer", "logits", "losses", "decoder", "trainer", "cli")
# cli's own work (config parsing, artifact JSON reads and writes) is the
# remainder of main, so main is its only span
CLI_SPANS = ("main",)
METHODS = (("vocab", "TokenMap", "from_json_dict"),)


def _fingerprint(value):
    """A hashable stand-in for an argument, equal for equal contents."""
    if isinstance(value, (CascadedLogitModel, ParallelLogitModel)):
        digest = hashlib.blake2b(digest_size=16)
        for table in value.tables:
            digest.update(np.ascontiguousarray(table).tobytes())
        return ("model", value.form, value.spec, value.C, digest.digest())
    if isinstance(value, TokenMap):
        digest = hashlib.blake2b(value.token_matrix.tobytes(), digest_size=16)
        return ("token_map", value.spec, value.mode, digest.digest())
    return value


def _beam_candidates(model, h, beam_width, top_k):
    """Candidates scored by beam_search: X per surviving beam per position."""
    beams, total = 1, 0
    for _ in range(model.spec.k):
        total += beams * model.spec.X
        beams = min(beam_width, beams * model.spec.X)
    return total


# name -> (argument names whose contents key "distinct inputs", count hooks)
DISTINCT = {
    "losses.sequence_log_partition": ("model", "h"),
    "vocab.identity_token_map": ("spec",),
    "logits.item_logits_all": ("model", "h", "tmap"),
}
COUNTS = {
    "tokenizer.squared_distances": (
        "bytes_computed",
        # the (n, X, d) float64 difference array the broadcast materializes
        lambda points, centers: points.shape[0] * centers.shape[0] * points.shape[1] * 8,
    ),
    "decoder.beam_search": ("candidates", _beam_candidates),
    "trainer.train_sgd": (
        "samples",
        lambda model, tmap, data, lr, epochs, seed, world=None: len(data) * epochs,
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.request = -1
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.lookups = LookupCounter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        signature = inspect.signature(fn)
        distinct = DISTINCT.get(name)
        count = COUNTS.get(name)
        spans, stack, lookups = self.spans, self._stack, self.lookups
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for arg in args:
                if isinstance(arg, (CascadedLogitModel, ParallelLogitModel)) and arg.counter is None:
                    arg.counter = lookups
            if distinct or count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if distinct:
                    key = tuple(_fingerprint(bound.arguments[a]) for a in distinct)
                    self.distinct[name].add(key)
                if count:
                    self.counts[f"{name}.{count[0]}"] += count[1](**bound.arguments)
            self.calls[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                span[2] = perf()
                stack.pop()

        return wrapper

    def _targets(self):
        for layer in LAYERS:
            module = importlib.import_module(f"sidlab.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if layer == "cli" and attr not in CLI_SPANS:
                    continue
                yield f"{layer}.{attr}", obj

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items() if n == "sidlab" or n.startswith("sidlab.")]
        for name, fn in self._targets():
            wrapper = self._wrap(name, fn)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._restore.append((holder, attr, value))
                        setattr(holder, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"sidlab.{layer}"), cls_name)
            original = cls.__dict__[method]
            wrapper = self._wrap(f"{layer}.{cls_name}.{method}", original.__func__)
            self._restore.append((cls, method, original))
            setattr(cls, method, classmethod(wrapper))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def useful_ratio(self, name: str) -> float:
        """Distinct inputs per call; 0.0 when the function was not called."""
        calls = self.calls[name]
        return len(self.distinct[name]) / calls if calls else 0.0

    def write_spans(self, path) -> None:
        fields = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
