"""sidlab: a numerical laboratory for k-token generative retrieval.

Items are addressed by length-k token sequences from k codebooks of X codes
each.  The package provides embedding tokenizers (residual k-means, product
quantization, FSQ, identity), one tabular conditional-logit model in cascaded
and parallel form, the next-token and full-vocabulary losses with analytic
gradients, SGD training against synthetic worlds, beam-search and exact
decoding, and machine-precision checks of when the two loss formulations
coincide and when they do not.

``import sidlab`` loads no submodule, and so not numpy either.  ``_EXPORTS``
names each public name once, under the module that defines it; ``__all__``
is read from it, and a name is imported from its module on first use
(PEP 562).  The package keeps no copy of it, so the module's own binding is
the only one.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "artifacts": ("NonFiniteError", "write_json", "write_csv"),
    "vocab": (
        "TokenSeq", "CodebookSpec", "TokenMap", "BijectionReport", "MalformedSequenceError",
        "CollisionError", "CoverageError", "audit_bijection", "identity_token_map",
        "prefix_index_arrays",
    ),
    "logits": (
        "CascadedLogitModel", "ParallelLogitModel", "LogitModel", "LookupCounter", "FormError",
        "item_logits", "table_entry_count", "model_to_json_dict", "model_from_json_dict",
        "save_model", "load_model",
    ),
    "losses": (
        "EmptyInputError", "log_sum_exp", "softmax", "ntp_loss", "full_log_partition",
        "fv_mle_loss", "sequence_log_partition", "sequence_log_partition_levelwise",
        "sequence_log_partition_factored", "check_contexts", "summarize_reports",
    ),
    "decoder": ("ScoredSequence", "beam_search", "exact_topk", "mtp_decode"),
    "tokenizer": (
        "ItemEmbeddings", "RQKmeansModel", "PQModel", "FSQModel", "DegenerateInputError",
        "SubspaceSplitError", "synth_embeddings", "load_embeddings_csv", "load_embeddings_bin",
        "fit_kmeans", "nearest_centers", "fit_rq_kmeans", "encode_rq", "fit_pq", "encode_pq",
        "encode_fsq", "save_tokenizer", "load_tokenizer",
    ),
    "trainer": (
        "SyntheticWorld", "Dataset", "EpochRecord", "DivergenceError", "synth_world",
        "sample_dataset", "train_sgd", "eval_kl", "eval_kl_chain",
    ),
    "bench": (
        "SoftmaxOpCount", "OpsRow", "count_softmax_ops", "measure_lookup_counts", "ops_sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
