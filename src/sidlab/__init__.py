"""sidlab: a numerical laboratory for k-token generative retrieval.

Items are addressed by length-k token sequences from k codebooks of X codes
each.  The package provides embedding tokenizers (residual k-means, product
quantization, FSQ, identity), one tabular conditional-logit model in cascaded
and parallel form, the next-token and full-vocabulary losses with analytic
gradients, SGD training against synthetic worlds, beam-search and exact
decoding, and machine-precision checks of when the two loss formulations
coincide and when they do not.
"""

from .artifacts import NonFiniteError, write_csv, write_json
from .bench import (
    OpsRow,
    SoftmaxOpCount,
    count_softmax_ops,
    measure_lookup_counts,
    ops_sweep,
)
from .decoder import ScoredSequence, beam_search, exact_topk, mtp_decode
from .logits import (
    CascadedLogitModel,
    FormError,
    LogitModel,
    LookupCounter,
    ParallelLogitModel,
    item_logits,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
    table_entry_count,
)
from .losses import (
    EmptyInputError,
    EquivalenceReport,
    check_contexts,
    full_log_partition,
    fv_mle_loss,
    log_sum_exp,
    ntp_loss,
    sequence_log_partition,
    sequence_log_partition_factored,
    sequence_log_partition_levelwise,
    softmax,
    summarize_reports,
)
from .tokenizer import (
    DegenerateInputError,
    FSQModel,
    ItemEmbeddings,
    PQModel,
    RQKmeansModel,
    SubspaceSplitError,
    encode_fsq,
    encode_pq,
    encode_rq,
    fit_kmeans,
    fit_pq,
    fit_rq_kmeans,
    load_embeddings_bin,
    load_embeddings_csv,
    load_tokenizer,
    nearest_centers,
    save_tokenizer,
    synth_embeddings,
)
from .trainer import (
    Dataset,
    DivergenceError,
    EpochRecord,
    SyntheticWorld,
    eval_kl,
    eval_kl_chain,
    sample_dataset,
    synth_world,
    train_sgd,
)
from .vocab import (
    BijectionReport,
    CodebookSpec,
    CollisionError,
    CoverageError,
    MalformedSequenceError,
    TokenMap,
    TokenSeq,
    audit_bijection,
    identity_token_map,
    prefix_index_arrays,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # artifacts
    "NonFiniteError",
    "write_json",
    "write_csv",
    # vocab
    "TokenSeq",
    "CodebookSpec",
    "TokenMap",
    "BijectionReport",
    "MalformedSequenceError",
    "CollisionError",
    "CoverageError",
    "audit_bijection",
    "identity_token_map",
    "prefix_index_arrays",
    # logits
    "CascadedLogitModel",
    "ParallelLogitModel",
    "LogitModel",
    "LookupCounter",
    "FormError",
    "item_logits",
    "table_entry_count",
    "model_to_json_dict",
    "model_from_json_dict",
    "save_model",
    "load_model",
    # losses
    "EmptyInputError",
    "EquivalenceReport",
    "log_sum_exp",
    "softmax",
    "ntp_loss",
    "full_log_partition",
    "fv_mle_loss",
    "sequence_log_partition",
    "sequence_log_partition_levelwise",
    "sequence_log_partition_factored",
    "check_contexts",
    "summarize_reports",
    # decoder
    "ScoredSequence",
    "beam_search",
    "exact_topk",
    "mtp_decode",
    # tokenizer
    "ItemEmbeddings",
    "RQKmeansModel",
    "PQModel",
    "FSQModel",
    "DegenerateInputError",
    "SubspaceSplitError",
    "synth_embeddings",
    "load_embeddings_csv",
    "load_embeddings_bin",
    "fit_kmeans",
    "nearest_centers",
    "fit_rq_kmeans",
    "encode_rq",
    "fit_pq",
    "encode_pq",
    "encode_fsq",
    "save_tokenizer",
    "load_tokenizer",
    # trainer
    "SyntheticWorld",
    "Dataset",
    "EpochRecord",
    "DivergenceError",
    "synth_world",
    "sample_dataset",
    "train_sgd",
    "eval_kl",
    "eval_kl_chain",
    # bench
    "SoftmaxOpCount",
    "OpsRow",
    "count_softmax_ops",
    "measure_lookup_counts",
    "ops_sweep",
]
