"""Streaming cost-sensitive multi-label classification with online label-space reduction."""

from .costs import (
    CostFunction,
    WeightDiagonal,
    available_costs,
    check_condition,
    get_cost,
    label_weights,
    register_cost,
)
from .evaluation import (
    CostTrace,
    OfflineReference,
    RegretReport,
    expected_regret,
    offline_plst,
    run_with_snapshots,
    theorem2_bound,
    trace_from_records,
)
from .learners import (
    ALGORITHMS,
    LearnerConfig,
    PredictionRecord,
    decode,
    from_snapshot,
    make_learner,
    play,
    to_snapshot,
)
from .linalg import TOL, project_capped_simplex, symmetric_eigen
from .online_pca import CappedMsgState, default_eta_schedule
from .stream import (
    Instance,
    StreamConfig,
    build_stream,
    inject_noise,
    normalize_features,
    parse_dataset,
    permute_stream,
    serialize_sparse_labels,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "CappedMsgState",
    "CostFunction",
    "CostTrace",
    "Instance",
    "LearnerConfig",
    "OfflineReference",
    "PredictionRecord",
    "RegretReport",
    "StreamConfig",
    "TOL",
    "WeightDiagonal",
    "available_costs",
    "build_stream",
    "check_condition",
    "decode",
    "default_eta_schedule",
    "expected_regret",
    "from_snapshot",
    "get_cost",
    "inject_noise",
    "label_weights",
    "make_learner",
    "normalize_features",
    "offline_plst",
    "parse_dataset",
    "permute_stream",
    "play",
    "project_capped_simplex",
    "register_cost",
    "run_with_snapshots",
    "serialize_sparse_labels",
    "substream",
    "symmetric_eigen",
    "theorem2_bound",
    "to_snapshot",
    "trace_from_records",
    "__version__",
]
