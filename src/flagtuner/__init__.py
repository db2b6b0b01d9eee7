"""Compiler-flag autotuning toolkit.

Searches the space of on/off optimization flags for configurations that beat
a compiler's stock optimization level, either per program or across a whole
benchmark suite, with digest-based result caching, cross-validation and
nearest-neighbor prediction on top. A deterministic synthetic cost model
stands in for real hardware so every campaign is reproducible on a desk.
"""

from flagtuner.flagspace import (
    Configuration,
    Flag,
    FlagSpace,
    FlagSpaceError,
    load_flag_space,
    parse_flag_space,
    render_args,
    toggle,
)
from flagtuner.evaluator import (
    Benchmark,
    CacheLockedError,
    CommandEvaluator,
    EvalCache,
    Measurement,
    SyntheticEvaluator,
    SyntheticModel,
    load_suite,
    load_synthetic_model,
)
from flagtuner.search import (
    BudgetedEvaluator,
    CampaignError,
    CampaignInterrupted,
    CampaignTrace,
    CEState,
    SuiteCEParams,
    TraceRecord,
    best_known,
    best_known_record,
    rip,
    run_ce,
    run_ric,
    run_suite_ce,
    sample_ric,
)
from flagtuner.analysis import (
    FeatureVector,
    FoldPlan,
    FoldResult,
    RelativeSeries,
    compare_to_baseline,
    floored_best_so_far,
    load_features,
    make_folds,
    performance_table,
    predict_1nn,
    run_xval,
)
from flagtuner.oracle import (
    enumerate_configurations,
    per_benchmark_optimum,
    suite_constrained_optimum,
)

__version__ = "0.1.0"
