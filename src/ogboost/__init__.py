"""Streaming regression boosting over online linear base learners."""

from .core import Example, project_to_ball, seeded_rng
from .losses import BallParams, LossClass, LossInstance, bisect_ball_radius, parse_loss_flag
from .learners import (
    FunctionPool,
    GreedyFitLearner,
    LowerBoundPool,
    OnlineGradientLearner,
    StumpLearner,
    greedy_adapter,
    hedge_committee,
    make_lower_bound_pool,
    ogd_committee,
    stump_committee,
    symmetrize,
)
from .boosting import HullBooster, SpanBooster, auto_eta, scale_wrap
from .batch import (
    BatchObjective,
    BatchTrace,
    FunctionDictionary,
    base_argmin,
    bound_gated,
    bound_ungated,
    greedy_step,
    make_planted_batch_problem,
    run_batch,
)
from .bench import (
    ComparatorSpec,
    RunMetrics,
    Stream,
    StreamFormatError,
    best_convex_hull_oracle,
    hull_comparator,
    hull_regret_bound,
    make_additive_stream,
    make_lower_bound_stream,
    make_region_pool,
    parse_stream,
    planted_hull_stream,
    planted_span_stream,
    progressive_validate,
    regret_report,
    span_regret_bound,
    uniform_pool_comparator,
    zero_comparator,
)

__version__ = "0.1.0"
