"""Byzantine-resilient, communication-efficient gradient descent on heavy-tailed data.

A desk-scale simulation framework: heavy-tail-robust local gradient
estimation, robust server-side aggregation, gradient compression, Byzantine
attack models, and a deterministic seeded experiment runner.
"""

from .adversary import AttackSpec, byzantine_count, corrupt, select_byzantine
from .aggregation import (
    AggregatorSpec,
    aggregate,
    bulyan,
    coord_median,
    coord_trimmed_mean,
    geometric_median,
    krum,
    mean,
    norm_trimmed_mean,
)
from .compression import CompressorSpec, encode, nominal_bytes
from .config import ExperimentConfig, apply_axis, config_digest, echo_config, make_config, parse_config
from .datagen import (
    CsvSchema,
    NoiseSpec,
    SyntheticSpec,
    draw_w_star,
    gen_synthetic,
    load_csv,
    partition,
    split_train_test,
)
from .engine import RoundMetrics, build_data, estimate_smoothness, project, run
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    HeavyFedError,
    IndivisibleSplit,
    InvalidConfig,
    MissingColumn,
    NonFiniteState,
    ParseError,
    TooFewVectors,
)
from .estimator import (
    EstimatorParams,
    TRUNCATION_CAP,
    default_params,
    robust_gradient,
    smoothed_truncate,
    soft_truncate,
)
from .losses import (
    Dataset,
    LossModel,
    empirical_risk,
    per_sample_gradients,
    per_sample_losses,
)
from .runner import RunSummary, run_experiment, run_repetitions, sweep

__version__ = "0.1.0"
