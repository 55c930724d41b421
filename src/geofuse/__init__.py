"""Station-data fusion and spatio-temporal graph forecasting.

The pipeline: load scattered multi-source station observations, interpolate
every (hour, station, target) cell with Gaussian radial basis functions,
build a distance-weighted station graph, and train a spatio-temporal graph
convolutional forecaster on the fused panel.
"""

from .config import PipelineConfig, load_config, parse_config_text
from .errors import (
    ConfigError,
    FusionError,
    GeofuseError,
    GraphError,
    ParseError,
    ShapeError,
    SingularSystemError,
    TapeError,
    TrainingError,
    ValidationError,
)
from .fusion import (
    FusionMatrix,
    RbfConfig,
    RbfInterpolant,
    build_interpolant,
    evaluate_interpolant,
    fuse_panel,
    fuse_time_step,
    gaussian_rbf,
    pairwise_distances,
)
from .graph import (
    GraphOperator,
    WeightedAdjacency,
    build_adjacency,
    normalized_laplacian,
    renormalized_adjacency,
    scaled_laplacian,
)
from .ingest import (
    NormalizationParams,
    ObservationPanel,
    Station,
    WindowedDataset,
    apply_normalization,
    clean_panel,
    fit_normalization,
    invert_normalization,
    load_observations,
    load_stations,
    make_windows,
)
from .metrics import (
    TargetConsistency,
    consistency_report,
    kde,
    kde_l1_distance,
    mae,
    mape,
    r2,
    rmse,
    silverman_bandwidth,
)
from .optim import Adam
from .stgcn import (
    ModelConfig,
    StgcnModel,
    TrainConfig,
    TrainResult,
    l2_loss,
    load_model,
    predict,
    predict_batch,
    predict_series,
    save_model,
    train,
)
from .synth import SynthConfig, SynthResult, generate, write_scenario_csvs
from .tensor import Tape, Tensor, backward

__version__ = "0.1.0"
