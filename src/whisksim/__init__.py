"""whisksim: spring-whisker vibration simulation and terrain classification."""

import os

# One BLAS thread per process, set before numpy is first imported: the
# experiment drivers run one training per CPU in forked workers, and the
# networks are too small for a BLAS thread pool to pay. A value the user set
# wins; if numpy was imported before whisksim, BLAS keeps its own threading.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .beam import (
    CANTILEVER_MODE_CONSTANTS,
    BeamSpec,
    Excitation,
    SpringSpec,
    SweepSurface,
    TimeSeries,
    displacement,
    displacement_series,
    modal_angular_frequency,
    modal_sweep,
    spring_to_beam,
    steady_state_gain,
    steady_state_offset,
    transient_time_constant,
)
from .config import ExperimentConfig, SweepConfig, load_config
from .errors import (
    ConfigError,
    PhysicsError,
    TrainingDivergedError,
    WhisksimError,
)
from .mlp import (
    ConfusionMatrix,
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    evaluate,
    forward,
    gradient_check,
    gradients,
    init,
    loss,
    model_from_json,
    model_to_json,
    train,
)
from .pipeline import (
    FEATURE_WIDTH,
    Dataset,
    Spectrum,
    build_dataset,
    dominant_frequency,
    fft_magnitude,
    read_dataset_csv,
    split,
    write_dataset_csv,
)
from .terrain import (
    RobotRun,
    SpectralComponent,
    SpectralProfile,
    TerrainClass,
    default_profiles,
    load_profiles,
    profiles_from_json,
    profiles_to_json,
    save_profiles,
    smoke_profiles,
    strip_randomness,
    synthesize_run,
    temporal_components,
)

__version__ = "0.1.0"
