"""Temperature-scaling calibration and uncertainty-aware action selection
over discretized action grids, plus a deterministic synthetic benchmark."""

from .action_space import ActionGrid, Metric, coords_of, distance, flat_index, neighborhood
from .calibration import (
    CalibrationSample,
    LogitBatch,
    LogitField,
    ProbField,
    ReliabilityTable,
    TemperatureModel,
    apply_temperature,
    calibration_report,
    ece,
    entropy,
    fit_temperature,
    max_entropy_by_task,
    nll,
    reliability_bins,
    softmax,
)
from .selection import (
    SelectionConfig,
    SelectionResult,
    gaussian_select,
    greedy_select,
    select,
    ua_select,
    ua_select_fast,
    ua_select_restricted,
)

__version__ = "0.1.0"
