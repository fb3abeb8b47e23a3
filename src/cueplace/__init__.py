"""Spatial-audio cue placement against a listener confusion model.

Given the azimuths of visual elements around a listener and a model of how
azimuths are misperceived (localization blur plus front-back confusions),
find the sound bin for each element's cue that minimizes the chance the
listener attributes the sound to the wrong element. A probabilistic virtual
listener verifies placements by simulation.
"""

from .angles import (
    angular_distance,
    bin_center,
    bin_centers,
    bin_count_for,
    bin_of,
    mirror_front_back,
    normalize,
)
from .confusion import (
    DEFAULT_REGION_BOUNDS,
    LOCALIZATION_ERROR_TARGETS,
    REGIONS,
    ConfusionModel,
    ModelFormatError,
    SyntheticModelParams,
    calibrated_params,
    diagonal_argmax_fraction,
    identity_model,
    load_model,
    model_from_trials,
    region_of,
    row_entropies,
    sample_perceived,
    save_model,
    synthesize_model,
)
from .layout import Element, Layout, LayoutError, layout_from_dict, load_layout
from .placement import (
    Assignment,
    InfeasibleLayoutError,
    PlacementSolution,
    colocated_solution,
    solve,
)
from .scoring import ScoreMatrix, Weights, build_score_matrix
from .simulate import (
    LocalizationStats,
    SimulationReport,
    decision_by_bin,
    dump_trials,
    expected_localization_errors,
    run_simulation,
    table1_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "normalize",
    "angular_distance",
    "mirror_front_back",
    "bin_of",
    "bin_center",
    "bin_centers",
    "bin_count_for",
    "REGIONS",
    "DEFAULT_REGION_BOUNDS",
    "LOCALIZATION_ERROR_TARGETS",
    "ConfusionModel",
    "SyntheticModelParams",
    "ModelFormatError",
    "identity_model",
    "load_model",
    "save_model",
    "model_from_trials",
    "synthesize_model",
    "calibrated_params",
    "sample_perceived",
    "diagonal_argmax_fraction",
    "row_entropies",
    "region_of",
    "Element",
    "Layout",
    "LayoutError",
    "layout_from_dict",
    "load_layout",
    "Weights",
    "ScoreMatrix",
    "build_score_matrix",
    "Assignment",
    "PlacementSolution",
    "InfeasibleLayoutError",
    "solve",
    "colocated_solution",
    "decision_by_bin",
    "run_simulation",
    "SimulationReport",
    "LocalizationStats",
    "table1_statistics",
    "expected_localization_errors",
    "dump_trials",
]
