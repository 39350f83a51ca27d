"""Depth estimation from three-slice active gated imaging.

The package covers the full path from gating physics to evaluated depth
maps: closed-form and exact piecewise-cubic gated responses, synthetic
labeled data, the classical sectioned ratio baseline, a small from-scratch
regression network with grid search, and distance-binned error reporting.
"""

__version__ = "0.1.0"

from .gating import (
    SPEED_OF_LIGHT_M_PER_NS,
    Atmosphere,
    GateShape,
    PulseShape,
    RangeProfile,
    SliceConfig,
    gated_response,
    gdp,
    rip,
    rip_breakpoints,
    slice_support,
    standard_slices,
)
from .pipeline import (
    RawDataset,
    Sample,
    build_dataset,
    load_samples,
    prefilter,
    save_samples,
    split,
    standardize_batch,
    variant,
)
from .scene import (
    NoiseModel,
    SliceImageSet,
    UniformRange,
    calibration_for_peak,
    generate_dataset,
    render_slices,
)
from .estimators import (
    SectionTable,
    baseline_estimate,
    build_section_table,
    time_slicing_estimate,
)
from .network import (
    GridSpec,
    NetworkArch,
    NetworkModel,
    TrainConfig,
    backward,
    forward,
    grid_search,
    init_params,
    load_model,
    loss_mae,
    probe_learned_function,
    save_model,
    train,
)
from .evaluation import (
    BinnedError,
    DepthMap,
    binned_mae,
    compare_estimators,
    render_depth_map,
)
