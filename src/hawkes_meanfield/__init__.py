"""Simulation and verification toolkit for networks of interacting
point-process neurons with excitatory and inhibitory vertices.

The package is organised around a pipeline:

    network   -> sample the random connectivity and vertex signs
    kernels   -> interaction kernel and firing-rate transfer function
    simulator -> exact event simulation (thinning or time change)
    volterra  -> deterministic large-network input path
    fluctuations -> Gaussian limit system for the rescaled deviations
    analysis  -> replicated experiments with pass/fail verdicts
    cli       -> config-driven runs with manifests and CSV output
"""

from .errors import (
    ToolkitError,
    ParameterError,
    DomainError,
    ContractError,
    ConfigError,
    UnsupportedTransferError,
    DerivativeUnavailableError,
    SchemeMismatchError,
    StepSizeError,
    RecordingMissingError,
    WrongRegimeError,
)
from .rng import stream, replicate_seed
from .network import (
    NetworkConfiguration,
    WeightStatistics,
    sample_network,
    build_complementary_network,
    compute_weight_statistics,
)
from .kernels import (
    Kernel,
    TransferFunction,
    exponential_kernel,
    tabulated_kernel,
    arctan_transfer,
    constant_transfer,
    tabulated_transfer,
    convolve_with_path,
    convolution_bound_constant,
)
from .volterra import (
    IntensityPath,
    solve_mean_field,
    fixed_point,
    cross_validate_schemes,
)
from .simulator import (
    SimulationConfig,
    SpikeTrains,
    SimulationResult,
    MartingalePaths,
    simulate_thinning,
    simulate_time_change,
    recompute_input_from_trains,
    compensators,
    extract_martingale_paths,
    format_spike_trains,
    read_spike_trains,
)
from .fluctuations import (
    FluctuationSample,
    simulate_fluctuations,
    sample_terminal_fluctuations,
    terminal_covariance,
    jackknife_covariance,
)
from .analysis import (
    ExperimentReport,
    DEFAULT_TOLERANCES,
    make_check,
    report_from_dict,
    run_experiment,
    lln_experiment,
    clt_experiment,
    corollary_experiment,
    critical_experiment,
    independence_experiment,
)

__version__ = "0.1.0"
