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
# each module's __all__ is its public API; errors and rng declare none, and
# analysis's verdict functions stay off the package namespace
from .network import *
from .kernels import *
from .volterra import *
from .simulator import *
from .fluctuations import *
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
