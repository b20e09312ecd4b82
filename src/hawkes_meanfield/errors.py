"""Exception types shared across the toolkit.

Everything derives from ToolkitError so callers can catch broadly; the
individual classes exist because callers (and the test battery) distinguish
bad arguments from bad call sequences from unsupported capabilities.
"""

import numpy as np


def is_integer(value):
    """A Python or numpy integer, and no bool."""
    return type(value) is not bool and isinstance(value, (int, np.integer))


def is_real(value):
    """A Python or numpy real number (inf and nan too), and no bool."""
    return type(value) is not bool and isinstance(
        value, (int, float, np.integer, np.floating))


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ToolkitError, ValueError):
    """A numeric parameter is outside its admissible range."""


class DomainError(ToolkitError, ValueError):
    """An evaluation point lies outside the supported domain."""


class ContractError(ToolkitError, ValueError):
    """Structured input violates a documented precondition (ordering, shape)."""


class UnsupportedTransferError(ToolkitError, ValueError):
    """The transfer function lacks a property this operation requires."""


class SchemeMismatchError(ToolkitError, ValueError):
    """The requested numerical scheme does not apply to these inputs."""


class StepSizeError(ToolkitError, ValueError):
    """The time step violates a stability or contraction condition."""


class DerivativeUnavailableError(UnsupportedTransferError):
    """A derivative was requested from a function that does not carry one."""


class RecordingMissingError(ToolkitError, RuntimeError):
    """A simulation result lacks the recorded paths this operation needs."""


class WrongRegimeError(ToolkitError, ValueError):
    """The parameter regime contradicts the requested experiment."""


class ConfigError(ToolkitError, ValueError):
    """A configuration file or CLI invocation is malformed."""
