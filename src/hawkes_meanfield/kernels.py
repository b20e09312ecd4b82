"""Memory kernels and transfer functions.

A kernel phi weighs past spikes: the input to vertex i at time t is the sum of
phi(t - s) over past spike times s of its presynaptic vertices.  The
exponential family phi(u) = exp(-rate * u) is normalized so phi(0) = 1, which
is the convention under which the mean-field equation reduces to the ODE
dI/dt = -rate * I + (2p-1) q h(I).

A transfer function h maps the (possibly negative) input to a non-negative
spiking rate.  Simulation only needs h bounded; the fluctuation machinery
additionally needs h', and the linearization checks need a bound on h''.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DerivativeUnavailableError,
    DomainError,
    ParameterError,
)

__all__ = [
    "Kernel",
    "TransferFunction",
    "exponential_kernel",
    "tabulated_kernel",
    "arctan_transfer",
    "constant_transfer",
    "tabulated_transfer",
    "convolve_with_path",
    "convolution_bound_constant",
]


@dataclass(frozen=True)
class Kernel:
    """A causal memory kernel on [0, support) (support = inf for exponential).

    Use the module constructors; the fields are consistent only when built
    through them.  sup_norm and deriv_sup are the uniform norms of phi and
    phi' entering the convolution inequality, l1_norm is int_0^inf phi.
    """

    kind: str
    rate: float = 0.0
    nodes: np.ndarray | None = None
    values: np.ndarray | None = None
    sup_norm: float = 1.0
    deriv_sup: float = 0.0
    l1_norm: float = 0.0

    @property
    def is_exponential(self) -> bool:
        return self.kind == "exponential"

    def __call__(self, t):
        """Evaluate phi at t (scalar or array); t must lie in [0, support]."""
        arr = np.asarray(t, dtype=np.float64)
        if np.any(arr < 0.0):
            raise DomainError("kernel evaluation needs t >= 0")
        if self.is_exponential:
            out = np.exp(-self.rate * arr)
        else:
            if np.any(arr > self.nodes[-1]):
                raise DomainError(
                    f"tabulated kernel is defined up to t={self.nodes[-1]!r}"
                )
            out = np.interp(arr, self.nodes, self.values)
        return float(out) if np.isscalar(t) else out

    def padded(self, lags: np.ndarray) -> np.ndarray:
        """Like __call__ but 0 beyond the support (for convolution windows)."""
        lags = np.asarray(lags, dtype=np.float64)
        if self.is_exponential:
            return np.exp(-self.rate * lags)
        return np.interp(lags, self.nodes, self.values, right=0.0)

    def grid_values(self, dt: float, m: int) -> np.ndarray:
        """phi evaluated at 0, dt, ..., m*dt (zero past the support)."""
        return self.padded(dt * np.arange(m + 1))

    def truncation_lag(self) -> float:
        """Lag beyond which phi is below 1e-12 * sup_norm and may be dropped."""
        if self.is_exponential:
            if self.rate == 0.0:
                return math.inf
            return -math.log(1e-12) / self.rate
        return float(self.nodes[-1])


def _floats(x):
    """x as a float array, or None where numpy reads no such array in it."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        return None


def _table(what, nodes, values, from_zero=False):
    """Read-only float (nodes, values) of a tabulated `what`: >= 2 points,
    finite nodes rising strictly (from 0 if from_zero), finite values >= 0."""
    nodes, values = _floats(nodes), _floats(values)
    if (nodes is None or values is None or nodes.ndim != 1
            or nodes.shape != values.shape or len(nodes) < 2):
        raise ContractError("need matching 1-d nodes/values with >= 2 points")
    if not np.all(np.isfinite(nodes)):
        raise ContractError("nodes must be finite")
    if np.any(np.diff(nodes) <= 0.0) or (from_zero and nodes[0] != 0.0):
        origin = "start at 0 and " if from_zero else ""
        raise ContractError(f"nodes must {origin}increase strictly")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ParameterError(f"{what} values must be finite and non-negative")
    nodes.flags.writeable = False
    values.flags.writeable = False
    return nodes, values


def exponential_kernel(rate: float) -> Kernel:
    """phi(u) = exp(-rate * u) with phi(0) = 1; rate > 0."""
    if not (rate > 0.0) or not math.isfinite(rate):
        raise ParameterError(f"exponential kernel needs rate > 0, got {rate!r}")
    return Kernel(kind="exponential", rate=float(rate), sup_norm=1.0,
                  deriv_sup=float(rate), l1_norm=1.0 / float(rate))


def tabulated_kernel(nodes, values) -> Kernel:
    """Piecewise-linear kernel through (nodes, values); nodes start at 0.

    The kernel is treated as compactly supported: evaluation past the last
    node raises a domain error, while convolutions silently use zero there.
    """
    nodes, values = _table("kernel", nodes, values, from_zero=True)
    slopes = np.diff(values) / np.diff(nodes)
    # trapezoid of the table is its exact integral
    l1 = float(np.trapezoid(values, nodes))
    return Kernel(kind="tabulated", nodes=nodes, values=values,
                  sup_norm=float(values.max()),
                  deriv_sup=float(np.max(np.abs(slopes))), l1_norm=l1)


_TWO_OVER_PI = 2.0 / math.pi
# max of |h''| for h = 1 + (2/pi) arctan, attained at x = 1/sqrt(3)
_ARCTAN_CURVATURE = _TWO_OVER_PI * 9.0 / (8.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class TransferFunction:
    """Bounded rate function h with optional derivative information.

    ``sup_norm`` bounds h from above (h >= 0 always); ``lipschitz`` is a
    global Lipschitz constant; ``second_deriv_sup`` bounds |h''| when known
    and is None otherwise.  ``scalar`` is a plain-Python fast path used by
    the event loops.
    """

    kind: str
    sup_norm: float
    lipschitz: float
    second_deriv_sup: float | None = None
    value: float = 0.0
    nodes: np.ndarray | None = None
    table: np.ndarray | None = None
    deriv_table: np.ndarray | None = None

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        if self.kind == "arctan":
            out = 1.0 + _TWO_OVER_PI * np.arctan(arr)
        elif self.kind == "constant":
            out = np.full_like(arr, self.value)
        else:
            out = np.interp(arr, self.nodes, self.table)
        return float(out) if np.isscalar(x) else out

    @property
    def has_derivative(self) -> bool:
        return self.kind in ("arctan", "constant") or self.deriv_table is not None

    def derivative(self, x):
        if self.kind == "arctan":
            arr = np.asarray(x, dtype=np.float64)
            out = _TWO_OVER_PI / (1.0 + arr * arr)
        elif self.kind == "constant":
            out = np.zeros_like(np.asarray(x, dtype=np.float64))
        elif self.deriv_table is not None:
            out = np.interp(np.asarray(x, dtype=np.float64), self.nodes,
                            self.deriv_table)
        else:
            raise DerivativeUnavailableError(
                "tabulated transfer was built without a derivative table"
            )
        return float(out) if np.isscalar(x) else out

    @property
    def scalar(self):
        """A float -> float evaluator avoiding numpy overhead per call."""
        if self.kind == "arctan":
            atan = math.atan
            return lambda s: 1.0 + _TWO_OVER_PI * atan(s)
        if self.kind == "constant":
            c = self.value
            return lambda s: c
        nodes, table = self.nodes, self.table
        return lambda s: float(np.interp(s, nodes, table))


def arctan_transfer() -> TransferFunction:
    """h(x) = 1 + (2/pi) arctan(x): positive, bounded by 2, Lipschitz 2/pi."""
    return TransferFunction(kind="arctan", sup_norm=2.0, lipschitz=_TWO_OVER_PI,
                            second_deriv_sup=_ARCTAN_CURVATURE)


def constant_transfer(value: float) -> TransferFunction:
    """h == value >= 0; decouples the rate from the input entirely."""
    if not (value >= 0.0) or not math.isfinite(value):
        raise ParameterError(f"constant transfer needs value >= 0, got {value!r}")
    return TransferFunction(kind="constant", sup_norm=float(value), lipschitz=0.0,
                            second_deriv_sup=0.0, value=float(value))


def tabulated_transfer(nodes, values, deriv_values=None) -> TransferFunction:
    """Piecewise-linear h clamped to its end values outside the table.

    Pass deriv_values to make the derivative available to the fluctuation
    integrator; without it, derivative() raises.
    """
    nodes, values = _table("transfer", nodes, values)
    dv = None
    if deriv_values is not None:
        dv = _floats(deriv_values)
        if dv is None or dv.shape != nodes.shape:
            raise ContractError("derivative table must match the nodes")
        dv.flags.writeable = False
    slopes = np.abs(np.diff(values) / np.diff(nodes))
    return TransferFunction(kind="tabulated", sup_norm=float(values.max()),
                            lipschitz=float(slopes.max()), nodes=nodes,
                            table=values, deriv_table=dv)


def _check_events(events, weights):
    events = np.asarray(events, dtype=np.float64)
    if events.ndim != 1:
        raise ContractError("event times must form a 1-d array")
    if events.size and (np.any(np.diff(events) < 0.0) or events[0] < 0.0):
        raise ContractError("event times must be sorted and non-negative")
    if weights is None:
        w = None
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != events.shape:
            raise ContractError("weights must match the event times")
    return events, w


def convolve_with_path(kernel: Kernel, t, events, weights=None):
    """Stieltjes convolution (phi * dJ)(t) = sum over events s < t of phi(t-s).

    Events at exactly t are excluded (strict left limit): the convolution is
    what the process sees just before acting at t.  ``weights`` turns the
    unit-jump path into a general pure-jump path.  t may be a scalar or an
    array of query times.
    """
    events, w = _check_events(events, weights)
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(ts < 0.0):
        raise DomainError("query times must be non-negative")
    out = np.empty(len(ts))
    for k, tk in enumerate(ts):
        m = int(np.searchsorted(events, tk, side="left"))
        if m == 0:
            out[k] = 0.0
            continue
        vals = kernel.padded(tk - events[:m])
        out[k] = float(np.dot(vals, w[:m]) if w is not None else vals.sum())
    return float(out[0]) if scalar else out


def convolution_bound_constant(kernel: Kernel, horizon: float) -> float:
    """The constant ||phi||_inf + t ||phi'||_inf controlling sup-convolutions.

    For a pure-jump path J with J_0 = 0, integration by parts gives
    |(phi * dJ)(s)| <= (phi(0) + s ||phi'||) sup_{r<=s} |J_r|, and for the
    normalized exponential family the squared inequality
    sup (phi * dJ)^2 <= (||phi|| + t ||phi'||) sup J^2 holds outright once
    t * rate >= 3.  The randomized battery asserts zero violations of the
    squared form at that calibration.
    """
    if horizon < 0.0:
        raise DomainError("horizon must be non-negative")
    return kernel.sup_norm + horizon * kernel.deriv_sup
