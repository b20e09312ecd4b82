"""Deterministic mean-field limit of the network dynamics.

The large-network intensity input solves the convolution equation

    I(t) = (2p - 1) q * int_0^t phi(t - s) h(I(s)) ds,

which this module integrates with an implicit trapezoid scheme (any kernel)
or, for the exponential family, the equivalent ODE
dI/dt = -rate * I + (2p - 1) q h(I) via classical Runge-Kutta.  The two
routes stay separate on purpose: their agreement is a cheap consistency
check exposed as cross_validate_schemes.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterError,
    SchemeMismatchError,
    StepSizeError,
    is_real,
)
from .kernels import Kernel, TransferFunction
from .network import _check_pq

__all__ = [
    "IntensityPath",
    "solve_mean_field",
    "fixed_point",
    "cross_validate_schemes",
]

_FP_TOL = 1e-13
_FP_MAX_ITER = 50


@dataclass(frozen=True)
class IntensityPath:
    """A scalar path sampled on a uniform grid including both endpoints."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if g.shape != v.shape or g.ndim != 1:
            raise ParameterError("grid and values must be matching 1-d arrays")
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


def _check_horizon(horizon):
    """The one horizon rule: a finite real number >= 0, returned as a float."""
    if not (is_real(horizon) and 0.0 <= horizon < math.inf):
        raise ParameterError(
            f"horizon must be finite and >= 0, got {horizon!r}")
    return float(horizon)


def _resolve_grid(horizon, dt):
    """The uniform grid 0, ..., horizon of about horizon / dt steps."""
    horizon = _check_horizon(horizon)
    if horizon == 0.0:
        return np.zeros(1)
    if dt is not None and not (is_real(dt) and 0.0 < dt <= horizon):
        raise ParameterError(f"dt must lie in (0, horizon], got {dt!r}")
    # horizon / dt >= 1, and inf for a subnormal dt
    steps = 2048 if dt is None else horizon / dt
    try:
        return np.linspace(0.0, horizon, round(steps) + 1)
    except (ValueError, MemoryError, OverflowError) as exc:
        points = round(steps) + 1 if steps < math.inf else steps
        raise ParameterError(f"cannot allocate a grid of {points} points "
                             f"({8 * points / 2**30:.3g} GiB): {exc}") from exc


def solve_mean_field(kernel: Kernel, transfer: TransferFunction, p: float,
                     q: float, horizon: float, dt: float | None = None,
                     scheme: str = "volterra_trapezoid") -> IntensityPath:
    """Integrate the mean-field equation up to `horizon`.

    dt defaults to horizon / 2048; the grid always lands on the horizon
    exactly (dt is rounded to the nearest divisor).  Raises StepSizeError
    when the implicit step is not a contraction at this dt, and
    SchemeMismatchError when ode_rk4 is requested for a non-exponential
    kernel.
    """
    _check_pq(p, q)
    grid = _resolve_grid(horizon, dt)
    c = (2.0 * p - 1.0) * q
    if scheme not in ("volterra_trapezoid", "ode_rk4"):
        raise SchemeMismatchError(f"unknown scheme {scheme!r}")
    if scheme == "ode_rk4" and not kernel.is_exponential:
        raise SchemeMismatchError("ode_rk4 applies to exponential kernels only")
    if len(grid) == 1 or c == 0.0:
        return IntensityPath(grid=grid, values=np.zeros_like(grid))
    if scheme == "ode_rk4":
        values = _rk4(kernel.rate, transfer, c, grid)
    else:
        values = _trapezoid(kernel, transfer, c, grid)
    return IntensityPath(grid=grid, values=values)


def _trapezoid(kernel, transfer, c, grid):
    m = len(grid) - 1
    step = grid[1] - grid[0]
    gain = abs(c) * transfer.lipschitz * kernel.sup_norm * step
    if gain >= 1.0:
        raise StepSizeError(
            f"implicit step is not contracting: |2p-1| q Lip(h) ||phi|| dt = "
            f"{gain:.3g} >= 1; reduce dt"
        )
    phi = kernel.grid_values(step, m)
    h = transfer.scalar
    values = np.zeros(m + 1)
    rates = np.empty(m + 1)
    rates[0] = h(0.0)
    half_phi0 = 0.5 * phi[0]
    for k in range(1, m + 1):
        # known part: trapezoid weights on the already-computed nodes
        known = 0.5 * phi[k] * rates[0]
        if k > 1:
            known += float(np.dot(phi[1:k], rates[k - 1:0:-1]))
        x = values[k - 1]
        omega = 1.0
        prev_res = np.inf
        for _ in range(_FP_MAX_ITER):
            target = c * step * (known + half_phi0 * h(x))
            res = abs(target - x)
            if res <= _FP_TOL:
                x = target
                break
            if res > prev_res:
                omega *= 0.5
            prev_res = res
            x = (1.0 - omega) * x + omega * target
        else:
            raise StepSizeError(
                f"fixed-point iteration did not reach {_FP_TOL} within "
                f"{_FP_MAX_ITER} sweeps at t={grid[k]:.6g}; reduce dt"
            )
        values[k] = x
        rates[k] = h(x)
    return values


def _rk4(rate, transfer, c, grid):
    h = transfer.scalar

    def f(x):
        return -rate * x + c * h(x)

    step = grid[1] - grid[0]
    values = np.zeros(len(grid))
    x = 0.0
    for k in range(1, len(grid)):
        k1 = f(x)
        k2 = f(x + 0.5 * step * k1)
        k3 = f(x + 0.5 * step * k2)
        k4 = f(x + step * k3)
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[k] = x
    return values


def fixed_point(kernel: Kernel, transfer: TransferFunction, p: float, q: float):
    """Stationary intensity input: the root of x = (2p-1) q ||phi||_1 h(x).

    When |2p-1| q ||phi||_1 Lip(h) < 1 the map is a contraction, the root is
    unique, and a float is returned.  Otherwise the equation may have several
    solutions: a 4097-point scan brackets every sign change, each bracket is
    polished with Brent's method, a warning is emitted, and all roots found
    are returned as an array.
    """
    _check_pq(p, q)
    from scipy.optimize import brentq

    a = (2.0 * p - 1.0) * q * kernel.l1_norm
    if a == 0.0:
        return 0.0
    hfun = transfer

    def g(x):
        return a * hfun(x) - x

    radius = abs(a) * transfer.sup_norm + 1.0
    if abs(a) * transfer.lipschitz < 1.0:
        return float(brentq(g, -radius, radius, xtol=1e-13, rtol=1e-15))
    xs = np.linspace(-radius, radius, 4097)
    gs = a * hfun(xs) - xs
    roots = []
    for i in range(len(xs) - 1):
        if gs[i] == 0.0:
            roots.append(float(xs[i]))
        elif gs[i] * gs[i + 1] < 0.0:
            roots.append(float(brentq(g, xs[i], xs[i + 1], xtol=1e-13, rtol=1e-15)))
    if gs[-1] == 0.0:
        roots.append(float(xs[-1]))
    warnings.warn(
        "contraction condition fails; returning all bracketed stationary points",
        stacklevel=2,
    )
    return np.asarray(roots)


def cross_validate_schemes(kernel: Kernel, transfer: TransferFunction, p: float,
                           q: float, horizon: float, dt: float | None = None) -> float:
    """Max absolute gap between the Volterra and ODE routes on a shared grid."""
    trap = solve_mean_field(kernel, transfer, p, q, horizon, dt,
                            scheme="volterra_trapezoid")
    ode = solve_mean_field(kernel, transfer, p, q, horizon, dt, scheme="ode_rk4")
    return float(np.max(np.abs(trap.values - ode.values)))
