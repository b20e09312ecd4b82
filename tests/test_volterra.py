"""Mean-field path solver: closed form, convergence order, scheme guards."""

import math

import numpy as np
import pytest

from hawkes_meanfield.errors import (ParameterError,
                                     SchemeMismatchError, StepSizeError)
from hawkes_meanfield.kernels import (arctan_transfer, constant_transfer,
                                      exponential_kernel, tabulated_kernel)
from hawkes_meanfield.network import sample_network
from hawkes_meanfield.simulator import SimulationConfig, simulate_thinning
from hawkes_meanfield.volterra import (cross_validate_schemes, fixed_point,
                                       solve_mean_field)

EXP = exponential_kernel(1.0)
ARCTAN = arctan_transfer()


def test_closed_form_oracle():
    # p=1, q=1, h == 1 turns the equation into I(t) = int_0^t e^{-(t-s)} ds,
    # whose solution is 1 - e^{-t}
    path = solve_mean_field(EXP, constant_transfer(1.0), 1.0, 1.0, 5.0)
    exact = 1.0 - np.exp(-path.grid)
    assert float(np.max(np.abs(path.values - exact))) < 1e-6


def test_trapezoid_converges_at_second_order():
    errors = []
    for m in (256, 512, 1024):
        path = solve_mean_field(EXP, constant_transfer(1.0), 1.0, 1.0, 5.0,
                                dt=5.0 / m)
        exact = 1.0 - np.exp(-path.grid)
        errors.append(float(np.max(np.abs(path.values - exact))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    for order in orders:
        assert 1.8 < order < 2.2


def test_rk4_route_agrees_with_trapezoid():
    gap = cross_validate_schemes(EXP, ARCTAN, 0.8, 0.5, 5.0)
    assert gap < 1e-5


def test_rk4_requires_exponential_kernel():
    tab = tabulated_kernel([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(SchemeMismatchError):
        solve_mean_field(tab, ARCTAN, 0.8, 0.5, 1.0, scheme="ode_rk4")
    with pytest.raises(SchemeMismatchError):
        solve_mean_field(EXP, ARCTAN, 0.8, 0.5, 1.0, scheme="nonsense")


def test_balanced_and_disconnected_cases_are_zero():
    for p, q in [(0.5, 0.5), (0.8, 0.0)]:
        path = solve_mean_field(EXP, ARCTAN, p, q, 3.0)
        assert np.all(path.values == 0.0)


def test_step_size_guard():
    # |2p-1| q Lip(h) ||phi|| dt = (2/pi) * 2 > 1 at dt=2
    with pytest.raises(StepSizeError):
        solve_mean_field(EXP, ARCTAN, 1.0, 1.0, 10.0, dt=2.0)


def test_inhibition_dominated_path_goes_negative():
    path = solve_mean_field(EXP, ARCTAN, 0.0, 1.0, 30.0)
    assert path.values[-1] < 0.0
    # long horizon: the path should have settled near the stationary point
    # (1e-4 leaves room for the O(dt^2) floor of the default grid)
    x_star = fixed_point(EXP, ARCTAN, 0.0, 1.0)
    assert path.values[-1] == pytest.approx(x_star, abs=1e-4)


def test_fixed_point_solves_its_equation():
    for p, q, rate in [(0.8, 0.5, 1.0), (0.2, 0.9, 2.0), (1.0, 1.0, 2.0)]:
        kernel = exponential_kernel(rate)
        x = fixed_point(kernel, ARCTAN, p, q)
        a = (2 * p - 1) * q * kernel.l1_norm
        assert a * ARCTAN(x) - x == pytest.approx(0.0, abs=1e-12)


def test_fixed_point_matches_bisection_oracle():
    a = (2 * 0.8 - 1) * 0.5 * EXP.l1_norm

    def g(x):
        return a * (1.0 + (2.0 / math.pi) * math.atan(x)) - x

    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert fixed_point(EXP, ARCTAN, 0.8, 0.5) == pytest.approx(lo, abs=1e-10)


def test_fixed_point_balanced_case_is_zero():
    assert fixed_point(EXP, ARCTAN, 0.5, 0.9) == 0.0


def test_fixed_point_without_contraction_scans_all_roots():
    # a = 2, so a * Lip(h) = 4/pi > 1: the solver must warn and return
    # every stationary point it can bracket
    slow = exponential_kernel(0.5)
    with pytest.warns(UserWarning):
        roots = fixed_point(slow, ARCTAN, 1.0, 1.0)
    assert isinstance(roots, np.ndarray) and len(roots) >= 1
    a = 1.0 * slow.l1_norm
    for x in roots:
        assert a * ARCTAN(x) - x == pytest.approx(0.0, abs=1e-10)
    assert roots.max() > 0.0


def test_grid_rounds_dt_to_land_on_horizon():
    path = solve_mean_field(EXP, ARCTAN, 0.8, 0.5, 1.0, dt=0.3)
    assert path.grid[-1] == 1.0
    assert len(path.grid) == 4  # round(1 / 0.3) = 3 steps


def test_unallocatable_grid_is_a_parameter_error():
    # 10^20 + 1 points overflow numpy's size limit before any allocation
    with pytest.raises(ParameterError, match="grid of 100000000000000000001"):
        solve_mean_field(EXP, ARCTAN, 0.8, 0.5, 1.0, dt=1e-20)
    # a subnormal dt lies in (0, horizon], but horizon / dt overflows to inf
    with pytest.raises(ParameterError, match="grid of inf points"):
        solve_mean_field(EXP, ARCTAN, 0.8, 0.5, 2.0, 5e-324)
    net = sample_network(5, 0.8, 0.5, seed=1)
    cfg = SimulationConfig(horizon=2.0, seed=1, dt=5e-324)
    with pytest.raises(ParameterError, match="grid of inf points"):
        simulate_thinning(net, EXP, ARCTAN, cfg)


def test_zero_horizon():
    path = solve_mean_field(EXP, ARCTAN, 0.8, 0.5, 0.0)
    assert path.grid.shape == (1,) and path.values[0] == 0.0


def test_parameter_validation():
    with pytest.raises(ParameterError):
        solve_mean_field(EXP, ARCTAN, 1.5, 0.5, 1.0)
    with pytest.raises(ParameterError):
        solve_mean_field(EXP, ARCTAN, 0.8, 0.5, 1.0, dt=2.0)
    for horizon in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="horizon"):
            solve_mean_field(EXP, ARCTAN, 0.8, 0.5, horizon)
    for horizon in ("1", None, True):
        with pytest.raises(ParameterError, match="horizon"):
            solve_mean_field(EXP, ARCTAN, 0.8, 0.5, horizon)
    with pytest.raises(ParameterError, match="p and q"):
        solve_mean_field(EXP, ARCTAN, "0.8", 0.5, 1.0)


def test_tabulated_kernel_reproduces_exponential_solution():
    """The full-memory branch against the exponential fast path.

    e^{-u} tabulated densely out to u=14 (truncation error ~ 1e-6) should
    give nearly the same path as the analytic exponential kernel.
    """
    u = np.linspace(0.0, 14.0, 2801)
    tab = tabulated_kernel(u, np.exp(-u))
    a = solve_mean_field(tab, ARCTAN, 0.8, 0.5, 5.0, dt=5.0 / 512)
    b = solve_mean_field(EXP, ARCTAN, 0.8, 0.5, 5.0, dt=5.0 / 512)
    assert float(np.max(np.abs(a.values - b.values))) < 1e-5
