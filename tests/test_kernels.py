"""Kernels and transfer functions: closed forms, tables, convolutions."""

import math

import numpy as np
import pytest

from hawkes_meanfield.errors import (ContractError, DerivativeUnavailableError,
                                     DomainError, ParameterError)
from hawkes_meanfield.kernels import (arctan_transfer, constant_transfer,
                                      convolution_bound_constant,
                                      convolve_with_path,
                                      exponential_kernel, tabulated_kernel,
                                      tabulated_transfer)


def test_exponential_kernel_closed_form():
    k = exponential_kernel(2.0)
    assert k(0.0) == 1.0
    assert k(1.5) == pytest.approx(math.exp(-3.0), rel=1e-15)
    ts = np.linspace(0.0, 4.0, 33)
    np.testing.assert_allclose(k(ts), np.exp(-2.0 * ts))
    assert k.l1_norm == 0.5
    assert k.sup_norm == 1.0
    assert k.deriv_sup == 2.0


def test_kernel_rejects_negative_times_and_rates():
    with pytest.raises(DomainError):
        exponential_kernel(1.0)(-0.1)
    with pytest.raises(ParameterError):
        exponential_kernel(0.0)
    with pytest.raises(ParameterError):
        exponential_kernel(-2.0)


def test_tabulated_kernel_interpolates():
    k = tabulated_kernel([0.0, 1.0, 2.0], [1.0, 0.5, 0.0])
    assert k(0.5) == 0.75
    assert k(2.0) == 0.0
    assert k.l1_norm == 1.0         # exact trapezoid of the table
    assert k.sup_norm == 1.0
    assert k.deriv_sup == 0.5
    with pytest.raises(DomainError):
        k(2.5)
    # convolution windows use zero past the support instead of raising
    np.testing.assert_allclose(k.padded(np.array([0.5, 3.0])), [0.75, 0.0])


def test_tabulated_kernel_validation():
    with pytest.raises(ContractError):
        tabulated_kernel([0.5, 1.0], [1.0, 0.0])        # must start at 0
    with pytest.raises(ContractError):
        tabulated_kernel([0.0, 1.0, 1.0], [1.0, 0.5, 0.0])
    with pytest.raises(ParameterError):
        tabulated_kernel([0.0, 1.0], [1.0, -0.5])
    with pytest.raises(ContractError):
        tabulated_kernel([0.0], [1.0])



@pytest.mark.parametrize("build", [tabulated_kernel, tabulated_transfer])
@pytest.mark.parametrize("nodes", [[0.0, math.nan, 2.0],
                                   [0.0, 1.0, math.inf]],
                         ids=["nan", "inf"])
def test_tables_refuse_non_finite_nodes(build, nodes):
    with pytest.raises(ContractError, match="^nodes must be finite$"):
        build(nodes, [1.0, 0.5, 0.0])


def test_truncation_lag():
    k = exponential_kernel(2.0)
    lag = k.truncation_lag()
    assert k(lag) == pytest.approx(1e-12, rel=1e-12)
    tab = tabulated_kernel([0.0, 3.0], [1.0, 0.0])
    assert tab.truncation_lag() == 3.0


def test_grid_values_match_padded():
    k = tabulated_kernel([0.0, 1.0, 2.0], [1.0, 0.4, 0.0])
    dt = 0.3
    np.testing.assert_array_equal(k.grid_values(dt, 10),
                                  k.padded(dt * np.arange(11)))


def test_arctan_transfer_shape():
    h = arctan_transfer()
    assert h(0.0) == 1.0
    assert h(1e9) == pytest.approx(2.0, abs=1e-8)
    assert h(-1e9) == pytest.approx(0.0, abs=1e-8)
    xs = np.linspace(-20, 20, 401)
    vals = h(xs)
    assert np.all(vals > 0.0) and np.all(vals < 2.0)
    assert h.sup_norm == 2.0
    assert h.lipschitz == pytest.approx(2.0 / math.pi)


def test_arctan_derivative_matches_finite_differences():
    h = arctan_transfer()
    xs = np.linspace(-5, 5, 51)
    eps = 1e-6
    fd = (h(xs + eps) - h(xs - eps)) / (2 * eps)
    np.testing.assert_allclose(h.derivative(xs), fd, atol=1e-9)


def test_arctan_curvature_bound_is_tight():
    # |h''| = (2/pi) 2|x| / (1+x^2)^2 peaks at x = 1/sqrt(3)
    h = arctan_transfer()
    xs = np.linspace(-5, 5, 200001)
    hpp = (2.0 / math.pi) * 2.0 * np.abs(xs) / (1.0 + xs * xs) ** 2
    assert hpp.max() <= h.second_deriv_sup + 1e-12
    assert hpp.max() == pytest.approx(h.second_deriv_sup, rel=1e-8)


def test_scalar_fast_path_agrees():
    for h in (arctan_transfer(), constant_transfer(1.5),
              tabulated_transfer([-1.0, 0.0, 1.0], [0.0, 1.0, 1.5])):
        f = h.scalar
        for x in (-2.0, -0.3, 0.0, 0.7, 4.0):
            assert f(x) == pytest.approx(h(x), rel=1e-15)


def test_constant_transfer():
    h = constant_transfer(3.0)
    np.testing.assert_array_equal(h(np.array([-1.0, 0.0, 5.0])), 3.0)
    assert h.derivative(2.0) == 0.0
    assert h.lipschitz == 0.0
    with pytest.raises(ParameterError):
        constant_transfer(-1.0)


def test_tabulated_transfer_clamps_and_derivative_contract():
    h = tabulated_transfer([-1.0, 1.0], [0.5, 1.5])
    assert h(-4.0) == 0.5 and h(4.0) == 1.5        # clamped outside
    assert h(0.0) == 1.0
    assert not h.has_derivative
    with pytest.raises(DerivativeUnavailableError):
        h.derivative(0.0)
    hd = tabulated_transfer([-1.0, 1.0], [0.5, 1.5], deriv_values=[0.5, 0.5])
    assert hd.has_derivative
    assert hd.derivative(0.0) == 0.5


@pytest.mark.parametrize("args, error, message", [
    (([0.0, 1.0, 2.0], [1.0, 0.5]), ContractError,
     "need matching 1-d nodes/values with >= 2 points"),
    (([0.0, 1.0], [1.0, -0.5]), ParameterError,
     "transfer values must be finite and non-negative"),
    (([0.0, 1.0], [1.0, 0.5], [0.0]), ContractError,
     "derivative table must match the nodes"),
], ids=["lengths-differ", "negative-value", "derivative-table-shape"])
def test_tabulated_transfer_refusals_keep_their_text(args, error, message):
    with pytest.raises(error) as err:
        tabulated_transfer(*args)
    assert str(err.value) == message


def test_convolution_single_event_closed_form():
    k = exponential_kernel(1.0)
    events = np.array([1.0])
    assert convolve_with_path(k, 2.5, events) == pytest.approx(math.exp(-1.5))
    # strict left limit: an event at exactly t contributes nothing yet
    assert convolve_with_path(k, 1.0, events) == 0.0
    assert convolve_with_path(k, 0.5, events) == 0.0


def test_convolution_weights_and_vector_queries():
    k = exponential_kernel(2.0)
    events = np.array([0.5, 1.0, 1.5])
    weights = np.array([1.0, -1.0, 2.0])
    t = 2.0
    expected = (math.exp(-2 * 1.5) - math.exp(-2 * 1.0)
                + 2 * math.exp(-2 * 0.5))
    assert convolve_with_path(k, t, events, weights) == pytest.approx(expected)
    out = convolve_with_path(k, np.array([0.0, 2.0]), events, weights)
    np.testing.assert_allclose(out, [0.0, expected])


def test_convolution_input_validation():
    k = exponential_kernel(1.0)
    with pytest.raises(ContractError):
        convolve_with_path(k, 1.0, np.array([2.0, 1.0]))
    with pytest.raises(ContractError):
        convolve_with_path(k, 1.0, np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        convolve_with_path(k, -1.0, np.array([0.5]))


def test_bound_constant_value():
    assert convolution_bound_constant(exponential_kernel(1.0), 5.0) == 6.0
    with pytest.raises(DomainError):
        convolution_bound_constant(exponential_kernel(1.0), -1.0)


def test_squared_convolution_bound_on_random_jump_paths():
    """sup (phi*dJ)^2 <= (||phi|| + t ||phi'||) sup J^2, zero violations.

    Signed unit jumps at uniform times, exponential kernel with
    t * rate = 5 >= 3 (the calibration under which the squared form of the
    integration-by-parts bound holds for this family).
    """
    k = exponential_kernel(1.0)
    horizon = 5.0
    bound = convolution_bound_constant(k, horizon)
    g = np.random.default_rng(20240823)
    queries = np.linspace(0.0, horizon, 101)
    for _ in range(200):
        m = int(g.integers(1, 40))
        events = np.sort(g.uniform(0.0, horizon, m))
        weights = g.choice([-1.0, 1.0], m)
        sup_j2 = float(np.max(np.cumsum(weights) ** 2))
        conv = convolve_with_path(k, queries, events, weights)
        assert float(np.max(conv**2)) <= bound * sup_j2 + 1e-12
