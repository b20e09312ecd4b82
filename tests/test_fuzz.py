"""Library entry points fail typed: property-based argument fuzzing.

Each example starts from a valid toy call of one entry point and replaces
one of its scalar or list arguments, or one entry of a list, with an
invalid value: None, a string, NaN, +-inf, a negative number, a
non-integral float, a bool, or an empty or nested list.  The call must
return or raise a ToolkitError; any other exception is a fault in the rule
that owns the argument.  Kernel and transfer objects are left alone, and
so are valid but large values (a long horizon, a fine grid, a big
network), which only measure memory.

The examples are derandomized and their count is fixed, so every run
draws the same calls.
"""

import functools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hawkes_meanfield.analysis import run_experiment
from hawkes_meanfield.errors import ToolkitError
from hawkes_meanfield.fluctuations import (sample_terminal_fluctuations,
                                           simulate_fluctuations,
                                           terminal_covariance)
from hawkes_meanfield.kernels import (arctan_transfer, constant_transfer,
                                      convolution_bound_constant,
                                      exponential_kernel, tabulated_kernel,
                                      tabulated_transfer)
from hawkes_meanfield.network import (build_complementary_network,
                                      sample_network)
from hawkes_meanfield.simulator import (SimulationConfig,
                                        extract_martingale_paths,
                                        simulate_thinning,
                                        simulate_time_change)
from hawkes_meanfield.volterra import solve_mean_field

EXP = exponential_kernel(2.0)
ARCTAN = arctan_transfer()
NET = sample_network(6, 0.8, 0.5, seed=3)
RECORDED = simulate_thinning(NET, EXP, ARCTAN, SimulationConfig(
    horizon=0.5, seed=4, dt=0.125, record_full=True))
PATH = solve_mean_field(EXP, ARCTAN, 0.8, 0.5, 0.5, dt=0.125)

# invalid for every argument below but 5e-324, the least positive float,
# whose dt overflows the step count; the other positive non-integral floats
# are few and small, so none is a valid but large horizon or a fine grid
INVALID = st.one_of(
    st.sampled_from([None, "", "2", math.nan, math.inf, -math.inf, True,
                     False, [], [[0]], [1, [2]], 0.5, 1.5, 2.5, 5e-324]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300),
)

_MODEL = dict(horizon=0.5, seed=1, backend="thinning", dt=0.125)


def _experiment(name, **toy):
    call = functools.partial(run_experiment, name, kernel=EXP,
                             transfer=ARCTAN)
    return call, dict(_MODEL, **toy)


def _lln_with_tolerances(**tolerances):
    return run_experiment("lln", kernel=EXP, transfer=ARCTAN, sizes=[6, 12],
                          p=0.8, q=0.5, replicates=3, tolerances=tolerances,
                          **_MODEL)


def _simulate(backend, **fields):
    return backend(NET, EXP, ARCTAN, SimulationConfig(**fields))


_SIMULATION = dict(horizon=0.5, seed=1, scaling="mean_field", dt=0.125,
                   tracked_vertices=[0, 1], record_full=False,
                   record_mean_rate=False, martingale_vertices=[0])

# entry point -> (call, the keyword arguments of one valid toy call)
ENTRIES = {
    "lln": _experiment("lln", sizes=[6, 12], p=0.8, q=0.5, replicates=3,
                       tolerances={}),
    "lln-tolerances": (_lln_with_tolerances,
                       {"mean_zero_se": 3.0, "ratio_band": [2.0, 8.0]}),
    "clt": _experiment("clt", n=6, p=0.8, q=0.5, replicates=8, n_tracked=2,
                       limit_samples=8),
    "corollary": _experiment("corollary", sizes=[6, 12], p=0.8, q=0.5,
                             replicates=8),
    "critical": _experiment("critical", n=6, q=0.5, replicates=5,
                            complementary=False, net_seed=None),
    "critical-complementary": _experiment("critical", n=6, q=0.5,
                                          replicates=5, complementary=True,
                                          net_seed=3),
    "independence": _experiment("independence", sizes=[6], p=0.8, q=0.5,
                                replicates=10, m_vertices=2),
    "sample_network": (sample_network, dict(n=5, p=0.5, q=0.5, seed=1)),
    "build_complementary_network": (build_complementary_network,
                                    dict(n=6, seed=1)),
    "simulate_thinning": (functools.partial(_simulate, simulate_thinning),
                          _SIMULATION),
    "simulate_time_change": (functools.partial(_simulate,
                                               simulate_time_change),
                             _SIMULATION),
    "solve_mean_field": (functools.partial(solve_mean_field, EXP, ARCTAN),
                         dict(p=0.8, q=0.5, horizon=1.0, dt=0.125,
                              scheme="volterra_trapezoid")),
    "simulate_fluctuations": (
        functools.partial(simulate_fluctuations, PATH, EXP, ARCTAN),
        dict(p=0.8, q=0.5, n_vertices=2, seed=1, sample_index=0)),
    "sample_terminal_fluctuations": (
        functools.partial(sample_terminal_fluctuations, PATH, EXP, ARCTAN),
        dict(p=0.8, q=0.5, n_vertices=2, n_samples=3, seed=1, chunk=2)),
    "terminal_covariance": (
        functools.partial(terminal_covariance, PATH, EXP, ARCTAN),
        dict(p=0.8, q=0.5, n_vertices=2)),
    "exponential_kernel": (exponential_kernel, dict(rate=2.0)),
    "constant_transfer": (constant_transfer, dict(value=1.0)),
    "convolution_bound_constant": (
        functools.partial(convolution_bound_constant, EXP),
        dict(horizon=1.0)),
    "tabulated_kernel": (tabulated_kernel,
                         dict(nodes=[0.0, 0.5, 1.0], values=[1.0, 0.5, 0.0])),
    "tabulated_transfer": (tabulated_transfer,
                           dict(nodes=[-1.0, 1.0], values=[0.5, 1.5],
                                deriv_values=[0.5, 0.5])),
    "extract_martingale_paths": (
        functools.partial(extract_martingale_paths, RECORDED),
        dict(vertices=[0, 1])),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_toy_calls_are_valid(entry):
    call, kwargs = ENTRIES[entry]
    call(**kwargs)


@pytest.mark.parametrize("entry", ENTRIES)
@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_an_invalid_argument_returns_or_raises_a_toolkit_error(entry, data):
    call, kwargs = ENTRIES[entry]
    keyword = data.draw(st.sampled_from(sorted(kwargs)), label="keyword")
    value = data.draw(INVALID, label="value")
    given_value = kwargs[keyword]
    if isinstance(given_value, list) and data.draw(st.booleans(),
                                                   label="one entry"):
        i = data.draw(st.integers(0, len(given_value) - 1), label="index")
        value = given_value[:i] + [value] + given_value[i + 1:]
    try:
        call(**dict(kwargs, **{keyword: value}))
    except ToolkitError:
        pass


# the faults this fuzzing found: each raised a bare TypeError or ValueError
@pytest.mark.parametrize("entry, keyword, value", [
    ("lln", "sizes", True),
    ("independence", "sizes", None),
    ("lln", "backend", []),
    ("critical", "dt", ""),
    ("solve_mean_field", "dt", "2"),
    ("tabulated_kernel", "nodes", ""),
    ("tabulated_transfer", "values", [1, [2]]),
    ("tabulated_transfer", "deriv_values", "x"),
    ("simulate_thinning", "tracked_vertices", None),
    ("simulate_time_change", "martingale_vertices", math.nan),
    ("extract_martingale_paths", "vertices", None),
])
def test_the_faults_found_are_toolkit_errors(entry, keyword, value):
    call, kwargs = ENTRIES[entry]
    with pytest.raises(ToolkitError):
        call(**dict(kwargs, **{keyword: value}))
