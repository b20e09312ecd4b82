"""Peak-memory bounds: no dense (n, n) float matrix while sampling or simulating.

The network stores one byte per ordered pair (n^2 bytes).  Drawing it and
running either event loop must not add a float64 (n, n) block (8 n^2 bytes)
on top, so each traced peak stays below 2 n^2 bytes at n = 2000.
"""

import tracemalloc

import numpy as np
import pytest

from hawkes_meanfield.kernels import (arctan_transfer, exponential_kernel,
                                      tabulated_kernel)
from hawkes_meanfield.network import build_complementary_network, sample_network
from hawkes_meanfield.simulator import (SimulationConfig, simulate_thinning,
                                        simulate_time_change)

N = 2000
BOUND = 2 * N * N
_NODES = np.arange(9) * 0.25
KERNELS = {"exponential": exponential_kernel(1.0),
           "tabulated": tabulated_kernel(_NODES, np.exp(-_NODES))}
BACKENDS = {"thinning": simulate_thinning, "time_change": simulate_time_change}


def _traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build, args", [
    (sample_network, (N, 0.8, 0.5, 7)),
    (build_complementary_network, (N, 7)),
])
def test_network_draw_peak_below_two_bytes_per_pair(build, args):
    peak = _traced_peak(build, *args)
    assert peak < BOUND, f"{build.__name__}: peak {peak} B >= 2 n^2 = {BOUND} B"


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_simulation_peak_below_two_bytes_per_pair(backend, kernel):
    net = sample_network(N, 0.8, 0.5, seed=7)
    cfg = SimulationConfig(horizon=0.05, seed=7, tracked_vertices=(0, 1))
    peak = _traced_peak(BACKENDS[backend], net, KERNELS[kernel],
                        arctan_transfer(), cfg)
    assert peak < BOUND, f"{backend}/{kernel}: peak {peak} B >= 2 n^2 = {BOUND} B"
