"""Peak-memory bounds: no dense (n, n) float matrix, one replicate at a time.

The network stores one byte per ordered pair (n^2 bytes).  Drawing it and
running either event loop must not add a float64 (n, n) block (8 n^2 bytes)
on top, so each traced peak stays below 2 n^2 bytes at n = 2000.  So does a
whole lln experiment, which records no (n, grid) input matrix.

An experiment holds one replicate at a time: its peak stays within 5% of the
peak of a single replicate (network, simulation, martingale extraction).
No experiment allocates an (n, M+1) array: corollary and critical record
the rates projected onto a few rows and project the counts after the run,
so at n = 1000 on 2049 grid points their traced peak stays below
2 n^2 + 96 * 8 (M+1) bytes, where one (n, M+1) float64 array alone is
1000 * 8 (M+1).  The 96 rows' worth covers the k-row projections, the
downsampled tables and the thinning loop's candidate blocks, about 1 MB
whatever n and M.  Martingale extraction from a record_full run (the oracle
path) holds at most one more array of the recording's shape at a time:
below 2.5 float64 arrays of shape (n, M+1) with the recording.
"""

import tracemalloc

import numpy as np
import pytest

from hawkes_meanfield.analysis import (corollary_experiment,
                                       critical_experiment, lln_experiment)
from hawkes_meanfield.kernels import (arctan_transfer, exponential_kernel,
                                      tabulated_kernel)
from hawkes_meanfield.network import build_complementary_network, sample_network
from hawkes_meanfield.simulator import (SimulationConfig,
                                        extract_martingale_paths,
                                        simulate_thinning,
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


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_lln_experiment_peak_below_two_bytes_per_pair(backend):
    # lln keeps two extremes per grid time, not the (n, grid) input matrix
    peak = _traced_peak(lambda: lln_experiment(
        sizes=[200, N], p=0.8, q=0.5, kernel=KERNELS["exponential"],
        transfer=arctan_transfer(), horizon=0.1, replicates=3, seed=7,
        backend=backend))
    assert peak < BOUND, f"lln/{backend}: peak {peak} B >= 2 n^2 = {BOUND} B"


def _one_replicate(n, p, horizon, scaling, vertices):
    # what one corollary or critical replicate records and extracts:
    # corollary tracks vertex 0's input, both record the projected rates
    net = sample_network(n, p, 0.5, seed=7)
    cfg = SimulationConfig(horizon=horizon, seed=7, scaling=scaling,
                           tracked_vertices=(0,) if vertices == () else (),
                           martingale_vertices=vertices)
    res = simulate_thinning(net, KERNELS["exponential"], arctan_transfer(),
                            cfg)
    extract_martingale_paths(res, vertices=vertices)


@pytest.mark.parametrize("experiment", ["corollary", "critical-random"])
def test_experiment_peak_is_one_replicate(experiment):
    n, horizon = 1500, 0.1
    common = dict(kernel=KERNELS["exponential"], transfer=arctan_transfer(),
                  horizon=horizon, seed=7)
    if experiment == "corollary":
        single = _traced_peak(_one_replicate, n, 0.8, horizon, "mean_field",
                              ())
        peak = _traced_peak(lambda: corollary_experiment(
            sizes=[200, n], p=0.8, q=0.5, replicates=8, **common))
    else:
        single = _traced_peak(_one_replicate, n, 0.5, horizon, "critical",
                              (0, 1))
        peak = _traced_peak(lambda: critical_experiment(
            n=n, replicates=5, **common))
    assert peak <= 1.05 * single, (
        f"{experiment}: peak {peak} B > 1.05 x one replicate {single} B")


_RUNS = {
    "corollary": lambda n, **common: corollary_experiment(
        sizes=[n // 4, n], p=0.8, q=0.5, replicates=8, **common),
    "critical-random": lambda n, **common: critical_experiment(
        n=n, replicates=5, **common),
    "critical-complementary": lambda n, **common: critical_experiment(
        n=n, replicates=5, complementary=True, **common),
}


@pytest.mark.parametrize("experiment", sorted(_RUNS))
def test_experiment_allocates_no_recording_sized_array(experiment):
    n, grid_points = 1000, 2049
    common = dict(kernel=KERNELS["exponential"], transfer=arctan_transfer(),
                  horizon=0.1, seed=7)
    run = _RUNS[experiment]
    run(16, **common)  # lazy imports (scipy.special in a verdict) load here
    peak = _traced_peak(lambda: run(n, **common))
    row = 8 * grid_points
    bound = 2 * n * n + 96 * row
    assert peak < bound, (
        f"{experiment}: peak {peak} B = 2 n^2 + {(peak - 2 * n * n) / row:.1f}"
        f" x 8 (M+1) B; one (n, M+1) array is {n} x 8 (M+1) B")


def test_martingale_extraction_peak_below_two_and_a_half_recordings():
    n = 1500
    net = sample_network(n, 0.5, 0.5, seed=7)
    cfg = SimulationConfig(horizon=0.1, seed=7, scaling="critical",
                           tracked_vertices=(0, 1), record_full=True)
    res = simulate_thinning(net, KERNELS["exponential"], arctan_transfer(),
                            cfg)
    recording = res.full_input.nbytes
    assert recording == 8 * n * len(res.grid)
    peak = _traced_peak(extract_martingale_paths, res, (0, 1))
    assert peak < 2.5 * recording, (
        f"peak {peak} B = {peak / recording:.2f} x 8 n (M+1) B")
