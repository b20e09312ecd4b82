"""Event simulation: determinism, oracle agreement, backend equivalence."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats as sps

from hawkes_meanfield import simulator
from hawkes_meanfield.errors import (ContractError, ParameterError,
                                     RecordingMissingError,
                                     SchemeMismatchError)
from hawkes_meanfield.kernels import (arctan_transfer, constant_transfer,
                                      exponential_kernel, tabulated_kernel,
                                      tabulated_transfer)
from hawkes_meanfield.network import build_complementary_network, sample_network
from hawkes_meanfield.simulator import (SimulationConfig, SpikeTrains,
                                        compensators,
                                        extract_martingale_paths,
                                        format_spike_trains,
                                        read_spike_trains,
                                        recompute_input_from_trains,
                                        simulate_thinning,
                                        simulate_time_change)

EXP = exponential_kernel(1.0)
ARCTAN = arctan_transfer()


def _small_run(backend=simulate_thinning, seed=41, **kw):
    net = sample_network(20, 0.8, 0.5, seed=seed)
    cfg = SimulationConfig(horizon=3.0, seed=seed, tracked_vertices=(0, 3, 7),
                           **kw)
    return net, cfg, backend(net, EXP, ARCTAN, cfg)


def test_same_seed_same_events():
    _, _, a = _small_run()
    _, _, b = _small_run()
    assert a.trains.total_events == b.trains.total_events
    for ta, tb in zip(a.trains.times, b.trains.times):
        np.testing.assert_array_equal(ta, tb)
    np.testing.assert_array_equal(a.tracked_input, b.tracked_input)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_thinning_events_do_not_depend_on_the_candidate_block(monkeypatch,
                                                             block):
    # each candidate block continues its three streams, so any split of the
    # draws fires the same events
    _, _, want = _small_run()
    monkeypatch.setattr(simulator, "_BLOCK", block)
    _, _, got = _small_run()
    assert got.diagnostics == want.diagnostics
    for x, y in zip(got.trains.times, want.trains.times):
        np.testing.assert_array_equal(x, y)


class _Scripted:
    """A stream that returns the given draws, then gaps that end the run,
    vertex 0 and accepting uniforms (scale is ignored)."""

    def __init__(self, draws=()):
        self.draws = list(draws)

    def _take(self, size, fill):
        out = [self.draws.pop(0) if self.draws else fill
               for _ in range(1 if size is None else size)]
        return out[0] if size is None else np.array(out)

    def exponential(self, scale, size=None):
        return self._take(size, 1e9)

    def integers(self, low, high, size=None):
        return self._take(size, 0)

    def random(self, size=None):
        return self._take(size, 0.0)


def _scripted_run(monkeypatch, backend, streams, transfer=None,
                  horizon=2.0):
    """backend on 3 vertices, stream (seed, *key) drawing streams[key]."""
    monkeypatch.setattr(simulator, "stream",
                        lambda seed, *key: _Scripted(streams.get(key, ())))
    net = sample_network(3, 0.8, 0.5, seed=1)
    cfg = SimulationConfig(horizon=horizon, seed=1, tracked_vertices=())
    return backend(net, EXP, transfer or constant_transfer(1.0), cfg)


_AFTER = math.nextafter(0.5, math.inf)
# three candidates at 0.5, all accepted: one per vertex
_THINNING_TIE = {(simulator.CANDIDATES,): [0.5, 0.0, 0.0],
                 (simulator.VERTEX_PICK,): [0, 1, 2]}
_TIME_CHANGE_TIE = {(simulator.TIMECHANGE, i): [0.5] for i in range(3)}


@pytest.mark.parametrize("backend, streams", [
    (simulate_thinning, _THINNING_TIE),
    (simulate_time_change, _TIME_CHANGE_TIE)], ids=["thinning", "time_change"])
def test_tied_events_fire_in_time_order(monkeypatch, backend, streams):
    # the second event ties with the first and the third with the nudged
    # second, so each fires one ulp after the event before it
    res = _scripted_run(monkeypatch, backend, streams)
    want = [0.5, _AFTER, math.nextafter(_AFTER, math.inf)]
    assert [list(ts) for ts in res.trains.times] == [[t] for t in want]
    assert res.diagnostics == {"candidates": 3, "events": 3, "ties_nudged": 2}


def test_a_thinning_nudge_onto_the_horizon_ends_the_run(monkeypatch):
    res = _scripted_run(monkeypatch, simulate_thinning, _THINNING_TIE,
                        horizon=_AFTER)
    assert [list(ts) for ts in res.trains.times] == [[0.5], [], []]
    assert res.diagnostics == {"candidates": 2, "events": 1, "ties_nudged": 1}


@pytest.mark.parametrize("backend, streams", [
    (simulate_thinning, _THINNING_TIE),
    (simulate_time_change, _TIME_CHANGE_TIE)], ids=["thinning", "time_change"])
def test_a_transfer_above_its_sup_norm_is_refused(monkeypatch, backend,
                                                  streams):
    liar = dataclasses.replace(constant_transfer(1.0), sup_norm=0.5)
    with pytest.raises(ContractError, match="left its declared range"):
        _scripted_run(monkeypatch, backend, streams, transfer=liar)


def test_different_seeds_differ():
    _, _, a = _small_run(seed=41)
    _, _, b = _small_run(seed=42)
    assert a.trains.total_events != b.trains.total_events or any(
        not np.array_equal(x, y) for x, y in zip(a.trains.times, b.trains.times)
    )


@pytest.mark.parametrize("backend", [simulate_thinning, simulate_time_change])
def test_tracked_input_matches_reconvolution_oracle(backend):
    """The lazy-decay state must equal a brute-force kernel reconvolution."""
    net, cfg, res = _small_run(backend=backend)
    oracle = recompute_input_from_trains(net, EXP, cfg.theta(net.n),
                                         res.trains, res.grid,
                                         cfg.tracked_vertices)
    assert float(np.max(np.abs(res.tracked_input - oracle))) < 1e-9


def test_counts_on_grid_takes_left_limits():
    trains = SpikeTrains(times=(np.array([0.5, 1.0]), np.array([0.25])),
                         horizon=2.0)
    grid = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
    out = trains.counts_on_grid(grid)
    # an event at exactly a grid time is not yet counted there
    np.testing.assert_array_equal(out[0], [0, 0, 0, 1, 2])
    np.testing.assert_array_equal(out[1], [0, 0, 1, 1, 1])
    np.testing.assert_array_equal(trains.counts(), [2, 1])
    assert trains.total_events == 3


def test_full_recording_consistency():
    for backend in (simulate_thinning, simulate_time_change):
        net, cfg, res = _small_run(backend=backend, record_full=True,
                                   record_mean_rate=True)
        np.testing.assert_allclose(res.mean_input, res.full_input.mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(res.tracked_input,
                                   res.full_input[list(cfg.tracked_vertices)],
                                   atol=1e-12)
        np.testing.assert_allclose(res.mean_rate,
                                   ARCTAN(res.full_input).mean(axis=0),
                                   rtol=0.0, atol=1e-12)
        # the rate mean does not depend on whether the full matrix is kept
        _, _, rate_only = _small_run(backend=backend, record_mean_rate=True)
        np.testing.assert_array_equal(rate_only.mean_rate, res.mean_rate)


def test_diagnostics_bookkeeping():
    _, _, res = _small_run()
    d = res.diagnostics
    assert d["events"] == res.trains.total_events
    assert d["candidates"] >= d["events"]
    assert d["ties_nudged"] >= 0


def test_merged_orders_all_events():
    _, _, res = _small_run()
    ts, vs = res.trains.merged()
    assert len(ts) == res.trains.total_events
    assert np.all(np.diff(ts) >= 0.0)
    assert vs.min() >= 0 and vs.max() < 20


def test_constant_transfer_gives_poisson_counts():
    # h == c decouples the network: total events ~ Poisson(n c T)
    net = sample_network(50, 0.8, 0.5, seed=3)
    cfg = SimulationConfig(horizon=4.0, seed=3, tracked_vertices=())
    res = simulate_thinning(net, EXP, constant_transfer(1.5), cfg)
    mean = 50 * 1.5 * 4.0
    assert abs(res.trains.total_events - mean) < 5 * math.sqrt(mean)


def test_zero_rate_means_no_events():
    net = sample_network(10, 0.8, 0.5, seed=1)
    cfg = SimulationConfig(horizon=2.0, seed=1, tracked_vertices=(0,))
    for backend in (simulate_thinning, simulate_time_change):
        res = backend(net, EXP, constant_transfer(0.0), cfg)
        assert res.trains.total_events == 0
        assert np.all(res.tracked_input == 0.0)


def test_backends_agree_in_law():
    """Dual-route check: counts from both event loops, same law.

    60 seeds per backend; KS on the per-seed totals plus a 3-pooled-SE
    band on the means.  The backends share no randomness, so this is a
    genuine two-sample comparison.
    """
    totals = {"thinning": [], "time_change": []}
    for seed in range(60):
        net = sample_network(30, 0.8, 0.5, seed=seed)
        cfg = SimulationConfig(horizon=4.0, seed=seed, tracked_vertices=())
        totals["thinning"].append(
            simulate_thinning(net, EXP, ARCTAN, cfg).trains.total_events)
        totals["time_change"].append(
            simulate_time_change(net, EXP, ARCTAN, cfg).trains.total_events)
    a = np.asarray(totals["thinning"], dtype=float)
    b = np.asarray(totals["time_change"], dtype=float)
    pooled = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    assert abs(a.mean() - b.mean()) < 3 * pooled
    assert sps.ks_2samp(a, b).pvalue > 0.01


def test_complete_graph_gives_identical_inputs():
    # q=1: every vertex sees every spike (self-loops included), so all
    # input paths coincide exactly, not just in distribution
    net = sample_network(15, 0.8, 1.0, seed=9)
    cfg = SimulationConfig(horizon=3.0, seed=9, tracked_vertices=(0, 7, 14))
    res = simulate_thinning(net, EXP, ARCTAN, cfg)
    assert res.trains.total_events > 0
    np.testing.assert_array_equal(res.tracked_input[0], res.tracked_input[1])
    np.testing.assert_array_equal(res.tracked_input[0], res.tracked_input[2])
    # mean over identical entries differs by at most summation reordering
    np.testing.assert_allclose(res.tracked_input[0], res.mean_input,
                               rtol=1e-14, atol=0.0)


def test_critical_scaling_uses_root_n():
    cfg = SimulationConfig(horizon=1.0, seed=1, scaling="critical")
    assert cfg.theta(400) == 1.0 / 20.0
    assert SimulationConfig(horizon=1.0, seed=1).theta(400) == 1.0 / 400.0
    with pytest.raises(ParameterError):
        SimulationConfig(horizon=1.0, seed=1, scaling="diffusive")


def test_config_validation():
    net = sample_network(5, 0.8, 0.5, seed=1)
    cfg = SimulationConfig(horizon=1.0, seed=1, tracked_vertices=(5,))
    with pytest.raises(ParameterError):
        simulate_thinning(net, EXP, ARCTAN, cfg)
    # an infinite horizon would never end the event loop; nan never compares
    for horizon in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="horizon"):
            SimulationConfig(horizon=horizon, seed=1)
    # a horizon or a vertex index of the wrong type is refused, not
    # compared or truncated (0.7 once tracked vertex 0)
    for horizon in ("1", None, [1.0], True):
        with pytest.raises(ParameterError, match="horizon"):
            SimulationConfig(horizon=horizon, seed=1)
    for field in ("tracked_vertices", "martingale_vertices"):
        for bad in ((0.7,), (-1,), (True,), ("0",), ([0],)):
            with pytest.raises(ParameterError, match="vertex .* outside"):
                SimulationConfig(horizon=1.0, seed=1, **{field: bad})
    assert SimulationConfig(horizon=1.0, seed=1, tracked_vertices=(
        np.int64(2), 0)).tracked_vertices == (2, 0)
    # the seed rule of rng.stream, applied when the config is made
    for seed in (-1, 1.5, False, "1"):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            SimulationConfig(horizon=1.0, seed=seed)


@pytest.mark.parametrize("backend", [simulate_thinning, simulate_time_change])
def test_general_kernel_history_mode_matches_oracle(backend):
    tab = tabulated_kernel([0.0, 1.0, 2.0], [1.0, 0.4, 0.0])
    net = sample_network(15, 0.8, 0.5, seed=21)
    cfg = SimulationConfig(horizon=3.0, seed=21, tracked_vertices=(0, 4))
    res = backend(net, tab, ARCTAN, cfg)
    assert res.trains.total_events > 0
    oracle = recompute_input_from_trains(net, tab, cfg.theta(net.n),
                                         res.trains, res.grid, (0, 4))
    assert float(np.max(np.abs(res.tracked_input - oracle))) < 1e-9


def test_history_mode_grows_its_event_buffer():
    # more events than the 4096 the buffer starts with (about 5000 at the
    # constant rate 50, whatever the input); dt = 0.5 keeps the oracle small
    tab = tabulated_kernel([0.0, 1.0, 2.0], [1.0, 0.4, 0.0])
    net = sample_network(10, 0.8, 0.5, seed=21)
    cfg = SimulationConfig(horizon=10.0, seed=21, dt=0.5,
                           tracked_vertices=(0, 4))
    res = simulate_thinning(net, tab, constant_transfer(50.0), cfg)
    assert res.trains.total_events > 4096
    oracle = recompute_input_from_trains(net, tab, cfg.theta(net.n),
                                         res.trains, res.grid, (0, 4))
    assert float(np.max(np.abs(res.tracked_input - oracle))) < 1e-9


@pytest.mark.parametrize("kernel", [
    EXP, tabulated_kernel([0.0, 1.0, 2.0], [1.0, 0.4, 0.0])],
    ids=["exponential", "tabulated"])
@pytest.mark.parametrize("backend", [simulate_thinning, simulate_time_change])
def test_two_point_grid_keeps_trains_and_terminal_input(backend, kernel):
    # clt and independence simulate with dt=horizon: the grid is {0, T}
    net = sample_network(30, 0.8, 0.5, seed=33)
    full, ends = (backend(net, kernel, ARCTAN, SimulationConfig(
        horizon=3.0, seed=33, dt=dt, tracked_vertices=(0, 5)))
        for dt in (None, 3.0))
    assert len(full.grid) == 2049
    np.testing.assert_array_equal(ends.grid, [0.0, 3.0])
    assert full.trains.total_events > 0
    for a, b in zip(full.trains.times, ends.trains.times, strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(full.mean_input[-1], ends.mean_input[-1])
    np.testing.assert_array_equal(full.tracked_input[:, -1],
                                  ends.tracked_input[:, -1])
    assert full.diagnostics == ends.diagnostics


@pytest.mark.parametrize("backend", [simulate_thinning, simulate_time_change])
@pytest.mark.parametrize("seed", [3, 17, 41])
@pytest.mark.parametrize("horizon", [3.0, 0.0])
def test_input_range_is_the_extremes_of_the_full_input(backend, seed,
                                                       horizon):
    # dt = 0.0137 does not divide the horizon: the last step is a short one
    net = sample_network(60, 0.8, 0.5, seed=seed)
    plain, full = (backend(net, EXP, ARCTAN, SimulationConfig(
        horizon=horizon, seed=seed, dt=0.0137, tracked_vertices=(0, 5),
        record_full=record_full)) for record_full in (False, True))
    assert plain.full_input is None
    assert plain.input_range.shape == (2, len(plain.grid))
    for a, b in zip(plain.trains.times, full.trains.times, strict=True):
        np.testing.assert_array_equal(a, b)
    assert full.input_range is None
    np.testing.assert_array_equal(plain.input_range[0],
                                  full.full_input.min(axis=0))
    np.testing.assert_array_equal(plain.input_range[1],
                                  full.full_input.max(axis=0))
    lo, hi = plain.input_range
    assert np.all(lo <= hi)
    if horizon > 0.0:
        assert plain.trains.total_events > 0 and np.any(lo < hi)


def test_general_kernel_refuses_dense_recording():
    tab = tabulated_kernel([0.0, 1.0], [1.0, 0.0])
    net = sample_network(5, 0.8, 0.5, seed=2)
    for flag in ({"record_full": True}, {"record_mean_rate": True}):
        cfg = SimulationConfig(horizon=1.0, seed=2, **flag)
        with pytest.raises(SchemeMismatchError, match="tabulated kernel"):
            simulate_thinning(net, tab, ARCTAN, cfg)
    res = simulate_thinning(net, tab, ARCTAN,
                            SimulationConfig(horizon=1.0, seed=2))
    assert res.input_range is None


def test_compensator_of_constant_rate_is_linear():
    net = sample_network(10, 0.8, 0.5, seed=5)
    cfg = SimulationConfig(horizon=2.0, seed=5, record_full=True)
    res = simulate_thinning(net, EXP, constant_transfer(1.5), cfg)
    comp = compensators(res)
    np.testing.assert_allclose(comp, np.broadcast_to(1.5 * res.grid,
                                                     comp.shape), atol=1e-12)
    # the predictable bracket weighs those compensators by (V_j0 - q)^2
    paths = extract_martingale_paths(res, vertices=(0,))
    c00 = np.mean((net.adjacency[:, 0] - net.q) ** 2)
    np.testing.assert_allclose(paths.predictable[(0, 0)],
                               c00 * 1.5 * res.grid, atol=1e-12)


def test_compensators_need_full_recording():
    _, _, res = _small_run()
    with pytest.raises(RecordingMissingError):
        compensators(res)
    with pytest.raises(RecordingMissingError):
        extract_martingale_paths(res)


def test_martingale_split_identity():
    """m_per_vertex = m_tilde + q * M must hold path-wise, not in law."""
    net = sample_network(40, 0.5, 0.5, seed=13)
    cfg = SimulationConfig(horizon=4.0, seed=13, scaling="critical",
                           tracked_vertices=(0, 1), record_full=True)
    res = simulate_thinning(net, EXP, ARCTAN, cfg)
    paths = extract_martingale_paths(res, vertices=(0, 1))
    recombined = paths.m_tilde + net.q * paths.mean_martingale[None, :]
    assert float(np.max(np.abs(paths.m_per_vertex - recombined))) < 1e-9
    # diagonal bracket is a rescaled counting path: non-decreasing from 0
    diag = paths.brackets[(0, 0)]
    assert diag[0] == 0.0
    assert np.all(np.diff(diag) >= 0.0)
    assert (0, 1) in paths.brackets


def test_martingale_drift_plus_martingale_is_weighted_count():
    # per-vertex: M^i + drift_i = N^{-1/2} sum_j U_j V_ji Z^j_{t-}
    net = build_complementary_network(30, seed=17)
    cfg = SimulationConfig(horizon=3.0, seed=17, scaling="critical",
                           tracked_vertices=(0, 1), record_full=True)
    res = simulate_time_change(net, EXP, ARCTAN, cfg)
    paths = extract_martingale_paths(res, vertices=(0, 1))
    counts = res.trains.counts_on_grid(res.grid).astype(float)
    u = net.signs.astype(float)
    w = (u[:, None] * net.adjacency[:, [0, 1]].astype(float))
    expected = (w.T @ counts) / math.sqrt(net.n)
    np.testing.assert_allclose(paths.m_per_vertex + paths.drifts, expected,
                               atol=1e-9)


def test_extract_validates_vertices():
    net, cfg, res = _small_run(record_full=True)
    with pytest.raises(ParameterError):
        extract_martingale_paths(res, vertices=(0, 99))
    for bad in ((0.5,), (-1,), (False,)):
        with pytest.raises(ParameterError, match="^vertex .* outside 0..19$"):
            extract_martingale_paths(res, vertices=bad)
    with pytest.raises(ParameterError, match="martingale vertex"):
        _small_run(martingale_vertices=(0, 20))
    # a projection for other vertices is no recording of these
    _, _, res = _small_run(martingale_vertices=(0,))
    with pytest.raises(RecordingMissingError):
        extract_martingale_paths(res, vertices=(0, 1))


_PATH_FIELDS = ("mean_martingale", "m_tilde", "m_per_vertex", "drifts", "x0",
                "hbar_int")
# mode -> (network, scaling, target vertices), as the experiments run them;
# random critical at q = 0.3 so that no centered weight is a power of two
_MODES = {
    "critical-random": (lambda: sample_network(40, 0.5, 0.3, seed=5),
                        "critical", (0, 1)),
    "critical-complementary": (lambda: build_complementary_network(40, 5),
                               "critical", (0, 1)),
    "corollary": (lambda: sample_network(40, 0.8, 0.5, seed=5), "mean_field",
                  ()),
}


def _definition(res, vertices):
    """Every MartingalePaths field from its definition on the whole
    (n, grid) counting and compensator paths of a record_full run."""
    net = res.net
    counts = res.trains.counts_on_grid(res.grid)
    comp = compensators(res)
    base = counts - comp
    root = math.sqrt(net.n)
    u = net.signs.astype(float)
    v = net.adjacency[:, list(vertices)].astype(float)
    centered = v - net.q
    paths = {"mean_martingale": u @ base / root,
             "m_tilde": (u[:, None] * centered).T @ base / root,
             "m_per_vertex": (u[:, None] * v).T @ base / root,
             "drifts": (u[:, None] * v).T @ comp / root,
             "x0": base.sum(axis=0) / root,
             "hbar_int": comp.mean(axis=0)}
    for a, va in enumerate(vertices):
        for b in range(a, len(vertices)):
            c = centered[:, a] * centered[:, b]
            paths["brackets", (va, vertices[b])] = c @ counts / net.n
            paths["predictable", (va, vertices[b])] = c @ comp / net.n
    return paths


def _assert_close(x, y, label):
    # relative to the path's largest entry: where a martingale cancels to
    # ~1e-17, two summation orders differ in its every digit
    assert x.shape == y.shape, label
    assert (np.max(np.abs(x - y), initial=0.0)
            <= 1e-12 * np.max(np.abs(y), initial=0.0)), label


def _projected_and_oracle(net, transfer, scaling, vertices, backend, seed,
                          horizon, dt=None):
    common = dict(horizon=horizon, seed=seed, scaling=scaling, dt=dt,
                  tracked_vertices=())
    projected = backend(net, EXP, transfer, SimulationConfig(
        martingale_vertices=vertices, **common))
    oracle = backend(net, EXP, transfer, SimulationConfig(
        record_full=True, **common))
    assert projected.full_input is None and oracle.martingale_rates is None
    k = len(vertices)
    assert projected.martingale_rates.shape == (
        2 + 2 * k + k * (k - 1) // 2, len(projected.grid))
    assert projected.trains.total_events == oracle.trains.total_events
    for x, y in zip(projected.trains.times, oracle.trains.times):
        np.testing.assert_array_equal(x, y)
    a = extract_martingale_paths(projected, vertices)
    b = extract_martingale_paths(oracle, vertices)
    want = _definition(oracle, vertices)
    for name in _PATH_FIELDS:
        _assert_close(getattr(a, name), getattr(b, name), name)
        _assert_close(getattr(b, name), want[name], name)
    assert a.brackets.keys() == b.brackets.keys() == b.predictable.keys()
    for key in b.brackets:
        # integer counts on both paths: the same float whatever q
        np.testing.assert_array_equal(a.brackets[key], b.brackets[key])
        _assert_close(b.brackets[key], want["brackets", key], key)
        _assert_close(a.predictable[key], b.predictable[key], key)
        _assert_close(b.predictable[key], want["predictable", key], key)
    return projected


@pytest.mark.parametrize("backend", [simulate_thinning, simulate_time_change])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_projected_recording_matches_the_full_input_oracle(mode, backend):
    make, scaling, vertices = _MODES[mode]
    for seed in (3, 17):
        _projected_and_oracle(make(), ARCTAN, scaling, vertices, backend,
                              seed, 3.0)


def test_projected_counts_are_left_limits():
    # an event exactly at a grid time counts from the next grid time on
    net = sample_network(3, 0.8, 0.5, seed=1)
    trains = SpikeTrains(times=(np.array([0.5, 1.0]), np.array([]),
                                np.array([0.25, 1.1, 1.75])), horizon=2.0)
    grid = np.linspace(0.0, 2.0, 9)
    rows = simulator._projection_rows(net, (0, 2))
    np.testing.assert_array_equal(simulator._count_rows(trains, grid, rows),
                                  rows @ trains.counts_on_grid(grid))


@pytest.mark.parametrize("backend", [simulate_thinning, simulate_time_change])
def test_projection_of_a_near_silent_run_spans_column_blocks(backend):
    # rates of at most 0.05: one record() call crosses hundreds of grid
    # points, more than one column block of h(S)
    quiet = tabulated_transfer([-1.0, 1.0], [0.005, 0.05])
    net = sample_network(40, 0.8, 0.5, seed=9)
    res = _projected_and_oracle(net, quiet, "mean_field", (0, 1), backend, 9,
                                10.0)
    width = simulator._COLUMN_ITEMS // net.n
    ts, _ = res.trains.merged()
    crossed = np.diff(np.searchsorted(res.grid, np.concatenate(
        ([0.0], ts, [res.grid[-1]])), side="right"))
    assert 0 < res.trains.total_events and crossed.max() > 2 * width


def _blocks_touched(res, width):
    """For each record() call that buffers grid points, how many blocks of
    width grid points (counted from grid index 0) it writes into."""
    ts, _ = res.trains.merged()
    ends = np.searchsorted(res.grid, np.append(ts, res.grid[-1]),
                           side="right")
    starts = np.concatenate(([0], ends[:-1]))
    live = starts < ends
    return (ends[live] - 1) // width - starts[live] // width + 1


def _assert_exact_recording(net, cfg, res, full, vertices):
    """full_input at the vertices against the reconvolution of the trains,
    and every input res recorded bit for bit against the record_full run."""
    vertices = list(vertices)
    exact = recompute_input_from_trains(net, EXP, cfg.theta(net.n),
                                        full.trains, full.grid, vertices)
    np.testing.assert_allclose(full.full_input[vertices], exact, rtol=0.0,
                               atol=1e-13)
    np.testing.assert_array_equal(
        res.tracked_input, full.full_input[list(cfg.tracked_vertices)])
    np.testing.assert_array_equal(res.mean_input, full.mean_input)
    np.testing.assert_array_equal(res.input_range, np.vstack(
        [full.full_input.min(axis=0), full.full_input.max(axis=0)]))


@pytest.mark.parametrize("backend", [simulate_thinning, simulate_time_change])
def test_batched_recording_across_block_boundaries(backend):
    # 801 grid points in blocks of 102: a partial last block, record() calls
    # that write into two blocks and calls that write into more than two
    quiet = tabulated_transfer([-1.0, 1.0], [0.005, 0.05])
    net = sample_network(40, 0.8, 0.5, seed=9)
    res = _projected_and_oracle(net, quiet, "mean_field", (0, 1), backend, 9,
                                10.0, dt=0.0125)
    width = max(simulator._MIN_ROWS, simulator._COLUMN_ITEMS // net.n)
    touched = _blocks_touched(res, width)
    assert len(res.grid) % width and touched.max() > 2 and 2 in touched
    cfg = SimulationConfig(horizon=10.0, seed=9, dt=0.0125,
                           tracked_vertices=(0, 7))
    full = backend(net, EXP, quiet, dataclasses.replace(cfg,
                                                        record_full=True))
    _assert_exact_recording(net, cfg, backend(net, EXP, quiet, cfg), full,
                            range(net.n))


def test_recorded_inputs_do_not_depend_on_the_block_width(monkeypatch):
    # blocks of 3 grid points against the default blocks of 204: every
    # input is the same product of a state and its decay
    _, cfg, want = _small_run(record_full=True, martingale_vertices=(0, 1))
    monkeypatch.setattr(simulator, "_COLUMN_ITEMS", 1)
    monkeypatch.setattr(simulator, "_MIN_ROWS", 3)
    net, _, got = _small_run(record_full=True, martingale_vertices=(0, 1))
    assert _blocks_touched(got, 3).max() > 1
    for name in ("tracked_input", "mean_input", "full_input"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    # a product of other shape may round the projection's last bits
    _assert_close(got.martingale_rates, want.martingale_rates,
                  "martingale_rates")
    _assert_close(got.martingale_rates, simulator._projection_rows(
        net, (0, 1)) @ ARCTAN(want.full_input), "martingale_rates")


def test_large_network_records_in_blocks_of_the_row_floor():
    # N > _COLUMN_ITEMS: the byte budget allows less than one row per
    # block, so blocks hold _MIN_ROWS grid points; 41 is no multiple of it
    net = sample_network(simulator._COLUMN_ITEMS + 4, 0.8, 0.5, seed=3)
    assert simulator._COLUMN_ITEMS // net.n < simulator._MIN_ROWS
    horizon, dt = 0.2, 0.005
    _projected_and_oracle(net, ARCTAN, "mean_field", (0, 1),
                          simulate_thinning, 3, horizon, dt=dt)
    cfg = SimulationConfig(horizon=horizon, seed=3, dt=dt,
                           tracked_vertices=(0, 1, net.n - 1))
    res = simulate_thinning(net, EXP, ARCTAN, cfg)
    full = simulate_thinning(net, EXP, ARCTAN,
                             dataclasses.replace(cfg, record_full=True))
    assert len(res.grid) % simulator._MIN_ROWS and res.trains.total_events
    _assert_exact_recording(net, cfg, res, full, cfg.tracked_vertices)


def test_spike_train_roundtrip_csv_and_jsonl(tmp_path):
    _, _, res = _small_run()
    path = tmp_path / "events.csv"
    path.write_text(format_spike_trains(res.trains))
    back = read_spike_trains(path, res.trains.n, res.trains.horizon)
    for ta, tb in zip(res.trains.times, back.times):
        np.testing.assert_array_equal(ta, tb)
    # JSON lines are not a spike-train format: refused, not misread
    old = tmp_path / "events.jsonl"
    old.write_text('{"t": 0.5, "vertex": 1}\n')
    with pytest.raises(ContractError, match="header"):
        read_spike_trains(old, res.trains.n, res.trains.horizon)


def test_spike_train_csv_comment_and_errors(tmp_path):
    _, _, res = _small_run()
    path = tmp_path / "events.csv"
    path.write_text(format_spike_trains(res.trains,
                                        comment="schema: events v1"))
    assert path.read_text().startswith("# schema: events v1\n")
    back = read_spike_trains(path, res.trains.n, res.trains.horizon)
    assert back.total_events == res.trains.total_events
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    with pytest.raises(ContractError):
        read_spike_trains(bad, 5, 1.0)


def test_spike_train_rows_outside_the_trains_are_refused(tmp_path):
    path = tmp_path / "events.csv"
    for row in ("0.5,-1", "0.5,7", "2.5,0", "-0.1,0", "nan,0", "0.5"):
        path.write_text(f"# schema: events v1\nt,vertex\n0.25,1\n{row}\n")
        with pytest.raises(ContractError, match=r"events\.csv:4"):
            read_spike_trains(path, 3, 1.0)


def test_rewriting_produces_identical_bytes():
    a = format_spike_trains(_small_run()[2].trains)
    assert a == format_spike_trains(_small_run()[2].trains)
