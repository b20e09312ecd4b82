"""Exact event-level simulation of the finite network process.

Two independent backends produce spike trains with the same law:

* ``simulate_thinning``: Ogata/Lewis thinning of a single global Poisson
  stream at rate N * ||h||, with uniform vertex assignment and acceptance
  probability h(S_i(t-)) / ||h||.
* ``simulate_time_change``: each vertex runs its own candidate stream at rate
  ||h|| thinned locally, realizing the unit-rate Poisson clock of the vertex
  run at speed h(S_i).

Their agreement in law is one of the standing cross-checks of the package, so
neither may delegate its event loop to the other.

For the exponential kernel the per-vertex input S is kept as one lazily
decayed vector (all components share the decay factor, so a single sync time
suffices).  Grid recording follows the same idea: when an accepted event
crosses grid points, the loop stores the undecayed state with its sync time,
and one pass after the loop decays every recorded column to its grid time.
Recorded values are left limits.  Any other kernel falls back to windowed
re-evaluation of the spike history, truncated where phi drops below 1e-12 of
its sup.
"""

import bisect
import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import (
    ContractError,
    ParameterError,
    RecordingMissingError,
    SchemeMismatchError,
    UnsupportedTransferError,
)
from .kernels import Kernel, TransferFunction, convolve_with_path
from .network import NetworkConfiguration
from .rng import ACCEPT, CANDIDATES, TIMECHANGE, VERTEX_PICK, stream
from .volterra import _resolve_grid

__all__ = [
    "SimulationConfig",
    "SpikeTrains",
    "SimulationResult",
    "MartingalePaths",
    "simulate_thinning",
    "simulate_time_change",
    "recompute_input_from_trains",
    "compensators",
    "extract_martingale_paths",
    "write_spike_trains",
    "read_spike_trains",
]

_BLOCK = 8192


@dataclass(frozen=True)
class SimulationConfig:
    """What to simulate and what to record.

    scaling selects the synaptic weight theta: 1/N in the mean-field regime,
    1/sqrt(N) in the critical one.  dt controls the recording grid only (the
    event dynamics are exact); it defaults to horizon / 2048.  record_full
    keeps the whole N x grid input matrix (needed for martingale extraction
    and sup-norm statistics), record_mean_rate the vertex-averaged rate path.
    """

    horizon: float
    seed: int
    scaling: str = "mean_field"
    dt: float | None = None
    tracked_vertices: tuple = (0,)
    record_full: bool = False
    record_mean_rate: bool = False

    def __post_init__(self):
        if self.horizon < 0.0:
            raise ParameterError(f"horizon must be >= 0, got {self.horizon!r}")
        if self.scaling not in ("mean_field", "critical"):
            raise ParameterError(
                f"scaling must be 'mean_field' or 'critical', got {self.scaling!r}"
            )
        object.__setattr__(self, "tracked_vertices",
                           tuple(int(v) for v in self.tracked_vertices))

    def theta(self, n: int) -> float:
        return 1.0 / n if self.scaling == "mean_field" else 1.0 / math.sqrt(n)


@dataclass(frozen=True)
class SpikeTrains:
    """Per-vertex sorted event times on [0, horizon)."""

    times: tuple
    horizon: float

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def total_events(self) -> int:
        return int(sum(len(t) for t in self.times))

    def counts(self) -> np.ndarray:
        """Events per vertex over the whole horizon."""
        return np.array([len(t) for t in self.times], dtype=np.int64)

    def counts_on_grid(self, grid, vertices=None) -> np.ndarray:
        """Left-limit counting paths Z^i_{t-} sampled at the grid times."""
        grid = np.asarray(grid, dtype=np.float64)
        verts = list(range(self.n)) if vertices is None else list(vertices)
        out = np.empty((len(verts), len(grid)), dtype=np.int64)
        for a, i in enumerate(verts):
            out[a] = np.searchsorted(self.times[i], grid, side="left")
        return out

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """All events in time order as (times, vertex_ids)."""
        if self.total_events == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        ts = np.concatenate(list(self.times))
        vs = np.concatenate([np.full(len(t), i, dtype=np.int64)
                             for i, t in enumerate(self.times)])
        order = np.argsort(ts, kind="stable")
        return ts[order], vs[order]


@dataclass(frozen=True)
class SimulationResult:
    net: NetworkConfiguration
    kernel: Kernel
    transfer: TransferFunction
    config: SimulationConfig
    backend: str
    trains: SpikeTrains
    grid: np.ndarray
    tracked_input: np.ndarray            # (len(tracked), len(grid))
    mean_input: np.ndarray               # (len(grid),)
    mean_rate: np.ndarray | None = None  # (len(grid),) if recorded
    full_input: np.ndarray | None = None  # (n, len(grid)) if recorded
    diagnostics: dict = field(default_factory=dict)


class _Recorder:
    """Grid recorder for the exponential fast path.

    Values at grid points are the left limits of the input: a grid point that
    coincides with an event time gets the pre-jump state.  At a grid crossing
    the event loop hands over the undecayed state and its sync time; fill_to
    stores them as they are, and one finish(rate) after the loop multiplies
    every recorded column by exp(-rate * (g - sync)).  mean_rate is the
    exception: h is not linear, so fill_to takes it from the decayed state at
    the crossing.  The history loops write final values through _fill_history
    and never call finish.
    """

    def __init__(self, grid, tracked, n, transfer, record_mean_rate, record_full):
        self.grid = grid
        self.grid_list = grid.tolist()
        self.m1 = len(grid)
        self.tracked = np.asarray(tracked, dtype=np.int64)
        self.tracked_paths = np.zeros((len(self.tracked), self.m1))
        self.mean_input = np.zeros(self.m1)
        self.mean_rate = np.zeros(self.m1) if record_mean_rate else None
        self.full = np.zeros((n, self.m1)) if record_full else None
        self.sync = np.zeros(self.m1)
        self.transfer = transfer
        self.next_idx = 0
        self.next_t = float(grid[0])

    def fill_to(self, t, state, t_sync, rate):
        """Store the undecayed state for every pending grid point g <= t.

        Callers test t >= next_t first; the loops do so inline.
        """
        a = self.next_idx
        j = bisect.bisect_right(self.grid_list, t, a)
        self.tracked_paths[:, a:j] = state[self.tracked, None]
        self.mean_input[a:j] = state.mean()
        self.sync[a:j] = t_sync
        if self.full is not None:
            self.full[:, a:j] = state[:, None]
        if self.mean_rate is not None:
            decays = np.exp(-rate * (self.grid[a:j] - t_sync))
            self.mean_rate[a:j] = self.transfer(
                state[:, None] * decays[None, :]).mean(axis=0)
        self.next_idx = j
        self.next_t = self.grid_list[j] if j < self.m1 else math.inf

    def finish(self, rate):
        """Decay every recorded value from its sync time to its grid time."""
        decays = np.exp(-rate * (self.grid - self.sync))
        self.tracked_paths *= decays
        self.mean_input *= decays
        if self.full is not None:
            self.full *= decays


def _validate(net, kernel, transfer, cfg):
    if not isinstance(net, NetworkConfiguration):
        raise ContractError("net must be a NetworkConfiguration")
    if not math.isfinite(transfer.sup_norm):
        raise UnsupportedTransferError("simulation needs a bounded transfer")
    for v in cfg.tracked_vertices:
        if not (0 <= v < net.n):
            raise ParameterError(f"tracked vertex {v} outside 0..{net.n - 1}")
    if not kernel.is_exponential and (cfg.record_full or cfg.record_mean_rate):
        raise SchemeMismatchError(
            "record_full / record_mean_rate need the exponential-kernel fast "
            "path; track specific vertices instead"
        )


def _finalize(net, kernel, transfer, cfg, backend, grid, rec, trains_raw,
              diagnostics):
    times = tuple(np.asarray(t, dtype=np.float64) for t in trains_raw)
    trains = SpikeTrains(times=times, horizon=float(cfg.horizon))
    return SimulationResult(
        net=net, kernel=kernel, transfer=transfer, config=cfg, backend=backend,
        trains=trains, grid=grid, tracked_input=rec.tracked_paths,
        mean_input=rec.mean_input, mean_rate=rec.mean_rate,
        full_input=rec.full, diagnostics=diagnostics,
    )


def simulate_thinning(net: NetworkConfiguration, kernel: Kernel,
                      transfer: TransferFunction,
                      cfg: SimulationConfig) -> SimulationResult:
    """Simulate by thinning one global candidate stream at rate N ||h||.

    Candidates arrive as a Poisson stream with the constant envelope
    Lambda = N ||h||; each is assigned a uniform vertex i and kept with
    probability h(S_i(t-)) / ||h||.  The envelope inequality
    0 <= h(S_i)/||h|| <= 1 is asserted at every candidate.  Simultaneous
    events are impossible up to float collisions, which are resolved by a
    one-ulp perturbation and counted in diagnostics["ties_nudged"].
    """
    _validate(net, kernel, transfer, cfg)
    if kernel.is_exponential:
        return _thinning_exponential(net, kernel, transfer, cfg)
    return _thinning_history(net, kernel, transfer, cfg)


def _thinning_exponential(net, kernel, transfer, cfg):
    n = net.n
    lam = kernel.rate
    sup_h = transfer.sup_norm
    h = transfer.scalar
    big_lambda = n * sup_h
    horizon = float(cfg.horizon)
    grid, _ = _resolve_grid(horizon, cfg.dt)
    rec = _Recorder(grid, cfg.tracked_vertices, n, transfer,
                    cfg.record_mean_rate, cfg.record_full)
    state = np.zeros(n)
    signed = net.signed_rows(cfg.theta(n))
    trains = [[] for _ in range(n)]
    diagnostics = {"candidates": 0, "events": 0, "ties_nudged": 0}

    t = 0.0
    t_sync = 0.0
    last_event = -1.0
    if big_lambda > 0.0 and horizon > 0.0:
        cand = stream(cfg.seed, CANDIDATES)
        pick = stream(cfg.seed, VERTEX_PICK)
        acc = stream(cfg.seed, ACCEPT)
        scale = 1.0 / big_lambda
        done = False
        while not done:
            gaps = cand.exponential(scale, _BLOCK).tolist()
            picks = pick.integers(0, n, _BLOCK).tolist()
            accepts = acc.random(_BLOCK).tolist()
            for gap, i, u in zip(gaps, picks, accepts):
                t += gap
                if t >= horizon:
                    done = True
                    break
                diagnostics["candidates"] += 1
                rate = h(state[i] * math.exp(-lam * (t - t_sync)))
                if not 0.0 <= rate <= sup_h:
                    raise ContractError(
                        f"transfer left its declared range: h={rate!r}"
                    )
                if u * sup_h < rate:
                    if t == last_event:
                        t = math.nextafter(t, math.inf)
                        diagnostics["ties_nudged"] += 1
                        if t >= horizon:
                            done = True
                            break
                    if t >= rec.next_t:
                        rec.fill_to(t, state, t_sync, lam)
                    state *= math.exp(-lam * (t - t_sync))
                    state += signed[i]
                    t_sync = t
                    last_event = t
                    trains[i].append(t)
                    diagnostics["events"] += 1
    rec.fill_to(horizon, state, t_sync, lam)
    rec.finish(lam)
    return _finalize(net, kernel, transfer, cfg, "thinning", grid, rec, trains,
                     diagnostics)


def simulate_time_change(net: NetworkConfiguration, kernel: Kernel,
                         transfer: TransferFunction,
                         cfg: SimulationConfig) -> SimulationResult:
    """Simulate through per-vertex thinned clocks (time-change construction).

    Vertex i draws its own candidate stream at rate ||h|| from stream
    (seed, TIMECHANGE, i) and keeps a candidate with probability
    h(S_i(t-)) / ||h||; the accepted points are the jumps of a unit-rate
    Poisson process run at the integrated rate of vertex i.  Equal in law to
    simulate_thinning but sharing none of its randomness or event loop.
    """
    _validate(net, kernel, transfer, cfg)
    if kernel.is_exponential:
        return _time_change_exponential(net, kernel, transfer, cfg)
    return _time_change_history(net, kernel, transfer, cfg)


def _time_change_exponential(net, kernel, transfer, cfg):
    n = net.n
    lam = kernel.rate
    sup_h = transfer.sup_norm
    h = transfer.scalar
    horizon = float(cfg.horizon)
    grid, _ = _resolve_grid(horizon, cfg.dt)
    rec = _Recorder(grid, cfg.tracked_vertices, n, transfer,
                    cfg.record_mean_rate, cfg.record_full)
    state = np.zeros(n)
    signed = net.signed_rows(cfg.theta(n))
    trains = [[] for _ in range(n)]
    diagnostics = {"candidates": 0, "events": 0, "ties_nudged": 0}

    t_sync = 0.0
    last_event = -1.0
    if sup_h > 0.0 and horizon > 0.0:
        scale = 1.0 / sup_h
        gens = [stream(cfg.seed, TIMECHANGE, i) for i in range(n)]
        heap = []
        for i, g in enumerate(gens):
            first = float(g.exponential(scale))
            if first < horizon:
                heap.append((first, i))
        heapq.heapify(heap)
        while heap:
            t, i = heapq.heappop(heap)
            diagnostics["candidates"] += 1
            rate = h(state[i] * math.exp(-lam * (t - t_sync)))
            if not 0.0 <= rate <= sup_h:
                raise ContractError(f"transfer left its declared range: h={rate!r}")
            u = float(gens[i].random())
            if u * sup_h < rate:
                te = t
                if te == last_event:
                    te = math.nextafter(te, math.inf)
                    diagnostics["ties_nudged"] += 1
                if te < horizon:
                    if te >= rec.next_t:
                        rec.fill_to(te, state, t_sync, lam)
                    state *= math.exp(-lam * (te - t_sync))
                    state += signed[i]
                    t_sync = te
                    last_event = te
                    trains[i].append(te)
                    diagnostics["events"] += 1
            nxt = t + float(gens[i].exponential(scale))
            if nxt < horizon:
                heapq.heappush(heap, (nxt, i))
    rec.fill_to(horizon, state, t_sync, lam)
    rec.finish(lam)
    return _finalize(net, kernel, transfer, cfg, "time_change", grid, rec,
                     trains, diagnostics)


class _History:
    """Growing event buffer with windowed kernel evaluation."""

    def __init__(self, net, kernel, theta, capacity=4096):
        self.kernel = kernel
        self.signed = net.signed_rows(theta)
        self.row_mean = self.signed.mean(axis=1)
        self.cut = kernel.truncation_lag()
        self.times = np.empty(capacity)
        self.verts = np.empty(capacity, dtype=np.int64)
        self.count = 0
        self.lo = 0

    def push(self, t, vertex):
        if self.count == len(self.times):
            self.times = np.concatenate([self.times, np.empty(len(self.times))])
            self.verts = np.concatenate([self.verts,
                                         np.empty(len(self.verts), dtype=np.int64)])
        self.times[self.count] = t
        self.verts[self.count] = vertex
        self.count += 1

    def _window_start(self, t, advance=True):
        lo = self.lo
        while lo < self.count and t - self.times[lo] > self.cut:
            lo += 1
        if advance:
            self.lo = lo
        return lo

    def input_at(self, t, vertex) -> float:
        """S_vertex(t-) from events strictly before t."""
        lo = self._window_start(t)
        ts = self.times[lo:self.count]
        m = int(np.searchsorted(ts, t, side="left"))
        if m == 0:
            return 0.0
        vals = self.kernel.padded(t - ts[:m])
        return float(np.dot(vals, self.signed[self.verts[lo:lo + m], vertex]))

    def snapshot(self, t, tracked):
        """(tracked inputs, mean input) at grid time t (left limits).

        Grid times lag behind the newest candidate, so self.lo (advanced for
        that candidate) may already have passed events still inside this t's
        window; search the full buffer instead of reusing it.
        """
        ts_all = self.times[:self.count]
        lo = int(np.searchsorted(ts_all, t - self.cut, side="left"))
        ts = ts_all[lo:]
        m = int(np.searchsorted(ts, t, side="left"))
        if m == 0:
            return np.zeros(len(tracked)), 0.0
        vals = self.kernel.padded(t - ts[:m])
        vsl = self.verts[lo:lo + m]
        tr = np.array([float(np.dot(vals, self.signed[vsl, v])) for v in tracked])
        return tr, float(np.dot(vals, self.row_mean[vsl]))


def _fill_history(rec, hist, t, tracked):
    """History-mode analogue of _Recorder.fill_to (tracked + mean only)."""
    if rec.next_idx >= rec.m1 or t < rec.next_t:
        return
    j = int(np.searchsorted(rec.grid, t, side="right"))
    for idx in range(rec.next_idx, j):
        tr, mean = hist.snapshot(float(rec.grid[idx]), tracked)
        if rec.tracked.size:
            rec.tracked_paths[:, idx] = tr
        rec.mean_input[idx] = mean
    rec.next_idx = j
    rec.next_t = float(rec.grid[j]) if j < rec.m1 else math.inf


def _thinning_history(net, kernel, transfer, cfg):
    n = net.n
    sup_h = transfer.sup_norm
    h = transfer.scalar
    big_lambda = n * sup_h
    horizon = float(cfg.horizon)
    grid, _ = _resolve_grid(horizon, cfg.dt)
    rec = _Recorder(grid, cfg.tracked_vertices, n, transfer, False, False)
    hist = _History(net, kernel, cfg.theta(n))
    trains = [[] for _ in range(n)]
    diagnostics = {"candidates": 0, "events": 0, "ties_nudged": 0}
    tracked = cfg.tracked_vertices

    t = 0.0
    last_event = -1.0
    if big_lambda > 0.0 and horizon > 0.0:
        cand = stream(cfg.seed, CANDIDATES)
        pick = stream(cfg.seed, VERTEX_PICK)
        acc = stream(cfg.seed, ACCEPT)
        scale = 1.0 / big_lambda
        done = False
        while not done:
            gaps = cand.exponential(scale, _BLOCK).tolist()
            picks = pick.integers(0, n, _BLOCK).tolist()
            accepts = acc.random(_BLOCK).tolist()
            for gap, i, u in zip(gaps, picks, accepts):
                t += gap
                if t >= horizon:
                    done = True
                    break
                diagnostics["candidates"] += 1
                rate = h(hist.input_at(t, i))
                if not 0.0 <= rate <= sup_h:
                    raise ContractError(
                        f"transfer left its declared range: h={rate!r}"
                    )
                if u * sup_h < rate:
                    if t == last_event:
                        t = math.nextafter(t, math.inf)
                        diagnostics["ties_nudged"] += 1
                        if t >= horizon:
                            done = True
                            break
                    _fill_history(rec, hist, t, tracked)
                    hist.push(t, i)
                    last_event = t
                    trains[i].append(t)
                    diagnostics["events"] += 1
    _fill_history(rec, hist, horizon, tracked)
    return _finalize(net, kernel, transfer, cfg, "thinning", grid, rec, trains,
                     diagnostics)


def _time_change_history(net, kernel, transfer, cfg):
    n = net.n
    sup_h = transfer.sup_norm
    h = transfer.scalar
    horizon = float(cfg.horizon)
    grid, _ = _resolve_grid(horizon, cfg.dt)
    rec = _Recorder(grid, cfg.tracked_vertices, n, transfer, False, False)
    hist = _History(net, kernel, cfg.theta(n))
    trains = [[] for _ in range(n)]
    diagnostics = {"candidates": 0, "events": 0, "ties_nudged": 0}
    tracked = cfg.tracked_vertices

    last_event = -1.0
    if sup_h > 0.0 and horizon > 0.0:
        scale = 1.0 / sup_h
        gens = [stream(cfg.seed, TIMECHANGE, i) for i in range(n)]
        heap = []
        for i, g in enumerate(gens):
            first = float(g.exponential(scale))
            if first < horizon:
                heap.append((first, i))
        heapq.heapify(heap)
        while heap:
            t, i = heapq.heappop(heap)
            diagnostics["candidates"] += 1
            rate = h(hist.input_at(t, i))
            if not 0.0 <= rate <= sup_h:
                raise ContractError(f"transfer left its declared range: h={rate!r}")
            u = float(gens[i].random())
            if u * sup_h < rate:
                te = t
                if te == last_event:
                    te = math.nextafter(te, math.inf)
                    diagnostics["ties_nudged"] += 1
                if te < horizon:
                    _fill_history(rec, hist, te, tracked)
                    hist.push(te, i)
                    last_event = te
                    trains[i].append(te)
                    diagnostics["events"] += 1
            nxt = t + float(gens[i].exponential(scale))
            if nxt < horizon:
                heapq.heappush(heap, (nxt, i))
    _fill_history(rec, hist, horizon, tracked)
    return _finalize(net, kernel, transfer, cfg, "time_change", grid, rec,
                     trains, diagnostics)


def recompute_input_from_trains(net: NetworkConfiguration, kernel: Kernel,
                                theta: float, trains: SpikeTrains, grid,
                                vertices) -> np.ndarray:
    """Brute-force reconvolution of the recorded trains (oracle path).

    Evaluates S_i(g-) = theta sum_j U_j V_{ji} (phi * dZ^j)(g) directly
    through the kernels module at every grid point.  Quadratic in events x
    grid points, intended for validation runs; shares no bookkeeping with the
    lazy-decay fast path of the live backends.
    """
    grid = np.asarray(grid, dtype=np.float64)
    signed = net.signed_rows(theta)
    out = np.zeros((len(vertices), len(grid)))
    for j in range(net.n):
        ev = trains.times[j]
        if len(ev) == 0:
            continue
        conv = convolve_with_path(kernel, grid, ev)
        for a, i in enumerate(vertices):
            w = signed[j, i]
            if w != 0.0:
                out[a] += w * conv
    return out


def compensators(result: SimulationResult) -> np.ndarray:
    """Per-vertex compensator paths int_0^t h(S_j(s)) ds on the grid.

    Trapezoid quadrature of the recorded full input; needs record_full=True.
    """
    if result.full_input is None:
        raise RecordingMissingError("compensators need record_full=True")
    return _rates_and_compensators(result)[1]


def _rates_and_compensators(result):
    """(h(full_input), its trapezoid running integral) on the grid."""
    rates = result.transfer(result.full_input)
    if len(result.grid) < 2:
        return rates, np.zeros_like(rates)
    return rates, cumulative_trapezoid(rates, result.grid, axis=1, initial=0.0)


@dataclass(frozen=True)
class MartingalePaths:
    """Compensated-sum decompositions of one recorded simulation.

    All sums carry the N^{-1/2} scaling.  mean_martingale is
    M_t = N^{-1/2} sum_j U_j (Z^j_{t-} - int_0^t h(S_j) ds); m_tilde stacks
    the centered-edge martingales of the requested target vertices and
    m_per_vertex the uncentered ones, so m_per_vertex = m_tilde + q * M
    entrywise up to float regrouping.  drifts are the corresponding
    compensator sums, x0 the unsigned compensated sum, hbar the
    vertex-averaged rate path with running integral hbar_int.  brackets maps
    ordered pairs of tracked positions to realized quadratic covariations
    [m_tilde_k, m_tilde_l] on the grid; bracket_mean is [M, M] up to the
    sign squares, i.e. the mean counting path.  compensators holds the
    per-vertex paths int_0^t h(S_j(s)) ds, (n, len(grid)), the same array
    compensators(result) returns.
    """

    grid: np.ndarray
    vertices: tuple
    n: int
    q: float
    mean_martingale: np.ndarray
    m_tilde: np.ndarray
    m_per_vertex: np.ndarray
    drifts: np.ndarray
    x0: np.ndarray
    hbar: np.ndarray
    hbar_int: np.ndarray
    brackets: dict
    bracket_mean: np.ndarray
    compensators: np.ndarray


def extract_martingale_paths(result: SimulationResult,
                             vertices=(0, 1)) -> MartingalePaths:
    """Split the recorded dynamics into drift and martingale parts.

    Needs record_full=True (the compensators integrate the rate of every
    vertex); raises RecordingMissingError otherwise.  Compensators use
    trapezoid quadrature on the recording grid; counting paths are left
    limits, matching the strict left-limit convention of the simulator.
    """
    if result.full_input is None:
        raise RecordingMissingError(
            "extract_martingale_paths needs a result recorded with "
            "record_full=True"
        )
    net = result.net
    n = net.n
    vertices = tuple(int(v) for v in vertices)
    for v in vertices:
        if not (0 <= v < n):
            raise ParameterError(f"vertex {v} outside 0..{n - 1}")
    grid = result.grid
    full_rate, comp = _rates_and_compensators(result)
    # the rate matrix is reduced before the counts exist, and the counts
    # become counts - comp in place: two (n, grid) arrays fewer at the peak
    hbar = full_rate.mean(axis=0)
    del full_rate
    counts = result.trains.counts_on_grid(grid).astype(np.float64)

    u = net.signs.astype(np.float64)
    root = math.sqrt(n)
    vcols = net.adjacency[:, list(vertices)].astype(np.float64)
    centered = vcols - net.q
    w_tilde = u[:, None] * centered
    w_full = u[:, None] * vcols

    brackets = {}
    for a in range(len(vertices)):
        for b in range(a, len(vertices)):
            coeff = centered[:, a] * centered[:, b]
            brackets[(vertices[a], vertices[b])] = (coeff @ counts) / n
    bracket_mean = counts.mean(axis=0)
    base = counts
    base -= comp

    return MartingalePaths(
        grid=grid,
        vertices=vertices,
        n=n,
        q=net.q,
        mean_martingale=(u @ base) / root,
        m_tilde=(w_tilde.T @ base) / root,
        m_per_vertex=(w_full.T @ base) / root,
        drifts=(w_full.T @ comp) / root,
        x0=base.sum(axis=0) / root,
        hbar=hbar,
        hbar_int=comp.mean(axis=0),
        brackets=brackets,
        bracket_mean=bracket_mean,
        compensators=comp,
    )


def write_spike_trains(path, trains: SpikeTrains, fmt: str = "csv",
                       comment: str | None = None):
    """Persist trains as columnar CSV (t,vertex) or JSON lines, time-ordered.

    Floats are written with repr so a rerun of the same simulation produces a
    byte-identical file.  `comment` adds a leading `# ...` line (csv only;
    JSON-lines readers do not tolerate comment lines).
    """
    ts, vs = trains.merged()
    if fmt == "csv":
        lines = [f"# {comment}"] if comment else []
        lines += ["t,vertex"]
        lines += [f"{t!r},{v}" for t, v in zip(ts.tolist(), vs.tolist())]
        text = "\n".join(lines) + "\n"
    elif fmt == "jsonl":
        lines = [json.dumps({"t": t, "vertex": v})
                 for t, v in zip(ts.tolist(), vs.tolist())]
        text = "\n".join(lines) + ("\n" if lines else "")
    else:
        raise ParameterError(f"unknown spike-train format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


def read_spike_trains(path, n: int, horizon: float,
                      fmt: str = "csv") -> SpikeTrains:
    """Load trains written by write_spike_trains back into per-vertex arrays."""
    per_vertex = [[] for _ in range(n)]
    with open(path) as fh:
        if fmt == "csv":
            header = fh.readline().strip()
            while header.startswith("#"):
                header = fh.readline().strip()
            if header != "t,vertex":
                raise ContractError(f"unexpected spike-train header {header!r}")
            for line in fh:
                if not line.strip():
                    continue
                t_str, v_str = line.split(",")
                per_vertex[int(v_str)].append(float(t_str))
        elif fmt == "jsonl":
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                per_vertex[int(rec["vertex"])].append(float(rec["t"]))
        else:
            raise ParameterError(f"unknown spike-train format {fmt!r}")
    times = tuple(np.asarray(sorted(t), dtype=np.float64) for t in per_vertex)
    return SpikeTrains(times=times, horizon=float(horizon))
