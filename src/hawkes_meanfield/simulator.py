"""Exact event-level simulation of the finite network process.

Two independent backends produce spike trains with the same law:

* ``simulate_thinning``: Ogata/Lewis thinning of a single global Poisson
  stream at rate N * ||h||, with uniform vertex assignment and acceptance
  probability h(S_i(t-)) / ||h||.
* ``simulate_time_change``: each vertex runs its own candidate stream at rate
  ||h|| thinned locally, realizing the unit-rate Poisson clock of the vertex
  run at speed h(S_i).

Their agreement in law is one of the standing cross-checks of the package, so
neither may delegate its event loop to the other.  Each backend has exactly
one loop, whatever the kernel.

The loops read the input S through three closures built by _setup:
at(t, i) returns S_i(t-); fire(t, i) records every pending grid point
g <= t and then adds vertex i's event at t; close(horizon) records the rest
of the grid and returns what was recorded as a dict keyed by
SimulationResult field names, which the result takes as it is.
Recording before the event's jump makes every recorded value a left limit:
a grid point that coincides with an event time gets the pre-jump input.

The martingale algebra reads linear functionals of the counting and
compensator paths only.  A run with martingale_vertices records the rates
h(S(g)) projected onto a few rows of {-1, 0, 1} weights (_projection_rows),
and extract_martingale_paths projects the counts from the spike trains onto
the same rows, so neither ever holds an N x grid array; record_full keeps
the whole input as the oracle that the projection is checked against.

There are two implementations.  For the exponential kernel S is one lazily
decayed vector (all components share the decay factor, so a single sync time
suffices); a grid crossing only buffers the undecayed state with its sync
time, and one flush per block of grid points decays the block to its grid
times and reduces it, so no whole-grid sync array and no decay pass at close
remain.  Any other kernel re-evaluates the spike history in a window
truncated where phi drops below 1e-12 of its sup.

Neither reads a dense weight matrix.  Both take the uint8 adjacency and the
per-source coefficients theta * U_j, forming each weight as
(theta * U_j) * float(V_ji): bit for bit the entry of net.signed_rows, which
stays the definition the reconvolution oracle reads.
"""

import bisect
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    ParameterError,
    RecordingMissingError,
    SchemeMismatchError,
    UnsupportedTransferError,
    is_integer,
)
from .kernels import Kernel, TransferFunction, convolve_with_path
from .network import NetworkConfiguration, row_blocks
from .rng import (ACCEPT, CANDIDATES, TIMECHANGE, VERTEX_PICK, _check_seed,
                  stream)
from .volterra import _check_horizon, _resolve_grid

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
    "format_spike_trains",
    "read_spike_trains",
]

_BLOCK = 8192
# float64 items per block of buffered grid crossings (32 KiB), but at least
# _MIN_ROWS grid points per block, so a large N still flushes in batches
_COLUMN_ITEMS = 1 << 12
_MIN_ROWS = 16
# the synaptic weight regimes: theta = 1/N and theta = 1/sqrt(N)
SCALINGS = ("mean_field", "critical")


def _vertices(what, vertices, n=math.inf):
    """vertices as a tuple of ints, each an integer in 0..n-1 (any >= 0 if
    n = inf); ParameterError naming `what` otherwise."""
    try:
        vertices = tuple(vertices)
    except TypeError:
        raise ParameterError(f"{what} indices must form a sequence, "
                             f"got {vertices!r}") from None
    for v in vertices:
        if not (is_integer(v) and 0 <= v < n):
            raise ParameterError(f"{what} {v!r} outside 0..{n - 1}")
    return tuple(int(v) for v in vertices)


@dataclass(frozen=True)
class SimulationConfig:
    """What to simulate and what to record.

    scaling selects the synaptic weight theta: 1/N in the mean-field regime,
    1/sqrt(N) in the critical one.  dt controls the recording grid only (the
    event dynamics are exact); it defaults to horizon / 2048.  The grid
    always ends exactly at the horizon, so a caller that reads only the
    terminal input or the event counts can pass dt=horizon and record just
    {0, T}, with the same spike trains and terminal values as any finer
    grid.

    martingale_vertices names the target vertices of martingale extraction
    ((0, 1) for the critical brackets, () for the population sums alone):
    the run records h(S) at each grid time projected onto the rows that
    extract_martingale_paths(result, martingale_vertices) reads, k (M+1)
    floats for k = 2 + 2 K + K (K - 1) / 2 rows and K vertices.
    record_full keeps the whole N x grid input matrix instead, the oracle
    path of that extraction; record_mean_rate keeps the vertex-averaged
    rate path.  All three need the exponential kernel.

    Sup-norm statistics need none of them: with the exponential kernel every
    result without record_full carries input_range, the smallest and largest
    vertex input at each grid time in one (2, len(grid)) array (a record_full
    result reads them as full_input.min/max(axis=0)).  Every recorded input
    is the undecayed state times one positive factor per grid time, and
    correctly rounded multiplication and subtraction are monotone, so
    max_i |S_i(g) - c| = max(|min_i S_i(g) - c|, |max_i S_i(g) - c|) bit for
    bit, without the 8 N bytes per grid time of record_full.
    """

    horizon: float
    seed: int
    scaling: str = "mean_field"
    dt: float | None = None
    tracked_vertices: tuple = (0,)
    record_full: bool = False
    record_mean_rate: bool = False
    martingale_vertices: tuple | None = None

    def __post_init__(self):
        _check_horizon(self.horizon)
        _check_seed(self.seed)
        if self.scaling not in SCALINGS:
            raise ParameterError(f"scaling must be "
                                 f"{' or '.join(map(repr, SCALINGS))}, "
                                 f"got {self.scaling!r}")
        object.__setattr__(self, "tracked_vertices", _vertices(
            "tracked vertex", self.tracked_vertices))
        if self.martingale_vertices is not None:
            object.__setattr__(self, "martingale_vertices", _vertices(
                "martingale vertex", self.martingale_vertices))

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

    def counts_on_grid(self, grid) -> np.ndarray:
        """Left-limit counting paths Z^i_{t-} sampled at the grid times.

        Float64, the dtype the martingale algebra reads, filled row by row
        (counts up to 2^53 are exact).
        """
        grid = np.asarray(grid, dtype=np.float64)
        out = np.empty((self.n, len(grid)), dtype=np.float64)
        for i, ts in enumerate(self.times):
            out[i] = np.searchsorted(ts, grid, side="left")
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
    """One run: its network, its spike trains and what its config recorded
    (an optional field the run did not record stays None).

    martingale_rates holds _projection_rows(net, martingale_vertices) @
    h(S(g)) at each grid time g; full_input, the whole recorded input, is
    the oracle that extract_martingale_paths projects when the run recorded
    no projection for the vertices asked.
    """

    net: NetworkConfiguration
    transfer: TransferFunction
    trains: SpikeTrains
    grid: np.ndarray
    tracked_input: np.ndarray            # (len(tracked), len(grid))
    mean_input: np.ndarray               # (len(grid),)
    mean_rate: np.ndarray | None = None  # (len(grid),) if recorded
    full_input: np.ndarray | None = None  # (n, len(grid)) if recorded
    input_range: np.ndarray | None = None  # (2, len(grid)) if recorded
    martingale_vertices: tuple | None = None
    martingale_rates: np.ndarray | None = None  # (k, len(grid)) if recorded
    diagnostics: dict = field(default_factory=dict)


def _projection_rows(net, vertices):
    """The k x N weights whose products with the counting and compensator
    paths give every MartingalePaths field for these target vertices.

    Rows: 1, U, U V_a for each target a, V_a for each target a, and
    V_a V_b for each pair a < b (U the signs, V the adjacency columns).
    Every entry is -1, 0 or 1, so a row times integer counts is an exact
    integer in any summation order; the brackets' centered weights
    (V_a - q)(V_b - q) = V_a V_b - q (V_a + V_b) + q^2 are combined from
    these rows afterwards.
    """
    u = net.signs.astype(np.float64)
    cols = net.adjacency[:, list(vertices)].T.astype(np.float64)
    pairs = [cols[a] * cols[b] for a in range(len(cols))
             for b in range(a + 1, len(cols))]
    return np.vstack([np.ones(net.n), u, u * cols, cols, *pairs])


def _lazy_decay(grid, adj, coef, kernel, transfer, cfg, rows=None):
    """(at, fire, close) over one lazily decayed input vector.

    Exponential kernel only: all components share the decay factor, so the
    vector and one sync time describe S exactly.  A grid crossing only
    buffers: fire copies the undecayed state and its sync time into the row
    of the crossed grid point in one reused (width, N) block.  When the
    block holds width grid points, and at close, one flush multiplies each
    row by exp(-rate * (g - sync)) and reduces the whole block: the tracked
    inputs, the mean, and one recorded input array per run, the whole state
    (full_input) under record_full, or else its min and max (input_range),
    which a positive factor keeps in order, so decaying them gives the
    extremes of the decayed row.  mean_rate and the projected rates
    rows @ h(S) (martingale_rates, when rows is given) apply h to the
    decayed block, since h is not linear.  Blocks start at multiples of
    width from grid index 0, so every recorded value depends on the grid
    and the events alone, not on how the events split the crossings.  A
    block holds at most _COLUMN_ITEMS values, or _MIN_ROWS grid points
    where N is larger, so no call allocates an N x grid array.  The closures
    keep their state in local cells, not attributes: at and fire run once
    per candidate and per event.

    fire adds vertex i's weights as coef[i] * float(adj[i]), built in one
    preallocated row: the same products as row i of net.signed_rows, added
    densely so that signed zeros add as they would from that matrix.
    """
    lam = kernel.rate
    exp = math.exp
    copyto = np.copyto
    n = len(adj)
    coef = coef.tolist()
    state = np.zeros(n)
    row = np.empty(n)
    t_sync = 0.0
    grid_list = grid.tolist()
    m1 = len(grid)
    tracked = np.asarray(cfg.tracked_vertices, dtype=np.int64)
    tracked_paths = np.zeros((len(tracked), m1))
    mean_input = np.zeros(m1)
    mean_rate = np.zeros(m1) if cfg.record_mean_rate else None
    rates = None if rows is None else np.zeros((len(rows), m1))
    full = cfg.record_full
    inputs = np.zeros((n if full else 2, m1))
    width = min(m1, max(_MIN_ROWS, _COLUMN_ITEMS // n))
    block = np.empty((width, n))
    syncs = np.empty(width)
    base = 0
    next_idx = 0
    next_t = grid_list[0]

    def flush(e):
        """Decay and reduce the buffered grid points base..e-1."""
        nonlocal base
        b = base
        buffered = block[:e - b]
        decays = np.exp(-lam * (grid[b:e] - syncs[:e - b]))
        tracked_paths[:, b:e] = buffered[:, tracked].T * decays
        mean_input[b:e] = np.add.reduce(buffered, axis=1) / n * decays
        if full:
            inputs[:, b:e] = buffered.T * decays
        else:
            inputs[0, b:e] = buffered.min(axis=1) * decays
            inputs[1, b:e] = buffered.max(axis=1) * decays
        if mean_rate is not None or rates is not None:
            h = transfer(buffered * decays[:, None])
            if mean_rate is not None:
                mean_rate[b:e] = h.mean(axis=1)
            if rates is not None:
                rates[:, b:e] = rows @ h.T
        base = e

    def record(t):
        """Buffer the undecayed state for every pending grid point g <= t."""
        nonlocal next_idx, next_t
        a = next_idx
        j = bisect.bisect_right(grid_list, t, a)
        while a < j:
            e = min(j, base + width)
            block[a - base:e - base] = state
            syncs[a - base:e - base] = t_sync
            a = e
            if e - base == width:
                flush(e)
        next_idx = j
        next_t = grid_list[j] if j < m1 else math.inf

    def at(t, i):
        return state[i] * exp(-lam * (t - t_sync))

    def fire(t, i):
        nonlocal state, row, t_sync
        if t >= next_t:
            record(t)
        state *= exp(-lam * (t - t_sync))
        copyto(row, adj[i], casting="unsafe")
        row *= coef[i]
        state += row
        t_sync = t

    def close(horizon):
        record(horizon)
        if base < m1:
            flush(m1)
        recorded = {"tracked_input": tracked_paths, "mean_input": mean_input,
                    "full_input" if full else "input_range": inputs}
        if mean_rate is not None:
            recorded["mean_rate"] = mean_rate
        if rates is not None:
            recorded["martingale_rates"] = rates
            recorded["martingale_vertices"] = cfg.martingale_vertices
        return recorded

    return at, fire, close


def _windowed_history(grid, adj, coef, kernel, cfg):
    """(at, fire, close) over a growing event buffer (any kernel).

    S_i(t-) is re-evaluated from the events strictly before t that lie
    within the kernel's truncation lag: at and record both sum the window
    that window(t, start) returns, each from its own window start.  fire
    records the pending grid points as final values before it appends the
    event; close returns the tracked and mean input only (_setup rejects
    asking for more).

    Each buffered event keeps its source's coefficient in cbuf, and target
    i's weights are gathered from row i of a contiguous transposed copy of
    the adjacency: cbuf * adj_t[i].take(verts) holds the values of
    net.signed_rows[verts, i] without the dense matrix (take gathers the
    same values as adj_t[i, verts], in less time).
    """
    padded = kernel.padded
    cut = kernel.truncation_lag()
    n = len(adj)
    adj_t = np.ascontiguousarray(adj.T)
    row_mean = np.empty(n)
    for sl in row_blocks(n, n):
        row_mean[sl] = (coef[sl, None] * adj[sl]).mean(axis=1)
    times = np.empty(4096)
    verts = np.empty(4096, dtype=np.int64)
    cbuf = np.empty(4096)
    count = 0
    lo = 0
    tracked = cfg.tracked_vertices
    m1 = len(grid)
    tracked_paths = np.zeros((len(tracked), m1))
    mean_input = np.zeros(m1)
    next_idx = 0
    next_t = float(grid[0])

    def window(t, start):
        """(phi(t - s), buffer slice) of the buffered events s < t from
        index start on; an empty window sums to 0.0 like any other."""
        stop = start + int(np.searchsorted(times[start:count], t,
                                           side="left"))
        return padded(t - times[start:stop]), slice(start, stop)

    def target_sum(vals, sl, i):
        """Vertex i's input from the window (vals, sl)."""
        return float(np.dot(vals, cbuf[sl] * adj_t[i].take(verts[sl])))

    def record(t):
        """Write S at every pending grid point g <= t (left limits).

        Grid times lag behind the newest candidate, so lo (advanced for that
        candidate) may already have passed events still inside g's window;
        search the full buffer instead of reusing it.
        """
        nonlocal next_idx, next_t
        j = int(np.searchsorted(grid, t, side="right"))
        for idx in range(next_idx, j):
            g = float(grid[idx])
            start = int(np.searchsorted(times[:count], g - cut, side="left"))
            vals, sl = window(g, start)
            tracked_paths[:, idx] = [target_sum(vals, sl, v) for v in tracked]
            mean_input[idx] = float(np.dot(vals, row_mean[verts[sl]]))
        next_idx = j
        next_t = float(grid[j]) if j < m1 else math.inf

    def at(t, i):
        nonlocal lo
        while lo < count and t - times[lo] > cut:
            lo += 1
        return target_sum(*window(t, lo), i)

    def fire(t, i):
        nonlocal times, verts, cbuf, count
        if t >= next_t:
            record(t)
        if count == len(times):
            times = np.concatenate([times, np.empty(len(times))])
            verts = np.concatenate([verts, np.empty(len(verts), dtype=np.int64)])
            cbuf = np.concatenate([cbuf, np.empty(len(cbuf))])
        times[count] = t
        verts[count] = i
        cbuf[count] = coef[i]
        count += 1

    def close(horizon):
        record(horizon)
        return {"tracked_input": tracked_paths, "mean_input": mean_input}

    return at, fire, close


def _setup(net, kernel, transfer, cfg):
    """Validate a run; return (horizon, grid, at, fire, close).

    at(t, i) is S_i(t-); fire(t, i) records the grid points up to t and then
    adds vertex i's event at t; close(horizon) records the rest of the grid
    and returns the recorded arrays keyed by SimulationResult field names.
    """
    if not isinstance(net, NetworkConfiguration):
        raise ContractError("net must be a NetworkConfiguration")
    if not math.isfinite(transfer.sup_norm):
        raise UnsupportedTransferError("simulation needs a bounded transfer")
    _vertices("tracked vertex", cfg.tracked_vertices, net.n)
    vertices = cfg.martingale_vertices
    _vertices("martingale vertex", vertices or (), net.n)
    if not kernel.is_exponential and (cfg.record_full or cfg.record_mean_rate
                                      or vertices is not None):
        raise SchemeMismatchError(
            f"record_full / record_mean_rate / martingale_vertices need the "
            f"exponential-kernel fast path, not a {kernel.kind} kernel; "
            f"track specific vertices instead"
        )
    horizon = float(cfg.horizon)
    grid = _resolve_grid(horizon, cfg.dt)
    coef = cfg.theta(net.n) * net.signs.astype(np.float64)
    if not kernel.is_exponential:
        return (horizon, grid) + _windowed_history(
            grid, net.adjacency, coef, kernel, cfg)
    rows = None if vertices is None else _projection_rows(net, vertices)
    return (horizon, grid) + _lazy_decay(grid, net.adjacency, coef, kernel,
                                         transfer, cfg, rows)


def _finalize(net, transfer, horizon, grid, recorded, trains, candidates,
              events, ties_nudged):
    times = tuple(np.asarray(t, dtype=np.float64) for t in trains)
    return SimulationResult(
        net=net, transfer=transfer,
        trains=SpikeTrains(times=times, horizon=horizon), grid=grid,
        diagnostics={"candidates": candidates, "events": events,
                     "ties_nudged": ties_nudged},
        **recorded,
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
    horizon, grid, at, fire, close = _setup(net, kernel, transfer, cfg)
    n = net.n
    sup_h = transfer.sup_norm
    h = transfer.scalar
    big_lambda = n * sup_h
    trains = [[] for _ in range(n)]
    candidates = events = ties_nudged = 0

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
                candidates += 1
                rate = h(at(t, i))
                if not 0.0 <= rate <= sup_h:
                    raise ContractError(
                        f"transfer left its declared range: h={rate!r}"
                    )
                if u * sup_h < rate:
                    if t == last_event:
                        t = math.nextafter(t, math.inf)
                        ties_nudged += 1
                        if t >= horizon:
                            done = True
                            break
                    fire(t, i)
                    last_event = t
                    trains[i].append(t)
                    events += 1
    return _finalize(net, transfer, horizon, grid, close(horizon), trains,
                     candidates, events, ties_nudged)


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
    horizon, grid, at, fire, close = _setup(net, kernel, transfer, cfg)
    n = net.n
    sup_h = transfer.sup_norm
    h = transfer.scalar
    trains = [[] for _ in range(n)]
    candidates = events = ties_nudged = 0

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
            candidates += 1
            rate = h(at(t, i))
            if not 0.0 <= rate <= sup_h:
                raise ContractError(f"transfer left its declared range: h={rate!r}")
            u = float(gens[i].random())
            if u * sup_h < rate:
                # a float collision, or a tie that an earlier nudge moved
                # past: fire one ulp after the last event, so events stay
                # in time order
                te = t
                if te <= last_event:
                    te = math.nextafter(last_event, math.inf)
                    ties_nudged += 1
                if te < horizon:
                    fire(te, i)
                    last_event = te
                    trains[i].append(te)
                    events += 1
            nxt = t + float(gens[i].exponential(scale))
            if nxt < horizon:
                heapq.heappush(heap, (nxt, i))
    return _finalize(net, transfer, horizon, grid, close(horizon), trains,
                     candidates, events, ties_nudged)


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


def _cumulative_trapezoid(rates, grid):
    """int_0^g of each row of rates on the grid, overwriting rates.

    The operations and order of scipy's cumulative_trapezoid, bit for bit;
    the call holds the rates and one step array at most.
    """
    steps = rates[:, 1:] + rates[:, :-1]
    steps *= np.diff(grid)
    steps /= 2.0
    np.cumsum(steps, axis=1, out=rates[:, 1:])
    rates[:, :1] = 0.0
    return rates


def compensators(result: SimulationResult) -> np.ndarray:
    """Per-vertex compensator paths int_0^t h(S_j(s)) ds on the grid.

    Trapezoid quadrature of the recorded full input; needs record_full=True.
    """
    if result.full_input is None:
        raise RecordingMissingError("compensators need record_full=True")
    return _cumulative_trapezoid(result.transfer(result.full_input),
                                 result.grid)


def _count_rows(trains, grid, rows):
    """rows @ Z_{g-} at each grid time g, from the merged events.

    An event at t adds its vertex's column of rows to every grid time
    g > t (left limits): a cumulative sum of those columns over the grid
    bins of the events, one row at a time, so the call holds the events and
    the k x grid result.  Integer weights keep every sum exact.
    """
    ts, vs = trains.merged()
    bins = np.searchsorted(grid, ts, side="right")
    out = np.empty((len(rows), len(grid)))
    for r, row in enumerate(rows):
        np.cumsum(np.bincount(bins, weights=row[vs], minlength=len(grid)),
                  out=out[r])
    return out


@dataclass(frozen=True)
class MartingalePaths:
    """Compensated-sum decompositions of one recorded simulation.

    All sums carry the N^{-1/2} scaling.  mean_martingale is
    M_t = N^{-1/2} sum_j U_j (Z^j_{t-} - int_0^t h(S_j) ds); m_tilde stacks
    the centered-edge martingales of the requested target vertices and
    m_per_vertex the uncentered ones, so m_per_vertex = m_tilde + q * M
    entrywise up to float regrouping.  drifts are the corresponding
    compensator sums, x0 the unsigned compensated sum, hbar_int the vertex
    average of the compensators int_0^t h(S_j).  brackets maps ordered pairs
    of tracked positions to realized quadratic covariations
    [m_tilde_k, m_tilde_l] on the grid, predictable to their compensators
    (the same centered-edge weights on the compensators).
    """

    grid: np.ndarray
    mean_martingale: np.ndarray
    m_tilde: np.ndarray
    m_per_vertex: np.ndarray
    drifts: np.ndarray
    x0: np.ndarray
    hbar_int: np.ndarray
    brackets: dict
    predictable: dict


def _paths_from_rows(grid, net, vertices, counts, rates):
    """MartingalePaths from rows @ Z_{g-} and rows @ h(S(g)) on the grid,
    for the rows of _projection_rows(net, vertices).

    Compensators integrate the projected rates by the trapezoid rule.  A
    bracket combines the integer rows V_a V_b, V_a, V_b and 1, so on the
    counts it is exact whatever q (at q = 1/2 it equals 1/4 of the total
    count, summed in any order).
    """
    n, q, k = net.n, net.q, len(vertices)
    root = math.sqrt(n)
    comp = _cumulative_trapezoid(np.array(rates), grid)
    base = counts - comp
    u, uv = base[1], base[2:2 + k]
    # row of V_a V_b for a <= b (V_a V_a = V_a), in _projection_rows' order
    row_of = {(a, a): 2 + k + a for a in range(k)}
    row_of.update({pair: 2 + 2 * k + i for i, pair in enumerate(
        (a, b) for a in range(k) for b in range(a + 1, k))})

    def bracket(x, a, b):
        return (x[row_of[a, b]] - q * (x[2 + k + a] + x[2 + k + b])
                + q * q * x[0]) / n

    pairs = sorted(row_of)
    return MartingalePaths(
        grid=grid,
        mean_martingale=u / root,
        m_tilde=(uv - q * u) / root,
        m_per_vertex=uv / root,
        drifts=comp[2:2 + k] / root,
        x0=base[0] / root,
        hbar_int=comp[0] / n,
        brackets={(vertices[a], vertices[b]): bracket(counts, a, b)
                  for a, b in pairs},
        predictable={(vertices[a], vertices[b]): bracket(comp, a, b)
                     for a, b in pairs},
    )


def extract_martingale_paths(result: SimulationResult,
                             vertices=(0, 1)) -> MartingalePaths:
    """Split the recorded dynamics into drift and martingale parts.

    Reads the projected rates of a run recorded with
    martingale_vertices=vertices; the oracle path, for a record_full run
    recorded without that projection, projects h(full_input) onto the same
    rows instead.  Either way the counts are projected from the spike
    trains.  Raises RecordingMissingError when the run recorded neither.
    Compensators use trapezoid quadrature on the recording grid; counting
    paths are left limits, matching the strict left-limit convention of the
    simulator.
    """
    net = result.net
    vertices = _vertices("vertex", vertices, net.n)
    grid = result.grid
    rows = _projection_rows(net, vertices)
    if result.martingale_vertices == vertices:
        rates = result.martingale_rates
    elif result.full_input is not None:
        rates = rows @ result.transfer(result.full_input)
    else:
        raise RecordingMissingError(
            f"extract_martingale_paths needs a result recorded with "
            f"martingale_vertices={vertices} or record_full=True"
        )
    counts = _count_rows(result.trains, grid, rows)
    return _paths_from_rows(grid, net, vertices, counts, rates)


def format_spike_trains(trains: SpikeTrains,
                        comment: str | None = None) -> str:
    """Trains as columnar CSV (t,vertex), time-ordered.

    Floats are written with repr so a rerun of the same simulation produces
    byte-identical text.  `comment` adds a leading `# ...` line.
    """
    ts, vs = trains.merged()
    lines = [f"# {comment}"] if comment else []
    lines += ["t,vertex"]
    lines += [f"{t!r},{v}" for t, v in zip(ts.tolist(), vs.tolist())]
    return "\n".join(lines) + "\n"


def read_spike_trains(path, n: int, horizon: float) -> SpikeTrains:
    """Load the CSV of format_spike_trains back into per-vertex arrays.

    A row that is no (t, vertex) pair of the trains, with t in [0, horizon)
    and vertex in 0..n-1, raises ContractError naming its line.
    """
    per_vertex = [[] for _ in range(n)]
    with open(path) as fh:
        header = fh.readline().strip()
        lineno = 1
        while header.startswith("#"):
            header = fh.readline().strip()
            lineno += 1
        if header != "t,vertex":
            raise ContractError(f"unexpected spike-train header {header!r}")
        for lineno, line in enumerate(fh, lineno + 1):
            if not line.strip():
                continue
            try:
                t_str, v_str = line.split(",")
                t, v = float(t_str), int(v_str)
                valid = 0 <= v < n and 0.0 <= t < horizon
            except ValueError:
                valid = False
            if not valid:
                raise ContractError(
                    f"{path}:{lineno}: {line.strip()!r} is no event "
                    f"(t in [0, {horizon!r}), vertex in 0..{n - 1})")
            per_vertex[v].append(t)
    times = tuple(np.asarray(sorted(t), dtype=np.float64) for t in per_vertex)
    return SpikeTrains(times=times, horizon=float(horizon))
