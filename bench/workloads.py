"""Benchmark workloads: generated `verify` configs and the replicate-0 oracle.

Each workload is one `hawkes-mf verify` run whose config is generated from
the benchmark seed alone.  The structural parameters (experiment, sizes,
horizon, kernel, backend) pick the layer the workload stresses; the
replicate counts set the run length.  `toy` sizes exist only so the smoke
tests can push every workload through the same code path in seconds.

`replicate_zero` re-simulates replicate 0 of a workload through the public
API, independently of `run_experiment`, and returns the SHA-256 of its
spike trains plus the value the experiment's report must hold for that
replicate.
"""

import hashlib
import math

import numpy as np

_EXP = {"exponential": {"rate": 1.0}}
_ARCTAN = {"arctan": {}}
# exponential shape e^{-u} tabulated on [0, 2]: finite support, so the
# simulator takes the windowed-history path instead of lazy decay
_TAB_NODES = [0.25 * i for i in range(9)]
_TAB = {"tabulated": {"nodes": _TAB_NODES,
                      "values": [math.exp(-u) for u in _TAB_NODES]}}

# (model, run, options) per workload and scale; run.seed is filled in later.
# clt keeps 100 replicates because with fewer the diagonal-gap verdict is
# left to chance (it passes about one seed in five at 24), so checks_passed
# would depend on the seed; the other counts are the experiments' minimum
# or close to it, which keeps one run inside its time budget.
_SPECS = {
    "clt_limit": {
        "full": ({"n": 1600}, {"horizon": 4.0, "replicates": 100},
                 {"n_tracked": 2, "limit_samples": 10000}),
        "toy": ({"n": 100}, {"horizon": 1.0, "replicates": 8},
                {"n_tracked": 2, "limit_samples": 100}),
    },
    "critical_recorded": {
        "full": ({"n": 500}, {"horizon": 10.0, "replicates": 12},
                 {"complementary": True}),
        "toy": ({"n": 40}, {"horizon": 2.0, "replicates": 5},
                {"complementary": True}),
    },
    "lln_timechange": {
        "full": ({"n": [400, 1600, 6400]},
                 {"horizon": 4.0, "replicates": 3, "backend": "time_change"},
                 {}),
        "toy": ({"n": [50, 100, 200]},
                {"horizon": 1.0, "replicates": 3, "backend": "time_change"},
                {}),
    },
    "independence_history": {
        "full": ({"n": [400, 1600]}, {"horizon": 2.0, "replicates": 10}, {}),
        "toy": ({"n": [40, 80]}, {"horizon": 1.0, "replicates": 10}, {}),
    },
}

_EXPERIMENT = {"clt_limit": "clt", "critical_recorded": "critical",
               "lln_timechange": "lln", "independence_history": "independence"}

NAMES = tuple(_SPECS)


def make_config(name, seed, toy=False):
    """The verify config document for workload `name` at benchmark `seed`."""
    model_extra, run_extra, options = _SPECS[name]["toy" if toy else "full"]
    experiment = _EXPERIMENT[name]
    critical = experiment == "critical"
    model = {"p": 0.5 if critical else 0.8, "q": 0.5,
             "kernel": _TAB if name == "independence_history" else _EXP,
             "transfer": _ARCTAN,
             "scaling": "critical" if critical else "mean_field"}
    model.update(model_extra)
    run = {"seed": int(seed), "backend": "thinning"}
    run.update(run_extra)
    doc = {"experiment": experiment, "model": model, "run": run}
    if options:
        doc["options"] = dict(options)
    return doc


def spike_sha256(trains):
    """SHA-256 over every vertex's event count and float64 event times."""
    digest = hashlib.sha256()
    for times in trains.times:
        arr = np.ascontiguousarray(times, dtype="<f8")
        digest.update(np.int64(len(arr)).tobytes())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def replicate_zero(hm, cfg):
    """Re-simulate replicate 0 of a validated config through the public API.

    Returns (spike-train SHA-256, expected report entry, extractor) where
    extractor(tables) pulls the matching entry out of the report tables.
    The entry mirrors the experiment's own reduction of replicate 0, so a
    bit-identical run reproduces it exactly.
    """
    kernel = cfg.build_kernel()
    transfer = cfg.build_transfer()
    rs = hm.replicate_seed(cfg.seed, 0)
    simulate = (hm.simulate_thinning if cfg.backend == "thinning"
                else hm.simulate_time_change)
    if cfg.experiment == "clt":
        n = cfg.n
        tracked = tuple(range(cfg.options["n_tracked"]))
        net = hm.sample_network(n, cfg.p, cfg.q, rs)
        res = simulate(net, kernel, transfer, hm.SimulationConfig(
            horizon=cfg.horizon, seed=rs, dt=cfg.dt,
            tracked_vertices=tracked))
        i_term = hm.solve_mean_field(kernel, transfer, cfg.p, cfg.q,
                                     cfg.horizon, cfg.dt).values[-1]
        root_n = math.sqrt(n)
        entry = [float(root_n * (res.mean_input[-1] - i_term))]
        entry += [float(v) for v in root_n * (res.tracked_input[:, -1] - i_term)]
        return spike_sha256(res.trains), entry, \
            lambda tables: tables["values_finite"][0]
    if cfg.experiment == "critical":
        net_seed = cfg.net_seed
        if net_seed is None:
            net_seed = hm.replicate_seed(cfg.seed, 1 << 20)
        net = hm.build_complementary_network(cfg.n, net_seed)
        res = simulate(net, kernel, transfer, hm.SimulationConfig(
            horizon=cfg.horizon, seed=rs, scaling="critical", dt=cfg.dt,
            tracked_vertices=(0, 1), record_full=True, record_mean_rate=True))
        paths = hm.extract_martingale_paths(res, vertices=(0, 1))
        entry = float(paths.brackets[(0, 0)][-1] / cfg.horizon)
        return spike_sha256(res.trains), entry, \
            lambda tables: tables["slope_diag"][0]
    n0 = cfg.n[0]
    net = hm.sample_network(n0, cfg.p, cfg.q, rs)
    if cfg.experiment == "lln":
        res = simulate(net, kernel, transfer, hm.SimulationConfig(
            horizon=cfg.horizon, seed=rs, dt=cfg.dt, tracked_vertices=(),
            record_full=True))
        mean_path = hm.solve_mean_field(kernel, transfer, cfg.p, cfg.q,
                                        cfg.horizon, cfg.dt)
        entry = float(np.max(np.abs(res.full_input
                                    - mean_path.values[None, :])))
        return spike_sha256(res.trains), entry, \
            lambda tables: tables["sup_errors"][str(n0)][0]
    if cfg.experiment == "independence":
        m = cfg.options["m_vertices"]
        res = simulate(net, kernel, transfer, hm.SimulationConfig(
            horizon=cfg.horizon, seed=rs, dt=cfg.dt, tracked_vertices=()))
        entry = [int(v) for v in res.trains.counts()[:m]]
        return spike_sha256(res.trains), entry, \
            lambda tables: tables["counts"][str(n0)][0]
    raise ValueError(f"no replicate-0 oracle for experiment {cfg.experiment!r}")
