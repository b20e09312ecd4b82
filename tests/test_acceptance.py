"""End-to-end acceptance battery.

Ten criteria, one printed pass/fail line each, all under master seed
20240823.  Scales: solver exactness at T=10; backend agreement at N=50 over
100 seeds; uniform convergence over N in {100, 400, 1600} at T=4; terminal
fluctuation moments at N=1600 against exact limit moments; complete-graph
degeneracies exactly; compensated-average statistics at N in {100, 1600};
balanced-regime bracket structure at N=500, T=10 (200 replicates on the
fixed complementary network); weight moments over 10^3 graphs at N=1600;
the squared convolution bound on 10^3 random jump paths; and byte-identical
replay of a verify run from its manifest.  Statistical bands are the
defaults carried in every report (3 SE for mean-zero checks, 4 pooled SE
for moment matches, 10% for bracket slopes, 1% significance for sign
tests); elapsed-time ceilings are asserted where stated.
"""

import json
import math
import time

import numpy as np

from hawkes_meanfield.analysis import (_jackknife_scalar, clt_experiment,
                                       corollary_experiment,
                                       critical_experiment, lln_experiment)
from hawkes_meanfield.cli import main as cli_main
from hawkes_meanfield.fluctuations import simulate_fluctuations
from hawkes_meanfield.kernels import (arctan_transfer, constant_transfer,
                                      convolution_bound_constant,
                                      convolve_with_path, exponential_kernel)
from hawkes_meanfield.network import compute_weight_statistics, sample_network
from hawkes_meanfield.simulator import (SimulationConfig,
                                        extract_martingale_paths,
                                        simulate_thinning,
                                        simulate_time_change)
from hawkes_meanfield.volterra import solve_mean_field

SEED = 20240823
EXP = exponential_kernel(1.0)
ARCTAN = arctan_transfer()


def _verdict(capsys, num, name, passed, detail):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def _checks_pass(report, names):
    got = {c["name"]: c["passed"] for c in report.checks}
    assert set(names) <= set(got), sorted(got)
    return all(got[name] for name in names)


def test_01_volterra_solver_exactness(capsys):
    t0 = time.monotonic()
    flat = constant_transfer(1.0)
    errs = []
    for level in (9, 10, 11, 12):
        path = solve_mean_field(EXP, flat, 1.0, 1.0, 10.0, dt=10.0 / 2**level)
        errs.append(float(np.max(np.abs(path.values
                                        - (1.0 - np.exp(-path.grid))))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    elapsed = time.monotonic() - t0
    ok = (errs[-1] < 1e-6 and all(1.8 <= o <= 2.2 for o in orders)
          and elapsed < 1.0)
    _verdict(capsys, 1, "volterra-solver-exactness", ok,
             f"max error {errs[-1]:.3g} (< 1e-06), orders "
             f"{[round(o, 3) for o in orders]} in [1.8, 2.2], "
             f"{elapsed:.2f}s")


def test_02_backend_equivalence(capsys):
    t0 = time.monotonic()
    per_backend = []
    for backend in (simulate_thinning, simulate_time_change):
        vals = []
        for s in range(100):
            net = sample_network(50, 0.8, 0.5, seed=SEED + s)
            cfg = SimulationConfig(horizon=10.0, seed=SEED + s,
                                   tracked_vertices=())
            vals.append(backend(net, EXP, ARCTAN, cfg).trains.total_events
                        / 50.0)
        per_backend.append(np.asarray(vals))
    a, b = per_backend
    pooled = math.hypot(a.std(ddof=1) / 10.0, b.std(ddof=1) / 10.0)
    gap = abs(float(a.mean() - b.mean()))
    elapsed = time.monotonic() - t0
    ok = gap <= 3.0 * pooled and elapsed < 60.0
    _verdict(capsys, 2, "backend-equivalence", ok,
             f"mean-count gap {gap:.4f} <= 3 pooled SE {3 * pooled:.4f} "
             f"(N=50, T=10, 100 seeds each), {elapsed:.1f}s")


def test_03_uniform_convergence(capsys):
    t0 = time.monotonic()
    rep = lln_experiment(sizes=[100, 400, 1600], p=0.8, q=0.5, kernel=EXP,
                         transfer=ARCTAN, horizon=4.0, replicates=50,
                         seed=SEED)
    elapsed = time.monotonic() - t0
    ok = _checks_pass(rep, ["median-sup-error-decreasing",
                            "sup-error-ratio-in-band"]) and elapsed < 600.0
    med = rep.tables["medians"]
    _verdict(capsys, 3, "uniform-convergence", ok,
             f"medians {med['100']:.4f} > {med['400']:.4f} > "
             f"{med['1600']:.4f}, ratio "
             f"{med['100'] / med['1600']:.2f} in [2, 8], {elapsed:.1f}s")


def test_04_fluctuation_moments(capsys):
    t0 = time.monotonic()
    rep = clt_experiment(n=1600, p=0.8, q=0.5, kernel=EXP, transfer=ARCTAN,
                         horizon=4.0, replicates=400, limit_samples=10000,
                         seed=SEED)
    elapsed = time.monotonic() - t0
    ok = _checks_pass(rep, ["mean-kbar-matches-limit",
                            "mean-k1-matches-limit",
                            "var-k1-matches-limit",
                            "cov-k1k2-matches-limit",
                            "cov-diagonal-exceeds-offdiagonal"]) \
        and elapsed < 1800.0
    fin = rep.tables["finite"]
    _verdict(capsys, 4, "fluctuation-moments", ok,
             f"N=1600 (400 reps) vs exact limit moments: var "
             f"{fin['cov'][1][1]:.3f}, cov {fin['cov'][1][2]:.3f}, all "
             f"within 4 pooled SE, diag gap "
             f"{rep.tables['diag_gap']['value']:.3f} > 3 SE, {elapsed:.0f}s")


def test_05_complete_graph_degeneracy(capsys):
    mean_path = solve_mean_field(EXP, ARCTAN, 0.8, 1.0, 4.0)
    sample = simulate_fluctuations(mean_path, EXP, ARCTAN, 0.8, 1.0, 3,
                                   seed=SEED)
    paths_equal = all(np.array_equal(sample.k[c], sample.kbar)
                      for c in range(3))
    net = sample_network(40, 0.5, 1.0, seed=SEED)
    cfg = SimulationConfig(horizon=3.0, seed=SEED, scaling="critical",
                           tracked_vertices=(0, 1), record_full=True)
    res = simulate_thinning(net, EXP, ARCTAN, cfg)
    mart = extract_martingale_paths(res, vertices=(0, 1))
    mtilde_zero = not mart.m_tilde.any()
    ok = paths_equal and mtilde_zero
    _verdict(capsys, 5, "complete-graph-degeneracy", ok,
             f"q=1: K^k == Kbar exactly for 3 vertices ({paths_equal}), "
             f"Mtilde == 0 exactly ({mtilde_zero})")


def test_06_compensated_averages(capsys):
    t0 = time.monotonic()
    rep = corollary_experiment(sizes=[100, 1600], p=0.8, q=0.5, kernel=EXP,
                               transfer=ARCTAN, horizon=4.0, replicates=50,
                               seed=SEED)
    elapsed = time.monotonic() - t0
    ok = _checks_pass(rep, ["compensated-average-sup-decreasing",
                            "root-n-statistic-mean-zero",
                            "root-n-statistic-variance",
                            "linearization-curvature-bound",
                            "signed-unsigned-coupling"]) and elapsed < 600.0
    stat = rep.tables["root_n_stat"]
    _verdict(capsys, 6, "compensated-averages", ok,
             f"sup medians {rep.tables['medians']['100']:.3f} -> "
             f"{rep.tables['medians']['1600']:.3f}; mean "
             f"{stat['mean']:.3f} ~ 0, var {stat['var']:.3f} ~ "
             f"{stat['target_var']:.3f} within 3 SE, {elapsed:.1f}s")


def test_07_balanced_regime_brackets(capsys):
    t0 = time.monotonic()
    random_rep = critical_experiment(n=500, kernel=EXP, transfer=ARCTAN,
                                     horizon=10.0, replicates=20, seed=SEED)
    comp_rep = critical_experiment(n=500, kernel=EXP, transfer=ARCTAN,
                                   horizon=10.0, replicates=200, seed=SEED,
                                   complementary=True)
    elapsed = time.monotonic() - t0
    ok = _checks_pass(random_rep, ["bracket-slope-matches-qq-hbar",
                                   "cross-bracket-mean-zero"]) \
        and _checks_pass(comp_rep,
                         ["complementary-increments-negatively-correlated",
                          "complementary-drifts-separate",
                          "complementary-cross-coefficient-exact",
                          "sign-residual-within-parity"]) \
        and elapsed < 900.0
    slope = next(c for c in random_rep.checks
                 if c["name"] == "bracket-slope-matches-qq-hbar")["observed"]
    drift = next(c for c in comp_rep.checks
                 if c["name"] == "complementary-drifts-separate")["observed"]
    _verdict(capsys, 7, "balanced-regime-brackets", ok,
             f"N=500, T=10: bracket slope ratio {slope:.3f} within 10%, "
             f"cross slope ~ 0; complementary (200 reps): increments "
             f"negative at 1%, paired drift z {drift:.2f} > 3, "
             f"{elapsed:.0f}s")


def test_08_weight_moments(capsys):
    t0 = time.monotonic()
    w = np.empty(1000)
    msq = np.empty(1000)
    for s in range(1000):
        stats = compute_weight_statistics(
            sample_network(1600, 0.8, 0.5, seed=SEED + s))
        w[s] = stats.w_n
        msq[s] = stats.mean_square_w
    var, var_se, _ = _jackknife_scalar(w, lambda v: v.var(ddof=1))
    var_target = 4.0 * 0.8 * 0.2
    msq_target = 0.5**2 * var_target + 0.5 * 0.5
    msq_se = msq.std(ddof=1) / math.sqrt(len(msq))
    elapsed = time.monotonic() - t0
    ok = (abs(var - var_target) <= 3.0 * var_se
          and abs(float(msq.mean()) - msq_target) <= 3.0 * msq_se
          and elapsed < 60.0)
    _verdict(capsys, 8, "weight-moments", ok,
             f"Var(W) {var:.4f} ~ {var_target:.2f} (3 SE {3 * var_se:.4f}); "
             f"mean square {msq.mean():.4f} ~ {msq_target:.2f} "
             f"(3 SE {3 * msq_se:.4f}); 1e3 graphs at N=1600, "
             f"{elapsed:.1f}s")


def test_09_convolution_bound(capsys):
    horizon = 5.0
    bound = convolution_bound_constant(EXP, horizon)
    g = np.random.default_rng(SEED)
    queries = np.linspace(0.0, horizon, 101)
    violations = 0
    for _ in range(1000):
        m = int(g.integers(1, 40))
        events = np.sort(g.uniform(0.0, horizon, m))
        weights = g.choice([-1.0, 1.0], m)
        sup_j2 = float(np.max(np.cumsum(weights) ** 2))
        conv = convolve_with_path(EXP, queries, events, weights)
        if float(np.max(conv**2)) > bound * sup_j2 + 1e-12:
            violations += 1
    ok = violations == 0
    _verdict(capsys, 9, "convolution-bound", ok,
             f"sup(phi*dJ)^2 <= (sup|phi| + t sup|phi'|) sup J^2 on 1000 "
             f"random jump paths: {violations} violations")


def test_10_manifest_replay(capsys, tmp_path):
    doc = {
        "experiment": "lln",
        "model": {"n": [15, 60], "p": 0.8, "q": 0.5,
                  "kernel": {"exponential": {"rate": 1.0}},
                  "transfer": {"arctan": {}}},
        "run": {"horizon": 1.5, "replicates": 3, "seed": SEED},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    rc1 = cli_main(["verify", "--config", str(cfg),
                    "--out", str(tmp_path / "first")])
    rc2 = cli_main(["verify", "--config",
                    str(tmp_path / "first" / "manifest.json"),
                    "--out", str(tmp_path / "replay")])
    report1 = (tmp_path / "first" / "report.json").read_bytes()
    report2 = (tmp_path / "replay" / "report.json").read_bytes()
    plot_equal = (tmp_path / "first" / "plotdata.csv").read_bytes() == \
        (tmp_path / "replay" / "plotdata.csv").read_bytes()
    ok = rc1 == rc2 and report1 == report2 and plot_equal
    _verdict(capsys, 10, "manifest-replay", ok,
             f"verify rerun from manifest: report bytes equal "
             f"({report1 == report2}), plot data equal ({plot_equal}), "
             f"exit codes {rc1} == {rc2}")
