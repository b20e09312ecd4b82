"""Replicated experiments that confront simulation with the limit theory.

Each experiment hands its arguments to one driver, `_experiment`, whose
table builder runs seeded replicates through module-level reduces (so a
replicate pickles) and which stores the tables as plain data and judges the
stored form.  The split matters: the ``*_verdicts`` functions are pure
functions of (tables, tolerances), and a run and a replay (`_reverdict`)
apply them to the same data, so a persisted report re-judges to its
verdicts bit for bit.  The plot rows are a function of the tables alone.

Seed layout: replicate r at the b-th entry of an experiment's sizes (b = 0
for the single-size clt and critical) uses replicate_seed(seed,
b * replicates + r), from which both the network and the event noise draw
their disjoint streams.  The one fixed network of complementary critical
runs uses net_seed, by default replicate_seed(seed, 1 << 20).  `_replicate`
runs one replicate; `_replicates` and the `simulate` command loop over it.
"""

import functools
import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DerivativeUnavailableError,
    ParameterError,
    SchemeMismatchError,
    UnsupportedTransferError,
    WrongRegimeError,
    is_integer,
    is_real,
)
from .fluctuations import (
    jackknife_covariance,
    sample_terminal_fluctuations,  # noqa: F401  (bench/tracer.py spans analysis.sample_terminal_fluctuations)
    terminal_covariance,
)
from .network import _check_pq, build_complementary_network, sample_network
from .rng import _check_seed, replicate_seed
from .simulator import (
    SimulationConfig,
    compensators,  # noqa: F401  (bench/tracer.py spans analysis.compensators)
    extract_martingale_paths,
    simulate_thinning,
    simulate_time_change,
)
from .volterra import solve_mean_field

__all__ = [
    "ExperimentReport",
    "DEFAULT_TOLERANCES",
    "lln_experiment",
    "clt_experiment",
    "corollary_experiment",
    "critical_experiment",
    "independence_experiment",
    "lln_verdicts",
    "clt_verdicts",
    "corollary_verdicts",
    "critical_verdicts",
    "independence_verdicts",
    "run_experiment",
    "report_from_dict",
]

log = logging.getLogger(__name__)

_BACKENDS = {"thinning": simulate_thinning, "time_change": simulate_time_change}

DEFAULT_TOLERANCES = {
    "mean_zero_se": 3.0,        # |mean| <= this many standard errors
    "moment_match_se": 4.0,     # pooled-SE band for moment comparisons
    "diag_gap_se": 3.0,         # diagonal-vs-off-diagonal covariance gap
    "slope_rel": 0.10,          # relative band for bracket slopes
    "corr_alpha": 0.01,         # sign-test level for increment correlations
    "drift_gap_se": 3.0,        # separation of complementary drift paths
    "ratio_band": [2.0, 8.0],   # sup-error ratio across a 16x size span
    "gof_alpha": 0.01,          # goodness-of-fit floor for count laws
    "bound_slack": 1e-9,        # float slack on rigorous inequalities
}


def _tol(overrides):
    """DEFAULT_TOLERANCES updated by overrides, as floats: the one owner of
    the tolerance rule, which validate_config applies too.  Keys must be
    known, values finite numbers >= 0, and ratio_band [low, high] with
    low < high; a refusal is a ParameterError keyed to the refused key."""
    tol = dict(DEFAULT_TOLERANCES)
    _need(isinstance(overrides, (dict, type(None))), ParameterError,
          "tolerances", f"tolerances must be a dict, got {overrides!r}")
    for key, value in (overrides or {}).items():
        _need(key in tol, ParameterError, key, f"unknown tolerance {key!r} "
              f"(allowed: {', '.join(sorted(tol))})")
        band = key == "ratio_band"
        pair = band and isinstance(value, (list, tuple))
        values = list(value) if pair else [value]
        rule = ("[low, high] with 0 <= low < high < inf" if band
                else "a finite number >= 0")
        _need(len(values) == 1 + band
              and all(is_real(v) and 0.0 <= v < math.inf for v in values)
              and (not band or values[0] < values[1]), ParameterError, key,
              f"tolerance {key!r} must be {rule}, got {value!r}")
        tol[key] = [float(v) for v in values] if band else float(value)
    return tol


def _pure(obj):
    """Recursively convert numpy containers to plain JSON-ready Python."""
    if isinstance(obj, dict):
        return {str(k): _pure(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pure(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()  # nested lists of Python scalars
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def make_check(name, passed, observed, target, tolerance, detail=""):
    return {
        "name": str(name),
        "passed": bool(passed),
        "observed": _pure(observed),
        "target": _pure(target),
        "tolerance": _pure(tolerance),
        "detail": str(detail),
    }


def _within(name, observed, target, width, detail=""):
    """The check that observed lies within width of target."""
    return make_check(name, abs(observed - target) <= width, observed, target,
                      width, detail)


@dataclass(frozen=True)
class ExperimentReport:
    """Tables plus verdicts from one experiment run.

    Every field holds plain JSON data (what `_experiment`, make_check and
    report_from_dict store), so to_dict hands the fields over as they are.
    checks are derived from tables through the experiment's verdict
    function and never from transient state, so re-judging a deserialized
    report reproduces them exactly.
    """

    experiment: str
    params: dict
    tolerances: dict
    tables: dict
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def summary_lines(self):
        out = []
        for c in self.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            out.append(f"[{mark}] {self.experiment}: {c['name']} "
                       f"(observed={c['observed']}, target={c['target']}, "
                       f"tolerance={c['tolerance']})")
        return out

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "tolerances": self.tolerances,
            "tables": self.tables,
            "checks": self.checks,
        }


def report_from_dict(data: dict) -> ExperimentReport:
    """The report that to_dict() wrote; ConfigError if data is not one."""
    if not isinstance(data, dict) or data.get("experiment") not in _EXPERIMENTS:
        raise ConfigError("report: expected an object whose experiment is "
                          "one of " + ", ".join(_EXPERIMENTS))
    for key in ("params", "tolerances", "tables"):
        if not isinstance(data.get(key), dict):
            raise ConfigError(f"report.{key}: expected an object")
    return ExperimentReport(
        experiment=data["experiment"], params=data["params"],
        tolerances=data["tolerances"], tables=data["tables"],
        checks=data.get("checks", []),
    )


def _reverdict(report: ExperimentReport) -> list:
    """Recompute the checks of a (possibly deserialized) report."""
    verdicts = _EXPERIMENTS[report.experiment].verdicts
    return verdicts(report.tables, report.tolerances)


def _backend(backend):
    try:
        return _BACKENDS[backend]
    except (KeyError, TypeError):  # unknown, or no key at all
        raise ParameterError(
            f"backend must be one of {sorted(_BACKENDS)}, got {backend!r}"
        ) from None


def _need(ok, error, keyword, message):
    """Unless ok, raise error(message) tagged with the refused keyword."""
    if not ok:
        exc = error(message)
        exc.keyword = keyword
        raise exc


def _require_replicates(replicates, least):
    _require_integer("replicates", replicates)
    _need(replicates >= least, ParameterError, "replicates",
          f"need at least {least} replicates")


def _require_integer(keyword, value):
    """A count is an integer: no float, even an integral one, and no bool."""
    _need(is_integer(value), ParameterError, keyword,
          f"{keyword}: {value!r} is not an integer")


def _require_sizes(sizes, least):
    _need(isinstance(sizes, (list, tuple, np.ndarray)), ParameterError,
          "sizes", f"sizes must be a list of sizes, got {sizes!r}")
    for s in sizes:
        _require_integer("sizes", s)
    _need(len(sizes) >= least and all(s >= 1 for s in sizes)
          and sorted(set(sizes)) == list(sizes), ParameterError, "sizes",
          f"sizes must be a strictly increasing list of >= {least} sizes")


def _require_mean_field(name, p):
    _need(p != 0.5, WrongRegimeError, "p",
          f"p = 1/2 collapses the mean-field drift; experiment {name!r} "
          "needs p != 1/2 (use 'critical')")


def _require_exponential(name, kernel):
    """An experiment that reads every vertex's recorded input needs the
    exponential kernel: the simulator records it for no other."""
    _need(kernel.is_exponential, SchemeMismatchError, "kernel",
          f"{name} reads every vertex's recorded input, which needs the "
          f"exponential kernel; got a {kernel.kind} kernel")


def _replicate(run, reduce, index, *, n, seed, kernel, transfer, horizon, dt,
               p, q, net=None, **record):
    """reduce(result) for a fresh sample_network(n, p, q, rs), or the fixed
    `net`, simulated at seed rs = replicate_seed(seed, index).  The
    SimulationConfig fields in `record` ask for what reduce reads and nothing
    more; reduce finds the network and its size in result.net."""
    rs = replicate_seed(seed, index)
    net = sample_network(n, p, q, rs) if net is None else net
    cfg = SimulationConfig(horizon=horizon, seed=rs, dt=dt, **record)
    return reduce(run(net, kernel, transfer, cfg))


def _replicates(run, reduce, *, sizes, replicates, **common):
    """[[_replicate at seed index b * replicates + r for each r] for the b-th
    size], one result alive at a time: reduce must return small values only."""
    out = []
    for block, n in enumerate(sizes):
        out.append([_replicate(run, reduce, block * replicates + r, n=n,
                               **common) for r in range(replicates)])
        log.info("n=%d: %d replicate(s) done", n, replicates)
    return out


def _experiment(name, build, call):
    """The report of experiment `name` on `call`, its function's arguments.

    Model, seeds, contract, backend and tolerances come first: a refused
    run computes nothing.  build(replicated, **call) returns the tables,
    running replicated(reduce, sizes=..., **record): _replicates bound to
    this call's seed, replicates, regime, model and grid.  In the
    mean-field regime call also carries the solved mean_path.
    """
    entry = _EXPERIMENTS[name]
    if entry.scaling == "critical":
        call["p"] = 0.5
    _check_pq(call["p"], call["q"])
    _check_seed(call["seed"])
    if call.get("net_seed") is not None:
        _check_seed(call["net_seed"], "net_seed")
    entry.contract(**call)
    run = _backend(call["backend"])
    tol = _tol(call.pop("tolerances"))
    if "sizes" in call:
        call["sizes"] = [int(n) for n in call["sizes"]]
    params = _pure(dict(call, kernel=call["kernel"].kind,
                        transfer=call["transfer"].kind))
    params.pop("net_seed", None)  # complementary tables record the seed
    model = {key: call[key]
             for key in ("kernel", "transfer", "p", "q", "horizon", "dt")}
    if entry.scaling == "mean_field":
        call["mean_path"] = solve_mean_field(**model)
    replicated = functools.partial(_replicates, run, seed=call["seed"],
                                   replicates=call["replicates"],
                                   scaling=entry.scaling, **model)
    tables = _pure(build(replicated, **call))
    return ExperimentReport(name, params, tol, tables,
                            entry.verdicts(tables, tol))


def _jackknife_se(loo):
    """Jackknife standard error from a statistic's leave-one-out values."""
    r = len(loo)
    return math.sqrt((r - 1) / r * float(np.sum((loo - loo.mean()) ** 2)))


def _se(values):
    v = np.asarray(values, dtype=np.float64)
    return float(v.std(ddof=1) / math.sqrt(len(v)))


def _corr(a, b):
    """Pearson correlation of two samples, 0.0 when either is constant."""
    if a.std() == 0.0 or b.std() == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def _downsample_stride(grid, target=256):
    return max(1, (len(grid) - 1) // target)


def _fmt(x):
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _by_replicate(name, values):
    """Plot rows of one value per replicate: t empty, replicate index set."""
    return [(name, "", _fmt(v), str(r)) for r, v in enumerate(values)]


# ----------------------------------------------------------------------
# law of large numbers
# ----------------------------------------------------------------------

def _lln_contract(*, sizes, p, replicates, kernel, **_):
    _require_sizes(sizes, 2)
    _require_mean_field("lln", p)
    _require_replicates(replicates, 3)
    _require_exponential("lln", kernel)


def lln_experiment(*, sizes, p, q, kernel, transfer, horizon, replicates,
                   seed, backend="thinning", dt=None, tolerances=None
                   ) -> ExperimentReport:
    """Uniform convergence of every vertex input to the mean-field path.

    For each network size runs `replicates` fresh networks and measures
    E_N = max over vertices and grid times of |S_i(t) - I(t)|, read exactly
    from the smallest and largest S_i(t) at each grid time (input_range;
    exponential kernel only, refused up front otherwise).  The medians
    must decrease strictly in N and the first/last ratio must sit in the
    configured band (defaults assume a 16x size span, where the expected
    decay N^{-1/2} adjusted for the growing vertex maximum gives about 3).
    """
    return _experiment("lln", _lln_tables, locals())


def _lln_reduce(mean_values, res):
    # the farthest vertex from I(g) is the lowest or the highest one
    err = float(np.max(np.abs(res.input_range - mean_values)))
    return err, res.trains.total_events


def _lln_tables(replicated, *, sizes, replicates, mean_path, **_):
    runs = replicated(functools.partial(_lln_reduce, mean_path.values),
                      sizes=sizes, tracked_vertices=())
    sup_errors = {}
    events_mean = {}
    for n, reps in zip(sizes, runs):
        errs = [err for err, _ in reps]
        sup_errors[str(n)] = errs
        events_mean[str(n)] = float(np.mean([events for _, events in reps]))
        log.info("lln n=%d: median sup error %.4g", n, np.median(errs))
    return {
        "sizes": sizes,
        "sup_errors": sup_errors,
        "medians": {str(n): float(np.median(sup_errors[str(n)])) for n in sizes},
        "events_mean": events_mean,
        "replicates": replicates,
    }


def lln_verdicts(tables, tolerances):
    sizes = tables["sizes"]
    med = [tables["medians"][str(n)] for n in sizes]
    decreasing = all(a > b for a, b in zip(med, med[1:]))
    checks = [make_check(
        "median-sup-error-decreasing", decreasing, med, "strictly decreasing",
        None, detail=f"sizes {sizes}",
    )]
    lo, hi = tolerances["ratio_band"]
    ratio = med[0] / med[-1] if med[-1] > 0 else math.inf
    checks.append(make_check(
        "sup-error-ratio-in-band", lo <= ratio <= hi, ratio, [lo, hi], None,
        detail=f"median({sizes[0]}) / median({sizes[-1]})",
    ))
    return checks


def _lln_plot_rows(tables):
    sizes = [str(n) for n in tables["sizes"]]
    rows = [row for n in sizes for row in _by_replicate(
        f"sup_error[n={n}]", tables["sup_errors"][n])]
    return rows + [("median_sup_error", n, _fmt(tables["medians"][n]), "")
                   for n in sizes]


# ----------------------------------------------------------------------
# central limit theorem
# ----------------------------------------------------------------------

def _clt_contract(*, n, p, transfer, replicates, limit_samples, n_tracked,
                  **_):
    _require_integer("n", n)
    _require_integer("n_tracked", n_tracked)
    _need(2 <= n_tracked <= n, ParameterError, "n_tracked",
          f"n_tracked must be >= 2 (a covariance pair) and <= n = {n}")
    _require_replicates(replicates, 8)
    _require_integer("limit_samples", limit_samples)
    _need(limit_samples >= 8, ParameterError, "limit_samples",
          "need at least 8 limit samples")
    _require_mean_field("clt", p)
    _need(transfer.has_derivative, DerivativeUnavailableError, "transfer",
          "clt needs h', which this transfer does not carry")


def clt_experiment(*, n, p, q, kernel, transfer, horizon, replicates,
                   seed, n_tracked=2, limit_samples=10000, backend="thinning",
                   dt=None, tolerances=None) -> ExperimentReport:
    """Terminal-time fluctuation moments against the limit system.

    Finite-network side: replicates of K^{N,k}_T = sqrt(N) (S_k(T) - I(T))
    for the first n_tracked vertices plus the vertex average.  Limit side:
    the exact moments of the Gaussian system (mean 0, terminal_covariance),
    computed before any replicate runs; clt draws no limit samples, and
    limit_samples (default 10000) is only validated and recorded.  Matched
    within pooled standard-error bands; the covariance must also show the
    exchangeable structure (diagonal strictly above off-diagonal when
    0 < q < 1).

    Only the terminal input is read, so each replicate records just the
    grid {0, T}, with the values of any finer grid (see SimulationConfig).
    dt sets the grid of the mean-field solve and of terminal_covariance.
    """
    return _experiment("clt", _clt_tables, locals())


def _clt_reduce(i_term, res):
    terminal = np.concatenate(([res.mean_input[-1]],
                               res.tracked_input[:, -1]))
    return math.sqrt(res.net.n) * (terminal - i_term)


def _clt_tables(replicated, *, n, p, q, kernel, transfer, horizon,
                replicates, n_tracked, mean_path, **_):
    cov_l = terminal_covariance(mean_path, kernel, transfer, p, q, n_tracked)
    finite = np.array(replicated(
        functools.partial(_clt_reduce, mean_path.values[-1]), sizes=[n],
        dt=horizon, tracked_vertices=tuple(range(n_tracked)))[0])

    cov_f, se_f, loo_f = jackknife_covariance(finite, return_loo=True)
    gap_se = _jackknife_se(loo_f[:, 1, 1] - loo_f[:, 1, 2])
    zeros = np.zeros(n_tracked + 1)
    return {
        "n": n,
        "finite": {
            "replicates": replicates,
            "mean": finite.mean(axis=0),
            "se_mean": [_se(finite[:, j]) for j in range(finite.shape[1])],
            "cov": cov_f, "cov_se": se_f,
        },
        "limit": {
            "method": "exact",
            "mean": zeros, "se_mean": zeros,
            "cov": cov_l, "cov_se": np.zeros_like(cov_l),
        },
        "diag_gap": {"value": float(cov_f[1, 1] - cov_f[1, 2]), "se": gap_se},
        "q": q,
        "values_finite": finite,
    }


def clt_verdicts(tables, tolerances):
    fin, lim = tables["finite"], tables["limit"]
    band = tolerances["moment_match_se"]
    checks = []

    def _pooled(label, a, se_a, b, se_b):
        pooled = math.hypot(se_a, se_b)
        checks.append(_within(
            label, a, b, band * pooled,
            detail=f"|gap|={abs(a - b):.4g}, pooled SE={pooled:.4g}",
        ))

    _pooled("mean-kbar-matches-limit", fin["mean"][0], fin["se_mean"][0],
            lim["mean"][0], lim["se_mean"][0])
    _pooled("mean-k1-matches-limit", fin["mean"][1], fin["se_mean"][1],
            lim["mean"][1], lim["se_mean"][1])
    _pooled("var-k1-matches-limit", fin["cov"][1][1], fin["cov_se"][1][1],
            lim["cov"][1][1], lim["cov_se"][1][1])
    _pooled("cov-k1k2-matches-limit", fin["cov"][1][2], fin["cov_se"][1][2],
            lim["cov"][1][2], lim["cov_se"][1][2])

    gap = tables["diag_gap"]
    q = tables["q"]
    if 0.0 < q < 1.0:
        need = tolerances["diag_gap_se"] * gap["se"]
        checks.append(make_check(
            "cov-diagonal-exceeds-offdiagonal", gap["value"] > need,
            gap["value"], f"> {need:.4g}", tolerances["diag_gap_se"],
            detail="finite-size covariance, vertex pair (1, 2)",
        ))
    else:
        checks.append(make_check(
            "cov-diagonal-exceeds-offdiagonal", True, gap["value"],
            "degenerate (q in {0, 1})", None,
            detail="structure check only applies for 0 < q < 1",
        ))
    return checks


def _clt_plot_rows(tables):
    values = tables["values_finite"]
    labels = ["kbar_T"] + [f"k{j}_T" for j in range(1, len(values[0]))]
    return [(labels[c], "", _fmt(v), str(r))
            for r, row in enumerate(values) for c, v in enumerate(row)]


# ----------------------------------------------------------------------
# corollary statistics (population averages of compensated counts)
# ----------------------------------------------------------------------

def _corollary_contract(*, sizes, p, kernel, transfer, replicates, **_):
    _require_sizes(sizes, 2)
    _require_mean_field("corollary", p)
    _require_replicates(replicates, 8)
    _need(transfer.second_deriv_sup is not None, UnsupportedTransferError,
          "transfer", "the linearization check needs a curvature bound "
          "(transfer.second_deriv_sup)")
    _require_exponential("corollary", kernel)


def corollary_experiment(*, sizes, p, q, kernel, transfer, horizon,
                         replicates, seed, backend="thinning", dt=None,
                         tolerances=None) -> ExperimentReport:
    """Compensated-count averages: vanishing sup, CLT at root-N, coupling.

    Per size and replicate the unsigned compensated average
    A_N(s) = N^{-1} sum_j (Z^j_s - int_0^s h(S_j)) is recorded; its sup must
    shrink from the smallest to the largest size.  At the largest size the
    root-N statistic X^0_T is checked for mean zero and for variance
    int_0^T h(I) ds, the pointwise linearization of h(S_0(T)) around I(T)
    is checked against the rigorous curvature bound, and the correlation
    between the signed and unsigned statistics is compared with 2p - 1.
    """
    return _experiment("corollary", _corollary_tables, locals())


def _corollary_reduce(transfer, i_term, res):
    """(sup, X^0_T, signed average at T, linearization excess)."""
    root_n = math.sqrt(res.net.n)
    paths = extract_martingale_paths(res, vertices=())
    s_term = float(res.tracked_input[0, -1])
    k_term = root_n * (s_term - i_term)
    lhs = abs(root_n * (float(transfer(s_term)) - float(transfer(i_term)))
              - float(transfer.derivative(i_term)) * k_term)
    bound = 0.5 * transfer.second_deriv_sup * k_term**2 / root_n
    return (float(np.max(np.abs(paths.x0))) / root_n,
            float(paths.x0[-1]), float(paths.mean_martingale[-1]),
            lhs - bound)


def _corollary_tables(replicated, *, sizes, p, transfer, replicates,
                      mean_path, **_):
    rate_integral = float(np.trapezoid(transfer(mean_path.values),
                                       mean_path.grid))
    runs = replicated(
        functools.partial(_corollary_reduce, transfer, mean_path.values[-1]),
        sizes=sizes, tracked_vertices=(0,), martingale_vertices=())
    sup_stats = {}
    x0_terminal = []
    xu_terminal = []
    lin_excess = -math.inf
    for n, reps in zip(sizes, runs):
        sup_stats[str(n)] = [rep[0] for rep in reps]
        log.info("corollary n=%d: median sup %.4g", n,
                 np.median(sup_stats[str(n)]))
        if n == sizes[-1]:
            x0_terminal += [rep[1] for rep in reps]
            xu_terminal += [rep[2] for rep in reps]
            lin_excess = max([lin_excess] + [rep[3] for rep in reps])

    x0 = np.asarray(x0_terminal)
    xu = np.asarray(xu_terminal)
    var, var_se, _ = _jackknife_scalar(x0, lambda v: v.var(ddof=1))
    corr, corr_se, _ = _jackknife_scalar(
        np.column_stack([xu, x0]),
        lambda v: float(np.corrcoef(v[:, 0], v[:, 1])[0, 1]),
    )
    return {
        "sizes": sizes,
        "replicates": replicates,
        "sup_stats": sup_stats,
        "medians": {str(n): float(np.median(sup_stats[str(n)])) for n in sizes},
        "root_n_stat": {
            "n": sizes[-1],
            "values": x0_terminal,
            "mean": float(x0.mean()),
            "se_mean": _se(x0),
            "var": var,
            "var_se": var_se,
            "target_var": rate_integral,
        },
        "linearization": {"max_excess": float(lin_excess),
                          "curvature_bound": transfer.second_deriv_sup},
        "coupling": {"corr": corr, "se": corr_se, "target": 2.0 * p - 1.0,
                     "signed_values": xu_terminal},
    }


def corollary_verdicts(tables, tolerances):
    sizes = tables["sizes"]
    med_first = tables["medians"][str(sizes[0])]
    med_last = tables["medians"][str(sizes[-1])]
    checks = [make_check(
        "compensated-average-sup-decreasing", med_last < med_first,
        [med_first, med_last], "last < first", None,
        detail=f"medians at n={sizes[0]} and n={sizes[-1]}",
    )]
    stat = tables["root_n_stat"]
    z_band = tolerances["mean_zero_se"]
    checks.append(_within("root-n-statistic-mean-zero", stat["mean"], 0.0,
                          z_band * stat["se_mean"]))
    checks.append(_within("root-n-statistic-variance", stat["var"],
                          stat["target_var"], z_band * stat["var_se"]))
    lin = tables["linearization"]
    checks.append(make_check(
        "linearization-curvature-bound",
        lin["max_excess"] <= tolerances["bound_slack"], lin["max_excess"],
        "<= 0", tolerances["bound_slack"],
    ))
    coup = tables["coupling"]
    checks.append(_within("signed-unsigned-coupling", coup["corr"],
                          coup["target"], z_band * coup["se"]))
    return checks


def _corollary_plot_rows(tables):
    rows = [row for n in tables["sizes"] for row in _by_replicate(
        f"sup_stat[n={n}]", tables["sup_stats"][str(n)])]
    return (rows + _by_replicate("x0_terminal", tables["root_n_stat"]["values"])
            + _by_replicate("xu_terminal", tables["coupling"]["signed_values"]))


def _jackknife_scalar(values, statistic):
    """Leave-one-out jackknife of an arbitrary scalar statistic."""
    values = np.asarray(values)
    r = len(values)
    if r < 3:
        raise ContractError("jackknife needs at least 3 samples")
    full = float(statistic(values))
    loo = np.array([
        float(statistic(np.delete(values, i, axis=0))) for i in range(r)
    ])
    return full, _jackknife_se(loo), loo


# ----------------------------------------------------------------------
# critical regime
# ----------------------------------------------------------------------

# per-replicate paths of a critical run, downsampled into tables["series"]
_CRITICAL_SERIES = (
    "bracket_realized", "bracket_cross", "covariation_exact",
    "covariation_mean_rate", "covariation_limit", "drift_vertex0",
    "drift_vertex1", "martingale_vertex0", "martingale_vertex1",
    "mtilde_vertex0", "mtilde_vertex1",
)


def _critical_contract(*, n, q, kernel, replicates, complementary,
                       net_seed=None, **_):
    _require_integer("n", n)
    _need(isinstance(complementary, bool), ParameterError, "complementary",
          f"complementary must be True or False, got {complementary!r}")
    _need(n >= 2, ParameterError, "n",
          f"critical tracks vertices 0 and 1, so it needs n >= 2, got {n}")
    _need(not complementary or n % 2 == 0, ParameterError, "n",
          f"complementary construction needs even n >= 2, got {n}")
    _require_replicates(replicates, 5)
    _need(not complementary or q == 0.5, WrongRegimeError, "q",
          "the complementary construction fixes q = 1/2")
    _need(0.0 < q < 1.0, WrongRegimeError, "q",
          "critical bracket structure needs 0 < q < 1")
    _require_exponential("critical", kernel)
    _need(net_seed is None or complementary, ParameterError, "net_seed",
          "net_seed fixes the one complementary network; random mode draws "
          "a fresh network per replicate")


def critical_experiment(*, n, q=0.5, kernel, transfer, horizon, replicates,
                        seed, backend="thinning", complementary=False,
                        net_seed=None, dt=None, tolerances=None
                        ) -> ExperimentReport:
    """Bracket structure of the critical-scaling martingales (p = 1/2).

    Random mode (complementary=False): fresh Erdos-Renyi graphs per
    replicate; the realized bracket [Mtilde^0, Mtilde^0]_T must match
    q (1 - q) int hbar within the relative band, and the cross bracket
    [Mtilde^0, Mtilde^1]_T must average to zero.

    Complementary mode: one fixed network from build_complementary_network
    (q = 1/2), fresh event noise per replicate; the centered martingale
    increments of vertices 0 and 1 must be negatively correlated (sign
    test) and the two drift paths must separate beyond the pooled-SE band
    somewhere on the grid.
    """
    return _experiment("critical", _critical_tables, locals())


def _critical_reduce(horizon, res):
    """Per-replicate slopes, cross coefficient and downsampled series."""
    net = res.net
    paths = extract_martingale_paths(res, vertices=(0, 1))
    ident = np.max(np.abs(paths.m_per_vertex
                          - (paths.m_tilde
                             + net.q * paths.mean_martingale[None, :])))
    if ident > 1e-9:
        raise ContractError(
            f"martingale split identity violated by {ident:.3g}"
        )
    stride = _downsample_stride(paths.grid)
    centered0 = net.adjacency[:, 0].astype(np.float64) - net.q
    centered1 = net.adjacency[:, 1].astype(np.float64) - net.q
    c00 = float(np.mean(centered0**2))
    qq_hbar = net.q * (1.0 - net.q) * paths.hbar_int
    bracket00 = paths.brackets[(0, 0)]
    bracket01 = paths.brackets[(0, 1)]
    rows = (bracket00, bracket01, paths.predictable[(0, 0)],
            c00 * paths.hbar_int, qq_hbar, *paths.drifts,
            *paths.m_per_vertex, *paths.m_tilde)
    # copies, not views: a strided view would keep every full-grid path of
    # the replicate alive until the experiment ends
    return {
        "t_grid": paths.grid[::stride].copy(),
        "series": {name: row[::stride].copy()
                   for name, row in zip(_CRITICAL_SERIES, rows)},
        "slope_diag": float(bracket00[-1] / horizon),
        "slope_target": float(qq_hbar[-1] / horizon),
        "slope_cross": float(bracket01[-1] / horizon),
        "cross_coefficient": float(np.mean(centered0 * centered1)),
    }


def _critical_tables(replicated, *, n, q, horizon, replicates, seed,
                     complementary, net_seed, **_):
    fixed_net = None
    if complementary:
        if net_seed is None:
            net_seed = replicate_seed(seed, 1 << 20)
        fixed_net = build_complementary_network(n, net_seed)
    reps = replicated(functools.partial(_critical_reduce, horizon),
                      sizes=[n], net=fixed_net, tracked_vertices=(),
                      martingale_vertices=(0, 1))[0]
    series = {name: [rep["series"][name] for rep in reps]
              for name in _CRITICAL_SERIES}
    tables = {
        "mode": "complementary" if complementary else "random",
        "n": n,
        "q": q,
        "horizon": horizon,
        "replicates": replicates,
        "t_grid": reps[0]["t_grid"],
        "series": series,
    }
    for key in ("slope_diag", "slope_target", "slope_cross",
                "cross_coefficient"):
        tables[key] = [rep[key] for rep in reps]
    if complementary:
        increment_corr = [
            _corr(np.diff(m0), np.diff(m1))
            for m0, m1 in zip(series["mtilde_vertex0"], series["mtilde_vertex1"])]
        d0 = np.asarray(series["drift_vertex0"])
        d1 = np.asarray(series["drift_vertex1"])
        dg = d0 - d1
        tables["increment_correlations"] = increment_corr
        tables["drift_mean0"] = d0.mean(axis=0)
        tables["drift_mean1"] = d1.mean(axis=0)
        # paired per-replicate difference: the two drifts share each
        # replicate's event noise, so the difference is the powerful statistic
        tables["drift_gap_mean"] = dg.mean(axis=0)
        tables["drift_gap_se"] = dg.std(axis=0, ddof=1) / math.sqrt(replicates)
        tables["sign_residual"] = fixed_net.sign_sum
        tables["net_seed"] = net_seed
    return tables


def _sign_test_pvalue(k, n):
    """P(Binomial(n, 1/2) >= k), the one-sided sign-test tail.

    The regularized incomplete beta I_{1/2}(k, n - k + 1) is that tail; it
    is the value scipy's binomtest(k, n, 0.5, alternative="greater")
    returns, bit for bit, without loading scipy's statistics package.
    """
    if k == 0:
        return 1.0
    from scipy.special import betainc

    return float(betainc(k, n - k + 1, 0.5))


def critical_verdicts(tables, tolerances):
    checks = []
    if tables["mode"] == "random":
        total_diag = float(np.sum(tables["slope_diag"]))
        total_target = float(np.sum(tables["slope_target"]))
        ratio = total_diag / total_target if total_target else math.inf
        checks.append(_within(
            "bracket-slope-matches-qq-hbar", ratio, 1.0,
            tolerances["slope_rel"],
            detail="pooled realized bracket over pooled q(1-q) int hbar",
        ))
        cross = np.asarray(tables["slope_cross"])
        checks.append(_within("cross-bracket-mean-zero", float(cross.mean()),
                              0.0, tolerances["mean_zero_se"] * _se(cross)))
        return checks

    corr = np.asarray(tables["increment_correlations"])
    negative = int(np.sum(corr < 0.0))
    pval = _sign_test_pvalue(negative, len(corr))
    checks.append(make_check(
        "complementary-increments-negatively-correlated",
        pval <= tolerances["corr_alpha"],
        {"negative": negative, "replicates": len(corr), "pvalue": pval},
        "sign-test p <= alpha", tolerances["corr_alpha"],
        detail=f"mean correlation {corr.mean():.4f}",
    ))

    gap = np.abs(np.asarray(tables["drift_gap_mean"]))
    se = np.asarray(tables["drift_gap_se"])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, gap / se, 0.0)
    z[0] = 0.0
    best = int(np.argmax(z))
    band = tolerances["drift_gap_se"]
    checks.append(make_check(
        "complementary-drifts-separate",
        bool(z[best] > band), float(z[best]), f"> {band}", band,
        detail=f"paired |mean|/SE of drift difference, best at "
               f"t={tables['t_grid'][best]:.4g}",
    ))

    c01 = np.asarray(tables["cross_coefficient"])
    target = -tables["q"] * (1.0 - tables["q"])
    checks.append(make_check(
        "complementary-cross-coefficient-exact",
        bool(np.all(c01 == target)), float(c01[0]), target, 0.0,
        detail="disjoint half supports force the centered product everywhere",
    ))
    checks.append(make_check(
        "sign-residual-within-parity",
        abs(int(tables["sign_residual"])) <= 2, tables["sign_residual"],
        "0 (or 2 when n/2 is odd)", 2,
    ))
    return checks


def _critical_plot_rows(tables):
    """Paths against t (complementary: also the mean drifts), then scalars.

    Yielded one at a time: the paths give 11 x 257 rows per replicate, and
    the CSV text needs each row only while it joins it.
    """
    t_grid = [_fmt(t) for t in tables["t_grid"]]
    yield from ((name, t, _fmt(v), str(r)) for name in _CRITICAL_SERIES
                for r, path in enumerate(tables["series"][name])
                for t, v in zip(t_grid, path))
    scalars = ["slope_diag", "slope_target", "slope_cross"]
    if tables["mode"] == "complementary":
        yield from ((name, t, _fmt(v), "")
                    for name in ("drift_mean0", "drift_mean1",
                                 "drift_gap_mean", "drift_gap_se")
                    for t, v in zip(t_grid, tables[name]))
        scalars.append("increment_correlations")
    for name in scalars:
        yield from _by_replicate(name, tables[name])


# ----------------------------------------------------------------------
# asymptotic independence
# ----------------------------------------------------------------------

def _independence_contract(*, sizes, p, replicates, m_vertices, **_):
    _require_sizes(sizes, 1)
    _require_mean_field("independence", p)
    _require_integer("m_vertices", m_vertices)
    _need(2 <= m_vertices <= min(sizes), ParameterError, "m_vertices",
          "m_vertices must be >= 2 and <= every size")
    _require_replicates(replicates, 10)


def independence_experiment(*, sizes, p, q, kernel, transfer, horizon,
                            replicates, seed, m_vertices=2,
                            backend="thinning", dt=None, tolerances=None
                            ) -> ExperimentReport:
    """Terminal counts of a fixed vertex set: decorrelation and Poisson law.

    Collects the event counts of the first m_vertices vertices at the
    horizon across replicates for each size.  At the largest size the
    pairwise count correlations must be consistent with zero and the count
    histogram must pass a chi-square test against the Poisson law with mean
    int_0^T h(I) ds.

    Only the event counts are read, so each replicate records just the grid
    {0, T}; dt sets the grid of the mean-field solve behind the Poisson mean.
    """
    return _experiment("independence", _independence_tables, locals())


def _independence_reduce(m_vertices, res):
    return res.trains.counts()[:m_vertices].copy()


def _independence_tables(replicated, *, sizes, transfer, horizon, replicates,
                         m_vertices, mean_path, **_):
    mu = float(np.trapezoid(transfer(mean_path.values), mean_path.grid))
    runs = replicated(functools.partial(_independence_reduce, m_vertices),
                      sizes=sizes, dt=horizon, tracked_vertices=())
    counts = {str(n): np.array(rows) for n, rows in zip(sizes, runs)}

    largest = counts[str(sizes[-1])].astype(np.float64)
    pairs = [_corr(largest[:, a], largest[:, b]) for a in range(m_vertices)
             for b in range(a + 1, m_vertices)]
    pooled = largest.ravel()
    chi = _poisson_gof(pooled, mu)

    return {
        "sizes": sizes,
        "m_vertices": m_vertices,
        "replicates": replicates,
        "counts": counts,
        "pair_correlations": pairs,
        "mean_pair_correlation": float(np.mean(pairs)),
        "corr_se": 1.0 / math.sqrt(replicates * len(pairs)),
        "poisson": chi,
        "poisson_mean": mu,
    }


def _poisson_pmf(k, mu):
    """Poisson(mu) probabilities of the integers k.

    The expression scipy's poisson.pmf evaluates, so the values agree bit
    for bit, without loading scipy's statistics package.
    """
    from scipy.special import gammaln, xlogy

    return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


def _chisquare(observed, expected):
    """Pearson's statistic and its chi-square tail on len(observed) - 1 dof.

    The operations of scipy's chisquare on float64 arrays whose sums agree,
    so (statistic, pvalue) agree bit for bit, without loading scipy's
    statistics package.
    """
    from scipy.special import chdtrc

    stat = np.sum((observed - expected) ** 2 / expected)
    return float(stat), float(chdtrc(len(observed) - 1, stat))


def _poisson_gof(samples, mu):
    """Chi-square of integer samples against Poisson(mu), bins merged to >= 5."""
    samples = np.asarray(samples)
    total = len(samples)
    hi = int(max(samples.max(initial=0), mu) + 10 * math.sqrt(mu + 1.0)) + 1
    pmf = _poisson_pmf(np.arange(hi + 1), mu)
    pmf[-1] = max(1.0 - pmf[:-1].sum(), 0.0)  # fold the tail into the last bin
    observed = np.bincount(np.minimum(samples.astype(np.int64), hi),
                           minlength=hi + 1).astype(np.float64)
    expected = pmf * total
    # merge adjacent bins until every expected count reaches 5
    obs_b, exp_b = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_b.append(acc_o)
            exp_b.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and exp_b:
        obs_b[-1] += acc_o
        exp_b[-1] += acc_e
    if len(exp_b) < 2:
        return {"statistic": 0.0, "pvalue": 1.0, "bins": len(exp_b)}
    obs_arr = np.asarray(obs_b)
    exp_arr = np.asarray(exp_b) * (np.sum(obs_arr) / np.sum(exp_b))
    stat, pval = _chisquare(obs_arr, exp_arr)
    return {"statistic": stat, "pvalue": pval, "bins": len(exp_b)}


def independence_verdicts(tables, tolerances):
    z_band = tolerances["mean_zero_se"]
    mean_corr = tables["mean_pair_correlation"]
    se = tables["corr_se"]
    checks = [_within(
        "pairwise-count-correlation-zero", mean_corr, 0.0, z_band * se,
        detail=f"{len(tables['pair_correlations'])} pairs at the largest size",
    )]
    chi = tables["poisson"]
    checks.append(make_check(
        "counts-match-poisson-law",
        chi["pvalue"] >= tolerances["gof_alpha"], chi["pvalue"],
        f">= {tolerances['gof_alpha']}", tolerances["gof_alpha"],
        detail=f"chi-square {chi['statistic']:.3g} on {chi['bins']} bins, "
               f"mean {tables['poisson_mean']:.4g}",
    ))
    return checks


def _independence_plot_rows(tables):
    return [(f"count[n={n},vertex={j}]", "", _fmt(v), str(r))
            for n in tables["sizes"]
            for r, row in enumerate(tables["counts"][str(n)])
            for j, v in enumerate(row)]


# All that config and cli know of an experiment: config reads its size form
# and options from the signature of `run`; verdicts and plot_rows are pure
# functions of the stored tables; the contract runs before any compute, in
# the experiment and in config validation; scaling is the regime.
Experiment = namedtuple("Experiment",
                        "run verdicts contract plot_rows scaling")

_EXPERIMENTS = {
    "lln": Experiment(lln_experiment, lln_verdicts, _lln_contract,
                      _lln_plot_rows, "mean_field"),
    "clt": Experiment(clt_experiment, clt_verdicts, _clt_contract,
                      _clt_plot_rows, "mean_field"),
    "corollary": Experiment(corollary_experiment, corollary_verdicts,
                            _corollary_contract, _corollary_plot_rows,
                            "mean_field"),
    "critical": Experiment(critical_experiment, critical_verdicts,
                           _critical_contract, _critical_plot_rows,
                           "critical"),
    "independence": Experiment(independence_experiment,
                               independence_verdicts, _independence_contract,
                               _independence_plot_rows, "mean_field"),
}


def run_experiment(name: str, **kwargs) -> ExperimentReport:
    """Dispatch to the named experiment with keyword arguments."""
    try:
        fn = _EXPERIMENTS[name].run
    except KeyError:
        raise ParameterError(
            f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)
