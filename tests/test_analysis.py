"""Experiment drivers: guards, report round trips, verdict reproducibility."""

import functools
import inspect
import json
import math
import pickle

import numpy as np
import pytest
import scipy.stats as sps

from hawkes_meanfield import analysis, config
from hawkes_meanfield.analysis import (DEFAULT_TOLERANCES, ExperimentReport,
                                       _chisquare, _jackknife_scalar,
                                       _poisson_gof, _poisson_pmf,
                                       _reverdict, _sign_test_pvalue,
                                       clt_experiment, clt_verdicts,
                                       critical_experiment,
                                       independence_experiment,
                                       lln_experiment, make_check,
                                       report_from_dict, run_experiment)
from hawkes_meanfield.errors import (ConfigError, ContractError,
                                     DerivativeUnavailableError,
                                     ParameterError,
                                     UnsupportedTransferError,
                                     WrongRegimeError)
from hawkes_meanfield.kernels import (arctan_transfer, exponential_kernel,
                                      tabulated_transfer)

EXP = exponential_kernel(1.0)
ARCTAN = arctan_transfer()


def _tiny_lln(**kw):
    args = dict(sizes=[15, 60], p=0.8, q=0.5, kernel=EXP, transfer=ARCTAN,
                horizon=1.5, replicates=3, seed=101)
    args.update(kw)
    return lln_experiment(**args)


def _no_compute(*args, **kwargs):
    raise AssertionError("computed before the arguments were checked")


def test_parameter_guards(monkeypatch):
    for name in ("solve_mean_field", "sample_network",
                 "build_complementary_network"):
        monkeypatch.setattr(analysis, name, _no_compute)
    for key in ("thinning", "time_change"):
        monkeypatch.setitem(analysis._BACKENDS, key, _no_compute)
    with pytest.raises(ParameterError):
        _tiny_lln(sizes=[60, 15])
    # a repeated size would run its seeds twice under one table key
    for name, kwargs in (("lln", dict(replicates=3)),
                         ("corollary", dict(replicates=8)),
                         ("independence", dict(replicates=10))):
        with pytest.raises(ParameterError, match="strictly increasing"):
            run_experiment(name, sizes=[15, 15], p=0.8, q=0.5, kernel=EXP,
                           transfer=ARCTAN, horizon=1.0, seed=1, **kwargs)
    with pytest.raises(ParameterError):
        _tiny_lln(sizes=[15])
    with pytest.raises(ParameterError):
        _tiny_lln(replicates=2)
    with pytest.raises(ParameterError):
        _tiny_lln(backend="bogus")
    with pytest.raises(ParameterError):
        _tiny_lln(tolerances={"no_such_band": 1.0})
    with pytest.raises(ParameterError):
        run_experiment("nope")
    with pytest.raises(ParameterError):
        clt_experiment(n=30, p=0.8, q=0.5, kernel=EXP, transfer=ARCTAN,
                       horizon=1.0, replicates=4, limit_samples=64, seed=1)
    with pytest.raises(ParameterError):
        clt_experiment(n=30, p=0.8, q=0.5, kernel=EXP, transfer=ARCTAN,
                       horizon=1.0, replicates=8, limit_samples=64, seed=1,
                       n_tracked=1)
    with pytest.raises(ParameterError):
        independence_experiment(sizes=[24], p=0.8, q=0.5, kernel=EXP,
                                transfer=ARCTAN, horizon=1.0, replicates=10,
                                seed=1, m_vertices=40)
    with pytest.raises(ParameterError):
        independence_experiment(sizes=[24], p=0.8, q=0.5, kernel=EXP,
                                transfer=ARCTAN, horizon=1.0, replicates=9,
                                seed=1, m_vertices=3)
    with pytest.raises(ParameterError):
        clt_experiment(n=2, p=0.8, q=0.5, kernel=EXP, transfer=ARCTAN,
                       horizon=1.0, replicates=8, limit_samples=64, seed=1,
                       n_tracked=3)
    for n, complementary in ((1, False), (3, True)):
        with pytest.raises(ParameterError):
            critical_experiment(n=n, kernel=EXP, transfer=ARCTAN, horizon=1.0,
                                replicates=5, seed=1,
                                complementary=complementary)
    # a network seed fixes the one complementary network; random mode has none
    with pytest.raises(ParameterError, match="net_seed"):
        critical_experiment(n=16, kernel=EXP, transfer=ARCTAN, horizon=1.0,
                            replicates=5, seed=1, net_seed=3)
    # a size is an integer: no float (even an integral one) and no bool
    for name, kwargs in (("lln", dict(replicates=3)),
                         ("corollary", dict(replicates=8)),
                         ("independence", dict(replicates=10))):
        for sizes in ([15.5, 60], [15, 60.0], [True, 60]):
            with pytest.raises(ParameterError, match="not an integer") as info:
                run_experiment(name, sizes=sizes, p=0.8, q=0.5, kernel=EXP,
                               transfer=ARCTAN, horizon=1.0, seed=1, **kwargs)
            assert info.value.keyword == "sizes"
    for n in (24.5, 24.0, True):
        with pytest.raises(ParameterError, match="not an integer") as info:
            clt_experiment(n=n, p=0.8, q=0.5, kernel=EXP, transfer=ARCTAN,
                           horizon=1.0, replicates=8, limit_samples=64,
                           seed=1)
        assert info.value.keyword == "n"
    for n, complementary in ((16.0, False), (16.5, True), (True, False)):
        with pytest.raises(ParameterError, match="not an integer") as info:
            critical_experiment(n=n, kernel=EXP, transfer=ARCTAN, horizon=1.0,
                                replicates=5, seed=1,
                                complementary=complementary)
        assert info.value.keyword == "n"



@pytest.mark.parametrize("kwargs, keyword", [
    (dict(tolerances={"ratio_band": 3}), "ratio_band"),
    (dict(tolerances={"ratio_band": [8.0, 2.0]}), "ratio_band"),
    (dict(tolerances={"ratio_band": [1.0, math.inf]}), "ratio_band"),
    (dict(tolerances={"slope_rel": "0.1"}), "slope_rel"),
    (dict(tolerances={"gof_alpha": math.nan}), "gof_alpha"),
    (dict(tolerances={"bound_slack": -1e-9}), "bound_slack"),
    (dict(tolerances={"no_such_band": 1.0}), "no_such_band"),
    (dict(p="x"), None),
    (dict(q=None), None),
], ids=["band-not-a-pair", "band-reversed", "band-infinite",
        "tolerance-a-string", "tolerance-nan", "tolerance-negative",
        "tolerance-unknown", "p-a-string", "q-none"])
def test_lln_arguments_are_refused_before_any_compute(monkeypatch, kwargs,
                                                      keyword):
    for name in ("solve_mean_field", "sample_network"):
        monkeypatch.setattr(analysis, name, _no_compute)
    with pytest.raises(ParameterError) as info:
        _tiny_lln(**kwargs)
    assert getattr(info.value, "keyword", None) == keyword


@pytest.mark.parametrize("name, kwargs", [
    ("lln", dict(seed=-1)),
    ("lln", dict(seed=1.5)),
    ("lln", dict(seed=True)),
    ("critical", dict(complementary=True, net_seed=-1)),
    ("critical", dict(complementary=True, net_seed=2.5)),
], ids=["lln-negative", "lln-fractional", "lln-bool",
        "complementary-net-seed-negative", "complementary-net-seed-float"])
def test_seeds_are_refused_before_any_compute(monkeypatch, name, kwargs):
    for module_name in ("solve_mean_field", "sample_network",
                        "build_complementary_network"):
        monkeypatch.setattr(analysis, module_name, _no_compute)
    args = dict(kernel=EXP, transfer=ARCTAN, horizon=1.0, seed=1)
    if name == "lln":
        args.update(sizes=[15, 60], p=0.8, q=0.5, replicates=3)
    else:
        args.update(n=16, replicates=5)
    args.update(kwargs)
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        run_experiment(name, **args)


_TOY = {
    "lln": dict(sizes=[15, 60], p=0.8, q=0.5, replicates=3),
    "clt": dict(n=24, p=0.8, q=0.5, replicates=8, limit_samples=64),
    "critical": dict(n=16, replicates=5),
    "independence": dict(sizes=[24], p=0.8, q=0.5, replicates=10),
}


@pytest.mark.parametrize("name, keyword, value", [
    ("lln", "replicates", 3.5),
    ("lln", "replicates", True),
    ("clt", "n_tracked", 2.5),
    ("clt", "limit_samples", 64.5),
    ("clt", "limit_samples", "64"),
    ("independence", "m_vertices", 2.5),
    ("critical", "complementary", "no"),
    ("critical", "complementary", 1),
], ids=["lln-replicates-float", "lln-replicates-bool", "clt-n-tracked-float",
        "clt-limit-samples-float", "clt-limit-samples-string",
        "independence-m-vertices-float", "complementary-a-string",
        "complementary-an-int"])
def test_counts_and_switches_are_typed_before_any_compute(monkeypatch, name,
                                                          keyword, value):
    for module_name in ("solve_mean_field", "sample_network",
                        "build_complementary_network"):
        monkeypatch.setattr(analysis, module_name, _no_compute)
    for key in ("thinning", "time_change"):
        monkeypatch.setitem(analysis._BACKENDS, key, _no_compute)
    with pytest.raises(ParameterError) as info:
        run_experiment(name, kernel=EXP, transfer=ARCTAN, horizon=1.0, seed=1,
                       **dict(_TOY[name], **{keyword: value}))
    assert info.value.keyword == keyword


def test_tolerances_are_recorded_as_floats():
    # a (low, high) tuple is a band too
    assert analysis._tol({"ratio_band": (1, 9)})["ratio_band"] == [1.0, 9.0]
    tol = analysis._tol({"drift_gap_se": 3, "ratio_band": [2, 8]})
    assert tol == dict(DEFAULT_TOLERANCES, drift_gap_se=3.0,
                       ratio_band=[2.0, 8.0])
    assert isinstance(tol["drift_gap_se"], float)
    assert all(isinstance(v, float) for v in tol["ratio_band"])


def test_regime_guards():
    with pytest.raises(WrongRegimeError):
        _tiny_lln(p=0.5)
    for name, kwargs in (
            ("clt", dict(n=24, replicates=8, limit_samples=64)),
            ("corollary", dict(sizes=[15, 30], replicates=8)),
            ("independence", dict(sizes=[24], replicates=10))):
        with pytest.raises(WrongRegimeError):
            run_experiment(name, p=0.5, q=0.5, kernel=EXP, transfer=ARCTAN,
                           horizon=1.0, seed=1, **kwargs)
    with pytest.raises(WrongRegimeError):
        critical_experiment(n=16, q=0.6, kernel=EXP, transfer=ARCTAN,
                            horizon=1.0, replicates=5, seed=1,
                            complementary=True)
    with pytest.raises(WrongRegimeError):
        critical_experiment(n=16, q=1.0, kernel=EXP, transfer=ARCTAN,
                            horizon=1.0, replicates=5, seed=1)


def test_clt_refuses_a_transfer_without_derivative_before_simulating(
        monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a replicate was simulated")

    for key in ("thinning", "time_change"):
        monkeypatch.setitem(analysis._BACKENDS, key, no_simulation)
    nodes = np.linspace(-5.0, 5.0, 11)
    plain = tabulated_transfer(nodes, 1.0 + 0.1 * np.tanh(nodes))
    for backend in ("thinning", "time_change"):
        with pytest.raises(DerivativeUnavailableError):
            clt_experiment(n=30, p=0.8, q=0.5, kernel=EXP, transfer=plain,
                           horizon=1.0, replicates=8, limit_samples=64,
                           seed=1, backend=backend)


def test_unknown_backend_is_refused_before_any_compute(monkeypatch):
    for name in ("solve_mean_field", "sample_network",
                 "build_complementary_network"):
        monkeypatch.setattr(analysis, name, _no_compute)
    calls = [
        ("lln", dict(sizes=[15, 60], p=0.8, q=0.5, replicates=3)),
        ("clt", dict(n=24, p=0.8, q=0.5, replicates=8, limit_samples=64)),
        ("corollary", dict(sizes=[15, 30], p=0.8, q=0.5, replicates=8)),
        ("critical", dict(n=16, replicates=6)),
        ("critical", dict(n=16, replicates=6, complementary=True)),
        ("independence", dict(sizes=[24], p=0.8, q=0.5, replicates=10,
                              m_vertices=3)),
    ]
    for name, kwargs in calls:
        with pytest.raises(ParameterError, match="backend"):
            run_experiment(name, kernel=EXP, transfer=ARCTAN, horizon=1.0,
                           seed=1, backend="bogus", **kwargs)


def test_clt_and_independence_simulate_on_zero_and_horizon(monkeypatch):
    # they read the terminal input or the counts; the others read paths.
    # Each replicate records only what its reduce reads: tracked rows for
    # clt and corollary (vertex 0's terminal input), the input range, and
    # the martingale projection for corollary and critical; no experiment
    # records the full input.  Each report's params are its call's
    # arguments, on every host
    grids = []
    recorded = []
    for key, simulate in dict(analysis._BACKENDS).items():
        def spy(net, kernel, transfer, cfg, simulate=simulate):
            res = simulate(net, kernel, transfer, cfg)
            grids.append(res.grid)
            recorded.append((len(res.tracked_input),
                             {"range": res.input_range is not None,
                              "full": res.full_input is not None,
                              "martingale": res.martingale_vertices}))
            return res
        monkeypatch.setitem(analysis._BACKENDS, key, spy)
    range_only = {"range": True, "full": False, "martingale": None}
    population = dict(range_only, martingale=())
    pair = dict(range_only, martingale=(0, 1))
    calls = [
        ("lln", dict(sizes=[15, 60], p=0.8, q=0.5, replicates=3), 2049,
         (0, range_only)),
        ("clt", dict(n=24, p=0.8, q=0.5, replicates=8, limit_samples=64), 2,
         (2, range_only)),
        ("corollary", dict(sizes=[15, 30], p=0.8, q=0.5, replicates=8), 2049,
         (1, population)),
        ("critical", dict(n=20, replicates=5), 2049, (0, pair)),
        ("critical", dict(n=16, replicates=6, complementary=True), 2049,
         (0, pair)),
        ("independence", dict(sizes=[24], p=0.8, q=0.5, replicates=10,
                              m_vertices=3), 2, (0, range_only)),
    ]
    for name, kwargs, points, asked in calls:
        grids.clear()
        recorded.clear()
        rep = run_experiment(name, kernel=EXP, transfer=ARCTAN, horizon=1.0,
                             seed=1, **kwargs)
        assert grids and {len(g) for g in grids} == {points}, name
        assert all(g[-1] == 1.0 for g in grids), name
        assert rep.params["dt"] is None, name
        assert recorded == [asked] * len(grids), name
        signature = inspect.signature(analysis._EXPERIMENTS[name].run)
        want = set(signature.parameters) - {"tolerances", "net_seed"}
        assert set(rep.params) == want | {"p"}, name
        assert rep.params["kernel"] == "exponential", name
        assert rep.params["transfer"] == "arctan", name
        if name == "critical":
            assert rep.params["p"] == 0.5


def test_every_replicate_unit_pickles(monkeypatch):
    # the unit a process pool would ship: one replicate with its reduce
    units = []
    replicate = analysis._replicate

    def spy(run, reduce, index, **common):
        out = replicate(run, reduce, index, **common)
        if index == 0:
            units.append((functools.partial(replicate, run, reduce, **common),
                          out))
        return out

    monkeypatch.setattr(analysis, "_replicate", spy)
    calls = [
        ("lln", dict(sizes=[15, 30], p=0.8, q=0.5, replicates=3)),
        ("clt", dict(n=24, p=0.8, q=0.5, replicates=8, limit_samples=64)),
        ("corollary", dict(sizes=[15, 30], p=0.8, q=0.5, replicates=8)),
        ("critical", dict(n=20, replicates=5)),
        ("critical", dict(n=16, replicates=5, complementary=True)),
        ("independence", dict(sizes=[24], p=0.8, q=0.5, replicates=10,
                              m_vertices=3)),
    ]
    for name, kwargs in calls:
        run_experiment(name, kernel=EXP, transfer=ARCTAN, horizon=1.0,
                       seed=3, **kwargs)
    monkeypatch.undo()
    assert len(units) == len(calls)
    for unit, out in units:
        np.testing.assert_equal(pickle.loads(pickle.dumps(unit))(0), out)


def test_linearization_needs_curvature_bound():
    nodes = np.linspace(-5.0, 5.0, 201)
    smooth = tabulated_transfer(nodes, 1.0 + 0.1 * np.tanh(nodes),
                                deriv_values=0.1 / np.cosh(nodes) ** 2)
    assert smooth.second_deriv_sup is None
    with pytest.raises(UnsupportedTransferError):
        run_experiment("corollary", sizes=[15, 30], p=0.8, q=0.5, kernel=EXP,
                       transfer=smooth, horizon=1.0, replicates=8, seed=1)


def test_lln_report_shape_and_determinism():
    rep = _tiny_lln()
    assert rep.experiment == "lln"
    assert set(rep.tables) == {"sizes", "sup_errors", "medians",
                               "events_mean", "replicates"}
    assert [c["name"] for c in rep.checks] == [
        "median-sup-error-decreasing", "sup-error-ratio-in-band"]
    assert len(rep.tables["sup_errors"]["15"]) == 3
    again = _tiny_lln()
    assert rep.to_dict() == again.to_dict()
    other_seed = _tiny_lln(seed=102)
    assert other_seed.tables["sup_errors"] != rep.tables["sup_errors"]


def test_reports_survive_json_and_reverdict():
    # checks must be a pure function of (tables, tolerances): serialize,
    # reload, re-judge, and compare field for field
    reports = [
        _tiny_lln(),
        clt_experiment(n=24, p=0.8, q=0.5, kernel=EXP, transfer=ARCTAN,
                       horizon=1.0, replicates=8, limit_samples=64, seed=5),
        critical_experiment(n=16, kernel=EXP, transfer=ARCTAN, horizon=2.0,
                            replicates=6, seed=7, complementary=True),
        critical_experiment(n=20, kernel=EXP, transfer=ARCTAN, horizon=2.0,
                            replicates=5, seed=7),
        independence_experiment(sizes=[24], p=0.8, q=0.5, kernel=EXP,
                                transfer=ARCTAN, horizon=1.0, replicates=10,
                                seed=9, m_vertices=3),
    ]
    for rep in reports:
        text = json.dumps(rep.to_dict(), sort_keys=True)
        back = report_from_dict(json.loads(text))
        assert back.checks == rep.checks, rep.experiment
        assert _reverdict(back) == rep.checks, rep.experiment


def test_each_experiment_is_judged_by_its_named_verdicts():
    # bench/run.py re-judges reports through analysis.<name>_verdicts
    for name, entry in analysis._EXPERIMENTS.items():
        assert entry.verdicts is getattr(analysis, f"{name}_verdicts"), name


def test_config_names_come_from_the_analysis_tables():
    # the order is part of the config error messages
    assert config.EXPERIMENTS == tuple(analysis._EXPERIMENTS) == (
        "lln", "clt", "corollary", "critical", "independence")
    assert config.BACKENDS == tuple(analysis._BACKENDS) == (
        "thinning", "time_change")


def test_option_defaults_are_the_experiment_defaults():
    # a config and a library call that both omit an option must run alike
    minimal = {
        "lln": ({"n": [15, 60]}, 3, set()),
        "clt": ({"n": 25}, 8, {"n_tracked", "limit_samples"}),
        "corollary": ({"n": [15, 30]}, 8, set()),
        "critical": ({"n": 20, "p": 0.5}, 5, {"complementary"}),
        "independence": ({"n": [24]}, 10, {"m_vertices"}),
    }
    assert set(minimal) == set(analysis._EXPERIMENTS)
    for name, (model, replicates, options) in minimal.items():
        cfg = config.validate_config({
            "experiment": name,
            "model": dict(model, p=model.get("p", 0.8), q=0.5,
                          kernel={"exponential": {"rate": 1.0}},
                          transfer={"arctan": {}}),
            "run": {"horizon": 1.0, "replicates": replicates, "seed": 1},
        })
        params = inspect.signature(analysis._EXPERIMENTS[name].run).parameters
        assert set(cfg.options) == options, name
        for key, value in cfg.options.items():
            assert value == params[key].default, f"{name}.{key}"
            assert type(value) is type(params[key].default), f"{name}.{key}"


def test_run_experiment_dispatch_matches_direct_call():
    direct = _tiny_lln()
    routed = run_experiment("lln", sizes=[15, 60], p=0.8, q=0.5, kernel=EXP,
                            transfer=ARCTAN, horizon=1.5, replicates=3,
                            seed=101)
    assert routed.to_dict() == direct.to_dict()


def test_tolerance_overrides_are_recorded():
    rep = _tiny_lln(tolerances={"ratio_band": [1.0, 50.0]})
    assert rep.tolerances["ratio_band"] == [1.0, 50.0]
    assert rep.tolerances["mean_zero_se"] == DEFAULT_TOLERANCES["mean_zero_se"]
    assert rep.checks[1]["target"] == [1.0, 50.0]


def test_complementary_tables_carry_exact_structure():
    rep = critical_experiment(n=16, kernel=EXP, transfer=ARCTAN, horizon=2.0,
                              replicates=6, seed=7, complementary=True)
    t = rep.tables
    assert t["mode"] == "complementary"
    # disjoint half supports make the centered cross product constant
    assert all(c == -0.25 for c in t["cross_coefficient"])
    # n/2 = 8 is even, so the signs on the fixed graph balance exactly
    assert t["sign_residual"] == 0
    assert len(t["drift_gap_mean"]) == len(t["t_grid"])
    assert len(t["increment_correlations"]) == 6
    names = [c["name"] for c in rep.checks]
    assert names == ["complementary-increments-negatively-correlated",
                     "complementary-drifts-separate",
                     "complementary-cross-coefficient-exact",
                     "sign-residual-within-parity"]
    assert rep.checks[2]["passed"]
    assert rep.checks[3]["passed"]


def test_random_mode_reports_slope_checks():
    rep = critical_experiment(n=20, kernel=EXP, transfer=ARCTAN, horizon=2.0,
                              replicates=5, seed=7)
    assert rep.tables["mode"] == "random"
    assert [c["name"] for c in rep.checks] == [
        "bracket-slope-matches-qq-hbar", "cross-bracket-mean-zero"]
    assert len(rep.tables["slope_diag"]) == 5


def test_to_dict_hands_over_the_stored_plain_data(monkeypatch):
    # _experiment, make_check and report_from_dict store plain data already
    rep = _tiny_lln()
    calls = []
    pure = analysis._pure

    def counting(obj):
        calls.append(obj)
        return pure(obj)

    monkeypatch.setattr(analysis, "_pure", counting)
    data = rep.to_dict()
    assert calls == []
    assert json.loads(json.dumps(data)) == data
    assert report_from_dict(data).to_dict() == data


def test_report_helpers():
    checks = [make_check("alpha", True, np.float64(1.5), 0.0, np.int64(2)),
              make_check("beta", False, {"z": np.float64(9.0)}, "small", 0.1)]
    rep = ExperimentReport("demo", {"n": 4}, {}, {"x": [1.0]}, checks)
    assert not rep.all_passed
    lines = rep.summary_lines()
    assert lines[0].startswith("[PASS] demo: alpha")
    assert lines[1].startswith("[FAIL] demo: beta")
    # numpy scalars were stripped on construction, so json just works
    json.dumps(rep.to_dict())
    assert isinstance(checks[0]["observed"], float)
    assert isinstance(checks[0]["tolerance"], int)


@pytest.mark.parametrize("section", ["params", "tolerances", "tables"])
def test_report_sections_must_be_objects(section):
    data = {"experiment": "lln", "params": {}, "tolerances": {}, "tables": {},
            section: []}
    with pytest.raises(ConfigError) as err:
        report_from_dict(data)
    assert str(err.value) == f"report.{section}: expected an object"


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_clt_structure_check_is_degenerate_at_q_zero_and_one(q):
    # every edge absent or every edge present: no vertex pair differs, so
    # the diagonal gap is not judged, whatever its value
    side = {"mean": [0.0] * 3, "se_mean": [1.0] * 3,
            "cov": [[1.0] * 3] * 3, "cov_se": [[1.0] * 3] * 3}
    tables = {"finite": side, "limit": side,
              "diag_gap": {"value": -5.0, "se": 0.1}, "q": q}
    checks = clt_verdicts(tables, DEFAULT_TOLERANCES)
    assert checks[-1] == make_check(
        "cov-diagonal-exceeds-offdiagonal", True, -5.0,
        "degenerate (q in {0, 1})", None,
        detail="structure check only applies for 0 < q < 1")


def test_poisson_gof_behaviour():
    rng = np.random.default_rng(2024)
    good = _poisson_gof(rng.poisson(4.0, size=2000), 4.0)
    assert good["pvalue"] > 0.01
    assert good["bins"] >= 5
    shifted = _poisson_gof(rng.poisson(4.0, size=2000) + 3, 4.0)
    assert shifted["pvalue"] < 1e-6
    degenerate = _poisson_gof(np.zeros(50, dtype=int), 0.01)
    assert degenerate["pvalue"] == 1.0


# The verdict tails come from scipy.special; scipy.stats, which the test
# process loads anyway, is their oracle, and they must match it bit for bit.

def test_sign_test_tail_is_scipy_binomtest():
    # every table up to n = 64, and n = 200, the shipped critical replicates
    cases = [(k, n) for n in (*range(1, 65), 200) for k in range(n + 1)]
    for k, n in cases:
        want = sps.binomtest(k, n, 0.5, alternative="greater").pvalue
        assert _sign_test_pvalue(k, n).hex() == float(want).hex(), (k, n)


def test_poisson_pmf_is_scipy_poisson_pmf():
    means = [0.0, 1e-3, 0.01, 0.5, 1.0, 2.0, 4.0, 9.7, 25.0, 100.0, 733.3]
    means += np.random.default_rng(15).uniform(0.0, 60.0, 200).tolist()
    for mu in means:
        hi = int(mu + 10 * math.sqrt(mu + 1.0)) + 1
        k = np.arange(hi + 1)
        want = sps.poisson.pmf(k, mu)
        assert _poisson_pmf(k, mu).tobytes() == want.tobytes(), mu


def test_chisquare_is_scipy_chisquare():
    rng = np.random.default_rng(15)
    for _ in range(2000):
        bins = int(rng.integers(2, 30))
        observed = rng.integers(0, 60, bins).astype(np.float64)
        observed[0] += 1.0
        expected = rng.uniform(0.5, 30.0, bins)
        expected *= np.sum(observed) / np.sum(expected)
        stat, pval = sps.chisquare(observed, expected)
        got = _chisquare(observed, expected)
        assert [x.hex() for x in got] == [float(stat).hex(),
                                          float(pval).hex()], observed


def test_jackknife_scalar_mean_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=25)
    full, se, loo = _jackknife_scalar(x, np.mean)
    assert math.isclose(full, x.mean(), rel_tol=1e-12)
    # for the mean the jackknife error collapses to the usual SE
    assert math.isclose(se, x.std(ddof=1) / math.sqrt(25), rel_tol=1e-10)
    assert loo.shape == (25,)
    with pytest.raises(ContractError):
        _jackknife_scalar(x[:2], np.mean)
