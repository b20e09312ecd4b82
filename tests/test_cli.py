"""Config validation and the command line front end."""

import json
import subprocess
from pathlib import Path

import pytest

from hawkes_meanfield import analysis, cli
from hawkes_meanfield.cli import main
from hawkes_meanfield.config import (experiment_kwargs, load_config,
                                     validate_config)
from hawkes_meanfield.errors import ConfigError, ParameterError
from hawkes_meanfield.network import sample_network
from hawkes_meanfield.rng import OUTPUT_REVISION, replicate_seed
from hawkes_meanfield.simulator import (SimulationConfig, format_spike_trains,
                                        simulate_thinning)


def _doc(**over):
    doc = {
        "model": {
            "n": 25,
            "p": 0.8,
            "q": 0.5,
            "kernel": {"exponential": {"rate": 1.0}},
            "transfer": {"arctan": {}},
        },
        "run": {"horizon": 2.0, "replicates": 2, "seed": 404},
    }
    for key, value in over.items():
        doc[key] = value
    return doc


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_FIXED_POINT_DOCS = {
    **{path.name: path for path in sorted(CONFIGS.glob("*.json"))},
    "critical": _doc(experiment="critical",
                     model=dict(_doc()["model"], n=20, p=0.5),
                     run=dict(_doc()["run"], replicates=5)),
    "independence": _doc(experiment="independence",
                         run=dict(_doc()["run"], replicates=10),
                         options={"m_vertices": 3}),
}


@pytest.mark.parametrize("name", _FIXED_POINT_DOCS)
def test_resolved_config_is_a_fixed_point(name):
    doc = _FIXED_POINT_DOCS[name]
    cfg = validate_config(load_config(doc) if isinstance(doc, Path) else doc)
    again = validate_config(cfg.resolved())
    assert again == cfg
    # and it survives a JSON round trip untouched
    assert validate_config(json.loads(json.dumps(cfg.resolved()))) == cfg


def test_single_size_promoted_for_multi_size_experiments():
    cfg = validate_config(_doc(experiment="independence",
                               run=dict(_doc()["run"], replicates=10)))
    assert cfg.n == [25]


@pytest.mark.parametrize("mangle, path", [
    (lambda d: d.pop("model"), "model"),
    (lambda d: d["model"].pop("q"), "model.q"),
    (lambda d: d["model"].update(kernel={"exponential": {"lambda": 1.0}}),
     "model.kernel.exponential.lambda"),
    (lambda d: d["model"].update(kernel={"gamma": {}}), "model.kernel.gamma"),
    (lambda d: d["model"].update(kernel={"exponential": {"rate": 0.0}}),
     "model.kernel.exponential"),
    (lambda d: d["model"].update(transfer={"arctan": {"scale": 2.0}}),
     "model.transfer.arctan.scale"),
    (lambda d: d.update(experiment="landau"), "experiment"),
    (lambda d: d["model"].update(p=1.5), "model.p"),
    (lambda d: d["run"].update(replicates=0), "run.replicates"),
    (lambda d: d["run"].update(dt=5.0), "run.dt"),
    (lambda d: d["run"].update(tracked_vertices=[30]),
     "run.tracked_vertices[0]"),
    (lambda d: d.update(tolerances={"bogus": 1.0}), "tolerances.bogus"),
    (lambda d: d.update(tolerances={"ratio_band": [3.0, 2.0]}),
     "tolerances.ratio_band"),
    (lambda d: d.update(modle=d["model"]), "modle"),
])
def test_errors_carry_dotted_field_paths(mangle, path):
    doc = _doc()
    mangle(doc)
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert str(err.value).startswith(path + ":")


def test_regime_consistency_rules():
    with pytest.raises(ConfigError, match="model.p"):
        validate_config(_doc(experiment="critical"))
    with pytest.raises(ConfigError, match="model.p"):
        validate_config(_doc(experiment="lln",
                             model=dict(_doc()["model"], n=[15, 60], p=0.5),
                             run=dict(_doc()["run"], replicates=3)))
    with pytest.raises(ConfigError, match="model.scaling"):
        validate_config(_doc(model=dict(_doc()["model"], scaling="critical")))
    with pytest.raises(ConfigError, match="model.n"):
        validate_config(_doc(experiment="clt",
                             model=dict(_doc()["model"], n=[25, 50])))
    with pytest.raises(ConfigError, match="takes no options"):
        validate_config(_doc(experiment="lln", options={"m_vertices": 3}))
    crit = validate_config(_doc(
        experiment="critical",
        model=dict(_doc()["model"], n=26, p=0.5, scaling="critical"),
        run=dict(_doc()["run"], replicates=5),
        options={"complementary": True},
    ))
    assert crit.scaling == "critical"
    assert crit.options == {"complementary": True}


def _refused(experiment=None, model=None, run=None, options=None):
    doc = _doc(model=dict(_doc()["model"], **(model or {})),
               run=dict(_doc()["run"], **(run or {})))
    if experiment is not None:
        doc["experiment"] = experiment
    if options is not None:
        doc["options"] = options
    return doc


@pytest.mark.parametrize("doc, message", [
    (_refused("critical", run={"replicates": 5}),
     "model.p: the critical experiment requires p = 0.5"),
    (_refused("critical", model={"p": 0.5, "scaling": "mean_field"},
              run={"replicates": 5}),
     "model.scaling: experiment 'critical' requires scaling = 'critical'"),
    (_refused("lln", model={"n": [15, 60], "scaling": "critical"},
              run={"replicates": 3}),
     "model.scaling: experiment 'lln' requires scaling = 'mean_field'"),
    (_refused(model={"scaling": "critical"}),
     "model.scaling: critical scaling requires p = 0.5"),
    (_refused("clt", model={"n": [25, 50]}, run={"replicates": 8}),
     "model.n: experiment 'clt' takes a single size"),
    (_refused("lln", model={"n": [15, 60]}, run={"replicates": 3,
                                                  "net_seed": 9}),
     "run.net_seed: experiment 'lln' draws a fresh network per replicate"),
    (_refused("lln", model={"n": [15, 60]}, run={"replicates": 3},
              options={"m_vertices": 3}),
     "options.m_vertices: experiment 'lln' takes no options"),
    (_refused(options={"m_vertices": 3}),
     "options.m_vertices: a plain run takes no options"),
    (_refused("clt", run={"replicates": 8}, options={"n_trackd": 3}),
     "options.n_trackd: unknown key (allowed: limit_samples, n_tracked)"),
    (_refused("critical", model={"n": 16, "p": 0.5}, run={"replicates": 5},
              options={"complementary": 1}),
     "options.complementary: expected true or false"),
    (_refused("clt", run={"replicates": 8}, options={"limit_samples": 64}),
     "options.limit_samples: must be >= 100"),
    (_refused("independence", run={"replicates": 10},
              options={"m_vertices": 2.5}),
     "options.m_vertices: expected an integer, got float"),
    # kernel and transfer values are refused by their constructors
    (_refused(model={"kernel": {"exponential": {"rate": 0}}}),
     "model.kernel.exponential: exponential kernel needs rate > 0, got 0.0"),
    (_refused(model={"transfer": {"constant": {"value": -1.0}}}),
     "model.transfer.constant: constant transfer needs value >= 0, "
     "got -1.0"),
    (_refused(model={"kernel": {"tabulated": {"nodes": [0.0, 1.0, 2.0],
                                              "values": [1.0, 0.0]}}}),
     "model.kernel.tabulated: need matching 1-d nodes/values with >= 2 "
     "points"),
    # the readers' own refusals, before any constructor or contract
    ({"model": _doc()["model"]}, "run: required"),
    (_refused() | {"run": {"horizon": 2.0}}, "run.seed: required"),
    (_refused(run={"horizon": 0.0}), "run.horizon: must be > 0"),
    (_refused(run={"tracked_vertices": 0}),
     "run.tracked_vertices: expected an array of vertex indices"),
    (_refused(run={"tracked_vertices": [1, 1]}),
     "run.tracked_vertices: indices must be distinct"),
    (_refused() | {"output": {}}, "output.directory: required"),
    (_refused() | {"output": {"directory": 7}},
     "output.directory: expected a string"),
    (_refused("lln", model={"n": [60, 15]}, run={"replicates": 3}),
     "model.n: sizes must be strictly increasing"),
    (_refused() | {"run": [2.0]}, "run: expected an object, got list"),
    (_refused(model={"q": "half"}), "model.q: expected a number, got str"),
    (_refused(run={"horizon": float("inf")}), "run.horizon: must be finite"),
    (_refused(model={"p": -0.5}), "model.p: must be >= 0.0"),
    (_refused(model={"kernel": {"tabulated": {"nodes": [],
                                              "values": [1.0]}}}),
     "model.kernel.tabulated.nodes: expected a non-empty array of numbers"),
    (_refused(model={"kernel": {"exponential": {"rate": 1.0},
                                "tabulated": {}}}),
     "model.kernel: expected exactly one of: exponential, tabulated"),
    (_refused(model={"kernel": {"exponential": {}}}),
     "model.kernel.exponential.rate: required"),
], ids=["critical-p", "critical-scaling", "lln-scaling", "plain-critical-p",
        "clt-sizes", "lln-net-seed", "lln-options", "plain-options",
        "clt-unknown-option", "complementary-not-bool", "limit-samples-floor",
        "m-vertices-not-int", "kernel-rate-zero", "constant-negative",
        "table-lengths-differ", "run-missing", "run-key-missing",
        "horizon-zero", "tracked-not-list", "tracked-repeated",
        "directory-missing", "directory-not-string", "sizes-decreasing",
        "section-not-object", "not-a-number", "not-finite", "below-floor",
        "empty-number-list", "two-kernel-kinds", "kernel-parameter-missing"])
def test_config_refusals_keep_their_text(doc, message):
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert str(err.value) == message


def test_manifest_files_load_as_configs(tmp_path):
    cfg = validate_config(_doc())
    manifest = {"tool": {"name": "x"}, "resolved_config": cfg.resolved()}
    path = _write(tmp_path, manifest, "manifest.json")
    assert validate_config(load_config(path)) == cfg


def test_replay_of_another_revision_says_so_and_writes_the_same(tmp_path,
                                                                 capsys):
    assert main(["meanfield", "--config", _write(tmp_path, _doc()),
                 "--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["tool"]["revision"] == OUTPUT_REVISION
    capsys.readouterr()
    # the manifest's own revision replays quietly; an older one, or none
    # (revision 0), prints one line naming both revisions
    older = dict(manifest, tool=dict(manifest["tool"],
                                     revision=OUTPUT_REVISION - 1))
    unnumbered = dict(manifest, tool={"name": "x"})
    for name, doc, written in (("same", manifest, OUTPUT_REVISION),
                               ("older", older, OUTPUT_REVISION - 1),
                               ("none", unnumbered, 0)):
        path = _write(tmp_path, doc, f"{name}.json")
        assert main(["meanfield", "--config", path,
                     "--out", str(tmp_path / name)]) == 0
        err = capsys.readouterr().err
        if written == OUTPUT_REVISION:
            assert err == ""
        else:
            assert err == (f"note: {path} was written at output revision "
                           f"{written}, this is revision {OUTPUT_REVISION}: "
                           f"its outputs may differ in their last bits\n")
        assert (tmp_path / name / "I.csv").read_bytes() == \
            (tmp_path / "a" / "I.csv").read_bytes()
        replayed = json.loads((tmp_path / name / "manifest.json").read_text())
        assert replayed["tool"] == manifest["tool"]


def test_builders_and_kwargs():
    cfg = validate_config(_doc())
    assert cfg.build_kernel().rate == 1.0
    assert cfg.build_transfer()(0.0) == 1.0
    clt = validate_config(_doc(experiment="clt",
                               run=dict(_doc()["run"], replicates=8),
                               options={"limit_samples": 500}))
    kw = experiment_kwargs(clt)
    assert kw["n"] == 25 and kw["n_tracked"] == 2
    assert kw["limit_samples"] == 500
    crit = validate_config(_doc(
        experiment="critical",
        model=dict(_doc()["model"], n=26, p=0.5, scaling="critical"),
        run=dict(_doc()["run"], replicates=5, net_seed=7),
        options={"complementary": True},
    ))
    kw = experiment_kwargs(crit)
    assert kw["net_seed"] == 7 and kw["complementary"] is True
    assert "p" not in kw
    with pytest.raises(ConfigError, match="experiment"):
        experiment_kwargs(validate_config(_doc()))


def test_constant_and_tabulated_specs():
    doc = _doc(model=dict(
        _doc()["model"],
        kernel={"tabulated": {"nodes": [0.0, 1.0, 2.0],
                              "values": [1.0, 0.5, 0.0]}},
        transfer={"constant": {"value": 1.5}},
    ))
    cfg = validate_config(doc)
    k = cfg.build_kernel()
    assert not k.is_exponential
    assert k(0.5) == 0.75
    assert cfg.build_transfer()(3.0) == 1.5


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def test_simulate_replays_byte_identically(tmp_path):
    cfg = _write(tmp_path, _doc())
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "b")]) == 0
    for r in range(2):
        name = f"events_r{r:03d}.csv"
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes()
        head = first.decode().splitlines()[:2]
        assert head == ["# schema: events v1", "t,vertex"]
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seeds"]["master"] == 404
    assert len(manifest["seeds"]["replicates"]) == 2
    # replicates see different event noise
    assert (tmp_path / "a" / "events_r000.csv").read_bytes() != \
        (tmp_path / "a" / "events_r001.csv").read_bytes()
    # the CLI writes exactly what format_spike_trains gives for replicate 0
    rs = replicate_seed(404, 0)
    c = validate_config(_doc())
    res = simulate_thinning(
        sample_network(c.n, c.p, c.q, rs), c.build_kernel(),
        c.build_transfer(), SimulationConfig(horizon=c.horizon, seed=rs))
    direct = format_spike_trains(res.trains, comment="schema: events v1")
    assert (tmp_path / "a" / "events_r000.csv").read_bytes() == \
        direct.encode()


def test_simulate_overrides_change_output(tmp_path):
    cfg = _write(tmp_path, _doc())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--seed", "405", "--replicates", "1"]) == 0
    outdir = tmp_path / "a"
    assert (outdir / "events_r000.csv").exists()
    assert not (outdir / "events_r001.csv").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["resolved_config"]["run"]["seed"] == 405
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "tc"),
                 "--backend", "time_change", "--replicates", "1"]) == 0


def test_simulate_output_ignores_the_recording_grid(tmp_path):
    # simulate writes event times only, which no recording setting changes
    assert main(["simulate", "--config", _write(tmp_path, _doc()),
                 "--out", str(tmp_path / "a")]) == 0
    doc = _doc()
    doc["run"].update(dt=0.01, tracked_vertices=[0, 3])
    assert main(["simulate", "--config", _write(tmp_path, doc, "b.json"),
                 "--out", str(tmp_path / "b")]) == 0
    for r in range(2):
        name = f"events_r{r:03d}.csv"
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("net_seed, in_cli, in_replicates",
                         [(None, 0, 3), (11, 1, 0)])
def test_simulate_draws_a_fixed_network_once(tmp_path, monkeypatch,
                                             net_seed, in_cli, in_replicates):
    calls = {"cli": 0, "analysis": 0}

    def counting(module):
        def draw(*args):
            calls[module] += 1
            return sample_network(*args)
        return draw

    monkeypatch.setattr(cli, "sample_network", counting("cli"))
    monkeypatch.setattr(analysis, "sample_network", counting("analysis"))
    doc = _doc()
    doc["run"].update(replicates=3, net_seed=net_seed)
    assert main(["simulate", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
    assert calls == {"cli": in_cli, "analysis": in_replicates}


def test_simulate_needs_a_single_size(tmp_path, capsys):
    cfg = _write(tmp_path, _doc(model=dict(_doc()["model"], n=[10, 20])))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 2
    assert "single size" in capsys.readouterr().err


def test_parallel_simulate_matches_sequential(tmp_path, monkeypatch):
    cfg = _write(tmp_path, _doc())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "seq"),
                 "--jobs", "1"]) == 0
    monkeypatch.setenv("HAWKES_MF_JOBS", "2")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "par")]) == 0
    for r in range(2):
        name = f"events_r{r:03d}.csv"
        assert (tmp_path / "seq" / name).read_bytes() == \
            (tmp_path / "par" / name).read_bytes()
    assert json.loads(
        (tmp_path / "par" / "manifest.json").read_text())["jobs"] == 2
    monkeypatch.setenv("HAWKES_MF_JOBS", "many")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "bad")]) == 2


def test_a_job_count_below_one_names_its_source(tmp_path, monkeypatch,
                                                capsys):
    cfg = _write(tmp_path, _doc())
    for flags, env, source in ((["--jobs", "0"], "2", "--jobs"),
                               ([], "0", "HAWKES_MF_JOBS")):
        monkeypatch.setenv("HAWKES_MF_JOBS", env)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "x"), *flags]) == 2
        assert capsys.readouterr().err == \
            f"config error: {source} must be >= 1\n"
        assert not (tmp_path / "x").exists()


def test_simulate_starts_no_more_workers_than_replicates(tmp_path,
                                                        monkeypatch):
    # a forked pool starts all max_workers at its first submit; this fake
    # records the count and maps in-process, so no process is started
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    cfg = _write(tmp_path, _doc())
    for replicates, pools, jobs in [("2", [2], 2), ("1", [], 1)]:
        out = tmp_path / replicates
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--replicates", replicates, "--jobs", "64"]) == 0
        assert started == pools
        assert json.loads((out / "manifest.json").read_text())["jobs"] == jobs
        started.clear()


def test_meanfield_balanced_run_is_flat_zero(tmp_path):
    doc = _doc(model=dict(_doc()["model"], p=0.5))
    doc["run"]["dt"] = 0.125
    cfg = _write(tmp_path, doc)
    assert main(["meanfield", "--config", cfg,
                 "--out", str(tmp_path / "mf")]) == 0
    lines = (tmp_path / "mf" / "I.csv").read_text().splitlines()
    assert lines[0] == "# schema: meanfield v1"
    assert lines[1] == "t,I"
    assert len(lines) == 2 + 17
    assert all(line.endswith(",0.0") for line in lines[2:])


def test_fluctuations_tidy_csv(tmp_path):
    doc = _doc()
    doc["run"]["dt"] = 1.0 / 32.0
    doc["run"]["horizon"] = 1.0
    cfg = _write(tmp_path, doc)
    assert main(["fluctuations", "--config", cfg,
                 "--out", str(tmp_path / "fl")]) == 0
    lines = (tmp_path / "fl" / "fluctuations.csv").read_text().splitlines()
    assert lines[0] == "# schema: plotdata v1"
    assert lines[1] == "series,t,value,replicate"
    # 2 replicates x (kbar, k1, k2) x 33 grid points
    assert len(lines) == 2 + 2 * 3 * 33
    series = {line.split(",")[0] for line in lines[2:]}
    assert series == {"kbar", "k1", "k2"}
    replicates = {line.split(",")[3] for line in lines[2:]}
    assert replicates == {"0", "1"}


def test_fluctuations_takes_no_backend_flag(tmp_path, capsys):
    # the limit SDE has no event loop; run.backend in a config stays valid
    doc = _doc()
    doc["run"].update(horizon=0.5, dt=0.125, backend="time_change")
    cfg = _write(tmp_path, doc)
    with pytest.raises(SystemExit) as exc:
        main(["fluctuations", "--config", cfg, "--out", str(tmp_path / "a"),
              "--backend", "time_change"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    assert main(["fluctuations", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--seed", "7", "--replicates", "1"]) == 0


def test_clt_config_with_tabulated_transfer_is_refused(tmp_path, capsys):
    doc = _doc(experiment="clt", model=dict(
        _doc()["model"],
        transfer={"tabulated": {"nodes": [-1.0, 1.0], "values": [0.5, 1.5]}}),
        run=dict(_doc()["run"], replicates=8))
    with pytest.raises(ConfigError, match="model.transfer"):
        validate_config(doc)
    cfg = _write(tmp_path, doc)
    assert main(["verify", "--config", cfg,
                 "--out", str(tmp_path / "v")]) == 2
    assert "model.transfer" in capsys.readouterr().err
    assert not (tmp_path / "v" / "report.json").exists()


_TABULATED = {"tabulated": {"nodes": [0.0, 1.0, 2.0],
                            "values": [1.0, 0.5, 0.0]}}


@pytest.mark.parametrize("experiment, model, run, options", [
    ("lln", {"n": [15, 30]}, {"replicates": 3}, None),
    ("corollary", {"n": [15, 30]}, {"replicates": 8}, None),
    ("critical", {"n": 16, "p": 0.5, "scaling": "critical"},
     {"replicates": 5}, {"complementary": True}),
])
def test_config_with_tabulated_kernel_is_refused_up_front(
        experiment, model, run, options, tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("compute started before the kernel check")

    for name in ("solve_mean_field", "sample_network",
                 "build_complementary_network"):
        monkeypatch.setattr(analysis, name, unreachable)
    doc = _doc(experiment=experiment,
               model=dict(_doc()["model"], kernel=_TABULATED, **model))
    doc["run"].update(run)
    if options is not None:
        doc["options"] = options
    assert main(["verify", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "runs" / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{experiment} reads" in err and "tabulated kernel" in err
    assert "record_full" not in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()


def test_verify_writes_consistent_artifacts(tmp_path, capsys):
    doc = _doc(experiment="lln", model=dict(_doc()["model"], n=[15, 60]))
    doc["run"].update(horizon=1.5, replicates=3, seed=101)
    cfg = _write(tmp_path, doc)
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert rc == (0 if all(c["passed"] for c in report["checks"]) else 1)
    assert rc in (0, 1)
    assert out.count("lln:") == len(report["checks"])
    summary = (tmp_path / "v" / "summary.txt").read_text()
    assert all(line.startswith(("[PASS]", "[FAIL]"))
               for line in summary.splitlines())
    plot = (tmp_path / "v" / "plotdata.csv").read_text().splitlines()
    assert plot[1] == "series,t,value,replicate"
    # 2 sizes x 3 replicates of sup errors plus 2 medians
    assert len(plot) == 2 + 6 + 2

    # replaying the manifest reproduces every artifact byte for byte
    rc2 = main(["verify", "--config", str(tmp_path / "v" / "manifest.json"),
                "--out", str(tmp_path / "v2")])
    capsys.readouterr()
    assert rc2 == rc
    for name in ("report.json", "plotdata.csv", "summary.txt"):
        assert (tmp_path / "v" / name).read_bytes() == \
            (tmp_path / "v2" / name).read_bytes()


# report.json stores its keys sorted, and "12" < "9": the plot rows must
# follow the stored lists, not the order of a reloaded mapping
_PLOT_CASES = {
    "lln": ("lln", [9, 12], {"replicates": 3}, {}, {}),
    "corollary": ("corollary", [9, 12], {"replicates": 8}, {}, {}),
    "independence": ("independence", [9, 12], {"replicates": 10}, {}, {}),
    "clt": ("clt", 12, {"replicates": 8}, {"limit_samples": 100}, {}),
    "critical-random": ("critical", 12, {"replicates": 5}, {},
                        {"p": 0.5, "scaling": "critical"}),
    "critical-complementary": ("critical", 12, {"replicates": 5},
                               {"complementary": True},
                               {"p": 0.5, "scaling": "critical"}),
}


@pytest.mark.parametrize("case", _PLOT_CASES)
def test_plot_data_regenerates_verify_output(tmp_path, capsys, case):
    experiment, n, run, options, model = _PLOT_CASES[case]
    doc = _doc(experiment=experiment, options=options,
               model=dict(_doc()["model"], n=n, **model))
    doc["run"].update(horizon=1.0, seed=101, **run)
    cfg = _write(tmp_path, doc)
    assert main(["verify", "--config", cfg,
                 "--out", str(tmp_path / "v")]) in (0, 1)
    capsys.readouterr()
    assert main(["plot-data", str(tmp_path / "v"),
                 "--out", str(tmp_path / "again.csv")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == \
        (tmp_path / "v" / "plotdata.csv").read_bytes()


@pytest.mark.parametrize("data", [
    {"tool": 1},
    [],
    {"experiment": "lln", "params": {}, "tolerances": {}, "tables": {},
     "checks": []},
    {"experiment": "critical", "params": {}, "tolerances": {}, "tables": {},
     "checks": []},
], ids=["no-experiment", "not-an-object", "lln-without-tables",
        "critical-without-tables"])
def test_plot_data_refuses_a_file_that_is_not_a_report(tmp_path, capsys,
                                                       data):
    # exit 1 means a FAIL verdict, so a bad input must not crash into it
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["plot-data", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: report")
    assert not (tmp_path / "plotdata.csv").exists()


def test_usage_and_config_errors_exit_two(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["simulate", "--config", str(broken),
                 "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    bad = _write(tmp_path, _doc(model=dict(_doc()["model"], p=2.0)))
    assert main(["meanfield", "--config", bad,
                 "--out", str(tmp_path / "x")]) == 2
    assert "model.p" in capsys.readouterr().err
    # no output directory anywhere
    cfg = _write(tmp_path, _doc())
    assert main(["meanfield", "--config", cfg]) == 2
    assert "output.directory" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("table, message", [
    ("kernel", "nodes must start at 0 and increase strictly"),
    ("transfer", "nodes must increase strictly"),
])
def test_tables_the_constructors_refuse_are_config_errors(tmp_path, capsys,
                                                          table, message):
    doc = _doc(model=dict(_doc()["model"], **{
        table: {"tabulated": {"nodes": [0.5, 0.25], "values": [1.0, 0.0]}}}))
    path = f"model.{table}.tabulated"
    with pytest.raises(ConfigError, match=f"{path}: {message}"):
        validate_config(doc)
    assert main(["meanfield", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "mf")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path}: {message}\n"
    assert not (tmp_path / "mf").exists()


@pytest.mark.parametrize("command", ["simulate", "meanfield", "fluctuations",
                                     "verify", "plot-data"])
def test_output_path_that_cannot_be_created_exits_two(tmp_path, capsys,
                                                      command):
    # exit 1 means a FAIL verdict, so an unusable --out must not end there
    blocker = tmp_path / "afile"
    blocker.write_text("")
    if command == "plot-data":
        report = tmp_path / "report.json"
        report.write_text(json.dumps(
            {"experiment": "lln", "params": {}, "tolerances": {},
             "tables": {"sizes": [], "sup_errors": {}, "medians": {}},
             "checks": []}),
            encoding="utf-8")
        argv = ["plot-data", str(report),
                "--out", str(blocker / "sub" / "plotdata.csv")]
    else:
        doc = _doc()
        if command == "verify":
            doc["model"]["n"] = [15, 60]
            doc["run"]["replicates"] = 3
        argv = [command, "--config", _write(tmp_path, doc),
                "--out", str(blocker / "sub")]
        if command == "verify":
            argv += ["--experiment", "lln"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory "
                          f"{blocker / 'sub'}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, artifact", [("meanfield", "I.csv"),
                                               ("verify", "report.json")])
def test_artifact_that_cannot_be_written_exits_two(tmp_path, capsys,
                                                   command, artifact):
    # a directory at the artifact's name makes the rename over it fail
    doc = _doc()
    if command == "verify":
        doc.update(experiment="lln")
        doc["model"]["n"] = [15, 30]
        doc["run"].update(horizon=1.0, replicates=3)
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main([command, "--config", _write(tmp_path, doc),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: cannot write {out / artifact}: "
                   "Is a directory\n")
    assert not list(out.glob("*.tmp"))
    # the manifest is written last: none stands beside missing artifacts
    assert not (out / "manifest.json").exists()


def test_output_name_too_long_exits_two_and_removes_its_parents(tmp_path,
                                                                 capsys):
    # the parents are made before the last name is refused
    out = tmp_path / "new" / ("x" * 300)
    assert main(["meanfield", "--config", _write(tmp_path, _doc()),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory "
                          f"{out}: File name too long")
    assert not (tmp_path / "new").exists()


def test_verify_without_experiment_exits_two_before_any_output(tmp_path,
                                                                capsys):
    cfg = _write(tmp_path, _doc())
    assert main(["verify", "--config", cfg,
                 "--out", str(tmp_path / "v")]) == 2
    assert "experiment: required (config key or --experiment)" in \
        capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command", ["meanfield", "plot-data"])
def test_undecodable_json_is_a_config_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"model": "\xff\xfe"}')
    argv = {"meanfield": ["meanfield", "--config", str(bad),
                          "--out", str(tmp_path / "mf")],
            "plot-data": ["plot-data", str(bad)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read")
    assert len(err.splitlines()) == 1


# each shape is refused before anything is allocated
@pytest.mark.parametrize("command, section, key, value", [
    ("simulate", "model", "n", 10 ** 10),
    ("meanfield", "run", "dt", 1e-20),
    ("meanfield", "run", "dt", 5e-324),
])
def test_unallocatable_runs_exit_two(tmp_path, capsys, command, section, key,
                                     value):
    doc = _doc()
    doc[section][key] = value
    assert main([command, "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "runs" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate")
    assert len(err.splitlines()) == 1
    # the output directories the run created are removed again
    assert not (tmp_path / "runs").exists()


_LLN = {"experiment": "lln", "n": [15, 30], "replicates": 3}
_CLT = {"experiment": "clt", "replicates": 8}
_COMPLEMENTARY = {"experiment": "critical", "n": 16, "p": 0.5,
                  "scaling": "critical", "replicates": 5,
                  "options": {"complementary": True}}
_NO_DERIVATIVE = {"tabulated": {"nodes": [-1.0, 1.0], "values": [0.5, 1.5]}}


@pytest.mark.parametrize("case, path", [
    (dict(_LLN, replicates=2), "run.replicates"),
    (dict(_LLN, n=[15]), "model.n"),
    (dict(_LLN, p=0.5), "model.p"),
    (dict(_CLT, options={"n_tracked": 1}), "options.n_tracked"),
    (dict(_CLT, n=2, options={"n_tracked": 3}), "options.n_tracked"),
    (dict(_CLT, transfer=_NO_DERIVATIVE), "model.transfer"),
    ({"experiment": "corollary", "n": [15, 30], "replicates": 8,
      "transfer": _NO_DERIVATIVE}, "model.transfer"),
    (dict(_COMPLEMENTARY, q=0.3), "model.q"),
    (dict(_COMPLEMENTARY, n=3), "model.n"),
    (dict(_COMPLEMENTARY, n=1, options={}), "model.n"),
    ({"experiment": "independence", "n": 3, "replicates": 10,
      "options": {"m_vertices": 5}}, "options.m_vertices"),
    (dict(_LLN, kernel=_TABULATED), "model.kernel"),
    (dict(_LLN, run={"tracked_vertices": [0, 1, 2]}), "run.tracked_vertices"),
    (dict(_COMPLEMENTARY, run={"tracked_vertices": [0, 1]}),
     "run.tracked_vertices"),
    (dict(_LLN, run={"net_seed": 9}), "run.net_seed"),
    (dict(_CLT, run={"net_seed": 9}), "run.net_seed"),
    (dict(_COMPLEMENTARY, options={}, run={"net_seed": 9}), "run.net_seed"),
], ids=["lln-replicates", "lln-one-size", "lln-balanced", "clt-one-tracked",
        "clt-tracked-above-n", "clt-no-derivative", "corollary-no-curvature",
        "complementary-q", "complementary-odd-n", "random-critical-n1",
        "independence-m-above-n", "lln-tabulated-kernel", "lln-tracked",
        "complementary-tracked", "lln-net-seed", "clt-net-seed",
        "random-critical-net-seed"])
def test_each_contract_rule_is_a_config_error_before_out(
        case, path, tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("compute started before the contract ran")

    for name in ("solve_mean_field", "sample_network",
                 "build_complementary_network"):
        monkeypatch.setattr(analysis, name, unreachable)
    case = dict(case)
    doc = _doc(experiment=case.pop("experiment"))
    doc["run"].update(case.pop("run", {}), replicates=case.pop("replicates"))
    if "options" in case:
        doc["options"] = case.pop("options")
    doc["model"].update(case)
    assert main(["verify", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "runs" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()


def test_command_line_overrides_are_judged_by_the_contract(tmp_path, capsys,
                                                           monkeypatch):
    def ran(name, **kwargs):
        raise ParameterError(f"ran {name} with {kwargs['replicates']}")

    monkeypatch.setattr(cli, "run_experiment", ran)
    doc = _doc(experiment="lln", model=dict(_doc()["model"], n=[15, 30]))
    cfg = _write(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == \
        "config error: run.replicates: need at least 3 replicates\n"
    assert main(["verify", "--config", cfg, "--out", out,
                 "--replicates", "3"]) == 2
    assert capsys.readouterr().err == "error: ran lln with 3\n"


def test_verify_refused_after_making_out_removes_it(tmp_path, capsys):
    # the mean-field solve refuses a step that does not contract, and it
    # runs only after --out exists
    doc = _doc(experiment="lln", model=dict(_doc()["model"], n=[15, 30]))
    doc["run"].update(replicates=3, horizon=6.0, dt=6.0)
    assert main(["verify", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "runs" / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: implicit step is not contracting: |2p-1| q Lip(h) ||phi|| "
        "dt = 1.15 >= 1; reduce dt\n")
    assert not (tmp_path / "runs").exists()


def test_exit_two_keeps_existing_and_nonempty_directories(tmp_path, capsys,
                                                           monkeypatch):
    doc = _doc()
    doc["model"]["n"] = 10 ** 10
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["simulate", "--config", _write(tmp_path, doc),
                 "--out", str(kept)]) == 2
    assert kept.is_dir()
    assert main(["simulate", "--config", _write(tmp_path, doc),
                 "--out", str(kept / "sub")]) == 2
    assert list(kept.iterdir()) == []

    # a directory the run created is kept once something was written in it
    out = tmp_path / "made" / "out"

    def write_then_fail(*args, **kwargs):
        (out / "partial.txt").write_text("", encoding="utf-8")
        raise ParameterError("failed after writing")

    monkeypatch.setattr(cli, "run_experiment", write_then_fail)
    doc = _doc(experiment="lln", model=dict(_doc()["model"], n=[15, 30]))
    doc["run"]["replicates"] = 3
    assert main(["verify", "--config", _write(tmp_path, doc),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("error: failed after writing\n")
    assert [p.name for p in out.iterdir()] == ["partial.txt"]


def test_verify_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    # exit 1 is a FAIL verdict, so an allocation failure must not end there
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.31 GiB")

    monkeypatch.setattr(analysis, "sample_network", refuse)
    doc = _doc(experiment="lln", model=dict(_doc()["model"], n=[15, 30]))
    doc["run"]["replicates"] = 3
    assert main(["verify", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err == \
        "error: out of memory: Unable to allocate 9.31 GiB\n"


def test_console_script_reports_version():
    proc = subprocess.run(["hawkes-mf", "--version"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("hawkes-meanfield")
