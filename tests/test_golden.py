"""Bit-identity gate for the simulator's event loops and the experiments.

SHA-256 digests of the spike trains, the recorded input paths and the
diagnostics at fixed seeds, for both backends under the exponential kernel
(lazy decay) and under a tabulated kernel (windowed history); and of the
report.json text of every experiment (both critical modes) at toy scale on
both backends, and of the plotdata.csv text that `plot-data` writes from
each such report.json; and of the fluctuation-limit sampler's paths, terminal
batches and exact terminal covariance in both kernel modes; and of the files
the `simulate`, `meanfield` and `fluctuations` commands write.  A refactor of
the event loops, the grid recorder, the experiment drivers, the fluctuation
integrator or the command line must reproduce every digest; a change that
alters the RNG stream layout or float rounding of these outputs must say so
in CHANGES.md, bump rng.OUTPUT_REVISION and regenerate the table with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_hashes.json

The table records the revision it was taken at, so a revision bumped
without regenerating the table fails.

The recorded paths, every report built from them, and the fluctuation
values pass through numpy's vectorised exp (and arctan), whose last bit depends on the SIMD path numpy dispatches to.
Their digests are therefore compared only on a machine with the numpy version and dispatch targets stored
under "machine" in the table; everywhere the paths are also checked against a
brute-force reconvolution of the spike trains at a tight tolerance.
"""

import contextlib
import functools
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hawkes_meanfield.analysis import report_from_dict, run_experiment
from hawkes_meanfield.cli import _json_text, _plot_csv, main
from hawkes_meanfield.fluctuations import (sample_terminal_fluctuations,
                                           simulate_fluctuations,
                                           terminal_covariance)
from hawkes_meanfield.kernels import (arctan_transfer, exponential_kernel,
                                     tabulated_kernel)
from hawkes_meanfield.network import sample_network
from hawkes_meanfield.rng import OUTPUT_REVISION
from hawkes_meanfield.simulator import (SimulationConfig,
                                        recompute_input_from_trains,
                                        simulate_thinning,
                                        simulate_time_change)
from hawkes_meanfield.volterra import solve_mean_field

HASHES = Path(__file__).with_name("golden_hashes.json")
BACKENDS = {"thinning": simulate_thinning, "time_change": simulate_time_change}
PATHS = ("tracked_input", "mean_input", "full_input")
N = 40
_TAB_NODES = np.arange(9) * 0.25
# e^{-u} tabulated on [0, 2]: finite support, so the windowed-history loops
KERNELS = {"exponential": exponential_kernel(1.0),
           "tabulated": tabulated_kernel(_TAB_NODES, np.exp(-_TAB_NODES))}
SEEDS = ((3, "mean_field"), (17, "critical"), (29, "mean_field"))


def _cases():
    """case id -> (backend, kernel, seed, scaling, horizon, dt, record_full).

    Tabulated cases are tracked-only: history mode rejects record_full.
    """
    cases = {}
    for backend in BACKENDS:
        for seed, scaling in SEEDS:
            for full in (False, True):
                key = f"{backend}-s{seed}-{scaling}-{'full' if full else 'tracked'}"
                cases[key] = (backend, "exponential", seed, scaling, 3.0, None,
                              full)
        cases[f"{backend}-horizon0-full"] = (backend, "exponential", 5,
                                             "mean_field", 0.0, None, True)
        cases[f"{backend}-dt0.0137-full"] = (backend, "exponential", 5,
                                             "critical", 3.0, 0.0137, True)
        for seed, scaling in SEEDS:
            cases[f"{backend}-tab-s{seed}-{scaling}-tracked"] = (
                backend, "tabulated", seed, scaling, 3.0, None, False)
        cases[f"{backend}-tab-horizon0-tracked"] = (
            backend, "tabulated", 5, "mean_field", 0.0, None, False)
        cases[f"{backend}-tab-dt0.0137-tracked"] = (
            backend, "tabulated", 5, "critical", 3.0, 0.0137, False)
    return cases


def _of_kernel(kernel):
    return sorted(k for k, v in _cases().items() if v[1] == kernel)


def _machine():
    """numpy version, architecture and the SIMD targets numpy dispatches to."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        targets = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    except ImportError:
        targets = None
    return {"numpy": np.__version__, "arch": platform.machine(),
            "simd_targets": targets}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _run(backend, kernel, seed, scaling, horizon, dt, full):
    p = 0.5 if scaling == "critical" else 0.8
    net = sample_network(N, p, 0.5, seed)
    cfg = SimulationConfig(horizon=horizon, seed=seed, scaling=scaling, dt=dt,
                           tracked_vertices=(0, 5), record_full=full)
    res = BACKENDS[backend](net, KERNELS[kernel], arctan_transfer(), cfg)
    return net, cfg, res


def _hashes(res):
    out = {
        "trains": _digest(*res.trains.times),
        "diagnostics": hashlib.sha256(json.dumps(
            res.diagnostics, sort_keys=True).encode()).hexdigest(),
    }
    for name in PATHS:
        if getattr(res, name) is not None:
            out[name] = _digest(getattr(res, name))
    return out


def _table():
    return json.loads(HASHES.read_text())


# report id -> (experiment, kernel, keyword arguments) at toy scale
_REPORTS = {
    "lln": ("lln", "exponential", dict(
        sizes=[15, 60], p=0.8, q=0.5, horizon=1.5, replicates=3, seed=101)),
    "clt": ("clt", "exponential", dict(
        n=24, p=0.8, q=0.5, horizon=1.0, replicates=8, limit_samples=64,
        seed=5)),
    "corollary": ("corollary", "exponential", dict(
        sizes=[15, 30], p=0.8, q=0.5, horizon=1.0, replicates=8, seed=1)),
    "critical-random": ("critical", "exponential", dict(
        n=20, horizon=2.0, replicates=5, seed=7)),
    "critical-complementary": ("critical", "exponential", dict(
        n=16, horizon=2.0, replicates=6, seed=7, complementary=True)),
    "independence": ("independence", "exponential", dict(
        sizes=[12, 24], p=0.8, q=0.5, horizon=1.0, replicates=10, seed=9,
        m_vertices=3)),
    "independence-tab": ("independence", "tabulated", dict(
        sizes=[12, 24], p=0.8, q=0.5, horizon=1.0, replicates=10, seed=9,
        m_vertices=3)),
}


def _report_cases():
    return sorted(f"{name}-{backend}" for name in _REPORTS
                  for backend in BACKENDS)


@functools.lru_cache(maxsize=None)
def _report_text(case):
    """The report.json text that `verify` writes for the case."""
    name, backend = case.rsplit("-", 1)
    experiment, kernel, kwargs = _REPORTS[name]
    report = run_experiment(experiment, kernel=KERNELS[kernel],
                            transfer=arctan_transfer(), backend=backend,
                            **kwargs)
    return _json_text(report.to_dict())


def _report_digest(case):
    return hashlib.sha256(_report_text(case).encode()).hexdigest()


def _plotdata_digest(case):
    """SHA-256 of the plotdata.csv text `plot-data` writes from the case's
    report.json."""
    report = report_from_dict(json.loads(_report_text(case)))
    return hashlib.sha256(_plot_csv(report).encode()).hexdigest()


# fluctuation setting -> (p, q, n_vertices); q in {0, 1} and n_vertices = 0
# are the degenerate corners, p = 0.5 switches the drift feedback off
_FLUCT_SETTINGS = {
    "p0.8-q0.5-n3": (0.8, 0.5, 3),
    "p0.5-q0.5-n2": (0.5, 0.5, 2),
    "p0.3-q0-n2": (0.3, 0.0, 2),
    "p0.8-q1-n3": (0.8, 1.0, 3),
    "p0.6-q0.7-n0": (0.6, 0.7, 0),
}
# 11 samples split 4+4+3 and 7+4: both chunkings end on a partial chunk
_FLUCT_SAMPLES, _FLUCT_CHUNKS = 11, (4, 7)


def _fluct_cases():
    return sorted(f"{kernel}-{name}" for kernel in KERNELS
                  for name in _FLUCT_SETTINGS)


def _fluct_hashes(case):
    """Digests of two sampled paths, chunked terminal batches and the exact
    terminal covariance on a 40-step grid over [0, 3].

    dt = 0.075 is not a power of two, so a reordered product changes bits.
    """
    kernel_name, name = case.split("-", 1)
    kernel, transfer = KERNELS[kernel_name], arctan_transfer()
    p, q, n_vertices = _FLUCT_SETTINGS[name]
    path = solve_mean_field(kernel, transfer, p, q, 3.0, dt=3.0 / 40)
    args = (path, kernel, transfer, p, q, n_vertices)
    out = {}
    for index in (0, 5):
        s = simulate_fluctuations(*args, seed=13, sample_index=index)
        out[f"path{index}"] = _digest(s.kbar, s.k, s.w_tilde, s.db, s.db_tilde)
    for chunk in _FLUCT_CHUNKS:
        b = sample_terminal_fluctuations(*args, n_samples=_FLUCT_SAMPLES,
                                         seed=13, chunk=chunk)
        out[f"batch{chunk}"] = _digest(b["kbar"], b["k"], b["w"], b["w_tilde"])
    out["covariance"] = _digest(terminal_covariance(*args))
    return out


# command-line case -> (command, model/run overrides of _CLI_DOC, extra argv)
_CLI_DOC = {"model": {"n": 25, "p": 0.8, "q": 0.5,
                      "kernel": {"exponential": {"rate": 1.0}},
                      "transfer": {"arctan": {}}},
            "run": {"horizon": 2.0, "replicates": 3, "seed": 404}}
# a triangle on [0, 1.5]: at n = 25 a table close to e^{-u} would accept
# the same candidates as the exponential kernel
_CLI_TAB = {"tabulated": {"nodes": [0.0, 0.5, 1.0, 1.5],
                          "values": [3.0, 2.0, 1.0, 0.0]}}
_CLI_CASES = {
    **{f"simulate-{backend}{name}": (
        "simulate", {"model": model, "run": dict(run, backend=backend)},
        ["--jobs", str(jobs)])
       for backend in BACKENDS
       for name, model, run, jobs in (
           ("", {}, {}, 1),
           ("-tab", {"kernel": _CLI_TAB}, {}, 1),
           ("-net_seed-jobs1", {"kernel": _CLI_TAB}, {"net_seed": 11}, 1),
           ("-net_seed-jobs2", {"kernel": _CLI_TAB}, {"net_seed": 11}, 2))},
    "meanfield": ("meanfield", {"run": {"dt": 0.0625}}, []),
    "fluctuations": ("fluctuations", {"run": {"dt": 0.0625}}, []),
}


def _cli_hashes(case, workdir):
    """{file name: SHA-256} of the CSV files the case's command writes.

    manifest.json is left out: it holds the tool version.
    """
    command, over, extra = _CLI_CASES[case]
    doc = {section: dict(_CLI_DOC[section], **over.get(section, {}))
           for section in _CLI_DOC}
    cfg = Path(workdir) / f"{case}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = Path(workdir) / case
    assert main([command, "--config", str(cfg), "--out", str(out)]
                + extra) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*.csv"))}


def _check_trains_and_diagnostics(case):
    expected = _table()["cases"][case]
    got = _hashes(_run(*_cases()[case])[2])
    assert got["trains"] == expected["trains"]
    assert got["diagnostics"] == expected["diagnostics"]


@pytest.mark.parametrize("case", _of_kernel("exponential"))
def test_exponential_loops_are_bit_identical(case):
    _check_trains_and_diagnostics(case)


@pytest.mark.parametrize("case", _of_kernel("tabulated"))
def test_history_loops_are_bit_identical(case):
    _check_trains_and_diagnostics(case)


@pytest.mark.parametrize("case", sorted(_cases()))
def test_recorded_path_digests(case):
    table = _table()
    if _machine() != table["machine"]:
        pytest.skip(f"path digests were taken on {table['machine']}")
    got = _hashes(_run(*_cases()[case])[2])
    for name in PATHS:
        assert got.get(name) == table["cases"][case].get(name), name


@pytest.mark.parametrize("case", sorted(_cases()))
def test_recorded_paths_match_reconvolution(case):
    args = _cases()[case]
    net, cfg, res = _run(*args)
    exact = recompute_input_from_trains(net, KERNELS[args[1]], cfg.theta(N),
                                        res.trains, res.grid, range(N))
    tol = dict(rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(res.tracked_input,
                               exact[list(cfg.tracked_vertices)], **tol)
    np.testing.assert_allclose(res.mean_input, exact.mean(axis=0), **tol)
    if res.full_input is not None:
        np.testing.assert_allclose(res.full_input, exact, **tol)


@pytest.mark.parametrize("case", _report_cases())
def test_report_digests(case):
    table = _table()
    if _machine() != table["machine"]:
        pytest.skip(f"report digests were taken on {table['machine']}")
    assert _report_digest(case) == table["reports"][case]


@pytest.mark.parametrize("case", _report_cases())
def test_plotdata_digests(case):
    table = _table()
    if _machine() != table["machine"]:
        pytest.skip(f"plot-data digests were taken on {table['machine']}")
    assert _plotdata_digest(case) == table["plotdata"][case]


def test_table_was_taken_at_this_output_revision():
    assert _table()["revision"] == OUTPUT_REVISION


@pytest.mark.parametrize("case", sorted(_CLI_CASES))
def test_cli_artifact_digests(case, tmp_path):
    table = _table()
    if _machine() != table["machine"]:
        pytest.skip(f"command-line digests were taken on {table['machine']}")
    assert _cli_hashes(case, tmp_path) == table["cli"][case]


@pytest.mark.parametrize("case", _fluct_cases())
def test_fluctuation_digests(case):
    table = _table()
    if _machine() != table["machine"]:
        pytest.skip(f"fluctuation digests were taken on {table['machine']}")
    assert _fluct_hashes(case) == table["fluctuations"][case]


if __name__ == "__main__":
    # the commands report on stdout, which carries the table
    with tempfile.TemporaryDirectory() as workdir, \
            contextlib.redirect_stdout(sys.stderr):
        cli = {case: _cli_hashes(case, workdir) for case in sorted(_CLI_CASES)}
    table = {"machine": _machine(), "revision": OUTPUT_REVISION,
             "cases": {case: _hashes(_run(*args)[2])
                       for case, args in sorted(_cases().items())},
             "reports": {case: _report_digest(case)
                         for case in _report_cases()},
             "plotdata": {case: _plotdata_digest(case)
                          for case in _report_cases()},
             "fluctuations": {case: _fluct_hashes(case)
                              for case in _fluct_cases()},
             "cli": cli}
    print(json.dumps(table, indent=1, sort_keys=True))
