"""The package names that the benchmark harness under `bench/` looks up.

`bench/tracer.py` rebinds names on `analysis`, `cli` and the stream-drawing
modules, and `bench/workloads.py` drives the public API.  Tier-1 collects
only `tests/`, so these checks keep a rename or a dropped import in `src/`
from passing here and breaking `bench/run.py` later, and a name bound at
import time, which the rebinding would miss, from leaving its layer's time
at 0.  The bench modules are loaded read-only: no bytecode is written next
to them.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import hawkes_meanfield as hm
from hawkes_meanfield import analysis, cli
from hawkes_meanfield.config import validate_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load("tracer")
workloads = _load("workloads")

# the layers besides cli.verify and analysis.experiment that spend time in
# each workload's verify
_LAYERS_TIMED = {
    "clt_limit": {"network.sample", "volterra.solve",
                  "fluctuations.jackknife", "simulator.thinning"},
    "critical_recorded": {"network.sample", "simulator.martingale",
                          "simulator.thinning"},
    "lln_timechange": {"network.sample", "volterra.solve",
                       "simulator.time_change"},
    "independence_history": {"network.sample", "volterra.solve",
                             "simulator.thinning"},
}


def test_tracer_names_exist():
    for span, attrs in tracer._ANALYSIS_LAYERS.items():
        for attr in attrs:
            assert hasattr(analysis, attr), f"{span}: analysis.{attr}"
    assert set(tracer._BACKEND_SPANS) <= set(analysis._BACKENDS)
    assert callable(vars(cli)["run_experiment"])
    for mod in tracer._STREAM_CALLERS:
        module = importlib.import_module(f"hawkes_meanfield.{mod}")
        assert "stream" in vars(module), f"{mod} does not bind stream"


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_workload_validates_and_replays_replicate_zero(name):
    cfg = validate_config(workloads.make_config(name, seed=1, toy=True))
    sha, entry, extract = workloads.replicate_zero(hm, cfg)
    assert len(sha) == 64
    assert entry is not None and callable(extract)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_workload_spans_fire(name, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(name, seed=1,
                                                       toy=True)))
    trace = tracer.Tracer("test")
    trace.begin_call("call")
    with trace.patch(hm), trace.span("cli.verify"):
        status = cli.main(["verify", "--config", str(config),
                           "--out", str(tmp_path / "out")])
    assert status in (0, 1), capsys.readouterr()
    _, inclusive = trace.self_times("call")
    timed = {layer for layer, seconds in inclusive.items() if seconds > 0}
    assert timed == _LAYERS_TIMED[name] | {"cli.verify", tracer.EXPERIMENT}
