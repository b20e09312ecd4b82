"""The package names that the benchmark harness under `bench/` looks up.

`bench/tracer.py` rebinds names on `analysis`, `cli` and the stream-drawing
modules, and `bench/workloads.py` drives the public API.  Tier-1 collects
only `tests/`, so these checks keep a rename or a dropped import in `src/`
from passing here and breaking `bench/run.py` later.  The bench modules are
loaded read-only: no bytecode is written next to them.
"""

import importlib
import importlib.util
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
