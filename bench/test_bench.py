"""Smoke tests for the benchmark itself (toy sizes, same code path).

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.fixture(scope="module")
def hm():
    run.pin_blas_threads()
    return run.load_package()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_prints_every_metric_and_passes_gate(tmp_path, name, trace):
    results = tmp_path / "results.jsonl"
    proc = _bench(BENCH.parent, "--workload", name, "--seed",
                  str(run.DEFAULT_SEED), "--seconds", "1", "--trace",
                  str(trace), "--toy", "--results", str(results))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads(results.read_text().splitlines()[-1])
    assert record["gate"]["ok"]
    assert {"nproc", "python", "numpy", "scipy", "blas_threads",
            "loadavg_start"} <= set(record["machine"])
    if trace:
        share = out["metrics"]["trace.accounted_share"]["value"]
        assert 0.95 < share <= 1.0 + 1e-9


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "clt_limit", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_catches_wrong_reference_and_tampered_report(hm, tmp_path):
    bench_run = run.Run(hm, workloads, "critical_recorded", 5, True, tmp_path)
    call = bench_run.call()
    assert call["ok"]
    reference = json.loads(run.REFERENCE.read_text())
    assert bench_run.gate(reference)["ok"]

    wrong = dict(reference, toy=dict(reference["toy"],
                                     critical_recorded="0" * 64))
    assert not bench_run.gate(wrong)["reference_matches"]

    report_path = tmp_path / "out" / "report.json"
    data = json.loads(report_path.read_text())
    data["checks"][0]["passed"] = not data["checks"][0]["passed"]
    assert not run.rejudge_ok(hm, json.dumps(data))
    data = json.loads(report_path.read_text())
    data["tables"]["slope_diag"][0] += 1e-12
    report_path.write_text(json.dumps(data))
    assert not bench_run.gate(reference)["replicate0_matches_report"]


def test_diagnostics_invariant():
    assert run.diagnostics_ok([{"candidates": 5, "events": 5}])
    assert not run.diagnostics_ok([{"candidates": 5, "events": 6}])
    assert not run.diagnostics_ok([{"candidates": 5, "events": -1}])


def test_tracer_restores_every_patched_name(hm):
    before = (hm.analysis.sample_network, hm.cli.run_experiment,
              dict(hm.analysis._BACKENDS), hm.fluctuations.stream)
    tracer = Tracer("t")
    tracer.begin_call("t/0")
    with tracer.patch(hm):
        hm.analysis.sample_network(10, 0.8, 0.5, 1)
    after = (hm.analysis.sample_network, hm.cli.run_experiment,
             dict(hm.analysis._BACKENDS), hm.fluctuations.stream)
    assert before == after
    assert tracer.call_counts["t/0"]["network.calls"] == 1
    assert tracer.call_counts["t/0"]["rng.streams"] == 1
    self_s, _ = tracer.self_times("t/0")
    assert self_s["network.sample"] > 0.0


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]

    def verdict(after, better="lower", bound=0.1, before=base):
        return run.verdict(before, after, better, bound,
                           list(zip(before, after)))

    assert verdict(faster) == "improved"
    assert verdict(slower) == "worse"
    assert verdict(list(base)) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, before=noisy[::-1]) == "unresolved"
    assert verdict(slower, better="higher", bound=None) == "improved"
