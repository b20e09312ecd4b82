"""Repository benchmark: timed `hawkes-mf verify` runs on generated configs.

    python3 bench/run.py --workload clt_limit --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 26
    python3 bench/run.py --compare before.jsonl after.jsonl

A run writes the workload's config (generated from --seed alone) under
.bench_runs/, then calls `cli.main(["verify", ...])` in this process again
and again for --seconds, starting a call only while it is expected to end
inside the budget.  Every call is checked outside its timed region: exit
status 0 or 1, every simulator result with candidates >= events >= 0, and
report.json verdicts that re-judge identically after the JSON round trip.
After the timed calls a gate re-simulates replicate 0 through the public
API: it must reproduce the report's replicate-0 entry exactly, every call
must have written the same report.json, and the spike trains of replicate 0
at the reference seed must hash to the value in reference.json.

--trace 0 prints the end-to-end metrics (median over the run's calls).
--trace 1 alternates untraced and traced calls and prints the per-layer
metrics of BENCHMARK.json: self times of the spans tracer.py records around
each layer, counts taken at the same boundaries, and the tracing overhead
(median traced minus median untraced wall time).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Each run also appends a record with the machine facts
to .bench_runs/results.jsonl (see --results); --compare reads two such
files.  BLAS threads are pinned to 1 before numpy loads.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"

BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEFAULT_SEED = 20240823   # the seed reference.json was taken at
SETUP_REPEATS = 3
# a fresh interpreter imports the package and loads + validates the config
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import hawkes_meanfield.cli; "
               "from hawkes_meanfield.config import load_config, "
               "validate_config; validate_config(load_config(sys.argv[2]))")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def pin_blas_threads():
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def load_package():
    """Import hawkes_meanfield from this checkout's src/, nowhere else."""
    init = SRC / "hawkes_meanfield" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import hawkes_meanfield as hm
    import hawkes_meanfield.cli  # noqa: F401  (binds hm.cli)
    if Path(hm.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {hm.__file__}, expected {init}")
    return hm


def load_spec():
    try:
        return json.loads(SPEC.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc


def machine_facts():
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
    }
    import numpy
    import scipy
    facts["numpy"] = numpy.__version__
    facts["scipy"] = scipy.__version__
    return facts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# per-call checks
# ----------------------------------------------------------------------

def diagnostics_ok(diagnostics):
    """Every simulator result must satisfy candidates >= events >= 0."""
    return all(d["candidates"] >= d["events"] >= 0 for d in diagnostics)


def rejudge_ok(hm, report_text):
    """Verdicts recomputed from the deserialized tables equal the stored ones."""
    data = json.loads(report_text)
    report = hm.analysis.report_from_dict(data)
    verdicts = getattr(hm.analysis, f"{report.experiment}_verdicts")
    again = verdicts(report.tables, report.tolerances)
    return (json.dumps(again, sort_keys=True)
            == json.dumps(report.checks, sort_keys=True))


@contextlib.contextmanager
def capture_diagnostics(hm):
    """Collect the diagnostics dict of every simulator result."""
    backends = hm.analysis._BACKENDS
    saved = dict(backends)
    seen = []

    def capture(fn):
        def run(*args, **kwargs):
            res = fn(*args, **kwargs)
            seen.append(dict(res.diagnostics))
            return res
        return run

    for key, fn in saved.items():
        backends[key] = capture(fn)
    try:
        yield seen
    finally:
        backends.update(saved)


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Run:
    """One benchmark run of one workload."""

    def __init__(self, hm, workloads, name, seed, toy, run_dir):
        self.hm = hm
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.toy = toy
        self.out = run_dir / "out"
        self.config_doc = workloads.make_config(name, seed, toy)
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config_doc, indent=2),
                                    encoding="utf-8")
        self.calls = []   # dicts: wall, traced, ok, status, report sha, ...

    def setup_seconds(self):
        """Median wall time of fresh interpreters that import and validate."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            probe = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC),
                 str(self.config_path)], stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=120)
            times.append(time.perf_counter() - t0)
            if probe.returncode != 0:
                raise BenchError(f"set-up probe failed: {probe.stderr[-500:]}")
        return statistics.median(times)

    def call(self, tracer=None):
        """One verify call; timing excludes the checks that follow it."""
        argv = ["verify", "--config", str(self.config_path),
                "--out", str(self.out)]
        sink = io.StringIO()
        error = None
        with capture_diagnostics(self.hm) as diags:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    if tracer is None:
                        status = self.hm.cli.main(argv)
                    else:
                        with tracer.span("cli.verify"):
                            status = self.hm.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                status, error = None, repr(exc)
            wall = time.perf_counter() - t0
        rec = {"wall": wall, "traced": tracer is not None, "status": status,
               "error": error, "diagnostics_ok": diagnostics_ok(diags)}
        for key in ("candidates", "events", "ties_nudged"):
            rec[key] = sum(d[key] for d in diags)
        report_path = self.out / "report.json"
        if status in (0, 1) and report_path.is_file():
            text = report_path.read_text(encoding="utf-8")
            rec["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
            rec["rejudge_ok"] = rejudge_ok(self.hm, text)
            rec["checks_passed"] = sum(c["passed"]
                                       for c in json.loads(text)["checks"])
            rec["artifact_bytes"] = dir_bytes(self.out)
        else:
            rec["rejudge_ok"] = False
            rec["output"] = sink.getvalue()[-2000:]
        rec["ok"] = (status in (0, 1) and rec["diagnostics_ok"]
                     and rec["rejudge_ok"])
        self.calls.append(rec)
        return rec

    def timed_calls(self, seconds, tracer=None):
        """Calls until the next would overrun the budget; alternate if tracing.

        A traced run starts untraced and always makes one call of each kind.
        """
        deadline = time.perf_counter() + seconds
        took = {}
        i = 0
        while True:
            traced = tracer is not None and i % 2 == 1
            t0 = time.perf_counter()
            if traced:
                call_id = f"{tracer.run_id}/call{i}"
                tracer.begin_call(call_id)
                with tracer.patch(self.hm):
                    self.call(tracer)["call_id"] = call_id
            else:
                self.call()
            took[traced] = time.perf_counter() - t0
            i += 1
            if i < (2 if tracer is not None else 1):
                continue
            upcoming = tracer is not None and i % 2 == 1
            if time.perf_counter() + took.get(upcoming, took[traced]) \
                    > deadline:
                return

    def gate(self, reference):
        """Replicate-0 re-simulation and report identity across calls."""
        hm, wl = self.hm, self.workloads
        result = {}
        shas = {c.get("report_sha256") for c in self.calls}
        result["reports_identical"] = len(shas) == 1 and None not in shas
        last = json.loads((self.out / "report.json").read_text("utf-8")) \
            if (self.out / "report.json").is_file() else None
        cfg = hm.config.validate_config(self.config_doc)
        sha, entry, extract = wl.replicate_zero(hm, cfg)
        result["spike_sha256"] = sha
        result["replicate0_matches_report"] = (
            last is not None and extract(last["tables"]) == entry)
        ref_seed = reference["seed"]
        if self.seed != ref_seed:
            ref_cfg = hm.config.validate_config(
                wl.make_config(self.name, ref_seed, self.toy))
            sha = wl.replicate_zero(hm, ref_cfg)[0]
        stored = reference["toy" if self.toy else "full"].get(self.name)
        result["reference_sha256"] = sha
        result["reference_matches"] = sha == stored
        result["report_sha256_info"] = next(iter(shas)) if len(shas) == 1 \
            else None
        result["ok"] = (result["reports_identical"]
                        and result["replicate0_matches_report"]
                        and result["reference_matches"])
        return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def layer_metrics(tracer, call):
    """Per-layer numbers of one traced call."""
    self_s, incl_s = tracer.self_times(call["call_id"])
    counts = tracer.call_counts[call["call_id"]]

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    backend_s = self_s["simulator.thinning"] + self_s["simulator.time_change"]
    cand, events = call["candidates"], call["events"]
    return {
        "network.sample_s": self_s["network.sample"],
        "network.calls": counts["network.calls"],
        "network.pairs_per_s": rate(counts["network.pairs"],
                                    self_s["network.sample"]),
        "simulator.thinning_s": self_s["simulator.thinning"],
        "simulator.time_change_s": self_s["simulator.time_change"],
        "simulator.candidates": cand,
        "simulator.events": events,
        "simulator.accept_ratio": events / cand if cand else 0.0,
        "simulator.ties_nudged": call["ties_nudged"],
        "simulator.candidates_per_s": rate(cand, backend_s),
        "simulator.martingale_s": self_s["simulator.martingale"],
        "simulator.compensators_s": self_s["simulator.compensators"],
        "volterra.solve_s": self_s["volterra.solve"],
        "fluctuations.sample_s": self_s["fluctuations.sample"],
        "fluctuations.samples_per_s": rate(counts["fluctuations.samples"],
                                           self_s["fluctuations.sample"]),
        "fluctuations.jackknife_s": self_s["fluctuations.jackknife"],
        "rng.streams": counts["rng.streams"],
        "analysis.experiment_s": incl_s["analysis.experiment"],
        "analysis.self_s": self_s["analysis.experiment"],
        "cli.io_s": self_s["cli.verify"],
        "cli.artifact_bytes": call.get("artifact_bytes", 0),
        "trace.accounted_share": rate(sum(self_s.values()), call["wall"]),
    }


def trace_metrics(tracer, calls):
    traced = [c for c in calls if c["traced"]]
    plain = [c["wall"] for c in calls if not c["traced"]]
    per_call = [layer_metrics(tracer, c) for c in traced]
    out = {k: statistics.median([m[k] for m in per_call]) for k in per_call[0]}
    out["trace.overhead_s"] = (statistics.median([c["wall"] for c in traced])
                               - statistics.median(plain))
    return out


def end_to_end_metrics(calls, setup_s, peak_rss_mb):
    return {
        "wall_s": statistics.median([c["wall"] for c in calls]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "checks_passed": statistics.median([c.get("checks_passed", 0) for c in calls]),
    }


def run_workload(args):
    from tracer import Tracer
    import workloads

    if args.workload not in workloads.NAMES:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.NAMES)} or all")
    spec = load_spec()
    hm = load_package()
    facts = machine_facts()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    run_id = (f"{args.workload}-s{args.seed}-t{args.trace}"
              f"{'-toy' if args.toy else ''}-{os.getpid()}")
    run_dir = RUNS / run_id
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    run = Run(hm, workloads, args.workload, args.seed, args.toy, run_dir)

    # set-up probes count against the run's measuring budget
    start = time.perf_counter()
    setup_s = run.setup_seconds() if not args.trace else None
    tracer = Tracer(run_id) if args.trace else None
    run.timed_calls(args.seconds - (time.perf_counter() - start), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        gate = run.gate(reference)
    except Exception as exc:  # a crash in the gate fails the run
        gate = {"ok": False, "error": repr(exc)}

    if tracer is not None:
        values = trace_metrics(tracer, run.calls)
        tracer.write(run_dir / "spans.jsonl")
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(run.calls, setup_s, peak_rss_mb)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    attempted = len(run.calls)
    failed = attempted if not gate["ok"] else sum(
        not c["ok"] for c in run.calls)
    result = {"correct": failed == 0 and gate["ok"], "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, toy=args.toy, seconds=args.seconds,
                  run_id=run_id, machine=facts, gate=gate,
                  calls=[{k: v for k, v in c.items() if k != "call_id"}
                         for c in run.calls])
    (run_dir / "result.json").write_text(json.dumps(record, indent=2),
                                         encoding="utf-8")
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def reference_hashes():
    """Replicate-0 spike-train SHA-256 at DEFAULT_SEED for every workload."""
    import workloads

    hm = load_package()
    out = {"seed": DEFAULT_SEED}
    for scale in ("full", "toy"):
        out[scale] = {}
        for name in workloads.NAMES:
            doc = workloads.make_config(name, DEFAULT_SEED, scale == "toy")
            cfg = hm.config.validate_config(doc)
            out[scale][name] = workloads.replicate_zero(hm, cfg)[0]
    return out


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--results", str(args.results)]
            if args.toy:
                cmd.append("--toy")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{name} trace={trace} exited "
                                 f"{proc.returncode}")
            res = json.loads(lines[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for metric, m in res["metrics"].items():
                print(f"{name:22s} {metric:28s} {m['value']:>16.6g} "
                      f"{m['unit']}")
                total["metrics"][f"{name}/{metric}"] = m
    return total


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def verdict(before, after, better, bound, pairs):
    """improved / worse / unchanged / unresolved for one metric.

    Improved needs at least ten pairs, the change winning nine tenths of
    them, and medians further apart than the parent's quartile spread.
    With a bound, worse means the change's median is worse than the
    parent's by more than bound x |parent median|; a parent spread wider
    than the bound leaves the metric unresolved unless every run of the
    change beats every run of the parent.
    """
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(before), statistics.median(after)
    q1, _, q3 = quartiles(before)
    spread = q3 - q1
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    apart = abs(med_b - med_a) > spread
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and apart:
        return "improved"
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and apart:
            return "worse"
        return "unresolved" if apart else "unchanged"
    if sign * (med_a - med_b) > bound * abs(med_a):
        return "worse"
    all_better = all(sign * (b - a) > 0 for a in before for b in after)
    if spread > bound * abs(med_a) and not all_better:
        return "unresolved"
    return "unchanged"


def read_results(path):
    """(workload, metric) -> [(seed, value)] over the correct runs of a file."""
    groups = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not rec["correct"]:
                print(f"{path}: skipping incorrect run {rec['run_id']}")
                continue
            for metric, m in rec["metrics"].items():
                groups.setdefault((rec["workload"], metric), []).append(
                    (rec["seed"], m["value"]))
    return groups


def compare(path_a, path_b):
    spec = load_spec()
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = read_results(path_a), read_results(path_b)
    print(f"{'workload':22s} {'metric':28s} {'unit':8s} "
          f"{'before median [q1, q3] n':>38s}  "
          f"{'after median [q1, q3] n':>38s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        m = info.get(metric, {"unit": "?", "better": "lower"})
        va, vb = [v for _, v in a[key]], [v for _, v in b[key]]
        by_seed_b = {}
        for seed, v in b[key]:
            by_seed_b.setdefault(seed, []).append(v)
        pairs = []
        for seed, v in a[key]:
            if by_seed_b.get(seed):
                pairs.append((v, by_seed_b[seed].pop(0)))
        if not pairs:
            pairs = list(zip(va, vb))
        v = verdict(va, vb, m["better"], m.get("bound"), pairs)

        def fmt(vals):
            q1, q2, q3 = quartiles(vals)
            return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}"
        print(f"{workload:22s} {metric:28s} {m['unit']:8s} "
              f"{fmt(va):>38s}  {fmt(vb):>38s}  {v}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=26.0,
                        help="measuring budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (smoke tests)")
    parser.add_argument("--results", default=str(RUNS / "results.jsonl"),
                        help="JSON-lines file each run appends its record to")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two results files and exit")
    parser.add_argument("--reference-hashes", action="store_true",
                        help="print reference.json for the current code")
    args = parser.parse_args(argv)
    if not (args.compare or args.reference_hashes or args.workload):
        parser.error("--workload, --compare or --reference-hashes is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
            return 0
        pin_blas_threads()
        sys.path.insert(0, str(BENCH_DIR))
        if args.reference_hashes:
            print(json.dumps(reference_hashes(), indent=2))
            return 0
        result = run_all(args) if args.workload == "all" \
            else run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
