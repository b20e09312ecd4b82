"""Command line front end: config-driven runs with reproducible artifacts.

    hawkes-mf simulate     --config cfg.json --out runs/sim
    hawkes-mf meanfield    --config cfg.json --out runs/mf
    hawkes-mf fluctuations --config cfg.json --out runs/fl
    hawkes-mf verify       --experiment lln --config cfg.json --out runs/lln
    hawkes-mf plot-data    runs/lln/report.json --out runs/lln/plotdata.csv

Every run writes a manifest.json holding the tool version and output
revision, the fully resolved config and the seed expansion; a manifest can
be passed back as --config to replay the run.  No artifact contains
timestamps or other run-local noise, so a replay is byte-identical; a
manifest written at another output revision (rng.OUTPUT_REVISION) may not
replay to the same bytes, and its replay says so in one line on stderr.
CSV files start with a `# schema: <name> v1` comment line.

Exit status: 0 on success, 1 when verify produced a FAIL verdict, 2 on
usage or config errors.  On exit 2 the output directories the run created
and left empty are removed again; one that already existed is kept.
"""

import argparse
import concurrent.futures
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import (_BACKENDS, _EXPERIMENTS, _downsample_stride,
                       _replicate, report_from_dict, run_experiment)
from .config import (BACKENDS, EXPERIMENTS, experiment_kwargs, read_config,
                     read_json, validate_config)
from .errors import ConfigError, ToolkitError
from .fluctuations import simulate_fluctuations
from .network import sample_network
from .rng import OUTPUT_REVISION, replicate_seed
from .simulator import format_spike_trains
from .volterra import solve_mean_field

__all__ = ["main"]

TOOL_NAME = "hawkes-meanfield"


def _write_atomic(path, text):
    """Write via a temp file in the same directory, then rename over.

    A path that cannot be written raises ConfigError naming it, and the
    temp file is removed whatever the failure.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: "
                          f"{exc.strerror or exc}") from exc
    finally:  # gone already after a successful rename
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _plotdata_text(rows):
    """Long-format CSV of (series, t, value, replicate) string rows."""
    lines = ["# schema: plotdata v1", "series,t,value,replicate"]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _resolve_jobs(args):
    jobs, source = getattr(args, "jobs", None), "--jobs"
    if jobs is None:
        source = "HAWKES_MF_JOBS"
        env = os.environ.get(source, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(
                    f"HAWKES_MF_JOBS: expected an integer, got {env!r}")
    jobs = 1 if jobs is None else jobs
    if jobs < 1:
        raise ConfigError(f"{source} must be >= 1")
    return jobs


def _load_cfg(args, experiment_flag=None):
    raw, revision = read_config(args.config)
    if revision is not None and revision != OUTPUT_REVISION:
        print(f"note: {args.config} was written at output revision "
              f"{revision!r}, this is revision {OUTPUT_REVISION}: its "
              f"outputs may differ in their last bits", file=sys.stderr)
    if experiment_flag and isinstance(raw, dict):  # validation refuses others
        raw = dict(raw, experiment=experiment_flag)
    # command line overrides go in before validation, so the experiment's
    # contract judges the values that will run
    run = {key: getattr(args, key) for key in ("seed", "replicates", "backend")
           if getattr(args, key, None) is not None}
    if run and isinstance(raw, dict) and isinstance(raw.get("run"), dict):
        raw = dict(raw, run=dict(raw["run"], **run))
    if getattr(args, "out", None) is not None and isinstance(raw, dict):
        raw = dict(raw, output={"directory": args.out})
    return validate_config(raw)


def _make_dir(path, made):
    """mkdir -p; a path that cannot be created raises ConfigError naming it.

    Each directory this call creates is appended to made, outermost first.
    """
    # os.path answers False where Path.exists raises (a name too long)
    missing = [d for d in (path, *path.parents) if not os.path.lexists(d)]
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc.strerror or exc}") from exc
    finally:  # mkdir may fail after making some of the parents
        made.extend(d for d in reversed(missing) if os.path.isdir(d))
    return path


def _remove_empty_dirs(made):
    """Remove the directories in made that are still empty, deepest first."""
    for d in reversed(made):
        with contextlib.suppress(OSError):  # not empty, or already gone
            d.rmdir()


def _ensure_outdir(cfg, made):
    if cfg.out_dir is None:
        raise ConfigError("output.directory: required (or pass --out)")
    return _make_dir(Path(cfg.out_dir), made)


def _write_manifest(outdir, command, cfg, jobs=1):
    manifest = {
        "tool": {"name": TOOL_NAME, "version": __version__,
                 "revision": OUTPUT_REVISION},
        "command": command,
        "jobs": jobs,
        "resolved_config": cfg.resolved(),
        "seeds": {
            "master": cfg.seed,
            "replicates": [replicate_seed(cfg.seed, r)
                           for r in range(cfg.replicates)],
            "expansion": "replicate_seed(master, r); multi-size experiments "
                         "use replicate_seed(master, block * replicates + r)",
        },
    }
    _write_atomic(outdir / "manifest.json", _json_text(manifest))


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _events_csv(res):
    """A replicate's event file; module level so pools can pickle it."""
    return format_spike_trains(res.trains, comment="schema: events v1")


def _cmd_simulate(args):
    cfg = _load_cfg(args)
    if isinstance(cfg.n, list):
        raise ConfigError("model.n: simulate takes a single size")
    outdir = _ensure_outdir(cfg, args.made_dirs)
    # a forked pool starts all its workers at the first submit
    jobs = min(_resolve_jobs(args), cfg.replicates)
    net = (None if cfg.net_seed is None
           else sample_network(cfg.n, cfg.p, cfg.q, cfg.net_seed))
    # only event times are written, and no recording grid changes them
    worker = functools.partial(
        _replicate, _BACKENDS[cfg.backend], _events_csv, n=cfg.n,
        seed=cfg.seed, kernel=cfg.build_kernel(),
        transfer=cfg.build_transfer(), horizon=cfg.horizon, dt=cfg.horizon,
        p=cfg.p, q=cfg.q, net=net, scaling=cfg.scaling, tracked_vertices=())
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            texts = list(pool.map(worker, range(cfg.replicates)))
    else:
        texts = list(map(worker, range(cfg.replicates)))
    for r, text in enumerate(texts):
        _write_atomic(outdir / f"events_r{r:03d}.csv", text)
    _write_manifest(outdir, "simulate", cfg, jobs)
    print(f"wrote {cfg.replicates} event file(s) to {outdir}")
    return 0


# ----------------------------------------------------------------------
# meanfield
# ----------------------------------------------------------------------

def _cmd_meanfield(args):
    cfg = _load_cfg(args)
    outdir = _ensure_outdir(cfg, args.made_dirs)
    path = solve_mean_field(cfg.build_kernel(), cfg.build_transfer(),
                            cfg.p, cfg.q, cfg.horizon, cfg.dt)
    lines = ["# schema: meanfield v1", "t,I"]
    lines += [f"{t!r},{v!r}" for t, v in zip(path.grid.tolist(),
                                             path.values.tolist())]
    _write_atomic(outdir / "I.csv", "\n".join(lines) + "\n")
    _write_manifest(outdir, "meanfield", cfg)
    print(f"wrote {outdir / 'I.csv'} ({len(path.grid)} grid points)")
    return 0


# ----------------------------------------------------------------------
# fluctuations
# ----------------------------------------------------------------------

def _cmd_fluctuations(args):
    cfg = _load_cfg(args)
    outdir = _ensure_outdir(cfg, args.made_dirs)
    kernel = cfg.build_kernel()
    transfer = cfg.build_transfer()
    mean_path = solve_mean_field(kernel, transfer, cfg.p, cfg.q, cfg.horizon,
                                 cfg.dt)
    n_comp = len(cfg.tracked_vertices) or 2
    stride = _downsample_stride(mean_path.grid)
    grid = [repr(t) for t in mean_path.grid[::stride].tolist()]
    names = ["kbar"] + [f"k{k + 1}" for k in range(n_comp)]
    rows = []
    for r in range(cfg.replicates):
        sample = simulate_fluctuations(mean_path, kernel, transfer,
                                       cfg.p, cfg.q, n_comp,
                                       cfg.seed, sample_index=r)
        for name, path in zip(names, [sample.kbar, *sample.k]):
            rows += [(name, t, repr(v), str(r))
                     for t, v in zip(grid, path[::stride].tolist())]
    _write_atomic(outdir / "fluctuations.csv", _plotdata_text(rows))
    _write_manifest(outdir, "fluctuations", cfg)
    print(f"wrote {outdir / 'fluctuations.csv'} "
          f"({cfg.replicates} sample(s), {n_comp} vertex component(s))")
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _cmd_verify(args):
    cfg = _load_cfg(args, experiment_flag=args.experiment)
    kwargs = experiment_kwargs(cfg)
    outdir = _ensure_outdir(cfg, args.made_dirs)
    report = run_experiment(cfg.experiment, **kwargs)
    _write_atomic(outdir / "report.json", _json_text(report.to_dict()))
    summary = report.summary_lines()
    _write_atomic(outdir / "summary.txt", "\n".join(summary) + "\n")
    _write_atomic(outdir / "plotdata.csv", _plot_csv(report))
    _write_manifest(outdir, "verify", cfg)
    for line in summary:
        print(line)
    return 0 if report.all_passed else 1


# ----------------------------------------------------------------------
# plot-data
# ----------------------------------------------------------------------

def _plot_csv(report):
    """The rows the report's experiment reads from its stored tables."""
    return _plotdata_text(
        _EXPERIMENTS[report.experiment].plot_rows(report.tables))


def _cmd_plot_data(args):
    path = Path(args.report)
    if path.is_dir():
        path = path / "report.json"
    report = report_from_dict(read_json(path, "report"))
    try:
        text = _plot_csv(report)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"report {path}: tables do not hold the "
                          f"{report.experiment} data ({exc!r})") from exc
    out = Path(args.out) if args.out else path.with_name("plotdata.csv")
    _make_dir(out.parent, args.made_dirs)
    _write_atomic(out, text)
    print(f"wrote {out}")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hawkes-mf",
        description="Simulation and verification runs for interacting "
                    "point-process networks.",
    )
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, jobs=False, run_overrides=True, backend=True):
        sp.add_argument("--config", required=True,
                        help="JSON config file (a manifest.json also works)")
        sp.add_argument("--out", help="output directory "
                        "(overrides output.directory)")
        if run_overrides:
            sp.add_argument("--seed", type=int, help="override run.seed")
            sp.add_argument("--replicates", type=int,
                            help="override run.replicates")
        if run_overrides and backend:
            sp.add_argument("--backend", choices=list(BACKENDS),
                            help="override run.backend")
        if jobs:
            sp.add_argument("--jobs", type=int, default=None,
                            help="worker processes for replicate simulation "
                                 "(default: HAWKES_MF_JOBS or 1)")

    sp = sub.add_parser("simulate", help="write per-replicate event files")
    add_common(sp, jobs=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("meanfield",
                        help="solve the deterministic input path, write I.csv")
    add_common(sp, run_overrides=False)
    sp.set_defaults(func=_cmd_meanfield)

    sp = sub.add_parser("fluctuations",
                        help="sample limit-system paths, write tidy CSV")
    add_common(sp, backend=False)  # the limit SDE has no event loop
    sp.set_defaults(func=_cmd_fluctuations)

    sp = sub.add_parser("verify",
                        help="run a replicated experiment, write a report")
    add_common(sp)
    sp.add_argument("--experiment", choices=list(EXPERIMENTS),
                    help="experiment to run (overrides the config key)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("plot-data",
                        help="emit long-format CSV from a report.json")
    sp.add_argument("report",
                    help="report.json path or a directory containing one")
    sp.add_argument("--out", help="output CSV path "
                    "(default: plotdata.csv beside the report)")
    sp.set_defaults(func=_cmd_plot_data)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.made_dirs = []  # filled by _make_dir, emptied again on exit 2
    try:
        return args.func(args)
    except ConfigError as exc:
        message = f"config error: {exc}"
    except ToolkitError as exc:
        message = f"error: {exc}"
    except MemoryError as exc:
        message = f"error: out of memory: {str(exc) or type(exc).__name__}"
    print(message, file=sys.stderr)
    _remove_empty_dirs(args.made_dirs)
    return 2


if __name__ == "__main__":
    sys.exit(main())
