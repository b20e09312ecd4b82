"""Config files for experiment runs.

A run is described by one JSON document.  Example:

    {
      "experiment": "lln",
      "model": {
        "n": [100, 400, 1600],
        "p": 0.8,
        "q": 0.5,
        "kernel": {"exponential": {"rate": 1.0}},
        "transfer": {"arctan": {}},
        "scaling": "mean_field"
      },
      "run": {
        "horizon": 4.0,
        "replicates": 50,
        "seed": 20240823
      },
      "output": {"directory": "runs/lln"},
      "tolerances": {"ratio_band": [2.0, 8.0]}
    }

Validation is strict: unknown keys are rejected with the dotted path of
the offending field, so a typo like "modle" or "lamda" fails loudly
instead of silently running the wrong experiment.  The model and run keys
are named once, in `_SECTIONS`.  The tolerance rule is not written here:
`analysis._tol` owns it, for config and library calls alike, and a key
it refuses is reported at tolerances.<key>.  `validate_config`
returns an `ExperimentConfig` whose `resolved()` form fills in every
default; feeding that form back through validation is a fixed point,
which is what makes manifests replayable.  Each kernel and transfer kind
is one `_FUNCTIONS` entry: its parameters are read here, and its `kernels`
constructor checks their values.

Without "experiment", `run.dt` is the mean-field grid step of `meanfield`
and `fluctuations`, which samples one vertex path per `run.tracked_vertices`
entry (2 when empty); neither has an event loop, so neither reads
`run.backend`.  `simulate` reads neither `run.dt` nor the tracked vertices:
its event times need no grid.  `run.net_seed` fixes the one network of all
`simulate` replicates.

No experiment is named here.  Its `analysis._EXPERIMENTS` entry gives its
regime (`scaling`) and contract (replicate minima, sizes, p != 1/2, kernel,
transfer, option ranges), run after parsing with a refusal reported at the
field that set it.  Its signature gives its size form (`sizes` or `n`), its
options with their defaults, and whether it takes `p` and `run.net_seed`.
"""

import dataclasses
import inspect
import json
import math

from .analysis import _BACKENDS, _EXPERIMENTS, _tol
from .errors import ConfigError, ParameterError, ToolkitError
from .kernels import (arctan_transfer, constant_transfer, exponential_kernel,
                      tabulated_kernel, tabulated_transfer)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "validate_config",
    "experiment_kwargs",
]

EXPERIMENTS = tuple(_EXPERIMENTS)
BACKENDS = tuple(_BACKENDS)
SCALINGS = ("mean_field", "critical")

# the model and run keys (True: required), each an ExperimentConfig field
_SECTIONS = {
    "model": {"n": True, "p": True, "q": True, "kernel": True,
              "transfer": True, "scaling": False},
    "run": {"horizon": True, "dt": False, "replicates": False,
            "tracked_vertices": False, "seed": True, "backend": False,
            "net_seed": False},
}
# experiment keyword -> the config field that sets it; every other
# keyword-only parameter of an experiment is an option, options.<keyword>
_FIELDS = {"sizes": "model.n", "tolerances": "tolerances",
           **{key: f"{section}.{key}"
              for section, keys in _SECTIONS.items() for key in keys}}
# config-only floor: golden clt reports call the library with 64; the option
# has no effect, retired with the benchmark's use of it
_OPTION_FLOORS = {"limit_samples": 100}


def _schema(entry):
    """(keywords config fields set, {option: default}, regime) of an entry."""
    params = inspect.signature(entry.run).parameters.values()
    return (tuple(p.name for p in params if p.name in _FIELDS),
            {p.name: p.default for p in params
             if p.kind is p.KEYWORD_ONLY and p.name not in _FIELDS},
            entry.scaling)


_SCHEMAS = {name: _schema(entry) for name, entry in _EXPERIMENTS.items()}


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _mapping(obj, path):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _keys(obj, path, keys):
    """Refuse keys of obj outside keys, then required (True) ones it lacks."""
    for key in obj:
        if key not in keys:
            _fail(f"{path}.{key}" if path else key,
                  f"unknown key (allowed: {', '.join(sorted(keys))})")
    for key, required in keys.items():
        if required and key not in obj:
            _fail(f"{path}.{key}" if path else key, "required")


def _number(obj, path, lo=None, hi=None):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {type(obj).__name__}")
    x = float(obj)
    if not math.isfinite(x):
        _fail(path, "must be finite")
    if lo is not None and x < lo:
        _fail(path, f"must be >= {lo}")
    if hi is not None and x > hi:
        _fail(path, f"must be <= {hi}")
    return x


def _integer(obj, path, lo=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {type(obj).__name__}")
    if lo is not None and obj < lo:
        _fail(path, f"must be >= {lo}")
    return int(obj)


def _choice(obj, path, allowed):
    if obj not in allowed:
        _fail(path, f"must be one of {', '.join(allowed)} (got {obj!r})")
    return obj


def _float_list(obj, path):
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a non-empty array of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


# model.<what> kind -> (constructor, {parameter: reader}): the config fields
# of each kind, passed to its constructor by name, which checks their values
_FUNCTIONS = {
    "kernel": {
        "exponential": (exponential_kernel, {"rate": _number}),
        "tabulated": (tabulated_kernel, {"nodes": _float_list,
                                         "values": _float_list}),
    },
    "transfer": {
        "arctan": (arctan_transfer, {}),
        "constant": (constant_transfer, {"value": _number}),
        "tabulated": (tabulated_transfer, {"nodes": _float_list,
                                           "values": _float_list}),
    },
}


def _function_spec(obj, what):
    """The {kind: {parameter: value}} spec of model.<what>.

    The spec is built once with its kind's constructor; whatever that
    refuses is refused here, at model.<what>.<kind>, before any run starts.
    """
    path, kinds = f"model.{what}", _FUNCTIONS[what]
    obj = _mapping(obj, path)
    if len(obj) != 1:
        _fail(path, f"expected exactly one of: {', '.join(kinds)}")
    (kind, params), = obj.items()
    if kind not in kinds:
        _fail(f"{path}.{kind}",
              f"unknown {what} kind (allowed: {', '.join(kinds)})")
    build, readers = kinds[kind]
    path = f"{path}.{kind}"
    params = _mapping(params, path)
    _keys(params, path, dict.fromkeys(readers, True))
    spec = {key: read(params[key], f"{path}.{key}")
            for key, read in readers.items()}
    try:
        build(**spec)
    except ToolkitError as exc:
        _fail(path, str(exc))
    return {kind: spec}


def _build(what, spec):
    (kind, params), = spec.items()
    return _FUNCTIONS[what][kind][0](**params)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run description with every default filled in."""

    experiment: object  # one of EXPERIMENTS, or None for plain runs
    n: object           # int, or list of ints for multi-size experiments
    p: float
    q: float
    kernel_spec: dict
    transfer_spec: dict
    scaling: str
    horizon: float
    dt: object
    replicates: int
    tracked_vertices: tuple
    seed: int
    backend: str
    net_seed: object
    out_dir: object
    options: dict
    tolerances: dict

    def build_kernel(self):
        return _build("kernel", self.kernel_spec)

    def build_transfer(self):
        return _build("transfer", self.transfer_spec)

    def resolved(self):
        """Canonical JSON-ready dict; validates back to an equal config."""
        values = dict(vars(self), kernel=self.kernel_spec,
                      transfer=self.transfer_spec,
                      tracked_vertices=list(self.tracked_vertices))
        doc = {section: {key: values[key] for key in keys}
               for section, keys in _SECTIONS.items()}
        doc.update(options=dict(self.options),
                   tolerances=dict(self.tolerances))
        if self.experiment is not None:
            doc["experiment"] = self.experiment
        if self.out_dir is not None:
            doc["output"] = {"directory": self.out_dir}
        return doc


def read_json(path, what):
    """Parse the JSON file at path; a file that cannot be read or decoded
    raises ConfigError naming it as `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def read_config(path):
    """(config, revision) of a config file.

    A manifest.json is accepted and unwrapped; revision is the output
    revision it records (0 if it records none), or None for a plain config.
    """
    raw = read_json(path, "config")
    if isinstance(raw, dict) and "resolved_config" in raw:
        tool = raw.get("tool")
        revision = tool.get("revision", 0) if isinstance(tool, dict) else 0
        return raw["resolved_config"], revision
    return raw, None


def load_config(path):
    """Read a config file; a manifest.json is accepted and unwrapped."""
    return read_config(path)[0]


def validate_config(raw):
    """Check a parsed config document and fill in defaults.

    Raises ConfigError with the dotted path of the first offending field.
    """
    raw = _mapping(raw, "config")
    _keys(raw, "", dict.fromkeys(_SECTIONS, True) | dict.fromkeys(
        ("experiment", "output", "options", "tolerances"), False))

    experiment = raw.get("experiment")
    if experiment is not None:
        experiment = _choice(experiment, "experiment", EXPERIMENTS)
    fields, defaults, regime = _SCHEMAS.get(experiment, ((), {}, None))

    model = _mapping(raw["model"], "model")
    _keys(model, "model", _SECTIONS["model"])

    if isinstance(model["n"], list):
        sizes = [_integer(v, f"model.n[{i}]", lo=1)
                 for i, v in enumerate(model["n"])]
        if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
            _fail("model.n", "sizes must be strictly increasing")
        n = sizes
    else:
        n = _integer(model["n"], "model.n", lo=1)
    if "sizes" in fields and not isinstance(n, list):
        n = [n]
    if "n" in fields and isinstance(n, list):
        _fail("model.n", f"experiment {experiment!r} takes a single size")

    p = _number(model["p"], "model.p", lo=0.0, hi=1.0)
    q = _number(model["q"], "model.q", lo=0.0, hi=1.0)
    kernel_spec = _function_spec(model["kernel"], "kernel")
    transfer_spec = _function_spec(model["transfer"], "transfer")

    scaling = _choice(model.get("scaling", regime or "mean_field"),
                      "model.scaling", SCALINGS)
    # no experiment keyword carries the regime: an experiment runs under the
    # scaling its entry names, and critical (root-N) scaling needs p = 1/2
    if regime == "critical" and p != 0.5:
        _fail("model.p", f"the {experiment} experiment requires p = 0.5")
    if regime not in (None, scaling):
        _fail("model.scaling", f"experiment {experiment!r} requires "
              f"scaling = {regime!r}")
    if scaling == "critical" and p != 0.5:
        _fail("model.scaling", "critical scaling requires p = 0.5")

    run = _mapping(raw["run"], "run")
    _keys(run, "run", _SECTIONS["run"])
    horizon = _number(run["horizon"], "run.horizon")
    if horizon <= 0:
        _fail("run.horizon", "must be > 0")
    dt = run.get("dt")
    if dt is not None:
        dt = _number(dt, "run.dt")
        if not 0 < dt <= horizon:
            _fail("run.dt", "must satisfy 0 < dt <= horizon")
    replicates = _integer(run.get("replicates", 1), "run.replicates", lo=1)
    tracked = run.get("tracked_vertices", [])
    if not isinstance(tracked, list):
        _fail("run.tracked_vertices", "expected an array of vertex indices")
    smallest = min(n) if isinstance(n, list) else n
    tracked = tuple(_integer(v, f"run.tracked_vertices[{i}]", lo=0)
                    for i, v in enumerate(tracked))
    if len(set(tracked)) != len(tracked):
        _fail("run.tracked_vertices", "indices must be distinct")
    for i, v in enumerate(tracked):
        if v >= smallest:
            _fail(f"run.tracked_vertices[{i}]",
                  f"vertex {v} out of range for n = {smallest}")
    seed = _integer(run["seed"], "run.seed", lo=0)
    backend = _choice(run.get("backend", "thinning"), "run.backend", BACKENDS)
    net_seed = run.get("net_seed")
    if net_seed is not None:
        net_seed = _integer(net_seed, "run.net_seed", lo=0)
    # every experiment picks its own tracked vertices, and only one with a
    # net_seed keyword takes a network seed (its contract may refuse it)
    if experiment is not None and tracked:
        _fail("run.tracked_vertices",
              f"experiment {experiment!r} picks its own tracked vertices")
    if net_seed is not None and experiment and "net_seed" not in fields:
        _fail("run.net_seed", f"experiment {experiment!r} draws a fresh "
              "network per replicate")

    out_dir = None
    if "output" in raw:
        output = _mapping(raw["output"], "output")
        _keys(output, "output", {"directory": True})
        if not isinstance(output["directory"], str):
            _fail("output.directory", "expected a string")
        out_dir = output["directory"]

    options = _mapping(raw.get("options", {}), "options")
    if options and not defaults:
        which = f"experiment {experiment!r}" if experiment else "a plain run"
        _fail(f"options.{next(iter(options))}",
              f"{which} takes no options")
    _keys(options, "options", dict.fromkeys(defaults, False))
    merged = dict(defaults)
    for key, value in options.items():
        if not isinstance(defaults[key], bool):
            value = _integer(value, f"options.{key}",
                             lo=_OPTION_FLOORS.get(key))
        elif not isinstance(value, bool):
            _fail(f"options.{key}", "expected true or false")
        merged[key] = value

    try:
        tolerances = _tol(_mapping(raw.get("tolerances", {}), "tolerances"))
    except ParameterError as exc:  # _tol's refusal, keyed to its key
        _fail(f"tolerances.{exc.keyword}", str(exc))

    cfg = ExperimentConfig(
        experiment=experiment, n=n, p=p, q=q, kernel_spec=kernel_spec,
        transfer_spec=transfer_spec, scaling=scaling, horizon=horizon, dt=dt,
        replicates=replicates, tracked_vertices=tracked, seed=seed,
        backend=backend, net_seed=net_seed, out_dir=out_dir, options=merged,
        tolerances=tolerances,
    )
    if experiment is not None:
        try:
            _EXPERIMENTS[experiment].contract(**experiment_kwargs(cfg))
        except ToolkitError as exc:
            _fail(_FIELDS.get(exc.keyword, f"options.{exc.keyword}"),
                  str(exc))
    return cfg


def experiment_kwargs(cfg):
    """Keyword arguments for run_experiment built from a validated config."""
    if cfg.experiment is None:
        raise ConfigError("experiment: required (config key or --experiment)")
    # option keys are the experiments' keyword names, and so are the config
    # attributes, but for sizes (n) and the kernel and transfer (built)
    values = dict(vars(cfg), sizes=cfg.n, kernel=cfg.build_kernel(),
                  transfer=cfg.build_transfer())
    fields = _SCHEMAS[cfg.experiment][0]
    return dict(cfg.options, **{key: values[key] for key in fields})
