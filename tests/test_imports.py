"""Every package module, test and demo uses each name it imports.

No linter ships with the test environment, so this is the unused-import
rule (pyflakes F401) written with `ast`.  A name counts as used when the
module reads it or lists it in `__all__`; an import line marked
`# noqa: F401` is exempt, for a name other code looks up on the module.
`__init__.py` re-exports by importing, so it is not checked for unused
imports; instead it must star-import each module whose `__all__` it
republishes.
No test runs the demos, so every name a demo imports from the package is
checked to exist.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hawkes_meanfield"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")
DEMOS = sorted(f"demos/{p.name}" for p in (ROOT / "demos").glob("*.py"))
# every file the unused-import rule reads, by its test id
CHECKED = {**{name: PACKAGE / name for name in MODULES},
           **{f"tests/{p.name}": p for p in sorted(ROOT.glob("tests/*.py"))},
           **{name: ROOT / name for name in DEMOS}}


def _imported(tree, lines):
    """{bound name: line} of every import not marked `# noqa: F401`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [(a, a.asname or a.name.split(".")[0])
                       for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            aliases = [(a, a.asname or a.name) for a in node.names
                       if a.name != "*"]
        else:
            continue
        for alias, name in aliases:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                names[name] = alias.lineno
    return names


def _public(tree):
    """The names a module lists in `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | _public(tree)


def _unused_imports(source):
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line
                  in _imported(tree, source.splitlines()).items()
                  if name not in used)


def test_the_check_sees_unused_and_exempt_imports():
    source = ("import os\nimport json\nfrom math import pi, tau\n"
              "from numpy import (\n    sqrt,  # noqa: F401\n    exp,\n)\n"
              "__all__ = ['tau']\nprint(json.dumps(pi))\n")
    assert _unused_imports(source) == [(1, "os"), (6, "exp")]


@pytest.mark.parametrize("module", CHECKED)
def test_module_uses_every_import(module):
    source = CHECKED[module].read_text(encoding="utf-8")
    assert _unused_imports(source) == []


@pytest.mark.parametrize("demo", DEMOS)
def test_demos_import_names_the_package_has(demo):
    tree = ast.parse((ROOT / demo).read_text(encoding="utf-8"))
    missing = [(node.module, a.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "hawkes_meanfield"
               for a in node.names
               if not hasattr(importlib.import_module(node.module), a.name)]
    assert missing == []


def _star_imports(tree):
    """The modules that `from .module import *` re-exports."""
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and [a.name for a in node.names] == ["*"]}


@pytest.mark.parametrize("module", ["network", "kernels", "volterra",
                                    "simulator", "fluctuations"])
def test_package_reexports_exactly_the_public_names(module):
    # a star import binds exactly the module's __all__: a name added there is
    # exported from the package too, and a deleted one cannot linger
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert module in _star_imports(init)
    package = importlib.import_module("hawkes_meanfield")
    source = importlib.import_module(f"hawkes_meanfield.{module}")
    assert [name for name in source.__all__ if getattr(
        package, name, None) is not getattr(source, name)] == []


# Each script runs in a fresh interpreter (the test process itself has scipy
# loaded) and prints the sorted scipy modules loaded at the end.  scipy is
# imported only inside the functions that need it: `volterra.fixed_point`
# (scipy.optimize), and the sign-test tail of complementary critical and the
# independence goodness-of-fit test (scipy.special).
_PRELUDE = """
import json, sys
from pathlib import Path

import hawkes_meanfield
from hawkes_meanfield import cli
from hawkes_meanfield.config import load_config, validate_config

model = {"p": 0.8, "q": 0.5, "kernel": {"exponential": {"rate": 1.0}},
         "transfer": {"arctan": {}}}
tmp = Path(sys.argv[2])


def verify(name, n, run, options, **model_over):
    doc = {"experiment": name, "model": dict(model, n=n, **model_over),
           "run": dict(run, horizon=1.0, seed=7), "options": options}
    cfg = tmp / f"{name}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    status = cli.main(["verify", "--config", str(cfg),
                       "--out", str(tmp / name)])
    assert status in (0, 1), (name, status)


def loaded():
    print(json.dumps(sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy."))))
"""

# Validates every shipped config, runs simulate, meanfield and fluctuations
# and a toy verify of clt, time-change lln, corollary and random-mode
# critical.
_SCIPY_FREE_RUN = _PRELUDE + """
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    validate_config(load_config(path))
cfg = tmp / "single.json"
cfg.write_text(json.dumps({"model": dict(model, n=25),
                           "run": {"horizon": 1.0, "replicates": 2,
                                   "seed": 7}}),
               encoding="utf-8")
for command in ("simulate", "meanfield", "fluctuations"):
    status = cli.main([command, "--config", str(cfg),
                       "--out", str(tmp / command)])
    assert status == 0, (command, status)
verify("clt", 40, {"replicates": 8}, {"n_tracked": 2, "limit_samples": 200})
verify("lln", [15, 30], {"replicates": 3, "backend": "time_change"}, {})
verify("corollary", [15, 30], {"replicates": 8}, {})
verify("critical", 16, {"replicates": 5}, {}, p=0.5, scaling="critical")
loaded()
"""

# A toy complementary critical and a toy independence verify: their tails
# come from scipy.special alone.
_TAILS_RUN = _PRELUDE + """
verify("critical", 16, {"replicates": 5}, {"complementary": True}, p=0.5,
       scaling="critical")
verify("independence", [20], {"replicates": 10}, {})
loaded()
"""


def _loaded_scipy(script, tmp_path):
    root = PACKAGE.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "configs"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_commands_and_clt_lln_verify_never_load_scipy(tmp_path):
    assert _loaded_scipy(_SCIPY_FREE_RUN, tmp_path) == []


def test_verdict_tails_load_neither_scipy_stats_nor_integrate(tmp_path):
    loaded = _loaded_scipy(_TAILS_RUN, tmp_path)
    assert "scipy.special" in loaded
    for package in ("scipy.stats", "scipy.integrate", "scipy.optimize"):
        assert not [m for m in loaded
                    if m == package or m.startswith(package + ".")], package
