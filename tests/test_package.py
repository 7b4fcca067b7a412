import ast
import importlib
import math
import os
import pathlib
import subprocess
import sys

import nestedkrig as nk
from nestedkrig.cli import main

SRC = pathlib.Path(nk.__file__).parent

# the group-major layout and the group factors of SubModelBank
BANK_LAYOUT = {"spans", "point_order", "inv_factors", "major_row", "_Xc",
               "_starts", "_yc"}


def test_public_names_resolve():
    missing = [name for name in nk.__all__ if not hasattr(nk, name)]
    assert missing == []
    assert len(set(nk.__all__)) == len(nk.__all__)


def test_only_the_bank_knows_the_group_layout():
    # every other module asks SubModelBank for weights and group terms
    # instead of reading its layout or factoring group covariances itself
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "gpcore.py":
            continue
        tree = ast.parse(path.read_text())
        attrs = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)} & BANK_LAYOUT
        if attrs:
            readers[path.name] = sorted(attrs)
    assert readers == {}


def test_estimation_and_metrics_factor_no_group_covariance():
    for name in ("estimation.py", "metrics.py"):
        tree = ast.parse((SRC / name).read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not names & {"factor_spd", "factor_spd_stack"}, name



def _names(nodes):
    """Identifiers that ``nodes`` name: variables, attributes and imports."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name)
    return out


def test_only_the_tree_engine_solves_aggregation_weights():
    # every consumer takes its weights from the tree engine; the one other
    # solve is aggregation.aggregate, the pointwise rule for arbitrary
    # expert statistics (its import is the module's only other mention)
    solvers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("linalg.py", "tree.py"):
            continue
        body = ast.parse(path.read_text()).body
        if path.name == "aggregation.py":
            body = [node for node in body
                    if not isinstance(node, ast.ImportFrom)
                    and getattr(node, "name", None) != "aggregate"]
        if "solve_weights" in _names(body):
            solvers.append(path.name)
    assert solvers == []


def test_only_the_bank_reads_materialised_statistics():
    # the materialised path is SubModelBank.layer1 feeding tree.run_layers;
    # every other module streams layer 1 through the tree engine instead
    callers, runners = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "gpcore.py" and any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "layer1" for node in ast.walk(tree)):
            callers.append(path.name)
        if path.name != "tree.py" and "run_layers" in _names([tree]):
            runners.append(path.name)
    assert callers == [] and runners == []


def _write_calls(tree):
    """Calls in ``tree`` that open a file for writing or appending."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            text = mode.value if isinstance(mode, ast.Constant) else "?"
            if mode is not None and set(str(text)) & set("wax+?"):
                found.append((node.lineno, f"open mode {text}"))
    return found


def test_guard_sees_every_write_mode():
    source = ("open(p, 'w'); open(p, mode='a'); io.open(p, 'x');"
              "open(p, 'r+'); open(p, m); path.write_text(s);"
              "open(p); open(p, 'rb'); open(p, newline='')")
    assert [what for _, what in _write_calls(ast.parse(source))] == [
        "open mode w", "open mode a", "open mode x", "open mode r+",
        "open mode ?", "write_text"]


def test_only_data_writes_files():
    # every CSV and JSON output goes through data.write_table or
    # data.write_json, so one module owns the output formats
    writers = {path.name: _write_calls(ast.parse(path.read_text()))
               for path in sorted(SRC.glob("*.py"))}
    assert writers.pop("data.py")
    assert {name: calls for name, calls in writers.items() if calls} == {}


def test_traced_names_exist():
    # perfbench/tracing.py wraps these by name; a rename must fail here
    tracing = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tables = {}
    for node in ast.parse(tracing.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("FUNCTIONS",
                                                              "METHODS")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert tables["FUNCTIONS"] and tables["METHODS"]
    missing = [f"{module}.{name}" for module, name in tables["FUNCTIONS"]
               if not callable(getattr(importlib.import_module(
                   f"nestedkrig.{module}"), name, None))]
    for module, cls_name, method, _ in tables["METHODS"]:
        cls = getattr(importlib.import_module(f"nestedkrig.{module}"),
                      cls_name, None)
        if cls is None or method not in vars(cls):
            missing.append(f"{module}.{cls_name}.{method}")
    assert missing == []


NO_SCIPY_CONFIG = """
[kernel]
family = matern52
variance = 1.0
lengthscales = 0.2

[partition]
mode = consecutive
p = 3

[tree]
mode = flat

[estimation]
enabled = true
n_iter = 2
q = 4
seed = 3
"""

# fit with estimation, both prediction paths that solve triangular systems
# and the leave-one-out estimate, on relative paths in the working directory
NO_SCIPY_COMMANDS = [
    ["fit", "--config", "run.cfg", "--train", "train.csv", "--out", "model.json"],
    ["predict", "--bundle", "model.json", "--query", "query.csv",
     "--out", "nested.csv", "--method", "nested", "--with-variance"],
    ["predict", "--bundle", "model.json", "--query", "query.csv",
     "--out", "full.csv", "--method", "full", "--with-variance"],
    ["loo-estimate", "--config", "run.cfg", "--train", "train.csv",
     "--out", "loo.json"],
]
NO_SCIPY_OUTPUTS = ("model.json", "nested.csv", "full.csv", "loo.json")


def _python(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _no_scipy_inputs(path):
    path.mkdir()
    xs = [i / 23.0 for i in range(24)]
    (path / "train.csv").write_text(
        "x,y\n" + "".join(f"{x!r},{math.sin(6.0 * x) + x!r}\n" for x in xs))
    (path / "query.csv").write_text(
        "x\n" + "".join(f"{i / 40.0!r}\n" for i in range(41)))
    (path / "run.cfg").write_text(NO_SCIPY_CONFIG)


def test_runtime_needs_no_scipy(tmp_path, monkeypatch):
    # a process where `import scipy` fails runs every command that solves
    # triangular systems, and writes the bytes this process writes
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    _no_scipy_inputs(blocked)
    _no_scipy_inputs(here)
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from nestedkrig.cli import main\n"
            f"for argv in {NO_SCIPY_COMMANDS!r}:\n"
            "    assert main(argv) == 0, argv\n")
    run = _python(code, blocked)
    assert run.returncode == 0, run.stderr
    monkeypatch.chdir(here)
    for argv in NO_SCIPY_COMMANDS:
        assert main(argv) == 0, argv
    for name in NO_SCIPY_OUTPUTS:
        assert (blocked / name).read_bytes() == (here / name).read_bytes(), name


def test_import_loads_no_scipy(tmp_path):
    run = _python("import sys, nestedkrig.cli\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                  tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
