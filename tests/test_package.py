import ast
import importlib
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import nestedkrig as nk
from nestedkrig.cli import main

SRC = pathlib.Path(nk.__file__).parent

# the group-major layout and the group factors of SubModelBank
BANK_LAYOUT = {"spans", "point_order", "inv_factors", "major_row", "_Xc",
               "_starts", "_yc"}

# public names that no other code in the package names: the desk tools,
# which carry the paper's claims, and the cost model that perfbench/run.py
# reads
UNCALLED_KEPT = {
    "aggregation.aggregate", "aggregation.aggregated_posterior",
    "aggregation.AggregatedProcess.prior_cov",
    "aggregation.diagnostics_vs_full", "gpcore.sample_conditional",
    "tree.complexity_estimate",
}


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


def _name_counts(nodes, attributes_only=False):
    """How often ``nodes`` name each identifier: variables, attributes and
    imports, or with ``attributes_only`` attribute accesses alone."""
    out = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                out[sub.attr] += 1
            elif attributes_only:
                continue
            elif isinstance(sub, ast.Name):
                out[sub.id] += 1
            elif isinstance(sub, ast.alias):
                out[sub.name] += 1
    return out


def _names(nodes):
    """Identifiers that ``nodes`` name: variables, attributes and imports."""
    return set(_name_counts(nodes))


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


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function and class
    in ``tree`` and of each public method of those classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        yield f"{node.name}.{sub.name}", sub


def test_every_public_name_is_used_in_the_package():
    # a public function, class or method must be named in the package
    # outside its own definition (the re-exports of __init__ do not count):
    # code that only tests call belongs in tests/reference.py
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    names = _name_counts(modules.values())
    attributes = _name_counts(modules.values(), attributes_only=True)
    unused = set()
    for module, tree in modules.items():
        for qualname, node in _public_definitions(tree):
            # a method is reached as an attribute: a variable of the same
            # name does not call it
            method = "." in qualname
            name = qualname.rpartition(".")[2]
            counts = attributes if method else names
            if counts[name] == _name_counts([node], method)[name]:
                unused.add(f"{module}.{qualname}")
    assert sorted(unused - UNCALLED_KEPT) == []
    # a kept name that gains a caller leaves the list
    assert sorted(UNCALLED_KEPT - unused) == []


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


def _query_loop_names(body):
    """Names of the query loop's chunk size and thread pool in ``body``."""
    names = _names(body)
    for node in body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.ImportFrom) and sub.module:
                names.add(sub.module)
    return {name for name in names
            if name in ("PREDICT_CHUNK", "ThreadPoolExecutor")
            or name.split(".")[0] == "concurrent"}


def test_guard_sees_the_query_loop_names():
    source = ("from concurrent.futures import ThreadPoolExecutor\n"
              "import concurrent.futures\nfrom .tree import PREDICT_CHUNK\n"
              "tree.PREDICT_CHUNK\nfrom .tree import map_chunks\n")
    assert _query_loop_names(ast.parse(source).body) == {
        "PREDICT_CHUNK", "ThreadPoolExecutor", "concurrent.futures"}


def test_only_the_tree_owns_the_query_loop():
    # tree.map_chunks alone reads the chunk size and starts threads; cli's
    # one mention is a separate import that re-exports PREDICT_CHUNK for the
    # cost model of perfbench/run.py, which reads cli.PREDICT_CHUNK
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tree.py":
            continue
        body = ast.parse(path.read_text()).body
        if path.name == "cli.py":
            body = [node for node in body if not (
                isinstance(node, ast.ImportFrom) and node.module == "tree"
                and [alias.name for alias in node.names] == ["PREDICT_CHUNK"])]
        if _query_loop_names(body):
            found[path.name] = sorted(_query_loop_names(body))
    assert found == {}


def _traced_tables():
    """The FUNCTIONS and METHODS tables of perfbench/tracing.py, read as text."""
    tracing = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tables = {}
    for node in ast.parse(tracing.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("FUNCTIONS",
                                                              "METHODS")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert tables["FUNCTIONS"] and tables["METHODS"]
    return tables


def test_traced_names_exist():
    # perfbench/tracing.py wraps these by name; a rename must fail here
    tables = _traced_tables()
    missing = [f"{module}.{name}" for module, name in tables["FUNCTIONS"]
               if not callable(getattr(importlib.import_module(
                   f"nestedkrig.{module}"), name, None))]
    for module, cls_name, method, _ in tables["METHODS"]:
        cls = getattr(importlib.import_module(f"nestedkrig.{module}"),
                      cls_name, None)
        if cls is None or method not in vars(cls):
            missing.append(f"{module}.{cls_name}.{method}")
    assert missing == []


def test_traced_names_are_the_code_that_runs():
    # a span the tracer opens must time code the package runs: every traced
    # name is defined in its module and is not a kept name without a caller
    tables = _traced_tables()
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined.update(f"{path.stem}.{node.name}.{sub.name}"
                               for sub in node.body
                               if isinstance(sub, ast.FunctionDef))
    traced = [f"{module}.{name}" for module, name in tables["FUNCTIONS"]]
    traced += [f"{module}.{cls_name}.{method}"
               for module, cls_name, method, _ in tables["METHODS"]]
    assert sorted(name for name in traced
                  if name not in defined or name in UNCALLED_KEPT) == []


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
