import ast
import pathlib

import nestedkrig as nk

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
