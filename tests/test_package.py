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
