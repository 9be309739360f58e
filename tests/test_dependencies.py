"""The runtime dependencies pyproject.toml declares are the ones the package imports."""

import ast
import os
import re
import sys

import pytest

import tlonemax

tomllib = pytest.importorskip("tomllib")

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _third_party_imports() -> set[str]:
    """Top-level names of the package's absolute imports outside the standard
    library, including those inside functions, which an import never runs."""
    package = os.path.dirname(tlonemax.__file__)
    names = set()
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename)) as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_declared_dependencies_are_the_imported_ones():
    with open(os.path.join(_ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    packages = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in declared}
    assert _third_party_imports() == packages == {"numpy"}
