"""Every third-party module the package imports is a declared dependency."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "obslab"


def imported_top_levels(root: Path) -> set:
    """Top-level names of the absolute imports in every module under
    `root`."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set:
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower()
            .replace("-", "_") for req in project["dependencies"]}


def test_every_third_party_import_is_declared():
    third_party = (imported_top_levels(PACKAGE) - set(sys.stdlib_module_names)
                   - {"obslab"})
    assert third_party, "the scan found no third-party import"
    missing = third_party - declared_dependencies()
    assert not missing, f"imported but not in [project] dependencies: {missing}"
