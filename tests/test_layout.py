import ast
import re
from pathlib import Path

import residuo


def test_no_private_imports_across_modules():
    found = set()
    for path in Path(residuo.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found.update(
                    (path.stem, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                )
    assert found == set()


def test_oracle_factory_aliases_stay_in_oracle_module():
    # The make_*_oracle aliases exist for perfbench only; the package builds
    # its oracles by class.
    named = [
        path.name
        for path in Path(residuo.__file__).parent.glob("*.py")
        if path.name != "oracle.py"
        and re.search(r"\bmake_\w+_oracle\b", path.read_text())
    ]
    assert named == []
