import ast
from pathlib import Path

import residuo

# Private names one module may import from another.  selftest's
# _admissible reads the cached power image directly: it runs on the hot
# path of the three-way oracle agreement criterion, which spends most of
# its wall-clock budget there.
ALLOWED = {("selftest", "_power_image")}


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
    assert found <= ALLOWED
