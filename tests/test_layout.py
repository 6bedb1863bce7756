import ast
import os
import re
import subprocess
import sys
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


def test_cold_cli_import_skips_what_commands_do_not_run():
    # A fresh interpreter without site (-S), so only residuo's own imports
    # count: no dataclasses (which loads inspect), and selftest only for its
    # command.
    src = Path(residuo.__file__).parent.parent
    probe = (
        "import residuo.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'residuo.selftest'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_each_oracle_is_one_route():
    # An oracle class names its route(m, fact, k); evaluation is not
    # overridden anywhere else.
    classes = residuo.CrsOracle.__subclasses__()
    assert {cls.__name__ for cls in classes} == {
        "FactorOracle",
        "DefinitionOracle",
        "ZolotarevOracle",
    }
    for cls in (residuo.CrsOracle, *classes):
        assert "_evaluate" not in vars(cls)
    for cls in classes:
        assert isinstance(vars(cls).get("route"), staticmethod), cls.__name__
