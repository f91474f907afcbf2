"""Every name a library module or a test file imports is used in that file.

``__init__.py`` is left out: its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

import wptdas

MODULES = sorted(p for p in Path(wptdas.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom .errors import EventLog, check_finite\ncheck_finite(os)\n"
    assert unused_imports(source) == [(2, "EventLog")]


def test_the_cli_imports_no_private_library_name():
    # the stream layout and the dc tensor stay behind the library's public runners
    tree = ast.parse((Path(wptdas.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "wptdas")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []
