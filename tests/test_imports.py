"""Every name a library module or a test file imports is used in that file,
and every function and class a library module defines is named by the library.

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


# module-level functions and classes that no library module names, and why each stays
UNNAMED = {
    "decode_feedback": "the inverse of encode_feedback: acceptance test c04 pins the 6-bit "
                       "codec with it",
    "CandidateMatrix": "the benchmark's tracer test reads CandidateMatrix.from_powers",
    "path_loss_db": "acceptance test c02 pins the 60.046 dB free-space loss with it",
}


def unnamed_definitions(sources: dict) -> list:
    """(module, name) of each module-level function and class of ``sources``
    (module name -> source) that no module loads, as a loaded ``ast.Name`` or
    as an attribute of a name it imports; a definition does not name itself,
    nor does a field or a ``self.`` attribute that shares its name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        named.update(node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in imported)
    return sorted((module, node.name) for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named)


def test_every_library_function_and_class_is_named_by_the_library():
    # code that only tests or examples call belongs with them, not in the library
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert {name for _module, name in unnamed_definitions(sources)} == set(UNNAMED)


def test_an_unnamed_definition_is_found():
    sources = {"a.py": "def f():\n    return g()\nclass C:\n    pass\n",
               "b.py": "import x\ndef g():\n    pass\ndef h():\n    return x.f\n"}
    assert unnamed_definitions(sources) == [("a.py", "C"), ("b.py", "h")]
    # a dataclass field and a self. attribute of the same name do not name a function
    shadowed = {"a.py": "def loss():\n    pass\n@dataclass\nclass B:\n    loss: float = 0.0\n"
                        "    def total(self):\n        return self.loss\n",
                "b.py": "B().total()\n"}
    assert unnamed_definitions(shadowed) == [("a.py", "loss")]


def test_the_rate_pass_is_exported_from_experiments():
    # the steady-state rate pass lives next to the dc tensor that calls it
    from wptdas import experiments
    assert wptdas.dc_power_matrix is experiments.dc_power_matrix
    assert not (Path(wptdas.__file__).parent / "signal_chain.py").exists()
    assert not hasattr(wptdas, "ChannelRealization")


def test_the_cli_imports_no_private_library_name():
    # the stream layout and the dc tensor stay behind the library's public runners
    tree = ast.parse((Path(wptdas.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "wptdas")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []
