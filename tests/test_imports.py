"""Every module-level import of a `slrc` module is read by that module.

No linter is a dependency, so this reads each module's syntax tree: a
name bound by a top-level `import` or `from ... import` must be loaded
somewhere in the module.  `__init__.py` is exempt, as its imports are
the package's re-exports.
"""

import ast
import os

import pytest

import slrc

PACKAGE = os.path.dirname(slrc.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in loaded)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy as np\nfrom .a import b, c\n"
              "def f(x: c):\n    return np.zeros(x)\n")
    assert _unused_imports(source) == [(2, "os"), (4, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        assert _unused_imports(fh.read()) == []
