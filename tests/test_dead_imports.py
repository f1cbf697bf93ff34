"""Every name a package module imports at its top level is read in that module.

No linter ships with the project, so this stands in for an unused-import check:
an import left behind when the code that read it is deleted fails here, naming
the module and the name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fbsplab"


def unread_imports(path: Path) -> list[str]:
    """The top-level imported names (``__future__`` aside) of the module at
    ``path`` that it never reads as a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = [(alias.asname or alias.name).partition(".")[0]
                for node in tree.body
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    unread = unread_imports(path)
    assert not unread, f"{path.name} imports {', '.join(unread)} and never reads it"


def test_an_unread_import_is_named(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                      "from a import b, c\n\nprint(os.sep, c)\n", encoding="utf-8")
    assert unread_imports(module) == ["np", "b"]
