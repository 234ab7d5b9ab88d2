"""No module of src/matt imports a name that it never reads.

Each module is parsed with `ast`.  A name is read where it occurs as a
name in an expression or is listed in the module's `__all__`; imports from
`__future__` are directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matt"


def unused_imports(tree: ast.Module) -> list[str]:
    """The names that tree imports and never reads, in import order."""
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [n for n in dict.fromkeys(imported) if n not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c"]),
    ("from __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("def f():\n    from a import b\n    return b\n", []),
    ("from a import b\ndef f(x: b): pass\n", []),
])
def test_unused_imports_reads_names_and_all(source, unused):
    assert unused_imports(ast.parse(source)) == unused
