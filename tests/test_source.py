"""Static checks on the library's source, with the standard library alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gl2orbits"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order.

    ``__future__`` imports bind no name. A name counts as read when it
    appears as a Name node anywhere, annotations included.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_import_finder_catches_a_dead_name():
    source = "from itertools import chain, islice\nimport os.path\nprint(chain)\n"
    assert unused_imports(source) == ["islice", "os"]


def test_no_module_keeps_an_unused_import():
    # __init__.py imports to re-export, so it is left out.
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
