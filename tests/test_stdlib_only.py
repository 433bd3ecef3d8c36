"""The library has zero runtime dependencies: every absolute import in
``src/qkline`` names a standard-library module.  Relative imports are
qkline's own modules."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qkline"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_from_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    foreign = [
        (path.name, name)
        for path in paths
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign
