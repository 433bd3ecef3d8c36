"""The library has zero runtime dependencies: every absolute import in
``src/qkline`` names a standard-library module.  Relative imports are
qkline's own modules.  Every module-level import is used, and a CLI run
imports only what it needs."""

import ast
import json
import os
import pathlib
import subprocess
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


def _unused_module_imports(path):
    """Names a module's top-level imports bind that it neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = [
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_every_module_level_import_is_used():
    unused = [(path.name, name) for path in sorted(SRC.glob("*.py")) for name in _unused_module_imports(path)]
    assert not unused


# modules that cost start-up time and that no CLI run outside the golden suite needs
_AVOIDABLE = ("dataclasses", "inspect", "fractions", "decimal", "qkline.golden")

_LOADED = f"""\
import contextlib, io, json, sys
import qkline.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qkline.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, [m for m in {_AVOIDABLE!r} if m in sys.modules]]))
"""


def _loaded_after(*argv):
    """[exit code, the avoidable modules loaded] in a fresh interpreter after
    ``import qkline.cli`` and, when argv is given, ``cli.main(argv)``."""
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _LOADED, *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    return json.loads(proc.stdout)


def test_the_cli_starts_without_dataclasses_fractions_or_the_golden_module():
    assert _loaded_after() == [0, []]
    assert _loaded_after("check", "--suite", "peterson", "--group", "A3", "--parabolic", "1,3") == [0, []]


def test_the_golden_suite_loads_the_golden_module_and_passes():
    code, loaded = _loaded_after("check", "--suite", "golden")
    assert code == 0 and "qkline.golden" in loaded
