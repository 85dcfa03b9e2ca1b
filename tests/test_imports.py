"""Every module-level import in src/d2dpower is used where it is imported,
unless perfbench/tracing.py rebinds that name (its SITES): the benchmark
wraps a function where its caller looks it up."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "d2dpower"


def _traced_names():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
            for mod, attr, *_ in tracing.SITES}


def _unused_imports(path):
    """Names that path's module-level imports bind and that its code never
    reads, by name or through __all__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            read |= set(ast.literal_eval(node.value))
    return {name: line for name, line in bound.items() if name not in read}


def test_every_module_level_import_is_used_or_traced():
    traced = _traced_names()
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    stray = [f"{path.name}:{line} imports {name}, unused"
             for path in paths
             for name, line in _unused_imports(path).items()
             if f"{path.stem}.{name}" not in traced]
    assert not stray
