"""The package's imports: no cycle between its modules, no private name taken
from a sibling module, and a star import that yields public names only."""
import ast
import inspect
from pathlib import Path

import quantile_kaczmarz

PACKAGE = Path(quantile_kaczmarz.__file__).parent


def sibling_imports(path: Path, modules: set[str]) -> set[str]:
    """Package modules that ``path`` imports, at any depth of its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                target = node.module or ""
            elif node.module and node.module.startswith("quantile_kaczmarz."):
                target = node.module.split(".", 1)[1]
            else:
                continue
            if target:
                found.add(target.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("quantile_kaczmarz."):
                    found.add(alias.name.split(".")[1])
    return found & modules


def test_import_graph_is_acyclic():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    graph = {name: sibling_imports(PACKAGE / f"{name}.py", modules) for name in modules}
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        for target in sorted(graph[name]):
            visit(target, path + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level >= 1 or (node.module or "").startswith("quantile_kaczmarz")
            ):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, private


def test_star_import_exports_public_names_only():
    names: dict = {}
    exec("from quantile_kaczmarz import *", names)
    del names["__builtins__"]
    assert "QkError" in names
    assert not [n for n, v in names.items() if n.startswith("_") or inspect.ismodule(v)]
