"""The package's imports: no cycle between its modules, no private name taken
from a sibling module, a star import that yields public names only, and no
public name that only the tests use."""
import ast
import inspect
from collections import Counter
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


def import_graph() -> dict[str, set[str]]:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    return {name: sibling_imports(PACKAGE / f"{name}.py", modules) for name in modules}


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """The modules that ``start`` imports, directly or through others."""
    seen, todo = set(), [start]
    while todo:
        for target in graph[todo.pop()] - seen:
            seen.add(target)
            todo.append(target)
    return seen


def test_import_graph_is_acyclic():
    graph = import_graph()
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


def test_solvers_never_reaches_the_rate_formulas():
    """The step size is the harness's policy: a solve takes a number and
    never evaluates the rate formula, so ``solvers`` reaches no ``rates``."""
    assert "rates" not in reachable(import_graph(), "solvers")


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


def _references(node: ast.AST) -> list[str]:
    """Every name and attribute name read or written inside ``node``."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _public_definitions(tree: ast.Module):
    """The public module-level functions and classes of ``tree``, and the
    public methods and properties of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (f for f in node.body if isinstance(f, ast.FunctionDef)
                            and not f.name.startswith("_"))


def test_every_public_name_is_used_outside_the_tests():
    """A public function, class, method or property that the rest of the
    package never refers to and the benchmark never names is one that only
    the tests need."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    used = Counter(name for tree in trees for name in _references(tree))
    named = {name for p in (PACKAGE.parents[1] / "perfbench").glob("*.py")
             for name in _references(ast.parse(p.read_text(encoding="utf-8")))}
    unused = [node.name for tree in trees for node in _public_definitions(tree)
              if used[node.name] == _references(node).count(node.name)
              and node.name not in named]
    assert unused == []
