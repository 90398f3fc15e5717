"""The package's imports: no cycle between its modules, no private name taken
from a sibling module, a star import that yields public names only, no public
name that only the tests use, and a namespace that loads a module only when
one of its names is first read."""
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import quantile_kaczmarz

PACKAGE = Path(quantile_kaczmarz.__file__).parent

# The package's public names, by the module that defines them.
PUBLIC = {
    "errors": ["ConditionViolatedError", "ConfigError", "DivergedError", "DomainError",
               "IoError", "NoConvergenceError", "QkError", "ShapeError"],
    "linalg": ["SUBSET_ENUMERATION_CAP", "SpectralSummary", "quantile_of_multiset",
               "restricted_min_sv_bruteforce", "restricted_min_sv_sampled", "row_normalize",
               "sigma_max_sq"],
    "problems": ["CorruptedSystem", "CorruptionSpec", "GeneratorSpec", "generate",
                 "generate_adversarial_duplicate", "load_system", "save_system"],
    "rates": ["CertificateResult", "RateReport", "alpha_opt_closed_form", "certify_iteration",
              "convergence_condition", "rate_constants", "rate_report", "resolve_alpha_auto"],
    "solvers": ["COMPARATORS", "METHODS", "IterationTrace", "SolverConfig",
                "averaged_rbk_step", "quantile_abk_step", "quantile_pbk_step",
                "quantile_rk_step", "residual", "rk_step", "sampled_qabk_step", "solve"],
    "harness": ["ExperimentConfig", "SweepResult", "SweepSpec", "adversarial_demo",
                "compare_methods", "empirical_alpha", "run", "start_vector", "sweep"],
}


SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def fresh(code: str):
    """Run ``code`` in a new interpreter that can import this package, and
    return the JSON value of the last line it prints."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


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


def test_every_field_of_a_validated_class_is_read():
    """A public class that validates itself (it defines or assigns
    ``__post_init__``) keeps no field that the package never reads as an
    attribute: such a field is checked, stored and carried for nothing."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    validated = [node for tree in trees for node in tree.body
                 if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                 and "__post_init__" in (_references(node) + [
                     f.name for f in node.body if isinstance(f, ast.FunctionDef)])]
    fields = [f"{cls.name}.{f.target.id}" for cls in validated for f in cls.body
              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    assert {f.split(".")[0] for f in fields} >= {
        "SolverConfig", "GeneratorSpec", "CorruptionSpec", "ExperimentConfig", "SweepSpec",
        "CorruptedSystem"}
    assert [f for f in fields if f.split(".")[1] not in read] == []


def test_import_loads_no_solver_or_experiment_code():
    """Importing the package and its CLI loads neither the solvers, the rate
    formulas, the experiment harness, the SVG writer nor a thread pool; a
    module loads when a name that needs it is first read."""
    steps = fresh(
        "import json, sys\n"
        "def held():\n"
        "    return sorted(m.removeprefix('quantile_kaczmarz.') for m in sys.modules\n"
        "                  if m.startswith('quantile_kaczmarz.') or m == 'concurrent.futures')\n"
        "import quantile_kaczmarz as qk, quantile_kaczmarz.cli\n"
        "steps = [held()]\n"
        "qk.solve\n"
        "steps.append(held())\n"
        "qk.run\n"
        "print(json.dumps(steps + [held()]))")
    bare, solve, run = map(set, steps)
    assert "cli" in bare
    assert not bare & {"harness", "rates", "solvers", "svgplot", "concurrent.futures"}
    assert solve - bare == {"solvers"}
    assert "harness" in run


def test_generate_and_rate_load_no_harness(tmp_path):
    """``qkz generate`` loads no solver, rate or experiment code, and ``qkz
    rate`` without ``--config`` loads the solvers (for ``--q``'s field) and
    the rate formulas but not the harness."""
    loaded = {}
    for argv in (["generate", "--m", "20", "--n", "3", "--seed", "1", "--out", "sys"],
                 ["rate", "--m", "20", "--n", "3", "--seed", "1"]):
        loaded[argv[0]] = set(fresh(
            "import json, os, sys\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "from quantile_kaczmarz import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(json.dumps([m.removeprefix('quantile_kaczmarz.') for m in sys.modules\n"
            "                  if m.startswith('quantile_kaczmarz.')]))"))
    assert loaded["generate"] == {"cli", "errors", "linalg", "problems"}
    assert loaded["rate"] == loaded["generate"] | {"rates", "solvers"}


def test_namespace_holds_the_defining_modules_objects():
    qk = quantile_kaczmarz
    assert sorted(qk.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert len(qk.__all__) == 51
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"quantile_kaczmarz.{home}")
        for name in names:
            assert getattr(qk, name) is getattr(module, name), name
    assert qk.__version__ == "0.1.0"
    assert getattr(qk, "nope", None) is None


def test_fresh_namespace_lists_and_resolves_its_submodules():
    """Before any name is read, ``dir`` lists every public name and
    submodule, and ``getattr`` returns the submodules themselves."""
    listed, resolved = fresh(
        "import json\n"
        "import quantile_kaczmarz as qk\n"
        "listed = dir(qk)\n"
        "print(json.dumps([listed, [getattr(qk, n).__name__ for n in ('harness', 'solvers')]]))")
    assert set(quantile_kaczmarz.__all__) | set(SUBMODULES) <= set(listed)
    assert resolved == ["quantile_kaczmarz.harness", "quantile_kaczmarz.solvers"]
