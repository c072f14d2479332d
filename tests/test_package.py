"""Package layout: ``hsfuse`` re-exports every module's ``__all__``, once, and
its modules import each other without cycles."""

import ast
import inspect
import pkgutil
import re
from graphlib import TopologicalSorter
from importlib import import_module
from pathlib import Path

import hsfuse

README = Path(__file__).resolve().parents[1] / "README.md"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def library_modules():
    # every module but the command-line entry point, in name order
    names = sorted(m.name for m in pkgutil.iter_modules(hsfuse.__path__) if m.name != "cli")
    return [import_module(f"hsfuse.{name}") for name in names]


def test_all_is_version_plus_every_module_export():
    modules = library_modules()
    assert {m.__name__ for m in modules} >= {"hsfuse.core", "hsfuse.fusion", "hsfuse.numeric"}
    expected = ["__version__"] + [name for m in modules for name in m.__all__]
    assert hsfuse.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(hsfuse, name) is getattr(module, name), name


def test_exit_code_exceptions_are_the_packages_own():
    # defined beside __version__, so the command line names them without loading numpy;
    # io and numeric raise and export these same classes
    tree = ast.parse(Path(hsfuse.__file__).read_text())
    assert [a.name for node in tree.body if isinstance(node, ast.Import) for a in node.names] \
        == ["importlib"]
    assert not any(isinstance(node, ast.ImportFrom) for node in tree.body)
    assert hsfuse.FormatError is import_module("hsfuse.io").FormatError
    assert hsfuse.RankDeficiencyError is import_module("hsfuse.numeric").RankDeficiencyError
    assert hsfuse.FormatError.__bases__ == (Exception,)
    assert hsfuse.RankDeficiencyError.__bases__ == (ArithmeticError,)
    assert hsfuse.RankDeficiencyError("dependent", column=3).column == 3
    assert hsfuse.RankDeficiencyError("dependent").column is None


def test_readme_imports_resolve():
    names = []
    for group, line in re.findall(r"from hsfuse import (?:\(([^)]*)\)|(.*))", README.read_text()):
        names += [n.strip() for n in (group or line).split(",") if n.strip()]
    assert "pfuse" in names
    assert [n for n in names if not hasattr(hsfuse, n)] == []


def intra_package_imports():
    """module -> set of package modules it imports ("__init__" for the package itself),
    and the relative imports made anywhere but at module level or, in cli.py only,
    directly in the body of a module-level function."""
    sources = {path.stem: path for path in Path(hsfuse.__file__).parent.glob("*.py")}
    graph, nested = {}, []
    for name, path in sources.items():
        tree = ast.parse(path.read_text())
        allowed = set(tree.body)
        if name == "cli":
            # each command loads only what it runs: cli's functions import their own modules
            allowed.update(node for func in tree.body if isinstance(func, ast.FunctionDef)
                           for node in func.body)
        graph[name] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node not in allowed:
                nested.append(f"{name}:{node.lineno}")
            if node.module:
                graph[name].add(node.module.partition(".")[0])
            else:
                graph[name].update(a.name if a.name in sources else "__init__"
                                   for a in node.names)
    return graph, nested


def test_import_graph_is_acyclic_and_module_level():
    graph, nested = intra_package_imports()
    assert {"core", "forward", "fusion", "io"} <= graph.keys()
    list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert nested == []
    # the response rules live in core, so the file format and the solver need no simulator
    assert "forward" not in graph["io"] | graph["fusion"]


def test_benchmark_hooks_resolve():
    # perfbench/spans.py wraps hsfuse.<module>.<function> by name and binds each call's
    # arguments to read some of them by parameter name; read from its source, not imported
    tree = ast.parse(SPANS.read_text())
    reads = {
        node.name: {sub.slice.value for sub in ast.walk(node) if isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "arguments"}
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WRAPPED"]]
    hooks = [[ast.literal_eval(e) if isinstance(e, ast.Constant) else e.id for e in row.elts]
             for row in table.elts]
    assert len(hooks) >= 16
    wanted = set()
    for module, name, measure in hooks:
        func = getattr(import_module(f"hsfuse.{module}"), name)
        wanted |= reads.get(measure, set())
        assert reads.get(measure, set()) <= inspect.signature(func).parameters.keys(), name
    assert wanted == {"path", "phi", "k", "config", "workers"}
