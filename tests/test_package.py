"""Package exports: ``hsfuse`` re-exports every module's ``__all__``, once."""

import pkgutil
import re
from importlib import import_module
from pathlib import Path

import hsfuse

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_imports_resolve():
    names = []
    for group, line in re.findall(r"from hsfuse import (?:\(([^)]*)\)|(.*))", README.read_text()):
        names += [n.strip() for n in (group or line).split(",") if n.strip()]
    assert "pfuse" in names
    assert [n for n in names if not hasattr(hsfuse, n)] == []
