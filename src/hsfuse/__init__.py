"""Dual-camera compressive hyperspectral imaging toolkit.

Simulates coded-aperture and multiband measurements of a hyperspectral
cube and reconstructs the cube by non-iterative low-rank fusion, either
globally or over overlapping patches.

The package exports exactly what its library modules (``core``,
``forward``, ``fusion``, ``io``, ``metrics``, ``numeric``) export, and
loads them lazily (PEP 562): importing ``hsfuse`` loads no module of its
own and not numpy. A submodule name (``from hsfuse import core``) loads
only that submodule; any other name, ``__all__`` included, loads the six
library modules once and binds every name of their ``__all__`` here.

The two exceptions that the command line maps to exit codes are defined
here, without numpy, so ``cli`` can name them before any library module is
loaded; ``io`` and ``numeric`` raise and export them.
"""

import importlib

__version__ = "0.1.0"


class FormatError(Exception):
    """A file does not conform to its declared format."""


class RankDeficiencyError(ArithmeticError):
    """A least-squares system has numerically dependent columns."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


_LIBRARY = ("core", "forward", "fusion", "io", "metrics", "numeric")


def _export():
    """Bind every library module's exports here, and ``__all__``, once."""
    names = ["__version__"]
    for submodule in _LIBRARY:
        module = importlib.import_module(f"{__name__}.{submodule}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name):
    # reached only by a name not bound here yet
    if name.isidentifier() and not name.startswith("__"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as err:
            if err.name != f"{__name__}.{name}":
                raise
    # other dunder names are probes (inspect, copy, ...) that must not load the library
    if (name == "__all__" or not name.startswith("__")) and "__all__" not in globals():
        _export()
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
