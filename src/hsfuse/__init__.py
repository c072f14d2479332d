"""Dual-camera compressive hyperspectral imaging toolkit.

Simulates coded-aperture and multiband measurements of a hyperspectral
cube and reconstructs the cube by non-iterative low-rank fusion, either
globally or over overlapping patches.
"""

__version__ = "0.1.0"

from . import core, forward, fusion, io, metrics, numeric

# the package exports exactly what each module exports
__all__ = ["__version__"]
for _module in (core, forward, fusion, io, metrics, numeric):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
