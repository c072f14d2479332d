"""numpy's own OpenBLAS through ctypes: the Cholesky solve and the BLAS thread count.

numpy 2 wheels bundle scipy-openblas, whose ILP64 symbols carry a ``scipy_``
prefix and a ``64_`` suffix. Calling its ``dposv`` (``dpotrf`` then
``dpotrs``) and ``dpocon`` spares every solve the scipy.linalg import
(0.2-0.4 s and 28 MB). Where numpy bundles no such library (numpy 1.x
wheels, MKL or Accelerate builds) :func:`openblas` is None: the solves use
scipy.linalg.lapack and the thread count is left alone. Nothing is bound
until first use.
"""

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

__all__ = []  # private to the solves: the package re-exports nothing from here


def _square(a):
    """``a`` as a Fortran-ordered float64 square matrix, copied only if it is not one."""
    a = np.asfortranarray(a, dtype=np.float64)
    if a.ndim != 2 or not a.shape[0] == a.shape[1] >= 1:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


class OpenBLAS:
    """The two scipy.linalg.lapack calls the solves use, with scipy's arguments,
    results and upper-triangle factor, plus the library's BLAS thread count."""

    def __init__(self, lib):
        for name, count in (("dposv", 7), ("dpocon", 8)):
            func = getattr(lib, f"scipy_{name}_64_")
            # uplo, the arguments and info by address, then uplo's string length
            func.argtypes = (ctypes.c_char_p, *[ctypes.c_void_p] * count, ctypes.c_size_t)
            func.restype = None
            setattr(self, f"_{name}", func)
        self.get_threads = lib.scipy_openblas_get_num_threads64_
        self.get_threads.argtypes, self.get_threads.restype = (), ctypes.c_int
        self.set_threads = lib.scipy_openblas_set_num_threads64_
        self.set_threads.argtypes, self.set_threads.restype = (ctypes.c_int,), None

    def dposv(self, a, b):
        c = _square(np.array(a, dtype=np.float64, order="F"))  # factored in place
        x, n = np.array(b, dtype=np.float64), len(c)  # solved in place
        if x.shape != (n,):
            raise ValueError(f"right-hand side shape {x.shape} does not match order {n}")
        # ILP64 scalars by address; info is written by the call
        order, info = ctypes.byref(ctypes.c_int64(n)), ctypes.c_int64()
        self._dposv(b"U", order, ctypes.byref(ctypes.c_int64(1)), c.ctypes.data, order,
                    x.ctypes.data, order, ctypes.byref(info), 1)
        return c, x, info.value

    def dpocon(self, factor, anorm):
        factor = _square(factor)
        n = len(factor)
        order, rcond, info = ctypes.byref(ctypes.c_int64(n)), ctypes.c_double(), ctypes.c_int64()
        self._dpocon(b"U", order, factor.ctypes.data, order, ctypes.byref(ctypes.c_double(anorm)),
                     ctypes.byref(rcond), (ctypes.c_double * (3 * n))(), (ctypes.c_int64 * n)(),
                     ctypes.byref(info), 1)
        return rcond.value, info.value


@functools.cache
def openblas():
    """numpy's bundled OpenBLAS as an :class:`OpenBLAS`, or None where it has none."""
    root = Path(np.__file__).parent
    for path in sorted([*(root.parent / "numpy.libs").glob("libscipy_openblas64_*"),
                        *(root / ".dylibs").glob("libscipy_openblas64_*")]):
        try:
            return OpenBLAS(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):  # not loadable, or built without these symbols
            continue
    return None


_pin_lock = threading.Lock()
_pins = []  # per block now inside one_thread: the count from before the first of them


@contextlib.contextmanager
def one_thread():
    """Run the block with numpy's BLAS on one thread, then restore its previous count.

    Blocks may overlap across threads; the count returns when the last one ends.
    """
    lib = openblas()
    if lib is None:
        yield
        return
    with _pin_lock:
        _pins.append(_pins[0] if _pins else lib.get_threads())
        lib.set_threads(1)
    try:
        yield
    finally:
        with _pin_lock:
            before = _pins.pop()
            if not _pins:
                lib.set_threads(before)
