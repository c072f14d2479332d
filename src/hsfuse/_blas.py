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


class _Arguments:
    """The LAPACK arguments of order n, built once and reused by one thread: the ILP64
    scalars n and 1 by address, and info, rcond and ``dpocon``'s work arrays, which the
    calls write, so no two threads share them."""

    def __init__(self, n):
        self.n = n
        self.order, self.one = ctypes.byref(ctypes.c_int64(n)), ctypes.byref(ctypes.c_int64(1))
        self.info, self.rcond = ctypes.c_int64(), ctypes.c_double()
        self.work, self.iwork = (ctypes.c_double * (3 * n))(), (ctypes.c_int64 * n)()


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
        self._local = threading.local()

    def _arguments(self, n):
        """This thread's :class:`_Arguments` for order n, rebuilt only when n changes."""
        args = getattr(self._local, "args", None)
        if args is None or args.n != n:
            args = self._local.args = _Arguments(n)
        return args

    def dposv(self, a, b):
        c = _square(np.array(a, dtype=np.float64, order="F"))  # factored in place
        x, n = np.array(b, dtype=np.float64), len(c)  # solved in place
        if x.shape != (n,):
            raise ValueError(f"right-hand side shape {x.shape} does not match order {n}")
        args = self._arguments(n)
        self._dposv(b"U", args.order, args.one, c.ctypes.data, args.order, x.ctypes.data,
                    args.order, ctypes.byref(args.info), 1)
        return c, x, args.info.value

    def dpocon(self, factor, anorm):
        factor = _square(factor)
        args = self._arguments(len(factor))
        self._dpocon(b"U", args.order, factor.ctypes.data, args.order,
                     ctypes.byref(ctypes.c_double(anorm)), ctypes.byref(args.rcond),
                     args.work, args.iwork, ctypes.byref(args.info), 1)
        return args.rcond.value, args.info.value


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
