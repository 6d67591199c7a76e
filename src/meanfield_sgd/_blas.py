"""One BLAS thread for the whole program, whatever the environment asks.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, as it loads, and starts a
worker per thread beyond the first; a worker spins between products, and
a product split across threads sums in another order, so its bits change
with the count.  Two OpenBLAS builds can load: numpy's, and scipy's own,
which ``scipy.optimize`` loads.  ``pin_one_thread`` imports a module that
is not loaded yet with the variable at 1 and then restores the caller's
value, so no worker is ever started: the package runs it on numpy before
its first numpy import, and ``measure`` on ``scipy.optimize`` at first use.
Either way it then sets every loaded library's count to 1 through its
setter, which pins a library that was loaded first.  Where no OpenBLAS
setter is found (another BLAS, or a system without ``/proc/self/maps``)
the count is left as found.  Standard library only: it runs before numpy
is imported.
"""

import ctypes
import importlib
import os
import sys

#: the thread functions of numpy's OpenBLAS (64-bit integer build), of
#: scipy's, and of a plain one, with ``{}`` for "set" or "get"
_NAMES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
          "openblas_{}_num_threads")
#: (argtypes, restype) of ``void set(int)`` and ``int get(void)``
_SIGNATURES = {"set": ((ctypes.c_int,), None), "get": ((), ctypes.c_int)}


def _symbols(verb: str) -> list:
    """The ``<verb>_num_threads`` function of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _NAMES:
            fn = getattr(lib, name.format(verb), None)
            if fn is not None:
                fn.argtypes, fn.restype = _SIGNATURES[verb]
                found.append(fn)
                break
    return found


def pin_one_thread(module: str):
    """Import ``module`` with any OpenBLAS it loads at one thread, set every
    loaded OpenBLAS to one, and return the module."""
    if module not in sys.modules:
        caller = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            importlib.import_module(module)  # OpenBLAS reads the variable
        finally:
            if caller is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = caller
    for setter in _symbols("set"):
        setter(1)
    return sys.modules[module]


def threads() -> int | None:
    """The largest thread count a loaded OpenBLAS reports, or None where no
    getter is found."""
    return max((getter() for getter in _symbols("get")), default=None)
