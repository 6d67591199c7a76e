"""One BLAS thread for the whole program, whatever the environment asks.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, as it loads, and starts a
worker per thread beyond the first; a worker spins between products, and
a product split across threads sums in another order, so its bits change
with the count.  ``pin_one_thread`` runs before the package's first numpy
import.  If numpy is not loaded yet it imports it with the variable at 1
and then restores the caller's value, so no worker is ever started.  Either
way it then sets the loaded library's count to 1 through its setter, which
pins a numpy that was loaded first.  Where no OpenBLAS setter is found
(another BLAS, or a system without ``/proc/self/maps``) the count is left
as found.  Standard library only: it runs before numpy is imported.
"""

import ctypes
import os
import sys

#: the thread functions of numpy's own OpenBLAS (64-bit integer build) and
#: of a plain one, with ``{}`` for "set" or "get"
_NAMES = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")
#: (argtypes, restype) of ``void set(int)`` and ``int get(void)``
_SIGNATURES = {"set": ((ctypes.c_int,), None), "get": ((), ctypes.c_int)}


def _symbol(verb: str):
    """The loaded OpenBLAS's ``<verb>_num_threads`` function, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _NAMES:
            fn = getattr(lib, name.format(verb), None)
            if fn is not None:
                fn.argtypes, fn.restype = _SIGNATURES[verb]
                return fn
    return None


def pin_one_thread():
    """Load numpy's OpenBLAS at one thread, or set it to one if loaded."""
    if "numpy" not in sys.modules:
        caller = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401  (OpenBLAS loads, reading the variable)
        finally:
            if caller is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = caller
    setter = _symbol("set")
    if setter is not None:
        setter(1)


def threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, or None where no
    getter is found."""
    getter = _symbol("get")
    return None if getter is None else getter()
