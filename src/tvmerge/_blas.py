"""One OpenBLAS thread for the pipeline's dense algebra.

Its matrices are small (the widest fit is a QR of a few hundred columns),
and there a second OpenBLAS thread costs more than it saves: a QR of a
320 x 265 ``[X | y]`` takes about 1.5 times as long with 2 threads as with 1
(3.5 against 2.3 ms on a 2-core x86-64 machine).
A threaded QR also rounds differently with each thread count, so a report
would depend on it. OpenBLAS reads ``OPENBLAS_NUM_THREADS`` only once, when
numpy loads it, so the count is set through OpenBLAS's own functions,
found in the library that numpy's LAPACK module links. Under another BLAS
(MKL, Accelerate) the guard does nothing.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

log = logging.getLogger("tvmerge")

# OpenBLAS's thread-count functions under the names its builds export, in the order tried.
_NAMES = [
    (name.format("set"), name.format("get"))
    for name in (
        "scipy_openblas_{}_num_threads64_",
        "scipy_openblas_{}_num_threads",
        "openblas_{}_num_threads64_",
        "openblas_{}_num_threads",
    )
]

_lock = threading.Lock()
# Guards entered and not yet left, in any thread, and the count to restore when the last is left.
_entered = 0
_restore = 0


@functools.cache
def _openblas() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """OpenBLAS's ``(set, get)`` thread-count functions, as numpy links them, or None."""
    import ctypes

    try:
        # dlsym on the module's handle searches the libraries it links, OpenBLAS among them.
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=getattr(os, "RTLD_NOLOAD", 0))
    except (AttributeError, OSError):
        lib = None
    for set_name, get_name in _NAMES:
        if not (hasattr(lib, set_name) and hasattr(lib, get_name)):
            continue
        set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    log.debug("OpenBLAS thread control not found: BLAS keeps its own thread count")
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the ``with`` block's BLAS calls on one OpenBLAS thread.

    The first guard entered saves the thread count and sets it to 1; the
    last one left, in whichever thread, restores it, also when its block
    raises. OpenBLAS's count is one for the whole process, so while a guard
    is open, BLAS calls of other threads run on one thread too.
    """
    global _entered, _restore
    found = _openblas()
    if found is None:
        yield
        return
    set_threads, get_threads = found
    with _lock:
        if not _entered:
            _restore = get_threads()
            set_threads(1)
        _entered += 1
    try:
        yield
    finally:
        with _lock:
            _entered -= 1
            if not _entered:
                set_threads(_restore)
