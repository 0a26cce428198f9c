"""One BLAS thread for the model stage, whose threads go to autoencoder groups.

OpenBLAS splits even a small matrix product across its threads, and the
split changes how the product rounds, so autoencoder weights trained
under 1 and 2 BLAS threads differ in their last bits, and so do PCA
residuals once a product is large enough. ``lend_threads()`` pins
numpy's bundled OpenBLAS to one thread for a ``with`` block (``fit`` and
``residuals`` of every model kind) and lends the block the B threads it
took, as a pool of B workers.

The thread count is process-wide, so overlapping blocks (two cells on a
``--workers`` pool) share one pin: the first to enter records B and sets
1; the last to leave restores B, also on an exception. Every block at B
gets one pool of B workers, which lives for the process, so blocks that
follow one another reuse its threads. Where numpy links another BLAS,
the run is "unpinned": the BLAS keeps its threads and each block gets a
pool of one.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

_LIBRARY_GLOB = "libscipy_openblas64_*.so"


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob(_LIBRARY_GLOB)):
        try:
            # RTLD_NOLOAD: only the copy numpy has loaded, never a second one
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        set_.restype = None
        return get, set_
    return None


# one pool per thread count, for the life of the process
_pool = functools.cache(ThreadPoolExecutor)


class _Pin:
    """The process's one BLAS pin; see the module docstring."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def threads(self) -> int | None:
        """The BLAS's own thread count outside any pin; None if unpinned."""
        api = _openblas()
        if api is None:
            return None
        with self._lock:
            return self._saved if self._depth else api[0]()

    @contextlib.contextmanager
    def lend_threads(self) -> Iterator[ThreadPoolExecutor]:
        api = _openblas()
        if api is None:
            with ThreadPoolExecutor(1) as pool:
                yield pool
            return
        get, set_ = api
        with self._lock:
            if not self._depth:
                self._saved = get()
                set_(1)
            self._depth += 1
            pool = _pool(self._saved)
        try:
            yield pool
        finally:
            with self._lock:
                self._depth -= 1
                if not self._depth:
                    set_(self._saved)


_PIN = _Pin()
blas_threads = _PIN.threads
lend_threads = _PIN.lend_threads


def blas_policy() -> dict:
    """What a run records about its BLAS: the library, its thread count
    before any pin (the size of the autoencoder groups' pool), and whether
    the pin is available."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = blas_threads()
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": threads,
        "policy": "unpinned" if threads is None else "pinned",
    }
