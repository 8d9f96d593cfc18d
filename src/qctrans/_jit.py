"""JIT selection layer.

Hot kernels are compiled with numba when it is installed (the optional
``jit`` extra); without it they run as plain Python.  Only the scalar
kernel is compiled: it integrates single trajectories and the last few
rows of every ensemble, whose bulk runs as numpy arrays in every runtime.
Setting the environment variable ``QCTRANS_NO_NUMBA=1`` (or
``true``/``yes``/``on``) makes ``njit`` a no-op so the identical source runs
as plain Python/numpy; results are the same, only slower.  The flag is read
once at import time.
"""

import os


def _disabled() -> bool:
    flag = os.environ.get("QCTRANS_NO_NUMBA", "").strip().lower()
    return flag in {"1", "true", "yes", "on"}


NUMBA_ENABLED = not _disabled()

if NUMBA_ENABLED:
    try:
        from numba import njit as _numba_njit
    except ImportError:  # numba is the optional ``jit`` extra
        NUMBA_ENABLED = False


def njit(fn):
    """Compile ``fn`` with numba (cached) or return it unchanged."""
    if NUMBA_ENABLED:
        return _numba_njit(cache=True)(fn)
    return fn


def _array(fn):
    """A kernel function for numpy arrays: its Python source even when numba
    compiles it for floats."""
    return getattr(fn, "py_func", fn)
