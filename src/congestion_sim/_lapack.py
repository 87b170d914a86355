"""LAPACK ``dgtsv`` without importing scipy.

numpy's wheels bundle an OpenBLAS built with 64-bit integers (ILP64)
whose symbols carry a ``scipy_`` prefix and a ``64_`` suffix.  numpy's
core extension module links it, so ``scipy_dgtsv_64_`` resolves through
that module's handle, bound once at import.  Where numpy does not export
it (a numpy built against a system BLAS), ``scipy.linalg.lapack.dgtsv``
serves instead, imported on first use.  ``SOURCE`` names the path in use.

``gtsv(bands)`` solves one tridiagonal system in place.  ``bands`` is a
C-ordered float64 array of shape (3 + nrhs, m): row 0 holds the
subdiagonal in entries 1..m-1 (entry 0 is unused), row 1 the diagonal,
row 2 the superdiagonal in entries 0..m-2 (entry m-1 is unused), and each
further row one right-hand side, which is overwritten with its solution.
The band rows are overwritten by the factorization.  It returns LAPACK's
``info``: 0 on success, i > 0 when the pivot U(i, i) is exactly zero.
Both paths run the same LAPACK routine on the same numbers, so they give
the same bits.
"""
from __future__ import annotations

import ctypes

import numpy as np

SYMBOL = "scipy_dgtsv_64_"


def _check_bands(bands: np.ndarray) -> None:
    if not (bands.dtype == np.float64 and bands.ndim == 2 and len(bands) > 3
            and bands.flags.c_contiguous):
        raise ValueError("bands must be a C-ordered float64 array of shape (3 + nrhs, m)")


def scipy_gtsv(bands: np.ndarray) -> int:
    """``gtsv`` through ``scipy.linalg.lapack.dgtsv``."""
    from scipy.linalg.lapack import dgtsv

    _check_bands(bands)
    # the right-hand sides are a Fortran-ordered float64 view, which f2py
    # overwrites in place
    return int(dgtsv(bands[0, 1:], bands[1], bands[2, :-1], bands[3:].T,
                     overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                     overwrite_b=1)[-1])


def select_gtsv(symbol: str = SYMBOL):
    """(source, gtsv): numpy's bundled OpenBLAS where numpy's core module
    exports ``symbol``, else scipy."""
    try:
        from numpy._core import _multiarray_umath
        fn = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol)
    except (ImportError, OSError, AttributeError):
        return "scipy", scipy_gtsv
    # DGTSV(N, NRHS, DL, D, DU, B, LDB, INFO), every argument by reference
    fn.argtypes = [ctypes.c_void_p] * 8
    fn.restype = None
    ints_type = ctypes.c_int64 * 4
    # the address of a writable C-contiguous buffer (cheaper than .ctypes.data)
    address = ctypes.addressof
    view = ctypes.c_char.from_buffer

    def openblas_gtsv(bands: np.ndarray) -> int:
        """``gtsv`` through numpy's bundled OpenBLAS."""
        _check_bands(bands)
        m = bands.shape[1]
        # N, NRHS, LDB and INFO, as the int64 the ILP64 interface takes
        ints = ints_type(m, len(bands) - 3, m, 0)
        at, iat = address(view(bands)), address(ints)
        row = 8 * m
        fn(iat, iat + 8, at + 8, at + row, at + 2 * row, at + 3 * row, iat + 16, iat + 24)
        return ints[3]

    return "numpy-openblas", openblas_gtsv


SOURCE, gtsv = select_gtsv()
