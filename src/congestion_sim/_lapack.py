"""LAPACK ``dptsv`` without importing scipy.

numpy's wheels bundle an OpenBLAS built with 64-bit integers (ILP64)
whose symbols carry a ``scipy_`` prefix and a ``64_`` suffix.  numpy's
core extension module links it, so ``scipy_dptsv_64_`` resolves through
that module's handle, bound once at import.  Where numpy does not export
it (a numpy built against a system BLAS), ``scipy.linalg.lapack.dptsv``
serves instead, imported on first use.  ``SOURCE`` names the path in use.

``ptsv(bands)`` solves one symmetric positive definite tridiagonal system
in place, by an LDL^T factorization.  ``bands`` is a C-ordered float64
array of shape (2 + nrhs, m): row 0 holds the diagonal, row 1 the
off-diagonal A[i][i+1] = A[i+1][i] in entries 0..m-2 (entry m-1 is
unused), and each further row one right-hand side, which is overwritten
with its solution.  The band rows are overwritten by the factorization.
It returns LAPACK's ``info``: 0 on success, i > 0 when the leading minor
of order i is not positive definite.  Both paths run the same LAPACK
routine on the same numbers, so they give the same bits.  The OpenBLAS
path keeps the ctypes argument block of the last array it was handed,
while that array lives, so a caller that packs every system into one
buffer pays for the block once.
"""
from __future__ import annotations

import ctypes
import weakref

import numpy as np

SYMBOL = "scipy_dptsv_64_"


def _check_bands(bands: np.ndarray) -> None:
    if not (bands.dtype == np.float64 and bands.ndim == 2 and len(bands) > 2
            and bands.flags.c_contiguous):
        raise ValueError("bands must be a C-ordered float64 array of shape (2 + nrhs, m)")


def scipy_ptsv(bands: np.ndarray) -> int:
    """``ptsv`` through ``scipy.linalg.lapack.dptsv``."""
    from scipy.linalg.lapack import dptsv

    _check_bands(bands)
    # the right-hand sides are a Fortran-ordered float64 view, which f2py
    # overwrites in place
    return int(dptsv(bands[0], bands[1, :-1], bands[2:].T,
                     overwrite_d=1, overwrite_e=1, overwrite_b=1)[-1])


def select_ptsv(symbol: str = SYMBOL):
    """(source, ptsv): numpy's bundled OpenBLAS where numpy's core module
    exports ``symbol``, else scipy."""
    try:
        from numpy._core import _multiarray_umath
        fn = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol)
    except (ImportError, OSError, AttributeError):
        return "scipy", scipy_ptsv
    # DPTSV(N, NRHS, D, E, B, LDB, INFO), every argument by reference
    fn.argtypes = [ctypes.c_void_p] * 7
    fn.restype = None
    ints_type = ctypes.c_int64 * 4
    # the address of a writable C-contiguous buffer (cheaper than .ctypes.data)
    address = ctypes.addressof
    view = ctypes.c_char.from_buffer
    # the argument block of the last bands array passed, built again when a
    # call passes another array or a new shape: a weak reference to that
    # array (a new array at a dead one's address is another object), its
    # shape, the seven addresses and the int64 block they point into
    last = [(lambda: None, None, (), None)]

    def openblas_ptsv(bands: np.ndarray) -> int:
        """``ptsv`` through numpy's bundled OpenBLAS."""
        held, shape, args, ints = last[0]
        if held() is not bands or bands.shape != shape:
            _check_bands(bands)
            m = bands.shape[1]
            # N, NRHS, LDB and INFO, as the int64 the ILP64 interface takes
            ints = ints_type(m, len(bands) - 2, m, 0)
            at, iat = address(view(bands)), address(ints)
            row = 8 * m
            args = (iat, iat + 8, at, at + row, at + 2 * row, iat + 16, iat + 24)
            last[0] = (weakref.ref(bands), bands.shape, args, ints)
        fn(*args)
        return ints[3]

    return "numpy-openblas", openblas_ptsv


SOURCE, ptsv = select_ptsv()
