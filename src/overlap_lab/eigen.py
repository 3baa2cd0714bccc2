"""Dense symmetric eigenvalues via cyclic Jacobi, and PSD checks.

Small matrices only (n <= 512): the positive-semidefiniteness checks this
package needs run on conditioned overlap samples of single-digit size.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import NoConvergence, NotSymmetric

SYMMETRY_TOL = 1e-12
MAX_DENSE_N = 512
DEFAULT_TOL = 1e-10
DEFAULT_SWEEPS = 100


def _check_input(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix must be square")
    if A.shape[0] > MAX_DENSE_N:
        raise NotSymmetric(f"dense solver capped at n={MAX_DENSE_N}")
    if A.size and np.max(np.abs(A - A.T)) > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    return A


def jacobi_decompose(A: np.ndarray, tol: float = DEFAULT_TOL,
                     max_sweeps: int = DEFAULT_SWEEPS):
    """Full decomposition: (eigenvalues asc, eigenvectors by column, sweeps, residual).

    The eigenvector matrix is what the tests use to verify |Av - lambda v|
    residuals; is_psd_dense reads the smallest eigenvalue.
    """
    A = _check_input(A)
    diag, V, sweeps, off = _kernels.jacobi_raw(A, tol, max_sweeps)
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if off > tol * scale and scale > 0.0:
        raise NoConvergence(
            f"off-diagonal residual {off:.3e} above {tol:.1e}*{scale:.3e} "
            f"after {max_sweeps} sweeps")
    order = np.argsort(diag, kind="stable")
    return diag[order], V[:, order], int(sweeps), float(off)


def is_psd_dense(A: np.ndarray, tol: float = 1e-9):
    """(flag, min eigenvalue) of a dense symmetric matrix.

    Passes when the smallest eigenvalue is >= -tol * n * max|entry|.
    """
    lo = float(jacobi_decompose(A)[0][0])
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    return lo >= -tol * A.shape[0] * scale, lo
