"""Dense float64 matrix kernel: SPD solves and spectral radius.

Matrices are plain 2-D ``numpy`` arrays (row-major, float64); vectors are
1-D arrays. The helpers here validate the contracts the rest of the
package relies on: finite entries, compatible shapes, and symmetric
positive definiteness where a Cholesky solve is requested.

Everything here runs on ``numpy.linalg`` alone, so a run loads numpy's
BLAS/LAPACK and no other: the state stepping, the fold, ``eigvals`` and
the Cholesky share one thread pool. scipy is not a runtime dependency.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DefinitenessError, NonFiniteError, ShapeError

# Relative asymmetry above which solve_spd rejects its input instead of
# silently symmetrizing (a symmetrized solve would hide accumulator bugs).
SYMMETRY_RTOL = 1e-9


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return ``a`` as a finite 1-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def solve_spd(m, rhs) -> np.ndarray:
    """Solve ``m @ s == rhs`` for symmetric positive definite ``m``.

    ``m`` must be symmetric to within ``SYMMETRY_RTOL`` (relative to its
    largest entry); asymmetric inputs are rejected rather than symmetrized.
    Raises ``DefinitenessError`` when the Cholesky factorization fails.
    """
    m = as_matrix(m, "matrix")
    rhs_arr = np.asarray(rhs, dtype=np.float64)
    rhs_was_vector = rhs_arr.ndim == 1
    if rhs_was_vector:
        rhs_arr = rhs_arr[:, None]
    rhs_arr = as_matrix(rhs_arr, "right-hand side")

    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {m.shape}")
    if rhs_arr.shape[0] != n:
        raise ShapeError(
            f"right-hand side rows {rhs_arr.shape} do not match matrix shape {m.shape}"
        )

    scale = np.abs(m).max()
    if scale > 0.0:
        asym = np.abs(m - m.T).max()
        if asym > SYMMETRY_RTOL * scale:
            raise DefinitenessError(
                f"matrix is asymmetric beyond tolerance (relative asymmetry {asym / scale:.3e})"
            )

    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError(f"matrix is not positive definite: {exc}") from exc
    # L y = rhs forward, then L^T s = y backward, one row per step. Row i of
    # L^T is read in place as column i of L: at N=2400 that is faster than a
    # contiguous transposed copy.
    sol = np.empty_like(rhs_arr)
    for i in range(n):
        sol[i] = (rhs_arr[i] - lower[i, :i] @ sol[:i]) / lower[i, i]
    for i in range(n - 1, -1, -1):
        sol[i] = (sol[i] - lower[i + 1 :, i] @ sol[i + 1 :]) / lower[i, i]
    if not np.isfinite(sol).all():
        raise NonFiniteError("solve produced non-finite values")
    return sol[:, 0] if rhs_was_vector else sol


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square real matrix.

    Uses QR iteration on the Hessenberg form (LAPACK), which handles
    complex conjugate dominant pairs and converges to machine precision.
    A LAPACK convergence failure is surfaced as ``ConvergenceError``.
    """
    m = as_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {m.shape}")
    if m.size == 0:
        raise ShapeError("matrix must be non-empty")
    try:
        eigenvalues = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigenvalue computation did not converge: {exc}", iterations=None
        ) from exc
    return float(np.abs(eigenvalues).max())
