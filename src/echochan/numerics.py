"""Dense float64 matrix kernel: SPD solves, spectral radius, Gram updates.

Matrices are plain 2-D float64 ``numpy`` arrays; vectors are 1-D arrays.
The helpers here validate the contracts the rest of the package relies
on: finite entries, compatible shapes, and symmetric positive
definiteness where a Cholesky solve is requested.

Everything here runs on numpy's BLAS/LAPACK and no other, so the state
stepping, the fold, ``eigvals`` and the Cholesky share one thread pool.
scipy is not a runtime dependency. Three routines are called through
``ctypes`` in the OpenBLAS that numpy itself loaded. The fold's
``b += weight * x.T @ x`` is one in-place ``dsyrk`` on b's upper triangle
(``add_gram_upper``); numpy's own ``x.T @ x`` would mirror the triangle
into a fresh N x N array on every call. ``solve_spd`` factors and solves
with ``dpotrf`` and ``dpotrs``, which touch one triangle and the
diagonal only: an exactly symmetric, writeable, row-major input is
solved in place and restored from its other triangle, anything else in
one N x N working copy; ``np.linalg.cholesky`` would add a Fortran-order
copy and a separate factor. With any other BLAS, the update is
``x.T @ x`` scaled and added to b, and the solve ``np.linalg.cholesky``
on a working copy; the update's layout contract is the same on every
BLAS.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import ConvergenceError, DefinitenessError, NonFiniteError, ShapeError

# Relative asymmetry above which solve_spd rejects its input instead of
# silently symmetrizing (a symmetrized solve would hide accumulator bugs).
SYMMETRY_RTOL = 1e-9
# Rows of an N x N array handled at a time wherever a whole-array
# expression would make an N x N temporary: the symmetry and finiteness
# checks, the accumulator merge and the container codec.
BAND = 64

# CBLAS enum values: row-major, upper triangle, C = A^T A.
_ROW_MAJOR, _UPPER, _TRANS = 101, 121, 112


def _numpy_openblas(name: str, argtypes: list):
    """Function ``name`` of the OpenBLAS numpy loaded, or None.

    Only numpy's bundled scipy-openblas with 64-bit integers is trusted;
    the symbol is looked up through numpy's own extension module, whose
    dependencies include that library, so nothing new is loaded.
    """
    try:
        from numpy._core import _multiarray_umath

        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        if blas["name"] != "scipy-openblas" or "USE64BITINT" not in blas["openblas configuration"]:
            return None
        function = getattr(ctypes.CDLL(_multiarray_umath.__file__), name)
    except (ImportError, AttributeError, KeyError, TypeError, OSError):
        return None
    function.argtypes = argtypes
    function.restype = None
    return function


_ENUM, _BLASINT, _DOUBLE, _ARRAY = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_DSYRK = _numpy_openblas(
    "scipy_cblas_dsyrk64_",
    [_ENUM, _ENUM, _ENUM, _BLASINT, _BLASINT, _DOUBLE, _ARRAY, _BLASINT, _DOUBLE, _ARRAY, _BLASINT],
)
# Fortran LAPACK: every argument by reference, then the length of the
# one-character ``uplo`` argument. Column-major, factored in place.
_REF = ctypes.POINTER(_BLASINT)
_DPOTRF = _numpy_openblas(
    "scipy_dpotrf_64_", [ctypes.c_char_p, _REF, _ARRAY, _REF, _REF, ctypes.c_size_t]
)
_DPOTRS = _numpy_openblas(
    "scipy_dpotrs_64_",
    [ctypes.c_char_p, _REF, _REF, _ARRAY, _REF, _ARRAY, _REF, _REF, ctypes.c_size_t],
)


def as_matrix(a, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Validate and return ``a`` as a finite float64 array of ``ndim``
    dimensions: a matrix, or with ``ndim`` 1 a vector."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not all_finite(arr):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def all_finite(a: np.ndarray) -> bool:
    """Whether every value of ``a`` is finite, checked ``BAND`` rows at a time."""
    return all(np.isfinite(a[i : i + BAND]).all() for i in range(0, len(a), BAND))


def frozen(a, *requirements: str) -> np.ndarray:
    """``a`` as a read-only float64 array that owns its data and meets
    ``np.require``'s ``requirements``. ``a`` itself is kept only when it is
    already read-only and all that, so the caller's arrays are never
    shared with it or frozen; anything else is copied once."""
    arr = np.require(a, np.float64, ["O", *requirements])
    if arr is a and a.flags.writeable:
        arr = np.array(a, order="K")
    arr.flags.writeable = False
    return arr


def solve_spd(m, rhs, shift: float = 0.0) -> np.ndarray:
    """Solve ``(m + shift * I) @ s == rhs``, with ``m + shift * I`` symmetric positive definite.

    ``m`` must be symmetric to within ``SYMMETRY_RTOL`` (relative to its
    largest entry); asymmetric inputs are rejected rather than symmetrized.
    Raises ``DefinitenessError`` when the Cholesky factorization fails.
    Neither ``m`` nor ``rhs`` is changed. numpy's OpenBLAS factors and
    solves ``m + shift * I`` in one buffer (``dpotrf``/``dpotrs``): ``m``
    itself when it is writeable, C-contiguous and byte-for-byte symmetric
    (its diagonal and the upper triangle LAPACK overwrites are restored
    from the saved diagonal and the untouched lower triangle, on success
    and on failure), otherwise one working copy. On any other BLAS,
    ``np.linalg.cholesky`` and row substitutions solve a working copy.
    """
    m = np.asarray(m, dtype=np.float64)
    rhs_arr = np.asarray(rhs, dtype=np.float64)
    rhs_was_vector = rhs_arr.ndim == 1
    if rhs_was_vector:
        rhs_arr = rhs_arr[:, None]
    rhs_arr = as_matrix(rhs_arr, "right-hand side")

    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if rhs_arr.shape[0] != n:
        raise ShapeError(
            f"right-hand side rows {rhs_arr.shape} do not match matrix shape {m.shape}"
        )

    asym, scale, exact = _asymmetry(m)
    if asym > SYMMETRY_RTOL * scale:
        raise DefinitenessError(
            f"matrix is asymmetric beyond tolerance (relative asymmetry {asym / scale:.3e})"
        )

    lapack = _DPOTRF is not None and _DPOTRS is not None
    # dpotrf/dpotrs touch one triangle and the diagonal only, so an exactly
    # symmetric m is its own work buffer, restored from the other triangle
    in_place = lapack and exact and m.flags.c_contiguous and m.flags.writeable
    work = m if in_place else np.array(m, order="C")
    if lapack:
        # The row-major work read column-major is its transpose, so the
        # "L" triangle LAPACK reads is m's upper one, which the fold writes.
        sol = np.array(rhs_arr, order="F")
        diagonal = m.diagonal().copy()
        work.flat[:: n + 1] += shift
        try:
            info = _cholesky_solve_in_place(work, sol)
        finally:
            if in_place:  # m's lower triangle back over the factor, then its diagonal
                mirror_upper(m.T)
                m.flat[:: n + 1] = diagonal
        if info > 0:
            raise DefinitenessError(
                f"matrix is not positive definite: leading minor of order {info} is not positive"
            )
    else:
        work.flat[:: n + 1] += shift
        try:
            lower = np.linalg.cholesky(work)
        except np.linalg.LinAlgError as exc:
            raise DefinitenessError(f"matrix is not positive definite: {exc}") from exc
        # L y = rhs forward, then L^T s = y backward, one row per step. Row
        # i of L^T is read in place as column i of L: at N=2400 that is
        # faster than a contiguous transposed copy.
        sol = np.empty_like(rhs_arr)
        for i in range(n):
            sol[i] = (rhs_arr[i] - lower[i, :i] @ sol[:i]) / lower[i, i]
        for i in range(n - 1, -1, -1):
            sol[i] = (sol[i] - lower[i + 1 :, i] @ sol[i + 1 :]) / lower[i, i]
    if not np.isfinite(sol).all():
        raise NonFiniteError("solve produced non-finite values")
    return sol[:, 0] if rhs_was_vector else sol


def _asymmetry(m: np.ndarray) -> tuple[float, float, bool]:
    """Largest ``|m - m.T|`` and largest ``|m|`` of square ``m``, and
    whether ``m`` equals ``m.T`` byte for byte (a +0.0/-0.0 pair is equal,
    not the same bytes); a non-finite entry is a ``NonFiniteError``.
    ``|m - m.T|`` is symmetric, so rows i0:i1 against columns i0: of
    ``m.T`` cover every pair and entry, a band at a time. Each band of
    ``m.T`` is copied into the front of one flat buffer, so it is
    contiguous and the difference can be taken in place: nothing N x N is made.
    """
    n = m.shape[0]
    asym, scale, exact = 0.0, 0.0, True
    buffer = np.empty(min(BAND, n) * n)
    for i0 in range(0, n, BAND):
        upper = m[i0 : i0 + BAND, i0:]
        lower = buffer[: upper.size].reshape(upper.shape)
        np.copyto(lower, m[i0:, i0 : i0 + BAND].T)
        extremes = (upper.max(), -upper.min(), lower.max(), -lower.min())
        if not np.isfinite(extremes).all():
            raise NonFiniteError("matrix contains non-finite entries")
        scale = max(scale, *extremes)
        exact = exact and np.array_equal(upper.view(np.int64), lower.view(np.int64))
        diff = np.subtract(upper, lower, out=lower)
        asym = max(asym, np.abs(diff, out=diff).max())
    return asym, scale, exact


def _cholesky_solve_in_place(work: np.ndarray, sol: np.ndarray) -> int:
    """Factor column-major ``work`` (N x N, lower triangle read) with
    ``dpotrf`` and solve for column-major ``sol`` (N x L) with ``dpotrs``,
    both in place. Returns ``dpotrf``'s ``info``: 0, or the order of the
    first leading minor that is not positive (``sol`` is then untouched).
    """
    n, nrhs, info = _BLASINT(work.shape[0]), _BLASINT(sol.shape[1]), _BLASINT(0)
    _DPOTRF(b"L", n, work.ctypes.data, n, info, 1)
    if info.value == 0:
        _DPOTRS(b"L", n, nrhs, work.ctypes.data, n, sol.ctypes.data, n, info, 1)
    if info.value < 0:
        raise ValueError(f"LAPACK rejected argument {-info.value}")
    return info.value


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


def add_gram_upper(b: np.ndarray, x: np.ndarray, weight: float = 1.0) -> None:
    """Add ``weight * x.T @ x`` (``x`` K x N) to the upper triangle of ``b`` (N x N) in place.

    ``b`` must be a C-contiguous, aligned, writeable float64 array, as the
    fold's own B is. ``x`` must be aligned float64 rows of unit column
    stride, at a row stride of at least N: C-contiguous, or a row slice
    of a larger row-major buffer, as the states of one sequence in a
    time-major block of ``state_blocks`` are. Anything else is a
    ``ValueError``, whatever BLAS numpy has. One ``dsyrk`` (row-major,
    upper, transposed, ``weight`` as alpha, beta = 1, the row stride as
    ``lda``) in numpy's own OpenBLAS, or ``x.T @ x`` scaled in place and
    added to ``b`` on a BLAS without it (one N x N temporary). Only the
    upper triangle is defined afterwards: finish with ``mirror_upper``. At
    weight 1 the two give identical bytes as long as K fits in one K-panel
    of the BLAS kernel (384 rows for OpenBLAS on Haswell); a state block
    has at most ``reservoir.BLOCK`` rows; at any other weight they differ
    by rounding.
    """
    k, n = x.shape
    if b.shape != (n, n):
        raise ShapeError(f"gram of {x.shape} states cannot update a {b.shape} matrix")
    # numpy's contiguity flags ignore the stride of a length-1 axis, and so does this
    lda = x.strides[0] // 8 if k > 1 else n
    if x.dtype != np.float64 or not x.flags.aligned or (n > 1 and x.strides[1] != 8) or lda < n:
        raise ValueError(
            "states must be a C-contiguous, aligned float64 array, or rows of one at a row "
            f"stride of at least N, got {x.dtype} with strides {x.strides}"
        )
    if b.dtype != np.float64 or not (b.flags.c_contiguous and b.flags.aligned):
        raise ValueError(
            f"gram must be a C-contiguous, aligned float64 array, "
            f"got {b.dtype} with strides {b.strides}"
        )
    if not b.flags.writeable:
        raise ValueError("gram must be writeable")
    if _DSYRK is None:
        gram = x.T @ x
        gram *= weight
        b += gram
    else:
        _DSYRK(_ROW_MAJOR, _UPPER, _TRANS, n, k, weight, x.ctypes.data, lda, 1.0, b.ctypes.data, n)


def mirror_upper(b: np.ndarray) -> None:
    """Copy the upper triangle of square ``b`` onto its lower one, row by row."""
    for i in range(1, b.shape[0]):
        b[i, :i] = b[:i, i]
