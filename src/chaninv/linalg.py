"""Dense complex matrix helpers underlying the inverse and channel code.

Matrices are numpy arrays of dtype complex128. Operator composition is
written left-to-right ("apply f, then g"); on column vectors that is the
matrix product G @ F. Every formula in this package is transcribed through
that single convention.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_RTOL = 1e-10
DEFAULT_RESIDUAL_ATOL = 1e-8
DEFAULT_PSD_ATOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy threaded through every inexact decision.

    rank_rtol is relative to the largest singular value (rank cutoffs),
    residual_atol is an absolute Frobenius-norm tolerance for equality and
    axiom checks, and psd_atol is the eigenvalue floor used when deciding
    positive semidefiniteness.
    """

    rank_rtol: float = DEFAULT_RANK_RTOL
    residual_atol: float = DEFAULT_RESIDUAL_ATOL
    psd_atol: float = DEFAULT_PSD_ATOL

    def __post_init__(self):
        for name in ("rank_rtol", "residual_atol", "psd_atol"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_cmatrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a 2-D complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(a, b)


def matpow(a: np.ndarray, k: int) -> np.ndarray:
    """``a`` raised to a non-negative integer power; a^0 is the identity."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matpow needs a square matrix, got shape {a.shape}")
    if k < 0:
        raise ValueError("matpow exponent must be non-negative")
    return np.linalg.matrix_power(a, k)


def fro_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-norm distance between two same-shape matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``m = u @ diag(singular_values) @ dagger(v)``.

    u has shape (rows, r) and v has shape (cols, r) with orthonormal
    columns, where r = min(rows, cols); singular values are non-increasing
    and non-negative.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.u @ (self.singular_values[:, None] * dagger(self.v))


def svd(m: np.ndarray) -> SvdFactors:
    """Thin singular value decomposition.

    Non-convergence of the underlying iteration is reported as
    ``np.linalg.LinAlgError``.
    """
    m = as_cmatrix(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdFactors(u=u, singular_values=s, v=dagger(vh))


def eigh(h: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with eigenvectors as
    columns). Raises ValueError when the input is not Hermitian within
    ``tol.residual_atol``.
    """
    h = as_cmatrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"eigh needs a square matrix, got shape {h.shape}")
    if h.size and fro_dist(h, dagger(h)) > tol.residual_atol:
        raise ValueError("eigh input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return w, v


def rank(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``rank_rtol * max(shape) * sigma_max``."""
    return _rank(as_cmatrix(m), tol)


def _rank(m: np.ndarray, tol: Tolerances) -> int:
    """:func:`rank` of an array built in this package, without re-validating it."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = tol.rank_rtol * max(m.shape) * s[0]
    return int(np.count_nonzero(s > cutoff))
