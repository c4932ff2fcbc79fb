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

    rank_rtol is relative to the largest singular value: the rank cutoff
    of ``_numerical_rank``, the one helper every rank decision calls. The
    LU route of :mod:`chaninv.ginv` concludes "full rank" without an SVD
    only where a norm bound proves that ``_numerical_rank`` would; for a
    rank_rtol near machine eps that bound also needs cond(A) <= 1/(8 n eps).
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
    """Conjugate transpose of a matrix, or of each matrix of a stack (..., rows, cols)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(a, b)


def fro_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-norm distance between two same-shape matrices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _attempt(errors, fn, *args):
    """``fn(*args)``, or the exception of type ``errors`` it raised, returned as a value without its traceback.

    A stored traceback would keep its frames, and through them every calling frame, alive; a caller holding
    the exception in a result list would then form a reference cycle that only the cyclic garbage collector
    frees, with every array of those frames. The exceptions it was raised from lose their tracebacks too.
    """
    try:
        return fn(*args)
    except errors as exc:
        chained = exc
        while chained is not None:
            chained.__traceback__ = None
            chained = chained.__cause__ or chained.__context__
        return exc


def _one(results):
    """The only result of a one-member batch, raised if it is an exception."""
    (result,) = results
    if isinstance(result, Exception):
        try:
            raise result
        finally:  # the traceback holds this frame: no reference back to the exception from it
            del result, results
    return result


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
    """Numerical rank: singular values above ``rank_rtol * max(shape) * sigma_max`` (OverflowError if that is inf)."""
    m = as_cmatrix(m)
    return int(_numerical_rank(np.linalg.svd(m, compute_uv=False), m.shape, tol))


def _numerical_rank(s: np.ndarray, shape: tuple, tol: Tolerances, top: float | None = None):
    """Count of the singular values ``s`` above ``rank_rtol * max(shape) * top``, ``top`` defaulting to s[0].

    ``s`` may be a stack (..., k) of spectra, one count per spectrum, each judged by its own s[0]. A block
    cut from a larger matrix passes that matrix's shape and sigma_max: its noise is the larger one's.
    """
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=np.intp)
    top = s[..., :1] if top is None else top
    if not np.isfinite(top).all():  # the SVD of a finite matrix whose 2-norm overflows gives s[0] = inf
        raise OverflowError(f"largest singular value is {np.max(top)}")
    return np.add.reduce(s > tol.rank_rtol * max(shape) * top, axis=-1, dtype=np.intp)
