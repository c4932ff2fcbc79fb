"""Quantum channels as superoperators, with Kraus/Choi conversions and
CP/TP/unital property checks.

Conventions, fixed once and guarded by round-trip tests:

* vectorization is column-stacking, ``vec(m) = m.flatten(order="F")``;
* conjugation ``rho -> K rho K^H`` has superoperator ``conj(K) (x) K``,
  so a Kraus channel has ``super = sum_i conj(K_i) (x) K_i``;
* trace preservation reads ``super^H vec(I_out) = vec(I_in)`` and
  unitality reads ``super vec(I_in) = vec(I_out)``;
* the Choi matrix is ``sum_ij E_ij (x) apply(ch, E_ij)``, a reshuffle of
  the superoperator entries, and is positive semidefinite exactly when the
  channel is completely positive.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_RESIDUAL_ATOL,
    DEFAULT_TOL,
    Tolerances,
    as_cmatrix,
    dagger,
    fro_dist,
)


class NotCPError(ValueError):
    """Kraus extraction requested for a Choi matrix that is not PSD."""


class ChannelFormatError(ValueError):
    """Structurally malformed channel/matrix JSON data."""


class DimensionMismatchError(ValueError):
    """Well-formed data whose matrix shapes contradict the declared dimensions."""


@dataclass(frozen=True)
class Channel:
    """A linear map on operator space stored as a superoperator.

    ``super`` has shape (d_out^2, d_in^2) and acts on column-stacked
    vectorizations; ``kraus`` is an optional tuple of (d_out, d_in)
    operators kept when the channel was built from one. Given only
    ``kraus``, the superoperator is computed from it; given both, they
    must agree.
    """

    d_in: int
    d_out: int
    super: np.ndarray | None = None
    kraus: tuple | None = None

    def __post_init__(self):
        both = self.super is not None and self.kraus is not None
        if self.kraus is not None:
            # kraus_to_channel and channel_from_dict leave the operators' validation here
            shapes = {np.shape(k) for k in self.kraus}
            if shapes != {(self.d_out, self.d_in)}:
                raise DimensionMismatchError(
                    f"Kraus operator shapes {sorted(shapes)} do not match ({self.d_out}, {self.d_in})"
                )
            ops = np.asarray(self.kraus, dtype=np.complex128)
            if not np.isfinite(ops).all():
                raise ValueError("kraus operator contains non-finite entries")
            object.__setattr__(self, "kraus", tuple(ops))
            if self.super is None:
                object.__setattr__(self, "super", _kraus_super(ops))
        if self.super is None:
            raise ValueError("a channel needs a superoperator or Kraus operators")
        s = as_cmatrix(self.super, "super")  # also catches a Kraus sum that overflowed
        if s.shape != (self.d_out**2, self.d_in**2):
            raise DimensionMismatchError(
                f"superoperator shape {s.shape} does not match dims "
                f"({self.d_out**2}, {self.d_in**2})"
            )
        object.__setattr__(self, "super", s)
        if both and not fro_dist(s, _kraus_super(ops)) <= DEFAULT_RESIDUAL_ATOL:
            raise ValueError("superoperator is inconsistent with the Kraus operators")
        # after the shape checks: matrices that contradict their dims are a dimension error whatever the dims
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("channel dimensions must be positive")


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a channel, shape (d_in*d_out, d_in*d_out)."""

    matrix: np.ndarray
    d_in: int
    d_out: int


@dataclass(frozen=True)
class PropertyReport:
    """CP/TP/unital verdicts with the residuals that justify them."""

    cp: bool
    min_choi_eigenvalue: float
    tp: bool
    tp_residual: float
    unital: bool
    unital_residual: float

    def to_dict(self) -> dict:
        return {
            "cp": {"verdict": self.cp, "min_choi_eigenvalue": self.min_choi_eigenvalue},
            "tp": {"verdict": self.tp, "residual": self.tp_residual},
            "unital": {"verdict": self.unital, "residual": self.unital_residual},
        }


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization; returns a 1-D array."""
    return as_cmatrix(m).flatten(order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a rows x cols matrix."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    if v.size != rows * cols:
        raise ValueError(f"vector of length {v.size} cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")


def _kraus_super(ops) -> np.ndarray:
    """``sum_i conj(K_i) (x) K_i`` over the stacked (d_out, d_in) operators."""
    k = np.asarray(ops)
    _, d_out, d_in = k.shape
    return np.einsum("nij,nkl->ikjl", k.conj(), k).reshape(d_out * d_out, d_in * d_in)


def kraus_to_channel(kraus_ops) -> Channel:
    """Build a channel from a non-empty list of same-shape Kraus operators."""
    ops = np.asarray(kraus_ops, dtype=np.complex128)  # mixed shapes raise ValueError here
    if ops.ndim != 3 or len(ops) == 0:
        raise ValueError(f"need a non-empty list of same-shape 2-D Kraus operators, got shape {ops.shape}")
    return Channel(d_in=ops.shape[2], d_out=ops.shape[1], kraus=ops)


def identity_channel(d: int) -> Channel:
    return kraus_to_channel([np.eye(d, dtype=np.complex128)])


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a d_in x d_in operator."""
    rho = as_cmatrix(rho, "rho")
    if rho.shape != (ch.d_in, ch.d_in):
        raise ValueError(f"state shape {rho.shape} does not match channel input dim {ch.d_in}")
    return unvec(ch.super @ rho.flatten(order="F"), ch.d_out, ch.d_out)


def compose(second: Channel, first: Channel) -> Channel:
    """Channel applying ``first`` and then ``second``."""
    if first.d_out != second.d_in:
        raise ValueError(f"cannot compose: {first.d_out} -> input of dim {second.d_in}")
    kraus = None
    if first.kraus is not None and second.kraus is not None and len(first.kraus) * len(second.kraus) <= 64:
        kraus = tuple(k2 @ k1 for k1 in first.kraus for k2 in second.kraus)
    return Channel(d_in=first.d_in, d_out=second.d_out, super=second.super @ first.super, kraus=kraus)


def adjoint_channel(ch: Channel) -> Channel:
    """Adjoint map: superoperator daggered, input/output dimensions swapped."""
    kraus = tuple(dagger(k) for k in ch.kraus) if ch.kraus is not None else None
    return Channel(d_in=ch.d_out, d_out=ch.d_in, super=dagger(ch.super), kraus=kraus)


def choi(ch: Channel) -> ChoiMatrix:
    """Choi matrix ``sum_ij E_ij (x) apply(ch, E_ij)``: entry ((i, p), (j, q)) is
    ``apply(ch, E_ij)[p, q]``, held in ``super`` at row q*d_out+p, column j*d_in+i."""
    d_in, d_out = ch.d_in, ch.d_out
    t = ch.super.reshape(d_out, d_out, d_in, d_in).transpose(3, 1, 2, 0)
    return ChoiMatrix(matrix=t.reshape(d_in * d_out, d_in * d_out), d_in=d_in, d_out=d_out)


def choi_to_kraus(j: ChoiMatrix, tol: Tolerances = DEFAULT_TOL):
    """Extract Kraus operators from a Hermitian PSD Choi matrix.

    Each eigenpair with eigenvalue above ``psd_atol`` contributes one
    operator sqrt(lambda) * reshape(eigenvector). Raises NotCPError when an
    eigenvalue falls below -psd_atol.
    """
    m = as_cmatrix(j.matrix, "choi")
    if fro_dist(m, dagger(m)) > tol.residual_atol:
        raise ValueError("Choi matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    if w[0] < -tol.psd_atol:
        raise NotCPError(f"Choi matrix has eigenvalue {w[0]:.3e} < -psd_atol; channel is not CP")
    ops = []
    for lam, column in zip(w, v.T):
        if lam > tol.psd_atol:
            ops.append(np.sqrt(lam) * column.reshape(j.d_in, j.d_out).T)
    if not ops:
        ops.append(np.zeros((j.d_out, j.d_in), dtype=np.complex128))
    return ops


def is_cp(ch: Channel, tol: Tolerances = DEFAULT_TOL):
    """CP verdict and minimum Choi eigenvalue.

    Hermiticity of the Choi matrix is checked first; a non-Hermitian Choi
    (non-Hermiticity-preserving map) yields False with the minimum
    eigenvalue of the Hermitian part.
    """
    j = choi(ch).matrix
    hermitian = fro_dist(j, dagger(j)) <= tol.residual_atol
    min_eig = float(np.linalg.eigvalsh(j / 2.0 + dagger(j) / 2.0)[0])  # halves first: no overflow
    return bool(hermitian and min_eig >= -tol.psd_atol), min_eig


def is_tp(ch: Channel, tol: Tolerances = DEFAULT_TOL):
    """TP verdict and residual ``|super^H vec(I_out) - vec(I_in)|``."""
    r = float(_tp_unital_residuals(ch.super[None])[0][0])
    return r <= tol.residual_atol, r


def is_unital(ch: Channel, tol: Tolerances = DEFAULT_TOL):
    """Unitality verdict and residual ``|super vec(I_in) - vec(I_out)|``."""
    r = float(_tp_unital_residuals(ch.super[None])[1][0])
    return r <= tol.residual_atol, r


def _tp_unital_residuals(supers: np.ndarray):
    """(tp, unital): the residuals of :func:`is_tp` and :func:`is_unital` for each superoperator of a stack.

    ``supers`` has shape (N, d_out^2, d_in^2); each result is an array of N residuals, one product each.
    """
    n_out, n_in = supers.shape[-2:]
    e_out = np.eye(math.isqrt(n_out)).ravel()
    e_in = np.eye(math.isqrt(n_in)).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        tp = np.linalg.norm((e_out @ supers).conj() - e_in, axis=-1)
        unital = np.linalg.norm(supers @ e_in - e_out, axis=-1)
    return tp, unital


def property_report(ch: Channel, tol: Tolerances = DEFAULT_TOL) -> PropertyReport:
    cp, min_eig = is_cp(ch, tol)
    tp, tp_r = is_tp(ch, tol)
    unital, u_r = is_unital(ch, tol)
    return PropertyReport(
        cp=cp,
        min_choi_eigenvalue=min_eig,
        tp=tp,
        tp_residual=tp_r,
        unital=unital,
        unital_residual=u_r,
    )


def depolarizing(d: int, a: float) -> Channel:
    """Depolarizing family ``rho -> (1-a) rho + (a/d) Tr(rho) I`` on dim d.

    TP and unital for every real a; CP exactly for 0 <= a <= d^2/(d^2-1)
    (from the Choi eigenvalues (1-a)d + a/d and a/d). The family composes
    as D_a . D_b = D_{a+b-ab}, so for a != 1 it is invertible with inverse
    D_{a/(a-1)}, while D_1 is idempotent.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    v = vec(np.eye(d))[:, None]
    s = (1.0 - a) * np.eye(d * d, dtype=np.complex128) + (a / d) * (v @ dagger(v))
    return Channel(d_in=d, d_out=d, super=s)


def conjugation_channel(f: np.ndarray) -> Channel:
    """Single-Kraus channel ``rho -> F rho F^H``; always CP."""
    return kraus_to_channel([f])


def mixed_unitary(unitaries, probs, tol: Tolerances = DEFAULT_TOL) -> Channel:
    """Convex mixture of unitary conjugations; always unital CPTP."""
    probs = np.asarray(probs, dtype=float)
    if len(unitaries) != probs.size or probs.size == 0:
        raise ValueError("need one probability per unitary")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > tol.residual_atol:
        raise ValueError(f"probabilities must be non-negative and sum to 1, got {probs}")
    ops = [as_cmatrix(u, "unitary") for u in unitaries]
    d = ops[0].shape[0]
    for u in ops:
        if u.shape != (d, d):
            raise ValueError("unitaries must be square and of equal dimension")
        if fro_dist(dagger(u) @ u, np.eye(d)) > tol.residual_atol:
            raise ValueError("member is not unitary within tolerance")
    return kraus_to_channel([np.sqrt(p) * u for p, u in zip(probs, ops)])


def projector_channel(block_dims) -> Channel:
    """Block-dephasing channel with Kraus the orthogonal block projectors.

    The projectors sum to the identity, so the channel is unital CPTP; its
    superoperator is a Hermitian idempotent and the channel equals its own
    Moore-Penrose, Drazin, and dagger-Drazin inverse.
    """
    dims = [int(b) for b in block_dims]
    if not dims or any(b < 1 for b in dims):
        raise ValueError("block dimensions must be positive integers")
    d = sum(dims)
    ops = []
    offset = 0
    for b in dims:
        p = np.zeros((d, d), dtype=np.complex128)
        p[offset : offset + b, offset : offset + b] = np.eye(b)
        ops.append(p)
        offset += b
    return kraus_to_channel(ops)


def _get_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    return _phase_fixed_qr(_ginibre(rng, rows, cols))


def _phase_fixed_qr(g: np.ndarray) -> np.ndarray:
    """Q of the QR of each Ginibre matrix of ``g`` (one or a stack), with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return _haar_isometry(_get_rng(seed), d, d)


def random_cptp(d_in: int, d_out: int, env_dim: int, seed) -> Channel:
    """Random CPTP channel from a Haar-ish Stinespring isometry.

    A Ginibre matrix of shape (env_dim*d_out, d_in) is orthonormalized to an
    isometry V and the Kraus operators are its env-indexed row blocks, so
    sum K_i^H K_i = V^H V = I holds by construction. ``env_dim = 1`` gives a
    unitary conjugation. Deterministic for a given seed.
    """
    if d_in < 1 or d_out < 1 or env_dim < 1:
        raise ValueError("dimensions must be positive")
    if env_dim * d_out < d_in:
        raise ValueError("env_dim * d_out must be at least d_in for an isometry to exist")
    v = _haar_isometry(_get_rng(seed), env_dim * d_out, d_in)
    ops = [v[i * d_out : (i + 1) * d_out, :] for i in range(env_dim)]
    return kraus_to_channel(ops)


def random_ucptp(d: int, n_unitaries: int, seed) -> Channel:
    """Random mixed-unitary channel: Haar unitaries with Dirichlet weights."""
    if d < 1 or n_unitaries < 1:
        raise ValueError("dimensions must be positive")
    rng = _get_rng(seed)
    # the Ginibre matrices in the order haar_unitary draws them, then one stacked QR
    unitaries = _phase_fixed_qr(np.stack([_ginibre(rng, d, d) for _ in range(n_unitaries)]))
    probs = rng.dirichlet(np.ones(n_unitaries))
    # unitary and normalized by construction: skip mixed_unitary's input checks
    return kraus_to_channel(np.sqrt(probs)[:, None, None] * unitaries)


def partial_trace(m: np.ndarray, dims, which: int) -> np.ndarray:
    """Partial trace of a (d1*d2) x (d1*d2) matrix over subsystem 1 or 2."""
    d1, d2 = int(dims[0]), int(dims[1])
    m = as_cmatrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {m.shape} does not match dims {(d1, d2)}")
    t = m.reshape(d1, d2, d1, d2)
    if which == 1:
        return np.einsum("iaib->ab", t)
    if which == 2:
        return np.einsum("aibi->ab", t)
    raise ValueError("which must be 1 or 2")


# --- JSON wire format -------------------------------------------------------
#
# A channel file is an object {"d_in": int, "d_out": int, ...} carrying
# either "kraus" (a list of matrices) or "super" (one matrix). Matrices are
# row-major nested lists of [re, im] pairs.


def matrix_to_pairs(m: np.ndarray):
    m = as_cmatrix(m)
    return np.stack([m.real, m.imag], axis=-1).tolist()


# the types json.load gives a number; float() would also take "1" and true, whose type is bool
_JSON_NUMBERS = frozenset((int, float))


def matrix_from_pairs(data, name: str = "matrix") -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ChannelFormatError(f"{name} must be a non-empty nested list of [re, im] pairs")
    width = len(data[0])
    if width == 0:
        raise ChannelFormatError(f"{name} rows must be non-empty")
    rows = []
    for r in data:
        if len(r) != width:
            raise ChannelFormatError(f"{name} rows have inconsistent lengths")
        row = []
        for entry in r:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ChannelFormatError(f"{name} entries must be [re, im] pairs")
            re, im = entry
            if type(re) not in _JSON_NUMBERS or type(im) not in _JSON_NUMBERS:
                raise ChannelFormatError(f"{name} entries must be numeric [re, im] pairs")
            try:
                row.append(complex(re, im))
            except OverflowError as exc:  # an integer beyond the float range
                raise ChannelFormatError(f"{name} contains an entry beyond the float range") from exc
        rows.append(row)
    try:
        return as_cmatrix(np.array(rows, dtype=np.complex128), name)
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from exc


def channel_to_dict(ch: Channel) -> dict:
    out = {"d_in": ch.d_in, "d_out": ch.d_out}
    if ch.kraus is not None:
        out["kraus"] = [matrix_to_pairs(k) for k in ch.kraus]
    else:
        out["super"] = matrix_to_pairs(ch.super)
    return out


def channel_from_dict(data) -> Channel:
    if not isinstance(data, dict):
        raise ChannelFormatError("channel JSON must be an object")
    d_in, d_out = data.get("d_in"), data.get("d_out")
    # JSON integers only: 2.7, "2" and true are not dimensions
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (d_in, d_out)):
        raise ChannelFormatError("channel JSON needs integer d_in and d_out")
    if "kraus" in data:
        raw = data["kraus"]
        if not isinstance(raw, list) or not raw:
            raise ChannelFormatError("kraus must be a non-empty list of matrices")
        return Channel(d_in=d_in, d_out=d_out, kraus=[matrix_from_pairs(k, "kraus operator") for k in raw])
    if "super" in data:
        return Channel(d_in=d_in, d_out=d_out, super=matrix_from_pairs(data["super"], "super"))
    raise ChannelFormatError("channel JSON needs a 'kraus' or 'super' field")
