"""Generalized inverses of complex matrices with per-axiom residual reports.

Four kinds are computed: Moore-Penrose (any shape), Drazin and group
(square), and dagger-Drazin (any shape, reduces to Moore-Penrose on
complex matrices). Each comes from one factorization: Moore-Penrose and
dagger-Drazin from one thin SVD of the input; Drazin and group from a
deflation: one SVD of A, then SVDs of r x r compressions of A, give the
index k and bases u_r of range(A^k) and v_r of range((A^k)^H), so that
``A^D = u_r (v_r^H A u_r)^{-1} v_r^H`` (at index 0, read off the SVD of A);
no power of A is formed. Every returned inverse is
self-certifying: the defining-axiom residuals are computed and enforced
against ``Tolerances.residual_atol``, so a successful return is a
numerical certificate.

Axiom residuals, in the left-to-right composition convention of
:mod:`chaninv.linalg` (f;g on column vectors is G @ F):

* Moore-Penrose, inverse G of F: MP1 ``|FGF - F|``, MP2 ``|GFG - G|``,
  MP3 ``|FG - (FG)^H|``, MP4 ``|GF - (GF)^H|`` (both projector
  conditions are checked; MP3/MP4 follow the classical matrix labelling).
* Drazin, inverse G of square A: D1 ``|G A^(k+1) - A^k|`` minimized over
  k, D2 ``|GAG - G|``, D3 ``|AG - GA|``.
* Group: G1 ``|AGA - A|``, G2 ``|GAG - G|``, G3 ``|AG - GA|``, and
  ``|(G^#)^# - A|`` in closed form on A's rank decision (no SVD of G).
* Dagger-Drazin, inverse G of F with gram matrices P = F^H F and
  Q = F F^H: Dd1 ``max(|G F P^k - P^k|, |Q^k F G - Q^k|)`` minimized over
  k, Dd2 ``|GFG - G|``, Dd3 ``|GF - (GF)^H|``, Dd4 ``|FG - (FG)^H|``.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice

import numpy as np

# svd is not called here; perfbench's tracer test rebinds it as chaninv.ginv.svd
from .linalg import DEFAULT_TOL, Tolerances, _numerical_rank, as_cmatrix, dagger, fro_dist, svd  # noqa: F401

KIND_AXIOMS = {
    "moore_penrose": ("MP1", "MP2", "MP3", "MP4"),
    "drazin": ("D1", "D2", "D3"),
    "group": ("G1", "G2", "G3"),
    "dagger_drazin": ("Dd1", "Dd2", "Dd3", "Dd4"),
}


class GinvError(Exception):
    """Base class for generalized-inverse failures."""


class IndexTooLargeError(GinvError):
    """Group inverse requested for a matrix of Drazin index > 1."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"group inverse does not exist: Drazin index is {index} > 1")


class AxiomResidualError(GinvError):
    """A computed inverse failed its defining-axiom residual gate, or overflowed."""


class FormulaMismatchError(GinvError):
    """Two formulas for one inverse disagree. Not raised here (dagger-Drazin is one SVD); kept for callers."""


@dataclass(frozen=True)
class GinvReport:
    """An inverse of a given kind with its axiom residuals.

    ``index`` is the Drazin index for the drazin and group kinds;
    ``witness_k`` is the exponent realizing the Dd1 axiom for dagger_drazin.
    """

    kind: str
    inverse: np.ndarray
    residuals: dict
    index: int | None = None
    witness_k: int | None = None


def _svd(m: np.ndarray, tol: Tolerances, shape: tuple | None = None, top: float | None = None):
    """(u, s, vh, r): thin SVD of ``m`` and its rank, judged as in ``_numerical_rank``; overflow raises."""
    # NumPy's SVD can hang on non-finite input instead of failing
    if not np.all(np.isfinite(m)):
        raise AxiomResidualError("computation overflowed: a matrix to factor has non-finite entries")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        return u, s, vh, _numerical_rank(s, shape or m.shape, tol, top)
    except (np.linalg.LinAlgError, OverflowError) as exc:  # a finite matrix's SVD converges: either is an overflow
        raise AxiomResidualError(f"computation overflowed: {exc}") from exc


def _pinv(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the shared rank cutoff."""
    u, s, vh, r = _svd(m, tol)
    return dagger(vh[:r]) @ ((1.0 / s[:r])[:, None] * dagger(u[:, :r]))


def _as_square(a, what: str) -> np.ndarray:
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} needs a square matrix, got shape {a.shape}")
    return a


def verify_axioms(kind: str, f: np.ndarray, g: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Frobenius residual of every defining axiom of ``kind`` for the pair (f, g).

    Returns ``(residuals, witness_k)`` where witness_k is the exponent
    minimizing the D1/Dd1 residual (None for kinds without one). Callers
    threshold; an overflowed residual is reported as the inf or nan it is.
    """
    if kind not in KIND_AXIOMS:
        raise ValueError(f"unknown inverse kind {kind!r}")
    f = as_cmatrix(f, "f")
    g = as_cmatrix(g, "g")
    if g.shape != (f.shape[1], f.shape[0]):
        raise ValueError(f"shape mismatch: inverse of {f.shape} must be {(f.shape[1], f.shape[0])}, got {g.shape}")
    if kind in ("drazin", "group") and f.shape[0] != f.shape[1]:
        raise ValueError(f"{kind} axioms need a square matrix, got shape {f.shape}")
    return _residuals(kind, f, g, tol)


def _residuals(kind: str, f: np.ndarray, g: np.ndarray, tol: Tolerances):
    """:func:`verify_axioms` on arrays the library built itself, without re-validating them."""
    fg = f @ g
    gf = g @ f
    if kind == "moore_penrose":
        return {
            "MP1": fro_dist(fg @ f, f),
            "MP2": fro_dist(gf @ g, g),
            "MP3": fro_dist(fg, dagger(fg)),
            "MP4": fro_dist(gf, dagger(gf)),
        }, None

    if kind in ("drazin", "group"):
        labels = KIND_AXIOMS[kind]
        residuals = {
            labels[1]: fro_dist(gf @ g, g),
            labels[2]: fro_dist(fg, gf),
        }
        if kind == "group":
            residuals["G1"] = fro_dist(fg @ f, f)
            return residuals, None
        # D1 at k = 0 is |GF - I|; each later power is formed only if the previous k failed
        later = (fro_dist(gf @ p, p) for p in islice(_powers(f), f.shape[0]))
        best_k, residuals["D1"] = _witness(chain([_from_eye(gf)], later), tol)
        return residuals, best_k

    residuals = {
        "Dd2": fro_dist(gf @ g, g),
        "Dd3": fro_dist(gf, dagger(gf)),
        "Dd4": fro_dist(fg, dagger(fg)),
    }
    # the gram matrices P = F^H F and Q = F F^H are formed only if k = 0 fails
    pairs = islice(zip(_powers(dagger(f), f), _powers(f, dagger(f))), max(f.shape))
    later = (float(np.maximum(fro_dist(gf @ p, p), fro_dist(q @ fg, q))) for p, q in pairs)
    best_k, residuals["Dd1"] = _witness(chain([float(np.maximum(_from_eye(gf), _from_eye(fg)))], later), tol)
    return residuals, best_k


def _from_eye(m: np.ndarray) -> float:
    return fro_dist(m, np.eye(m.shape[0], dtype=np.complex128))


def _powers(*factors: np.ndarray):
    """m, m^2, m^3, ... without end, for m the product of ``factors``, formed on first use."""
    p = m = reduce(np.matmul, factors)
    while True:
        yield p
        p = p @ m


def _witness(residuals, tol: Tolerances):
    """(k, r) of the first passing residual, else of the smallest; nan only if all are nan."""
    best_k, best = 0, np.nan
    for k, r in enumerate(residuals):
        if r <= tol.residual_atol:
            return k, r
        if np.isnan(best) or r < best:
            best_k, best = k, r
    return best_k, best


def _enforce(kind: str, residuals: dict, tol: Tolerances) -> None:
    worst = float(np.max(list(residuals.values()), initial=0.0))  # unlike max(), keeps a nan
    if not (worst <= tol.residual_atol):
        raise AxiomResidualError(
            f"{kind} inverse failed its axiom gate: max residual {worst:.3e} > {tol.residual_atol:.3e} "
            f"(residuals: {residuals}); check tolerances or input conditioning"
        )


def mp_inverse(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Moore-Penrose inverse via SVD, certified against MP1-MP4."""
    m = as_cmatrix(m)
    inv = _pinv(m, tol)
    residuals, _ = _residuals("moore_penrose", m, inv, tol)
    _enforce("moore_penrose", residuals, tol)
    return GinvReport(kind="moore_penrose", inverse=inv, residuals=residuals)


def drazin_index(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(a^k) == rank(a^(k+1)); 0 means invertible.

    The ranks come from the deflation of :func:`_core`, not from powers of a. In a and in every block of it
    they count the singular values above ``rank_rtol * n * sigma_max(a)``, n the size of a: a's noise floor.
    """
    return _core(_as_square(a, "Drazin index"), tol)[0]


def _core(a: np.ndarray, tol: Tolerances):
    """(k, u, v, s): the Drazin index k and orthonormal bases u of range(a^k), v of range((a^k)^H).

    At index 0 a = v diag(s) u^H is its SVD, else s is None. range(a^j) is a-invariant and range((a^j)^H)
    a^H-invariant, so with bases u_j, v_j of them rank(a^(j+1)) = rank(u_j^H a u_j), range(a^(j+1)) =
    u_j range(u_j^H a u_j) and range((a^(j+1))^H) = v_j range(v_j^H a^H v_j): one n x n SVD, then r x r
    blocks until one keeps its rank, and no power of a is formed.
    """
    u, s, vh, r = _svd(a, tol)
    if r == a.shape[0]:
        return 0, dagger(vh), u, s
    k, u, v = 1, u[:, :r], dagger(vh[:r])
    while r:
        p, _, _, r_next = _svd(dagger(u) @ a @ u, tol, a.shape, s[0])
        if r_next == r:
            break
        # the right singular vectors of v^H a v span range(v^H a^H v)
        q = dagger(_svd(dagger(v) @ a @ v, tol, a.shape, s[0])[2][:r_next])
        k, r, u, v = k + 1, r_next, u @ p[:, :r_next], v @ q
    return k, u, v, None


def _core_inverse(a: np.ndarray, u: np.ndarray, v: np.ndarray, s: np.ndarray | None) -> np.ndarray:
    """Uncertified Drazin inverse u (v^H a u)^{-1} v^H from :func:`_core`; v^H a u = diag(s) at index 0."""
    if s is not None:
        return u @ ((1.0 / s)[:, None] * dagger(v))
    try:
        return u @ np.linalg.solve(dagger(v) @ a @ u, dagger(v))
    except np.linalg.LinAlgError as exc:  # v^H u is invertible when the index is right
        raise AxiomResidualError(f"Drazin core block is singular: {exc}") from exc


def _double_inverse(inv: np.ndarray, u: np.ndarray, v: np.ndarray, s: np.ndarray | None) -> np.ndarray:
    """(G^#)^# of G = ``inv`` from :func:`_core_inverse`, on the bases u, v of the deflation of a.

    G has range(u) and row space range(v), so (G^#)^# = u (v^H G u)^{-1} v^H: one r x r solve, no SVD of G,
    and a's rank decision stands. At index 0 it is a's SVD v diag(s) u^H.
    """
    return v @ (s[:, None] * dagger(u)) if s is not None else _core_inverse(inv, u, v, None)


def _drazin(a: np.ndarray, tol: Tolerances, kind: str = "drazin") -> GinvReport:
    """Certified Drazin inverse of square ``a``; as ``kind="group"``, refuses index > 1 and checks (G^#)^# = a."""
    k, u, v, s = _core(a, tol)
    if kind == "group" and k > 1:
        raise IndexTooLargeError(k)
    inv = _core_inverse(a, u, v, s)
    residuals, _ = _residuals(kind, a, inv, tol)
    _enforce(kind, residuals, tol)
    if kind == "group":
        gap = fro_dist(_double_inverse(inv, u, v, s), a)
        if not (gap <= tol.residual_atol):
            raise AxiomResidualError(f"group inverse double-inverse law violated: residual {gap:.3e}")
    return GinvReport(kind=kind, inverse=inv, residuals=residuals, index=k)


def drazin_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Drazin inverse from the core-nilpotent decomposition found by the index search.

    Jordan-form routes are numerically unstable; this one needs the
    deflation's SVDs (one n x n, the rest r x r) and one r x r solve, and is
    certified by the D1-D3 residuals. For invertible input (index 0) it
    returns the ordinary inverse, read off the SVD of the input.
    """
    return _drazin(_as_square(a, "Drazin inverse"), tol)


def group_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Group inverse (Drazin inverse in the index <= 1 case).

    Raises IndexTooLargeError, before forming any inverse, when the Drazin
    index exceeds 1. The result is certified against G1-G3 and the
    double-inverse law |(G^#)^# - a|, with (G^#)^# = u (v^H G u)^{-1} v^H on
    the bases u, v of the deflation of a that gave G (a's SVD at index 0): no
    SVD of G, so the check reuses a's rank decision instead of deciding G's.
    """
    return _drazin(_as_square(a, "group inverse"), tol, "group")


def dagger_drazin(f: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Dagger-Drazin inverse of a (possibly rectangular) matrix.

    On complex matrices it equals the Moore-Penrose inverse: the gram
    matrix F^H F is Hermitian, so its index is at most 1 and
    (F^H F)^D F^H = (F^H F)^+ F^H = F^+. It is therefore computed from one
    thin SVD of F, without forming a gram matrix, and certified against
    Dd1-Dd4; the reported ``witness_k`` realizes Dd1.
    """
    f = as_cmatrix(f)
    inv = _pinv(f, tol)
    residuals, witness_k = _residuals("dagger_drazin", f, inv, tol)
    _enforce("dagger_drazin", residuals, tol)
    return GinvReport(kind="dagger_drazin", inverse=inv, residuals=residuals, witness_k=witness_k)

