"""Generalized inverses of complex matrices with per-axiom residual reports.

Four kinds are computed: Moore-Penrose (any shape), Drazin and group
(square), and dagger-Drazin (any shape, reduces to Moore-Penrose on
complex matrices). Every returned inverse is self-certifying: the
defining-axiom residuals are computed and enforced against
``Tolerances.residual_atol``, so a successful return is a numerical
certificate.

Axiom residuals, in the left-to-right composition convention of
:mod:`chaninv.linalg` (f;g on column vectors is G @ F):

* Moore-Penrose, inverse G of F: MP1 ``|FGF - F|``, MP2 ``|GFG - G|``,
  MP3 ``|FG - (FG)^H|``, MP4 ``|GF - (GF)^H|`` (both projector
  conditions are checked; MP3/MP4 follow the classical matrix labelling).
* Drazin, inverse G of square A: D1 ``|G A^(k+1) - A^k|`` minimized over
  k, D2 ``|GAG - G|``, D3 ``|AG - GA|``.
* Group: G1 ``|AGA - A|``, G2 ``|GAG - G|``, G3 ``|AG - GA|``.
* Dagger-Drazin, inverse G of F with gram matrices P = F^H F and
  Q = F F^H: Dd1 ``max(|G F P^k - P^k|, |Q^k F G - Q^k|)`` minimized over
  k, Dd2 ``|GFG - G|``, Dd3 ``|GF - (GF)^H|``, Dd4 ``|FG - (FG)^H|``.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

# svd is not called here; perfbench's tracer test rebinds it as chaninv.ginv.svd
from .linalg import DEFAULT_TOL, Tolerances, _rank, as_cmatrix, dagger, fro_dist, matpow, svd  # noqa: F401

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
    """Two independent formulas for the same inverse disagree beyond tolerance."""


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


def _pinv(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the shared rank cutoff."""
    if m.size == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # the SVD of a finite matrix converges
        raise AxiomResidualError(f"computation overflowed: {exc}") from exc
    cutoff = tol.rank_rtol * max(m.shape) * s[0]
    inv_s = np.zeros_like(s)
    keep = s > cutoff
    inv_s[keep] = 1.0 / s[keep]
    return dagger(vh) @ (inv_s[:, None] * dagger(u))


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
    if kind == "moore_penrose":
        fg = f @ g
        gf = g @ f
        return {
            "MP1": fro_dist(f @ g @ f, f),
            "MP2": fro_dist(g @ f @ g, g),
            "MP3": fro_dist(fg, dagger(fg)),
            "MP4": fro_dist(gf, dagger(gf)),
        }, None

    if kind in ("drazin", "group"):
        labels = KIND_AXIOMS[kind]
        residuals = {
            labels[1]: fro_dist(g @ f @ g, g),
            labels[2]: fro_dist(f @ g, g @ f),
        }
        if kind == "group":
            residuals["G1"] = fro_dist(f @ g @ f, f)
            return residuals, None
        powers = islice(_powers(f), f.shape[0] + 1)
        best_k, residuals["D1"] = _witness((fro_dist(g @ p @ f, p) for p in powers), tol)
        return residuals, best_k

    # dagger_drazin: powers of the gram matrices F^H F and F F^H
    gf = g @ f
    fg = f @ g
    residuals = {
        "Dd2": fro_dist(g @ f @ g, g),
        "Dd3": fro_dist(gf, dagger(gf)),
        "Dd4": fro_dist(fg, dagger(fg)),
    }
    pairs = islice(zip(_powers(dagger(f) @ f), _powers(f @ dagger(f))), max(f.shape) + 1)
    rs = (float(np.maximum(fro_dist(gf @ p, p), fro_dist(q @ fg, q))) for p, q in pairs)
    best_k, residuals["Dd1"] = _witness(rs, tol)
    return residuals, best_k


def _powers(m: np.ndarray):
    """I, m, m^2, ... without end."""
    p = np.eye(m.shape[0], dtype=np.complex128)
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
    """Smallest k >= 0 with rank(a^k) == rank(a^(k+1)); 0 means invertible."""
    return _index(_as_square(a, "Drazin index"), tol)


def _index(a: np.ndarray, tol: Tolerances) -> int:
    n = a.shape[0]
    power = np.eye(n, dtype=np.complex128)
    r_prev = n
    try:
        for k in range(n + 1):
            power = power @ a
            r_cur = _rank(power, tol)
            if r_cur == r_prev:
                return k
            r_prev = r_cur
    except np.linalg.LinAlgError as exc:  # the SVD of a finite matrix converges
        raise AxiomResidualError(f"computation overflowed: {exc}") from exc
    return n


def _drazin_matrix(a: np.ndarray, k: int, tol: Tolerances) -> np.ndarray:
    """Uncertified Drazin inverse a^k (a^(2k+1))^+ a^k of ``a`` with index k."""
    ak = matpow(a, k)
    return ak @ _pinv(matpow(a, 2 * k + 1), tol) @ ak


def _drazin(a: np.ndarray, k: int, tol: Tolerances) -> GinvReport:
    inv = _drazin_matrix(a, k, tol)
    residuals, _ = _residuals("drazin", a, inv, tol)
    _enforce("drazin", residuals, tol)
    return GinvReport(kind="drazin", inverse=inv, residuals=residuals, index=k)


def drazin_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Drazin inverse via the rank-stabilization index and a^k (a^(2k+1))^+ a^k.

    Jordan-form routes are numerically unstable; this formula needs only the
    SVD-backed Moore-Penrose inverse and is certified by the D1-D3 residuals.
    For invertible input (index 0) it returns the ordinary inverse.
    """
    a = _as_square(a, "Drazin inverse")
    return _drazin(a, _index(a, tol), tol)


def group_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Group inverse (Drazin inverse in the index <= 1 case).

    Raises IndexTooLargeError when the Drazin index exceeds 1. The result is
    re-certified against G1-G3 and the double-inverse law (the group inverse
    of the group inverse recovers the input).
    """
    a = _as_square(a, "group inverse")
    k = _index(a, tol)
    if k > 1:
        raise IndexTooLargeError(k)
    inv = _drazin(a, k, tol).inverse
    residuals, _ = _residuals("group", a, inv, tol)
    _enforce("group", residuals, tol)
    gap = fro_dist(_drazin(inv, _index(inv, tol), tol).inverse, a)
    if not (gap <= tol.residual_atol):
        raise AxiomResidualError(f"group inverse double-inverse law violated: residual {gap:.3e}")
    return GinvReport(kind="group", inverse=inv, residuals=residuals, index=k)


def dagger_drazin(f: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Dagger-Drazin inverse of a (possibly rectangular) matrix.

    Computed as (F^H F)^D F^H via the Drazin inverse of the input-side gram
    matrix and cross-checked against the output-side formula F^H (F F^H)^D;
    the two must agree within ``residual_atol`` or FormulaMismatchError is
    raised (a conditioning failure). Certified against Dd1-Dd4; the reported
    ``witness_k`` realizes Dd1.
    """
    f = as_cmatrix(f)
    gram_in = dagger(f) @ f
    gram_out = f @ dagger(f)
    # the intermediate gram inverses are plumbing; certification happens on
    # the Dd axioms of the final inverse, whose residuals scale more gently
    primary = _drazin_matrix(gram_in, _index(gram_in, tol), tol) @ dagger(f)
    alternate = dagger(f) @ _drazin_matrix(gram_out, _index(gram_out, tol), tol)
    gap = fro_dist(primary, alternate)
    if not np.isfinite(gap):
        raise AxiomResidualError(f"dagger-Drazin computation overflowed: formula gap is {gap}")
    if gap > tol.residual_atol:
        raise FormulaMismatchError(
            f"gram-matrix formulas for the dagger-Drazin inverse disagree by {gap:.3e}"
        )
    residuals, witness_k = _residuals("dagger_drazin", f, primary, tol)
    _enforce("dagger_drazin", residuals, tol)
    return GinvReport(kind="dagger_drazin", inverse=primary, residuals=residuals, witness_k=witness_k)


def is_mp_of_dagger_drazin(f: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Check that the double dagger-Drazin inverse recovers ``f``.

    Returns ``(ok, residual)`` where residual is the Frobenius distance
    between the double inverse and f. When the round trip holds, the
    dagger-Drazin inverse is additionally required to coincide with the
    Moore-Penrose inverse. For finite matrices this always holds; a False
    return signals a numerical defect rather than a counterexample.
    """
    f = as_cmatrix(f)
    first = dagger_drazin(f, tol)
    second = dagger_drazin(first.inverse, tol)
    residual = fro_dist(second.inverse, f)
    ok = residual <= tol.residual_atol
    if ok:
        mp = mp_inverse(f, tol)
        ok = fro_dist(first.inverse, mp.inverse) <= tol.residual_atol
    return ok, residual
