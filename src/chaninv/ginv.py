"""Generalized inverses of complex matrices with per-axiom residual reports.

Four kinds are computed: Moore-Penrose (any shape), Drazin and group
(square), and dagger-Drazin (any shape, reduces to Moore-Penrose on
complex matrices). Each comes from one factorization.

* LU route: a square A whose LU inverse G passes the norm test
  ``|A|_F |G|_F n (rank_rtol + 4 eps) <= 1/2`` is full rank as the SVD's
  rank cutoff would judge it (sigma_max <= |A|_F, sigma_min >= 1/|A^-1|_F,
  and a factor 2 for rounding, which the eps term keeps small by capping
  cond(A) at 1/(8 n eps)). Every kind's inverse of it is G, at index 0,
  certified from E = GA - I and E' = AG - I (see below).
* SVD route, for every other input: Moore-Penrose and dagger-Drazin from
  one thin SVD of the input; Drazin and group from a deflation: one SVD of
  A, then SVDs of r x r compressions of A, give the index k and bases u_r
  of range(A^k) and v_r of range((A^k)^H), so that
  ``A^D = u_r (v_r^H A u_r)^{-1} v_r^H`` (at index 0, read off the SVD of
  A); no power of A is formed.

Every returned inverse is self-certifying: the defining-axiom residuals are
computed and enforced against ``Tolerances.residual_atol``, so a successful
return is a numerical certificate.

The kernels work on stacks (N, m, n) of same-shape matrices, in one straight
pass: one stacked LU inverse of a square stack, which routes each member on
its own test; one stacked SVD of the other members; the inverses
(Moore-Penrose and index-0 Drazin read off the SVD for every member at once,
each singular member deflated alone, a refusal kept as that member's error);
then one stacked norm per axiom on the members that have an inverse, which
gives each member its report or error.
:func:`certify_many` validates a list of matrices, then certifies them one
stack per shape; the four public inverses run them on a stack of one.

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

On the LU route these come from two products per member, E = GA - I and
E' = AG - I (:func:`_lu_values`). MP3, MP4, D1, D3, G3, Dd1, Dd3 and Dd4 are
exact identities in E and E'. MP1 = G1, MP2 = D2 = G2 = Dd2 and the group law
``|G^-1 - A|`` are bounded by |A| m, |G| m and |A| m / (1 - m), with
m = min(|E|, |E'|) plus a term for rounding, and each bound is reported under
its axiom's label; G^-1 is not formed. Each bound is at least the dense
residual's computed value, so a member the bounds pass would pass the dense
gate too. The gate is absolute, so far from unit scale a bound can fail where
the dense residual passes: a member whose values from E and E' do not all
pass is judged by the dense residuals above and, for the group kind, G^-1
from a second LU. Either way the verdict is the dense gate's. Every LU-route
report carries ``forward_error_bound`` >= ``|G - A^-1|_F``; SVD-route reports
carry None.
"""

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice

import numpy as np

# svd is not called here; perfbench's tracer test rebinds it as chaninv.ginv.svd
from .linalg import (  # noqa: F401
    DEFAULT_TOL, Tolerances, _attempt, _numerical_rank, _one, as_cmatrix, dagger, svd,
)

_EPS = np.finfo(float).eps

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
    ``forward_error_bound`` bounds ``|inverse - a^-1|_F`` on the LU route:
    ``|G|_F m / (1 - m)``, with m = min(|GA - I|_F, |AG - I|_F) plus
    4 (n + 2) eps |a|_F |G|_F for rounding, and inf for m >= 1. It is None
    on the SVD route.
    """

    kind: str
    inverse: np.ndarray
    residuals: dict
    index: int | None = None
    witness_k: int | None = None
    forward_error_bound: float | None = None


def _svd(m: np.ndarray, tol: Tolerances, shape: tuple | None = None, top: float | None = None):
    """(u, s, vh, r): thin SVD of ``m`` and its rank, judged as in ``_numerical_rank``; overflow raises.

    ``m`` may be a stack (N, p, q): one finiteness check, one stacked SVD and a rank per member.
    """
    # NumPy's SVD can hang on non-finite input instead of failing
    if not np.isfinite(m).all():
        raise AxiomResidualError("computation overflowed: a matrix to factor has non-finite entries")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        return u, s, vh, _numerical_rank(s, shape or m.shape[-2:], tol, top)
    except (np.linalg.LinAlgError, OverflowError) as exc:  # a finite matrix's SVD converges: either is an overflow
        raise AxiomResidualError(f"computation overflowed: {exc}") from exc


def _pinv(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r) -> np.ndarray:
    """Moore-Penrose inverses from the stacked thin SVDs of :func:`_svd`: weight 1/s up to each rank, 0 past it.

    Only the leading max(r) singular triplets enter the product.
    """
    k = int(np.asarray(r).max(initial=0))
    w = 1.0 / np.where(np.arange(k) < np.asarray(r)[..., None], s[..., :k], np.inf)
    return dagger(vh[..., :k, :]) @ (w[..., None] * dagger(u[..., :k]))


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
    residuals, witness_k = _residuals(kind, f, g, tol)
    return {label: float(r) for label, r in residuals.items()}, None if witness_k is None else int(witness_k)


def _norm(m: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack: one ``vecdot`` of the flattened matrices."""
    v = m.reshape(*m.shape[:-2], -1)
    return np.sqrt(np.vecdot(v, v).real)


def _residuals(kind: str, f: np.ndarray, g: np.ndarray, tol: Tolerances):
    """:func:`verify_axioms` on arrays the library built itself, without re-validating them.

    ``f`` and ``g`` may be stacks (N, m, n) and (N, n, m); each residual and the witness are then arrays over
    the stack. An overflow gives an inf or nan residual, which fails the gate, and no NumPy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fg = f @ g
        gf = g @ f
        if kind == "moore_penrose":
            return {
                "MP1": _norm(fg @ f - f),
                "MP2": _norm(gf @ g - g),
                "MP3": _norm(fg - dagger(fg)),
                "MP4": _norm(gf - dagger(gf)),
            }, None

        if kind in ("drazin", "group"):
            labels = KIND_AXIOMS[kind]
            residuals = {
                labels[1]: _norm(gf @ g - g),
                labels[2]: _norm(fg - gf),
            }
            if kind == "group":
                residuals["G1"] = _norm(fg @ f - f)
                return residuals, None
            # D1 at k = 0 is |GF - I|; each later power is formed only while some member has not passed
            later = (_norm(gf @ p - p) for p in islice(_powers(f), f.shape[-1]))
            best_k, residuals["D1"] = _witness(chain([_from_eye(gf)], later), tol)
            return residuals, best_k

        residuals = {
            "Dd2": _norm(gf @ g - g),
            "Dd3": _norm(gf - dagger(gf)),
            "Dd4": _norm(fg - dagger(fg)),
        }
        # the gram matrices P = F^H F and Q = F F^H are formed only if k = 0 fails
        pairs = islice(zip(_powers(dagger(f), f), _powers(f, dagger(f))), max(f.shape[-2:]))
        later = (np.maximum(_norm(gf @ p - p), _norm(q @ fg - q)) for p, q in pairs)
        best_k, residuals["Dd1"] = _witness(chain([np.maximum(_from_eye(gf), _from_eye(fg))], later), tol)
        return residuals, best_k


def _from_eye(m: np.ndarray):
    return _norm(m - np.eye(m.shape[-1], dtype=np.complex128))


def _powers(*factors: np.ndarray):
    """m, m^2, m^3, ... without end, for m the product of ``factors``, formed on first use."""
    p = m = reduce(np.matmul, factors)
    while True:
        yield p
        p = p @ m


def _witness(residuals, tol: Tolerances):
    """(k, r) of the first passing residual, else of the smallest; nan only if all are nan.

    Item k of ``residuals`` holds the k-th residual of every member of a stack; items are drawn only while some
    member has passed none of them. A member takes item k if it has not passed yet and item k passes, is
    smaller, or replaces a nan.
    """
    atol = tol.residual_atol
    for k, r in enumerate(residuals):
        if k == 0:
            best_k, best = np.zeros(np.shape(r), dtype=int), np.asarray(r)
        else:
            take = ~(best <= atol) & ((r <= atol) | np.isnan(best) | (r < best))
            best_k, best = np.where(take, k, best_k), np.where(take, r, best)
        if (best <= atol).all():
            break
    return best_k, best


def _enforce(kind: str, residuals: dict, tol: Tolerances) -> None:
    worst = float(np.max(list(residuals.values()), initial=0.0))  # unlike max(), keeps a nan
    if not (worst <= tol.residual_atol):
        raise AxiomResidualError(
            f"{kind} inverse failed its axiom gate: max residual {worst:.3e} > {tol.residual_atol:.3e} "
            f"(residuals: {residuals}); check tolerances or input conditioning"
        )


# the square kinds, with the name their single calls give the input in a shape error
_SQUARE_KINDS = {"drazin": "Drazin inverse", "group": "group inverse"}


def certify_many(kind: str, mats, tol: Tolerances = DEFAULT_TOL) -> list:
    """Certified inverses of ``kind`` for every matrix of ``mats``, one stacked kernel run per shape.

    The result keeps the input order. Entry i is what the single call of that kind (:func:`mp_inverse`,
    :func:`drazin_inverse`, :func:`group_inverse` or :func:`dagger_drazin`) gives for ``mats[i]``: its
    GinvReport, or the exception it raises, of the same type and with the same message (a GinvError for a
    refused certificate, a ValueError for malformed input). One member's failure leaves the others' results
    unchanged.
    """
    if kind not in KIND_AXIOMS:
        raise ValueError(f"unknown inverse kind {kind!r}")
    checked = [_attempt(ValueError, _as_square, m, _SQUARE_KINDS[kind]) if kind in _SQUARE_KINDS
               else _attempt(ValueError, as_cmatrix, m) for m in mats]
    certified = iter(_certify_all(kind, [m for m in checked if not isinstance(m, ValueError)], tol))
    return [m if isinstance(m, ValueError) else next(certified) for m in checked]


def _certify_all(kind: str, mats, tol: Tolerances) -> list:
    """:func:`certify_many` on complex128 matrices the library built itself, square for Drazin/group: not re-validated."""
    stacks = {}
    for i, m in enumerate(mats):
        stacks.setdefault(m.shape, []).append(i)
    results = {}
    for members in stacks.values():
        results.update(zip(members, _certify(kind, np.stack([mats[i] for i in members]), tol)))
    return [results[i] for i in range(len(mats))]


def _certify(kind: str, a: np.ndarray, tol: Tolerances) -> list:
    """GinvReport or GinvError for each member of the validated stack ``a`` (N, m, n), square for Drazin/group.

    Each member is routed alone, whatever its neighbours: one that :func:`_lu_route` proves full rank is certified
    from its LU inverse by :func:`_by_lu`, every other one by :func:`_by_svd`.
    """
    g, lu, norms = _lu_route(a, tol)
    if lu.all():
        return _by_lu(kind, a, g, norms, tol)
    if not lu.any():
        return _by_svd(kind, a, tol)
    out = dict(zip(np.flatnonzero(lu).tolist(), _by_lu(kind, a[lu], g[lu], norms[lu], tol)))
    out.update(zip(np.flatnonzero(~lu).tolist(), _by_svd(kind, a[~lu], tol)))
    return [out[i] for i in range(len(a))]


def _lu_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of each member of the stack ``m`` by LU, nan for a member LAPACK finds exactly singular.

    One such member makes the stacked call raise. The members with an all-zero row or column are exactly singular
    and stay nan; the rest are retried as one stack and, if that raises too, inverted one at a time. Each member
    gets the inverse its own call gives. No NumPy warning escapes.
    """
    with np.errstate(all="ignore"):
        try:
            return np.linalg.inv(m)
        except np.linalg.LinAlgError:
            g = np.full_like(m, np.nan)
            nonzero = m != 0
            rest = np.flatnonzero(nonzero.any(axis=-1).all(axis=-1) & nonzero.any(axis=-2).all(axis=-1))
            if len(rest) < len(m):  # else the retried stack is the one that raised
                with suppress(np.linalg.LinAlgError):
                    g[rest] = np.linalg.inv(m[rest])
                    return g
            if len(rest) > 1:  # a stack of one holds only the member that raised
                for i in rest.tolist():
                    with suppress(np.linalg.LinAlgError):
                        g[i] = np.linalg.inv(m[i])
            return g


def _lu_route(a: np.ndarray, tol: Tolerances):
    """(G, lu, norms): LU inverses G of the stack ``a``, the mask of the members they prove full rank, and the
    (N, 2) array of each member's ``|A|_F`` and ``|G|_F``.

    A member qualifies when it is square and not empty and ``|A|_F |G|_F n (rank_rtol + 4 eps) <= 1/2``. As
    sigma_max <= |A|_F and sigma_min >= 1/|A^-1|_F, the test gives sigma_min >= 2 n (rank_rtol + 4 eps) sigma_max:
    every singular value clears the cutoff of ``_numerical_rank``, so the index is 0 as the SVD would find it. The
    factor 2 covers the rounding in G and in the singular values, which stays small next to 1 because the eps term
    caps cond_F(A) at 1/(8 n eps) whatever rank_rtol is (the relative error of G is about n eps cond(A)). A
    non-finite A or G, an exactly singular A (G is nan) and an A whose squared norm overflows make the product inf
    or nan, which fails the test.
    """
    n = a.shape[-1]
    if a.shape[-2] != n or not n:
        return None, np.zeros(len(a), dtype=bool), None
    g = _lu_inverse(a)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.array([_norm(a), _norm(g)]).T
        return g, norms[:, 0] * norms[:, 1] * (n * (tol.rank_rtol + 4 * _EPS)) <= 0.5, norms


def _by_lu(kind: str, a: np.ndarray, g: np.ndarray, norms: np.ndarray, tol: Tolerances) -> list:
    """:func:`_certify` on full-rank members: their LU inverse ``g`` is every kind's inverse, at index 0.

    A member is certified from :func:`_lu_values` when all of them pass the gate. Every other member is judged as
    before: by the dense residuals of :func:`_reports` and, for the group kind, G^-1 from a second LU. Both report
    the forward-error bound.
    """
    out, rest, bounds = [], [], []
    for i, (values, forward) in enumerate(_lu_values(kind, a, g, norms)):
        if all(v <= tol.residual_atol for v in values.values()):  # a nan fails
            values.pop("double", None)
            out.append(GinvReport(
                kind=kind,
                inverse=g[i].copy(),  # a view would keep the whole stack alive
                residuals=values,
                index=0 if kind in _SQUARE_KINDS else None,
                witness_k=0 if kind == "dagger_drazin" else None,
                forward_error_bound=forward,
            ))
        else:
            out.append(None)
            rest.append(i)
            bounds.append(forward)
    if rest:
        dense = _reports(kind, a[rest], g[rest], {} if kind in _SQUARE_KINDS else None, {}, tol, bounds)
        if kind == "group":
            _gate_double_inverse(dense, a[rest], _double_inverse(g[rest], None, None, None), tol)
        for i, result in zip(rest, dense):
            out[i] = result
    return out


def _lu_values(kind: str, a: np.ndarray, g: np.ndarray, norms: np.ndarray) -> list:
    """(values, forward) for each pair (A, G) of the stacks: the axiom values of ``kind`` and a forward-error bound.

    Two products per member, E = GA - I and E' = AG - I, give every value. Exact identities, computed as the dense
    residuals compute them: MP3 = Dd4 = ``|E' - E'^H|``, MP4 = Dd3 = ``|E - E^H|``, D1 at k = 0 = ``|E|``, D3 = G3 =
    ``|E' - E|``, Dd1 at k = 0 = ``max(|E|, |E'|)``. Bounds, with m = min(|E|, |E'|) + rho: MP1 = G1 = ``|AE|`` =
    ``|E'A|`` <= |A| m, MP2 = D2 = G2 = Dd2 = ``|EG|`` = ``|GE'|`` <= |G| m and, as ``|(I + E)^-1|_2 <= 1 / (1 - m)``
    while m < 1, the group double-inverse law ``|G^-1 - A|`` <= |A| m / (1 - m) (key "double") and the forward error
    ``|G - A^-1|`` <= |G| m / (1 - m) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 14);
    past m = 1 those two are inf. rho = 4 (n + 2) eps |A| |G| is about twice the rounding of the products (complex
    inner products of length n, Higham ch. 3) in E and E', plus that of the dense triple products ``AGA`` and
    ``GAG``. So each bound holds for the exact residual and is at least its dense computed value: a member whose
    values pass would pass the dense gate too. ``norms`` holds each member's |A| and |G|. The products and norms
    are stacked; the rest is float arithmetic.
    """
    n = a.shape[-1]
    with np.errstate(all="ignore"):
        x = np.empty((2, *a.shape), dtype=np.complex128)
        np.matmul(g, a, out=x[0])
        np.matmul(a, g, out=x[1])
        x.reshape(2 * len(a), n * n)[:, :: n + 1] -= 1  # minus I on each contiguous n x n block: x = (E, E')
        hermitian = kind in ("moore_penrose", "dagger_drazin")  # axioms that ask GA and AG to be Hermitian
        # |E|, |E'|, then |E - E^H| and |E' - E'^H|, or |E' - E|; a nan in E or E' makes one of the latter nan
        sizes = np.concatenate([_norm(x), _norm(x - dagger(x) if hermitian else x[1:] - x[:1])])
    rounding = 4 * (n + 2) * _EPS
    out = []
    for (e, e2, *exact), (na, ng) in zip(sizes.T.tolist(), norms.tolist()):
        m = min(e, e2) + rounding * na * ng
        if kind == "moore_penrose":
            values = {"MP1": na * m, "MP2": ng * m, "MP3": exact[1], "MP4": exact[0]}
        elif kind == "dagger_drazin":
            values = {"Dd1": max(e, e2), "Dd2": ng * m, "Dd3": exact[0], "Dd4": exact[1]}
        elif kind == "drazin":
            values = {"D1": e, "D2": ng * m, "D3": exact[0]}
        else:
            values = {"G1": na * m, "G2": ng * m, "G3": exact[0], "double": na * _neumann(m)}
        out.append((values, ng * _neumann(m)))
    return out


def _neumann(m: float) -> float:
    """m / (1 - m), which bounds ``|(I + E)^-1 - I|_2`` and ``|E (I + E)^-1|_2`` for |E|_F <= m; inf unless m < 1."""
    return m / (1 - m) if m < 1 else math.inf


def _by_svd(kind: str, a: np.ndarray, tol: Tolerances) -> list:
    """:func:`_certify` by one stacked SVD, for the members the LU route did not take.

    Moore-Penrose and dagger-Drazin inverses, and the Drazin and group inverses of index-0 members, are read off
    the SVD for every member at once; the singular members continue one at a time through the r x r blocks of
    :func:`_core`, and a refusal there is kept as that member's error. The residuals of the other members are
    evaluated once, on their stack, by :func:`_reports`.
    """
    factors = _attempt(AxiomResidualError, _svd, a, tol)
    if isinstance(factors, AxiomResidualError):  # some member overflowed: factor each member alone
        return [factors] if len(a) == 1 else [res for m in a for res in _by_svd(kind, m[None], tol)]
    u, s, vh, r = factors
    if kind in ("moore_penrose", "dagger_drazin"):
        return _reports(kind, a, _pinv(u, s, vh, r), None, {}, tol)
    # index 0: a = u diag(s) vh, so the core bases are the SVD's v and u; as in _pinv, weight 1/inf = 0 leaves
    # the singular members at zero, each to be replaced by its deflated inverse (so a stack of singular members
    # skips the product)
    full = r == a.shape[-1]
    any_full = full.any()
    inv = _core_inverse(a, dagger(vh), u, np.where(full[:, None], s, np.inf)) if any_full else np.zeros_like(a)

    def deflate(i):  # a singular member's index and core bases; its inverse goes into inv
        k, cu, cv, _ = _core(a[i], tol, (u[i], s[i], vh[i], r[i]))
        if kind == "group" and k > 1:
            raise IndexTooLargeError(k)
        inv[i] = _core_inverse(a[i], cu, cv, None)
        return k, cu, cv

    cores, failed = {}, {}
    for i in np.flatnonzero(~full).tolist():
        core = _attempt(GinvError, deflate, i)
        (failed if isinstance(core, GinvError) else cores)[i] = core
    out = _reports(kind, a, inv, {i: core[0] for i, core in cores.items()}, failed, tol)
    if kind == "group":
        # (G^#)^# on the bases of a's deflation: a's SVD multiplied back, which holds at index 0; each certified
        # singular member's is replaced by one r x r solve on its own bases
        double = _double_inverse(inv, dagger(vh), u, s) if any_full else np.zeros_like(a)
        for i, (_, cu, cv) in cores.items():
            if isinstance(out[i], GinvReport):
                member = _attempt(AxiomResidualError, _double_inverse, inv[i], cu, cv, None)
                if isinstance(member, AxiomResidualError):
                    out[i] = member
                else:
                    double[i] = member
        _gate_double_inverse(out, a, double, tol)
    return out


def _gate_double_inverse(out: list, a: np.ndarray, double: np.ndarray, tol: Tolerances) -> None:
    """Replace in ``out`` each group report whose double-inverse residual |(G^#)^# - a| fails the gate by its error."""
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = _norm(double - a)
    for i, gap in enumerate(gaps):
        if isinstance(out[i], GinvReport) and not (gap <= tol.residual_atol):
            out[i] = AxiomResidualError(f"group inverse double-inverse law violated: residual {gap:.3e}")


def _reports(kind: str, a: np.ndarray, inv: np.ndarray, index: dict | None, failed: dict, tol: Tolerances,
             forward: list | None = None) -> list:
    """Each member's result: its error from ``failed``, else the GinvReport of (a[i], inv[i]) if its residuals pass.

    ``index`` maps the deflated members of a Drazin or group stack to their index (0 for the others); it is None
    for the other kinds. The residuals are evaluated once, on the stack of the members not in ``failed``.
    ``forward`` holds each member's forward-error bound on the LU route.
    """
    out = dict(failed)
    live = [i for i in range(len(a)) if i not in failed]
    if live:  # an empty stack has no residuals to evaluate
        rows = live if failed else slice(None)
        residuals, witness_k = _residuals(kind, a[rows], inv[rows], tol)
        for j, i in enumerate(live):
            member = {label: float(res[j]) for label, res in residuals.items()}
            out[i] = _attempt(AxiomResidualError, _enforce, kind, member, tol) or GinvReport(
                kind=kind,
                inverse=inv[i].copy(),  # a view would keep the whole stack alive
                residuals=member,
                index=None if index is None else index.get(i, 0),
                # the D1 exponent is the index, reported as such
                witness_k=int(witness_k[j]) if kind == "dagger_drazin" else None,
                forward_error_bound=None if forward is None else float(forward[i]),
            )
    return [out[i] for i in range(len(a))]


def mp_inverse(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Moore-Penrose inverse via SVD (the LU inverse on the LU route of a square ``m``), certified against MP1-MP4."""
    return _one(_certify("moore_penrose", as_cmatrix(m)[None], tol))


def drazin_index(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(a^k) == rank(a^(k+1)); 0 means invertible.

    The ranks come from the deflation of :func:`_core`, not from powers of a. In a and in every block of it
    they count the singular values above ``rank_rtol * n * sigma_max(a)``, n the size of a: a's noise floor.
    """
    return _core(_as_square(a, "Drazin index"), tol)[0]


def _core(a: np.ndarray, tol: Tolerances, factors: tuple | None = None):
    """(k, u, v, s): the Drazin index k and orthonormal bases u of range(a^k), v of range((a^k)^H).

    At index 0 a = v diag(s) u^H is its SVD, else s is None. range(a^j) is a-invariant and range((a^j)^H)
    a^H-invariant, so with bases u_j, v_j of them rank(a^(j+1)) = rank(u_j^H a u_j), range(a^(j+1)) =
    u_j range(u_j^H a u_j) and range((a^(j+1))^H) = v_j range(v_j^H a^H v_j): one n x n SVD, then r x r
    blocks until one keeps its rank, and no power of a is formed. ``factors`` is a's ``_svd`` when at hand.
    """
    u, s, vh, r = _svd(a, tol) if factors is None else factors
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
    """Uncertified Drazin inverse u (v^H a u)^{-1} v^H from :func:`_core`; v^H a u = diag(s) at index 0.

    At index 0 the arguments may be stacks of index-0 members.
    """
    if s is not None:
        return u @ ((1.0 / s)[..., None] * dagger(v))
    try:
        return u @ np.linalg.solve(dagger(v) @ a @ u, dagger(v))
    except np.linalg.LinAlgError as exc:  # v^H u is invertible when the index is right
        raise AxiomResidualError(f"Drazin core block is singular: {exc}") from exc


def _double_inverse(inv: np.ndarray, u: np.ndarray | None, v: np.ndarray | None, s: np.ndarray | None) -> np.ndarray:
    """(G^#)^# of G = ``inv`` from :func:`_core_inverse`, on the bases u, v of the deflation of a.

    G has range(u) and row space range(v), so (G^#)^# = u (v^H G u)^{-1} v^H: one r x r solve, no SVD of G,
    and a's rank decision stands. At index 0 it is a's SVD v diag(s) u^H, also for stacks. Without bases (u is
    None: G from the LU route, a stack) it is G^-1 from a second LU, nan where LAPACK finds G singular.
    """
    if u is None:
        return _lu_inverse(inv)
    return v @ (s[..., None] * dagger(u)) if s is not None else _core_inverse(inv, u, v, None)


def drazin_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Drazin inverse from the core-nilpotent decomposition found by the index search.

    Jordan-form routes are numerically unstable; this one needs the
    deflation's SVDs (one n x n, the rest r x r) and one r x r solve, and is
    certified by the D1-D3 residuals. For invertible input (index 0) it
    returns the ordinary inverse: the LU inverse G when the norm test
    ``|a|_F |G|_F n (rank_rtol + 4 eps) <= 1/2`` proves a full rank without
    an SVD, else read off the SVD of the input. G is certified from
    E = Ga - I and E' = aG - I: D1 = |E|, D3 = |E' - E| and the bound
    D2 <= |G| m, m = min(|E|, |E'|) plus a rounding term, or, where those
    fail the absolute gate, by the dense D1-D3. Its report carries
    ``forward_error_bound`` >= |G - a^-1|_F.
    """
    return _one(_certify("drazin", _as_square(a, "Drazin inverse")[None], tol))


def group_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Group inverse (Drazin inverse in the index <= 1 case).

    Raises IndexTooLargeError, before forming any inverse, when the Drazin
    index exceeds 1. The result is certified against G1-G3 and the
    double-inverse law |(G^#)^# - a|, with (G^#)^# = u (v^H G u)^{-1} v^H on
    the bases u, v of the deflation of a that gave G: no SVD of G, so the
    check reuses a's rank decision instead of deciding G's. At index 0,
    (G^#)^# = G^-1. When G is a's LU inverse (the norm test of
    :func:`drazin_inverse` proved a full rank), the law is bounded without
    forming G^-1: ``|G^-1 - a| <= |a| m / (1 - m)``, m = min(|Ga - I|,
    |aG - I|) plus a rounding term, with G1 <= |a| m, G2 <= |G| m and
    G3 = |aG - Ga|. Where
    those fail the absolute gate, G^-1 comes from a second LU and G1-G3 are
    the dense residuals. Else (G^#)^# is a's SVD multiplied back. An LU-route
    report carries ``forward_error_bound`` >= |G - a^-1|_F.
    """
    return _one(_certify("group", _as_square(a, "group inverse")[None], tol))


def dagger_drazin(f: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Dagger-Drazin inverse of a (possibly rectangular) matrix.

    On complex matrices it equals the Moore-Penrose inverse: the gram
    matrix F^H F is Hermitian, so its index is at most 1 and
    (F^H F)^D F^H = (F^H F)^+ F^H = F^+. It is therefore computed from one
    thin SVD of F (the LU inverse on the LU route of a square F), without
    forming a gram matrix, and certified against Dd1-Dd4; the reported
    ``witness_k`` realizes Dd1.
    """
    return _one(_certify("dagger_drazin", as_cmatrix(f)[None], tol))
