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
* SVD route, for every other input: Moore-Penrose and dagger-Drazin, and
  Drazin and group at index 0 (where they are the Moore-Penrose inverse),
  are read off one thin SVD of the input by :func:`_pinv`. A singular A is
  deflated: its SVD, then SVDs of r x r compressions of A, give the index k
  and bases u_r of range(A^k) and v_r of range((A^k)^H), so that
  ``A^D = u_r (v_r^H A u_r)^{-1} v_r^H``; no power of A is formed.
* Real coordinates, around both routes: a member of shape (d_out^2, d_in^2)
  that is the superoperator of a Hermiticity-preserving (HP) map, as every
  channel is, qualifies when ``P_out A P_in == conj(A)`` holds entry for
  entry under == (a signed zero matches either sign), P the vec swap
  vec(X) -> vec(X^T), and its A_r below is finite. It is certified as the
  real matrix ``A_r = Re A + Im(A) P_in``, which is exactly
  ``U_out^H A U_in`` for the unitary ``U = ((1 + i) I + (1 - i) P) / 2``, so
  both routes run in float64 on it. Its inverse is mapped back as
  ``G = (G_r + P G_r P) / 2 + i (G_r P - P G_r) / 2``, and
  ``P G P == conj(G)`` holds entry for entry under ==: the inverse of an HP
  map is HP by construction. Both maps round each entry at most once (by at
  most u |A|_F and u |G|_F in all, u = eps / 2). Forming A_r does not round
  where Im A = 0, and for such an A mapping back does not round where G_r
  commutes with P. Every value reported on this route adds the first-order
  change of its axiom's residual under those two moves (:func:`_basis_terms`,
  from norms kept at unit scale by :func:`_sizes`, so that no term over- or
  underflows where it is a float; on the LU route, through E and E', below),
  so that it holds for the returned pair (A, G). Every other member keeps
  the complex path, bit for bit.

Every returned inverse is self-certifying: the defining-axiom residuals are
computed and enforced against ``Tolerances.residual_atol``, so a successful
return is a numerical certificate.

The kernels work on stacks (N, m, n) of same-shape matrices, complex or real,
in one straight pass. :func:`_certify` judges a stack's HP members as one real
stack and the others as one complex stack, each by :func:`_judge`: one stacked
LU inverse of a square stack, which routes each member on its own test, and
the values from E and E' of the members it takes; one stacked SVD of the
others, their inverses read off it by :func:`_pinv` or, for a singular Drazin
or group member, by deflating it alone; for the group kind, one stacked LU
inverse of the returned G of the index-0 members still open; then one
evaluation of the dense residuals, one stacked norm per axiom, on the members
of both routes still unjudged. One gate, :func:`_report`, gives every member
its report or error: the axiom residuals first, then, for the group kind, the
double-inverse law. No member's arithmetic depends on its neighbours:
:func:`certify_many` gives each member of a list, certified one stack per
shape, its single call's bytes; the four public inverses run the kernels on a
stack of one.

Axiom residuals, in the left-to-right composition convention of
:mod:`chaninv.linalg` (f;g on column vectors is G @ F):

* Moore-Penrose, inverse G of F: MP1 ``|FGF - F|``, MP2 ``|GFG - G|``,
  MP3 ``|FG - (FG)^H|``, MP4 ``|GF - (GF)^H|`` (both projector
  conditions are checked; MP3/MP4 follow the classical matrix labelling).
* Drazin, inverse G of square A: D1 ``|G A^(k+1) - A^k|`` at k = ind(A),
  D2 ``|GAG - G|``, D3 ``|AG - GA|``.
* Group: G1 ``|AGA - A|``, G2 ``|GAG - G|``, G3 ``|AG - GA|``, and
  ``|(G^#)^# - A|``: at index 1 in closed form on A's deflation (no SVD of
  G); at index 0, where (G^#)^# = G^-1, bounded from E and E' (below) or
  by an LU inverse of the returned G, on either route.
* Dagger-Drazin, inverse G of F with gram matrices P = F^H F and
  Q = F F^H: Dd1 ``max(|G F P^k - P^k|, |Q^k F G - Q^k|)``, Dd2 ``|GFG - G|``,
  Dd3 ``|GF - (GF)^H|``, Dd4 ``|FG - (FG)^H|``. P and Q are Hermitian, so
  of index at most 1: k = 0 for a square F of full rank, else k = 1.
  D1 and Dd1 are judged at the k the factorization found, and at no other.

On the LU route these come from two products per member, E = GA - I and
E' = AG - I (:func:`_lu_values`). MP3, MP4, D1, D3, G3, Dd1, Dd3 and Dd4 are
exact identities in E and E'. MP1 = G1, MP2 = D2 = G2 = Dd2 and the group law
``|G^-1 - A|`` are bounded by |A| m, |G| m and |A| m / (1 - m), with
m = min(|E|, |E'|) plus a term for rounding, and each bound is reported under
its axiom's label; G^-1 is not formed. Each bound is at least the dense
residual's computed value, so a member the bounds pass would pass the dense
gate too. The gate is absolute, so far from unit scale a bound can fail where
the dense residual passes: a member whose values do not all pass is judged
as an SVD-route member is, by the dense residuals and, for the group kind,
by G^-1 from an LU inverse of G. Every LU-route report carries
``forward_error_bound`` >= ``|G - A^-1|_F``; SVD-route reports carry None.
"""

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

# svd is not called here; perfbench's tracer test rebinds it as chaninv.ginv.svd
from .linalg import (  # noqa: F401
    DEFAULT_TOL, Tolerances, _attempt, _numerical_rank, _one, as_cmatrix, dagger, svd,
)

_EPS = float(np.finfo(float).eps)  # a Python float, so the LU-route values are too
_U = _EPS / 2  # the unit roundoff
_SMALL = math.sqrt(np.finfo(float).tiny) / _EPS  # a Frobenius norm above it loses nothing to squares that underflow

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

    ``index`` is the Drazin index for the drazin and group kinds, and D1's
    exponent; ``witness_k`` is Dd1's exponent for dagger_drazin: 0 for a
    square input of full rank, else 1.
    ``forward_error_bound`` bounds ``|inverse - a^-1|_F`` on the LU route:
    ``|G|_F m / (1 - m)``, with m = min(|GA - I|_F, |AG - I|_F) plus
    4 (n + 2) eps |a|_F |G|_F for rounding, and inf for m >= 1. For a
    Hermiticity-preserving a, certified in real coordinates, E and G are
    those of the real pair, and m also adds 2 u |a|_F |G|_F (u = eps / 2)
    for rounding the change of coordinates, so the bound holds for the
    inverse returned. It is None on the SVD route.
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


def _pinv(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverses from the stacked thin SVDs of :func:`_svd`, the only place an inverse is read off one.

    Each member of rank k is the product over its own k leading singular triplets, one stacked product per distinct
    rank, so it does not depend on its neighbours' ranks; a member of rank 0 stays 0.
    """
    g = np.zeros((*u.shape[:-2], vh.shape[-1], u.shape[-2]), dtype=u.dtype)
    for k in set(r.tolist()) - {0}:  # not np.unique, whose first call imports numpy.ma (about 1.6 MB)
        m = r == k
        g[m] = dagger(vh[m, :k]) @ ((1.0 / s[m, :k])[..., None] * dagger(u[m, :, :k]))
    return g


def _as_square(a, what: str) -> np.ndarray:
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} needs a square matrix, got shape {a.shape}")
    return a


def verify_axioms(kind: str, f: np.ndarray, g: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Frobenius residual of every defining axiom of ``kind`` for the pair (f, g).

    Returns ``(residuals, k)``, k the one exponent at which D1 or Dd1 is evaluated, found by the inverses' rule at
    ``tol.rank_rtol``: for D1 the Drazin index of f (:func:`drazin_index`), for Dd1 0 if f is square and of full rank,
    else 1 (F^H F is Hermitian, so of index at most 1). k is None for the other kinds, and where f's SVD overflows,
    which makes D1 or Dd1 nan. Callers threshold; an overflowed residual is reported as the inf or nan it is.
    """
    if kind not in KIND_AXIOMS:
        raise ValueError(f"unknown inverse kind {kind!r}")
    f = as_cmatrix(f, "f")
    g = as_cmatrix(g, "g")
    if g.shape != (f.shape[1], f.shape[0]):
        raise ValueError(f"shape mismatch: inverse of {f.shape} must be {(f.shape[1], f.shape[0])}, got {g.shape}")
    if kind in ("drazin", "group") and f.shape[0] != f.shape[1]:
        raise ValueError(f"{kind} axioms need a square matrix, got shape {f.shape}")
    k = None
    with suppress(AxiomResidualError):
        if kind == "drazin":
            k = _core(f, tol)[0]
        elif kind == "dagger_drazin":
            k = int(f.shape[0] != f.shape[1] or _core(f, tol)[0] > 0)
    residuals = _residuals(kind, f[None], g[None], [k])
    return {label: float(r[0]) for label, r in residuals.items()}, k


def _norm(m: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack: one ``vecdot`` of the flattened matrices."""
    v = m.reshape(*m.shape[:-2], -1)
    return np.sqrt(np.vecdot(v, v).real)


def _residuals(kind: str, f: np.ndarray, g: np.ndarray, k: list) -> dict:
    """:func:`verify_axioms` on arrays the library built itself, without re-validating them.

    ``f`` and ``g`` may be stacks (N, m, n) and (N, n, m); each residual is then an array over the stack. D1 and
    Dd1 are evaluated once per member, at its exponent in the list ``k`` (nan where it is None); the other kinds do
    not read ``k``. An overflow gives an inf or nan residual, which fails the gate, and no NumPy warning.
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
            }

        if kind in ("drazin", "group"):
            labels = KIND_AXIOMS[kind]
            residuals = {labels[1]: _norm(gf @ g - g), labels[2]: _norm(fg - gf)}
            if kind == "group":
                residuals["G1"] = _norm(fg @ f - f)
            else:
                residuals["D1"] = _at_exponents(kind, f, gf, fg, k)
            return residuals

        return {
            "Dd2": _norm(gf @ g - g),
            "Dd3": _norm(gf - dagger(gf)),
            "Dd4": _norm(fg - dagger(fg)),
            "Dd1": _at_exponents(kind, f, gf, fg, k),
        }


def _at_exponents(kind: str, f: np.ndarray, gf: np.ndarray, fg: np.ndarray, k: list) -> np.ndarray:
    """D1 or Dd1 of each member of the stack ``f`` at its exponent in ``k``, one evaluation per distinct exponent.

    D1 is ``|G A^(e+1) - A^e|``, Dd1 ``max(|G F P^e - P^e|, |Q^e F G - Q^e|)`` with P = F^H F and Q = F F^H; every
    power is I at e = 0. A member whose exponent is None gets nan.
    """
    out = np.empty(len(k))
    for e in set(k):
        rows = _rows([i for i, x in enumerate(k) if x == e], len(k))
        if e is None:
            out[rows] = np.nan
        elif not e:
            out[rows] = _from_eye(gf[rows]) if kind == "drazin" else np.maximum(_from_eye(gf[rows]),
                                                                                 _from_eye(fg[rows]))
        elif kind == "drazin":
            p = _power(f[rows], e)
            out[rows] = _norm(gf[rows] @ p - p)
        else:
            m = f[rows]
            p, q = _power(dagger(m) @ m, e), _power(m @ dagger(m), e)
            out[rows] = np.maximum(_norm(gf[rows] @ p - p), _norm(q @ fg[rows] - q))
    return out


def _from_eye(m: np.ndarray):
    return _norm(m - np.eye(m.shape[-1], dtype=m.dtype))


def _power(m: np.ndarray, e: int) -> np.ndarray:
    """m^e for e >= 1, one factor at a time: m^(j+1) = m^j @ m."""
    return m if e == 1 else _power(m, e - 1) @ m


def _report(kind: str, inverse: np.ndarray, residuals: dict, tol: Tolerances, index: int | None,
            witness_k: int | None, forward: float | None,
            double: float | AxiomResidualError | None) -> GinvReport | AxiomResidualError:
    """A member's GinvReport, or the AxiomResidualError that refuses it: the one gate of every route.

    The axiom gate comes first: every residual must be at most ``residual_atol``, and a nan fails. Then, for the
    group kind, ``double`` is the double-inverse residual |(G^#)^# - a|, gated likewise, or the error raised while
    forming (G^#)^#; it is None for the other kinds.
    """
    atol = tol.residual_atol
    if not all(v <= atol for v in residuals.values()):  # a nan fails
        worst = float(np.max(list(residuals.values())))  # unlike max(), keeps a nan
        return AxiomResidualError(
            f"{kind} inverse failed its axiom gate: max residual {worst:.3e} > {atol:.3e} "
            f"(residuals: {residuals}); check tolerances or input conditioning"
        )
    if isinstance(double, AxiomResidualError):
        return double
    if double is not None and not (double <= atol):
        return AxiomResidualError(f"group inverse double-inverse law violated: residual {double:.3e}")
    # the copy owns its data: a view would keep the whole stack alive
    return GinvReport(kind, inverse.copy(), residuals, index, witness_k, forward)


# the square kinds, with the name their single calls give the input in a shape error
_SQUARE_KINDS = {"drazin": "Drazin inverse", "group": "group inverse"}


def certify_many(kind: str, mats, tol: Tolerances = DEFAULT_TOL) -> list:
    """Certified inverses of ``kind`` for every matrix of ``mats``, one stacked kernel run per shape.

    The result keeps the input order. Entry i is what the single call of that kind (:func:`mp_inverse`,
    :func:`drazin_inverse`, :func:`group_inverse` or :func:`dagger_drazin`) gives for ``mats[i]``: its
    GinvReport, with the same inverse bytes, residuals, index, witness and forward-error bound, or the exception
    it raises, of the same type and with the same message (a GinvError for a refused certificate, a ValueError
    for malformed input). No member's result depends on the others in ``mats``.
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

    The coordinate stage. A member that :func:`_hermiticity_preserving` selects is judged by :func:`_judge` in real
    coordinates, as ``A_r = U_out^H A U_in`` (:func:`_real_coordinates`), and its report carries its inverse mapped
    back; every other member, and one whose A_r is not finite, is judged as it is. Each member is routed on its own
    test.
    """
    hp = _hermiticity_preserving(a)
    if hp:
        members = a[_rows(hp, len(a))]
        with np.errstate(over="ignore", invalid="ignore"):
            real = _real_coordinates(members)
        finite = np.isfinite(real).all(axis=(1, 2))
        # an infinite entry of A, or sigma_max(A) > DBL_MAX, makes A_r non-finite: the complex path refuses the member
        if not finite.all():
            hp, members, real = [i for i, f in zip(hp, finite.tolist()) if f], members[finite], real[finite]
    if not hp:
        return _judge(kind, a, tol)
    out = dict(zip(hp, _judge(kind, real, tol, members.imag.any(axis=(1, 2)).tolist())))
    rest = [i for i in range(len(a)) if i not in out]
    if rest:
        out.update(zip(rest, _judge(kind, a[_rows(rest, len(a))], tol)))
    return [out[i] for i in range(len(a))]


def _hermiticity_preserving(a: np.ndarray) -> list:
    """Rows of the stack ``a`` whose members are exactly Hermiticity-preserving superoperators.

    A member of shape (d_out^2, d_in^2) qualifies when ``P_out A P_in == conj(A)`` holds entry by entry under ==, P
    the vec swap vec(X) -> vec(X^T): a reshape to (d_out, d_out, d_in, d_in) and a swap of each index pair. Both
    vec swaps fix index 0, so A[0, 0] must be real: that one-entry screen comes first and rules out most other
    members, such as a complex non-HP superoperator, at no cost per entry. A stack with a side that is 0 or not a
    perfect square has none.
    """
    if not all(n and math.isqrt(n) ** 2 == n for n in a.shape[1:]):
        return []
    rows = [i for i, x in enumerate(a[:, 0, 0].imag.tolist()) if not x]  # lists: a NumPy reduction costs 1-2 us
    if not rows:
        return []
    s = _vec_pairs(a)[rows]
    return [i for i, hp in zip(rows, (s.transpose(0, 2, 1, 4, 3) == s.conj()).all(axis=(1, 2, 3, 4)).tolist()) if hp]


def _real_coordinates(a: np.ndarray) -> np.ndarray:
    """``A_r = Re A + Im(A) P_in`` for each Hermiticity-preserving member of the stack ``a``: one add per entry.

    With U = ((1 + i) I + (1 - i) P) / 2, which is unitary, U_out^H A U_in = (A + conj(A)) / 2 + i (P A - A P) / 2,
    and P_out A = conj(A) P_in for such an A: that is A_r exactly, a real matrix with the singular values of A.
    """
    return np.add(_vec_pairs(a.real), _vec_pairs(a.imag).swapaxes(-1, -2)).reshape(a.shape)


def _complex_coordinates(g: np.ndarray) -> np.ndarray:
    """``G = U_in G_r U_out^H = (G_r + P G_r P) / 2 + i (G_r P - P G_r) / 2`` for a real inverse G_r, or a stack.

    Each entry is one add or subtract of halved entries of G_r (halving is exact unless it lands below the smallest
    normal float), and the swapped entry is the same sum, or the negated difference, of the same two numbers:
    ``P_in G P_out == conj(G)`` holds entry for entry under == (not byte for byte: an entry's imaginary part x - x is
    +0.0, where conj gives -0.0), so G is HP by construction. The result owns its data.
    """
    half = 0.5 * _vec_pairs(g)
    out = np.empty(g.shape, dtype=np.complex128)
    parts = out.reshape(half.shape)
    np.add(half, half.swapaxes(-4, -3).swapaxes(-2, -1), out=parts.real)
    np.subtract(half.swapaxes(-2, -1), half.swapaxes(-4, -3), out=parts.imag)
    return out


def _vec_pairs(m: np.ndarray) -> np.ndarray:
    """``m`` (..., p^2, q^2) as (..., p, p, q, q): each vec index split into the pair that the vec swap P exchanges."""
    p, q = math.isqrt(m.shape[-2]), math.isqrt(m.shape[-1])
    return m.reshape(*m.shape[:-2], p, p, q, q)


def _coordinate_rounding(rounded: list, g: np.ndarray, norms: list) -> list:
    """(alpha, gamma) for each member of a stack in real coordinates: how far, in Frobenius norm, rounding the change
    of coordinates moves its A and the G returned for it.

    Forming A_r and mapping G_r back round each entry at most once, by at most u |A| and u |G| in all (u = eps / 2).
    ``rounded`` says whether forming A_r rounded at all: not where Im A = 0. Mapping G_r back does not round where
    G_r commutes with the vec swaps, ``P_in G_r P_out == G_r``: every sum is then an exact 2x and every difference 0.
    That is checked only where Im A = 0, as a real HP map commutes with the swaps and so does its inverse; elsewhere
    gamma is u |G|. ``norms`` holds each member's (|A|, |G|), or both at a common scale (:func:`_sizes`), which alpha
    and gamma are then taken at.
    """
    real = [j for j, r in enumerate(rounded) if not r]
    fixed = set()
    if real:
        t = _vec_pairs(g[real])
        fixed = {j for j, f in zip(real, (t == t.transpose(0, 2, 1, 4, 3)).all(axis=(1, 2, 3, 4)).tolist()) if f}
    return [(_U * na if r else 0.0, 0.0 if j in fixed else _U * ng)
            for j, (r, (na, ng)) in enumerate(zip(rounded, norms))]


def _sizes(a: np.ndarray, g: np.ndarray) -> tuple:
    """(sizes, scales) for the pairs (A, G) of two real stacks: each pair's [a, g] and s with |A|_F = a 2^s and
    |G|_F = g 2^-s, floats wherever the rounding terms of :func:`_basis_terms` are.

    s is 0, and a and g are :func:`_norm`'s values, unless the sum of squares of A or G over- or underflows. There
    that member is scaled by 2^-e, e the exponent of its largest entry, before its norm is taken, and s is A's e:
    a is then between 1/2 and sqrt(N) and g about cond(A) / a, so the terms are taken at unit scale.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x, e = np.array([_norm(a), _norm(g)]), np.zeros((2, len(a)), dtype=int)
        for side, i in zip(*np.nonzero(~((x > _SMALL) & (x < math.inf)))):
            m = (a, g)[side][i]
            top = np.abs(m).max()
            if 0 < top < math.inf:
                e[side, i] = math.frexp(top)[1]
                x[side, i] = _norm(np.ldexp(m, -e[side, i]))
        x[1] = np.ldexp(x[1], e[1] + e[0])
    return x.T.tolist(), e[0].tolist()


def _basis_terms(kind: str, a: float, g: float, alpha: float, gamma: float, k: int | None, scale: int = 0) -> dict:
    """The first-order change of each axiom's residual, and of the group's double-inverse law (key "double"), when A
    moves by ``alpha`` and G by ``gamma`` in Frobenius norm, with |A|_F = a 2^scale and |G|_F = g 2^-scale
    (:func:`_sizes`), and alpha and gamma taken at that scale.

    Each residual is a difference of products of A and G (Higham, ch. 3): one term per factor, bounded by
    submultiplicativity. D1 and Dd1 are taken at the exponent k. The double law |G^-1 - A| moves by alpha + a^2 gamma,
    as G^-1 = A to first order. Every term is 0.0 where alpha and gamma are, whatever a and g. A residual that is
    homogeneous of degree p in A (A -> tA, G -> G/t multiplies it by t^p) has its term multiplied by 2^(p scale),
    which is exact, or inf where the term overflows: at scale 0 it is the term itself.
    """
    def at(term, p):  # term 2^(p scale)
        with suppress(OverflowError):
            return math.ldexp(term, p * scale)
        return math.inf

    def moved(x, y):  # alpha prod(x) + gamma prod(y), multiplied from alpha and gamma on: no 0 * inf, and no
        # overflow or underflow of a partial product such as a^2 or g^2 where the term itself is representable
        return (math.prod(x, start=alpha) if alpha else 0.0) + (math.prod(y, start=gamma) if gamma else 0.0)

    ag = 2 * a * g + 1  # a g is about cond(A) at any scale
    outer = moved([ag], [a, a])  # |AGA - A|
    inner = moved([g, g], [ag])  # |GAG - G|
    pair = 2 * moved([g], [a])  # |X - X^H| for X = AG or GA, and |AG - GA|
    outer, inner = at(outer, 1), at(inner, -1)
    if kind == "moore_penrose":
        return {"MP1": outer, "MP2": inner, "MP3": pair, "MP4": pair}
    if kind == "group":
        return {"G1": outer, "G2": inner, "G3": pair, "double": at(moved([], [a, a]), 1)}
    # |G A^(e+1) - A^e| has e + 1 factors A and one G against e factors A; |G F P^e - P^e|, with P = F^H F, and its
    # twin |Q^e F G - Q^e| have 2e + 1 factors F and one G against 2e: A moves it by alpha ((e + 1) g a^e +
    # e a^(e-1)). A None exponent's D1 or Dd1 is nan anyway
    e = (k or 0) * (1 if kind == "drazin" else 2)
    power = at(moved([(e + 1) * g * a + e] + [a] * (e - 1) if e else [g], [a] * (e + 1)), e)
    if kind == "drazin":
        return {"D1": power, "D2": inner, "D3": pair}
    return {"Dd1": power, "Dd2": inner, "Dd3": pair, "Dd4": pair}


def _judge(kind: str, a: np.ndarray, tol: Tolerances, rounded: list | None = None) -> list:
    """GinvReport or GinvError for each member of the stack ``a``, in the coordinates it is given in.

    Each member is routed alone: one that :func:`_lu_route` proves full rank has its LU inverse at index 0,
    certified from :func:`_lu_values` if :func:`_report` passes them, any other its inverse or refusal from
    :func:`_by_svd`. Every index-0 group member still unjudged, of either route, takes ``|G^-1 - A|`` from one
    :func:`_lu_inverse` call on the returned inverses. Those still unjudged take one :func:`_residuals` call on their
    stack and one :func:`_report` each; an LU member keeps its forward-error bound. D1 and Dd1 are judged at the
    member's exponent, 0 on the LU route, else from :func:`_by_svd`: its report's ``index``, or dagger-Drazin's
    ``witness_k``.

    ``rounded`` is None for a stack in the input's own coordinates. For one in real coordinates it holds whether
    forming each member rounded (see :func:`_coordinate_rounding`); every report then carries its inverse mapped
    back by :func:`_complex_coordinates`, and every value is gated and reported with :func:`_basis_terms` added (the
    LU values through their ``rounding``), so that it holds for that returned pair (A, G).
    """
    k0 = None if kind == "moore_penrose" else 0  # every LU-route member's exponent

    def labelled(k):  # (index, witness_k) of a report at exponent k
        return (k, None) if kind in _SQUARE_KINDS else (None, k)

    inv, lu, norms = _lu_route(a, tol)  # LU inverses; the SVD route's replace those of its members
    lu_rows = [i for i, route in enumerate(lu.tolist()) if route]  # lists: a NumPy reduction costs 1-2 us
    svd_rows = [i for i, route in enumerate(lu.tolist()) if not route]
    out, forward = [None] * len(a), {}  # out: each member's result, or (exponent, double) until the dense residuals
    if lu_rows:
        rows = _rows(lu_rows, len(a))
        g = shown = inv[rows]
        rounding = None
        if rounded is not None:
            rounding = _coordinate_rounding([rounded[i] for i in lu_rows], g, norms[rows].tolist())
            shown = _complex_coordinates(g)
        certified = _lu_values(kind, a[rows], g, norms[rows], rounding)
        for j, (i, (values, bound, double)) in enumerate(zip(lu_rows, certified)):
            out[i] = _report(kind, shown[j], values, tol, *labelled(k0), bound, double)
            if not isinstance(out[i], GinvReport):
                forward[i], out[i] = bound, (k0, None)
    if svd_rows:
        rows = _rows(svd_rows, len(a))
        svd_inv, results = _by_svd(kind, a[rows], tol)
        for i, result in zip(svd_rows, results):
            out[i] = result
        if lu_rows:
            inv[rows] = svd_inv
        else:
            inv = svd_inv
    unsettled = [i for i, res in enumerate(out) if res == (0, None)] if kind == "group" else []
    if unsettled:  # (G^#)^# = G^-1 at index 0, by LU of the returned G: nan where LAPACK finds G singular, which fails
        rows = _rows(unsettled, len(a))
        with np.errstate(over="ignore", invalid="ignore"):
            for i, double in zip(unsettled, _norm(_lu_inverse(inv[rows]) - a[rows]).tolist()):
                out[i] = (0, double)
    live = [i for i, res in enumerate(out) if isinstance(res, tuple)]
    if live:  # an empty or all-judged stack has no residuals to evaluate
        rows = _rows(live, len(a))
        h = inv[rows]
        residuals = _residuals(kind, a[rows], h, [out[i][0] for i in live])
        shown = h
        if rounded is not None:
            sizes, scales = _sizes(a[rows], h)
            rounding = _coordinate_rounding([rounded[i] for i in live], h, sizes)
            shown = _complex_coordinates(h)
        for j, i in enumerate(live):
            k, double = out[i]
            values = {label: float(res[j]) for label, res in residuals.items()}
            if rounded is not None:
                terms = _basis_terms(kind, *sizes[j], *rounding[j], k, scales[j])
                values = {label: v + terms[label] for label, v in values.items()}
                double = double + terms["double"] if isinstance(double, float) else double
            out[i] = _report(kind, shown[j], values, tol, *labelled(k), forward.get(i), double)
    return out


def _rows(rows: list, n: int):
    return rows if len(rows) < n else slice(None)  # all n members as a slice: indexing by it does not copy


def _lu_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of each member of the stack ``m`` by LU, nan for a member LAPACK finds exactly singular.

    One stacked call; when a member makes it raise, one call per member, so that each member gets the inverse its
    own call gives. No NumPy warning escapes.
    """
    with np.errstate(all="ignore"):
        try:
            return np.linalg.inv(m)
        except np.linalg.LinAlgError:
            g = np.full_like(m, np.nan)
            if len(m) > 1:  # a stack of one holds only the member that raised
                for i in range(len(m)):
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


def _lu_values(kind: str, a: np.ndarray, g: np.ndarray, norms: np.ndarray, rounding: list | None = None) -> list:
    """(values, forward, double) for each pair (A, G) of the stacks: the axiom values of ``kind``, a forward-error
    bound and, for the group kind, a bound on its double-inverse law (None for the others).

    Two products per member, E = GA - I and E' = AG - I, give every value. Exact identities, computed as the dense
    residuals compute them: MP3 = Dd4 = ``|E' - E'^H|``, MP4 = Dd3 = ``|E - E^H|``, D1 at k = 0 = ``|E|``, D3 = G3 =
    ``|E' - E|``, Dd1 at k = 0 = ``max(|E|, |E'|)``. Bounds, with m = min(|E|, |E'|) + rho: MP1 = G1 = ``|AE|`` =
    ``|E'A|`` <= |A| m, MP2 = D2 = G2 = Dd2 = ``|EG|`` = ``|GE'|`` <= |G| m and, as ``|(I + E)^-1|_2 <= 1 / (1 - m)``
    while m < 1, the group double-inverse law ``|G^-1 - A|`` <= |A| m / (1 - m) and the forward error
    ``|G - A^-1|`` <= |G| m / (1 - m) (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 14);
    past m = 1 those two are inf. rho = 4 (n + 2) eps |A| |G| is about twice the rounding of the products (complex
    inner products of length n, Higham ch. 3) in E and E', plus that of the dense triple products ``AGA`` and
    ``GAG``. So each bound holds for the exact residual and is at least its dense computed value: a member whose
    values pass would pass the dense gate too. ``norms`` holds each member's |A| and |G|. The products and norms
    are stacked; the rest is float arithmetic.

    ``rounding``, for a stack in real coordinates, holds each member's (alpha, gamma) of
    :func:`_coordinate_rounding`. Rounding the change of coordinates then moves E and E' of the returned pair by at
    most ``alpha |G| + |A| gamma`` each, which is added to |E| and |E'| and twice to their differences, so that m,
    every bound and ``forward`` count it too.
    """
    n = a.shape[-1]
    with np.errstate(all="ignore"):
        x = np.empty((2, *a.shape), dtype=a.dtype)
        np.matmul(g, a, out=x[0])
        np.matmul(a, g, out=x[1])
        x.reshape(2 * len(a), n * n)[:, :: n + 1] -= 1  # minus I on each contiguous n x n block: x = (E, E')
        hermitian = kind in ("moore_penrose", "dagger_drazin")  # axioms that ask GA and AG to be Hermitian
        # |E|, |E'|, then |E - E^H| and |E' - E'^H|, or |E' - E|; a nan in E or E' makes one of the latter nan
        sizes = np.concatenate([_norm(x), _norm(x - dagger(x) if hermitian else x[1:] - x[:1])])
    rho = 4 * (n + 2) * _EPS
    out = []
    for j, ((e, e2, *exact), (na, ng)) in enumerate(zip(sizes.T.tolist(), norms.tolist())):
        if rounding is not None:
            alpha, gamma = rounding[j]
            moved = alpha * ng + na * gamma
            e, e2, exact = e + moved, e2 + moved, [v + 2 * moved for v in exact]
        m = min(e, e2) + rho * na * ng
        if kind == "moore_penrose":
            values = {"MP1": na * m, "MP2": ng * m, "MP3": exact[1], "MP4": exact[0]}
        elif kind == "dagger_drazin":
            values = {"Dd1": max(e, e2), "Dd2": ng * m, "Dd3": exact[0], "Dd4": exact[1]}
        elif kind == "drazin":
            values = {"D1": e, "D2": ng * m, "D3": exact[0]}
        else:
            values = {"G1": na * m, "G2": ng * m, "G3": exact[0]}
        out.append((values, ng * _neumann(m), na * _neumann(m) if kind == "group" else None))
    return out


def _neumann(m: float) -> float:
    """m / (1 - m), which bounds ``|(I + E)^-1 - I|_2`` and ``|E (I + E)^-1|_2`` for |E|_F <= m; inf unless m < 1."""
    return m / (1 - m) if m < 1 else math.inf


def _by_svd(kind: str, a: np.ndarray, tol: Tolerances):
    """(inv, results) for the members the LU route did not take: their stacked inverses and, for each member, its
    (k, double) or the GinvError that refuses it. k is the exponent of D1 or Dd1: the Drazin index for Drazin and
    group, for dagger-Drazin 0 when the member is square and of full rank, else 1, and None for Moore-Penrose.
    double is a group member's double-inverse residual at index 1 or the error forming (G^#)^# raised (else None:
    :func:`_certify` forms it).

    One stacked SVD gives every inverse through :func:`_pinv` but those of the singular Drazin and group members,
    which continue one at a time through the r x r blocks of :func:`_core` and :func:`_core_inverse`.
    """
    factors = _attempt(AxiomResidualError, _svd, a, tol)
    if isinstance(factors, AxiomResidualError):  # some member overflowed: factor each member alone
        if len(a) == 1:
            return np.zeros((1, a.shape[2], a.shape[1]), dtype=a.dtype), [factors]
        parts = [_by_svd(kind, m[None], tol) for m in a]
        return np.concatenate([inv for inv, _ in parts]), [res for _, results in parts for res in results]
    u, s, vh, r = factors
    if kind == "moore_penrose":
        return _pinv(u, s, vh, r), [(None, None)] * len(a)
    if kind == "dagger_drazin":  # only a square member of full rank has rank max(m, n)
        return _pinv(u, s, vh, r), [(int(x < max(a.shape[1:])), None) for x in r.tolist()]
    # index 0: the inverse is the Moore-Penrose one; the singular members stay 0 until deflate fills them in
    full = r == a.shape[-1]
    inv = _pinv(u, s, vh, np.where(full, r, 0))
    results = [(0, None)] * len(a)

    def deflate(i):  # a singular member's index and double-inverse law; its inverse goes into inv
        k, cu, cv = _core(a[i], tol, (u[i], s[i], vh[i], r[i]))
        if kind == "group" and k > 1:
            raise IndexTooLargeError(k)
        inv[i] = _core_inverse(a[i], cu, cv)
        if kind == "drazin":
            return k, None
        # (G^#)^# = u (v^H G u)^{-1} v^H, one r x r solve on a's bases (G has range(u) and row space range(v)),
        # or the refusal of that solve
        with np.errstate(all="ignore"):
            double = _attempt(AxiomResidualError, _core_inverse, inv[i], cu, cv)
            return k, double if isinstance(double, AxiomResidualError) else float(_norm(double - a[i]))

    for i in np.flatnonzero(~full).tolist():
        results[i] = _attempt(GinvError, deflate, i)
    return inv, results


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
    """(k, u, v): the Drazin index k and orthonormal bases u of range(a^k), v of range((a^k)^H).

    range(a^j) is a-invariant and range((a^j)^H) a^H-invariant, so with bases u_j, v_j of them
    rank(a^(j+1)) = rank(u_j^H a u_j), range(a^(j+1)) = u_j range(u_j^H a u_j) and range((a^(j+1))^H) =
    v_j range(v_j^H a^H v_j): one n x n SVD, then r x r blocks until one keeps its rank, and no power of a is
    formed. At index 0 the bases are a's right and left singular vectors. ``factors`` is a's ``_svd`` when at hand.
    """
    u, s, vh, r = _svd(a, tol) if factors is None else factors
    if r == a.shape[0]:
        return 0, dagger(vh), u
    k, u, v = 1, u[:, :r], dagger(vh[:r])
    while r:
        p, _, _, r_next = _svd(dagger(u) @ a @ u, tol, a.shape, s[0])
        if r_next == r:
            break
        # the right singular vectors of v^H a v span range(v^H a^H v)
        q = dagger(_svd(dagger(v) @ a @ v, tol, a.shape, s[0])[2][:r_next])
        k, r, u, v = k + 1, r_next, u @ p[:, :r_next], v @ q
    return k, u, v


def _core_inverse(a: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Uncertified Drazin inverse u (v^H a u)^{-1} v^H of a singular ``a`` from the bases of :func:`_core`.

    Given a's Drazin inverse G on the same bases, ``_core_inverse(G, u, v)`` is (G^#)^#.
    """
    try:
        return u @ np.linalg.solve(dagger(v) @ a @ u, dagger(v))
    except np.linalg.LinAlgError as exc:  # v^H u is invertible when the index is right
        raise AxiomResidualError(f"Drazin core block is singular: {exc}") from exc


def drazin_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Drazin inverse from the core-nilpotent decomposition found by the deflation of :func:`_core`.

    Jordan-form routes are numerically unstable; this one needs the deflation's SVDs (one n x n, the rest r x r) and
    one r x r solve, and is certified by the D1-D3 residuals, D1 at k = the index. For invertible input (index 0) it
    returns the ordinary inverse: the LU inverse G on the LU route (see the module docstring), whose report carries
    ``forward_error_bound`` >= |G - a^-1|_F, else read off the SVD of the input.
    """
    return _one(_certify("drazin", _as_square(a, "Drazin inverse")[None], tol))


def group_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Group inverse (Drazin inverse in the index <= 1 case).

    Raises IndexTooLargeError, before forming any inverse, when the Drazin index exceeds 1. The result is certified
    against G1-G3 and the double-inverse law |(G^#)^# - a|, with (G^#)^# = u (v^H G u)^{-1} v^H on the bases u, v of
    the deflation of a that gave G: no SVD of G, so the check reuses a's rank decision instead of deciding G's. At
    index 0, (G^#)^# = G^-1: bounded from Ga - I and aG - I when G is a's LU inverse (see the module docstring), else
    by an LU inverse of the returned G. An LU-route report carries ``forward_error_bound`` >= |G - a^-1|_F.
    """
    return _one(_certify("group", _as_square(a, "group inverse")[None], tol))


def dagger_drazin(f: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> GinvReport:
    """Dagger-Drazin inverse of a (possibly rectangular) matrix.

    On complex matrices it equals the Moore-Penrose inverse: the gram
    matrix F^H F is Hermitian, so its index is at most 1 and
    (F^H F)^D F^H = (F^H F)^+ F^H = F^+. It is therefore computed from one
    thin SVD of F (the LU inverse on the LU route of a square F), without
    forming a gram matrix, and certified against Dd1-Dd4. Dd1 is judged at
    the exponent ``witness_k``: 0 when F is square and of full rank, else 1.
    """
    return _one(_certify("dagger_drazin", as_cmatrix(f)[None], tol))
