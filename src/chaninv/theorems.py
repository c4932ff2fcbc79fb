"""Numerical embodiment of the preservation theorems for channel inverses.

Each check runs on concrete instances and returns a TheoremReport whose
verdict is empirical: "verified" means every instance met its tolerance,
"falsified" means a genuine counterexample/witness was produced (which is
the *expected* outcome for the two negative results: CP loss under
inversion, and Moore-Penrose breaking trace preservation on non-unital
channels), and "inconclusive" means the hypotheses were not met or no
instances ran.

Facts exercised here, all certified by residuals rather than assumed:

* the Drazin inverse of a trace-preserving map is trace preserving, and of
  a unital map is unital;
* the same holds for dagger-Drazin and Moore-Penrose inverses of maps that
  are both TP and unital;
* complete positivity is generally lost: the depolarizing family D_a
  (rho -> (1-a) rho + (a/d) Tr(rho) I) has Drazin inverse D_{a/(a-1)} for
  a != 1, which leaves the CP region;
* the Moore-Penrose inverse of an *invertible* TP map is always TP (it is
  the true inverse), so MP-TP violations require singular non-unital
  channels; the search therefore samples rank-deficient measure-and-prepare
  channels alongside generic ones;
* inverses propagate through commuting squares, sum over orthogonal
  families, and fix block-dephasing (projector) channels.
"""

import os
import sys
import threading
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

import numpy as np

from . import channels as chn
from .ginv import _as_square, _certify_all, dagger_drazin, drazin_inverse, mp_inverse
from .linalg import DEFAULT_TOL, Tolerances, _attempt, _numerical_rank, _one, as_cmatrix, dagger, fro_dist

VERIFIED = "verified"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

# Items whose expected suite outcome is a found counterexample.
NEGATIVE_RESULT_IDS = frozenset({"depolarizing-cp-loss", "mp-tp-violation-search"})

DEFAULT_SUITE_SEED = 7
DEFAULT_SUITE_COUNT = 200

# Instance streams reject draws whose smallest above-cutoff singular value
# falls under this fraction of the largest: past that point the absolute
# 1e-8 residual certificates drown in double-precision evaluation noise
# (the residual of W S W - W floats at eps * |W|^2 * |S|), so such draws
# can certify nothing either way.
MIN_REL_SIGMA = 1e-2

# run_suite forks worker processes only above this many instances per item. On two CPUs the pool breaks even between
# 16 and 32: a suite took 97 ms forked against 61 ms in one process at 16, and 86 ms against 119 ms at 32.
_POOL_MIN_COUNT = 32

# Dimensions and environment sizes that run_suite cycles through.
_DIMS = (2, 3, 4)
_ENVS = (1, 2, 3, 4)


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    instances: int
    max_residual: float
    verdict: str
    witness: dict | None = None


def report_to_dict(report: TheoremReport) -> dict:
    return {
        "theorem_id": report.theorem_id,
        "instances": report.instances,
        "max_residual": report.max_residual,
        "verdict": report.verdict,
        "witness": report.witness,
    }


def suite_passed(reports) -> bool:
    """True when every preservation item verified and both searches found witnesses."""
    if not reports:
        return False
    for r in reports:
        if r.theorem_id in NEGATIVE_RESULT_IDS:
            if r.verdict != FALSIFIED or r.witness is None:
                return False
        elif r.verdict != VERIFIED:
            return False
    return True


def _inverse_channel(ch: chn.Channel, inverse: np.ndarray) -> chn.Channel:
    return chn.Channel(d_in=ch.d_out, d_out=ch.d_in, super=inverse)


def _certifiable(s: np.ndarray, tol: Tolerances) -> bool:
    """True when the nonzero part of the spectrum keeps inverses at O(1) scale."""
    sv = np.linalg.svd(s, compute_uv=False)
    r = _numerical_rank(sv, s.shape, tol)
    return bool(r == 0 or sv[r - 1] / sv[0] >= MIN_REL_SIGMA)


def _redraw(draw, tol: Tolerances) -> chn.Channel:
    for _ in range(64):
        ch = draw()
        if _certifiable(ch.super, tol):
            return ch
    return ch


def draw_cptp(d: int, env_dim: int, rng, tol: Tolerances = DEFAULT_TOL) -> chn.Channel:
    """Random CPTP test instance, redrawn while numerically uncertifiable."""
    return _redraw(lambda: chn.random_cptp(d, d, env_dim, rng), tol)


def draw_ucptp(d: int, n_unitaries: int, rng, tol: Tolerances = DEFAULT_TOL) -> chn.Channel:
    """Random mixed-unitary test instance, redrawn while numerically uncertifiable."""
    return _redraw(lambda: chn.random_ucptp(d, n_unitaries, rng), tol)


# A check below that certifies inverses is written once, for one instance, as a generator function
# ``check(*args, tol)``: it screens its hypothesis (returning an inconclusive report when that fails), yields a
# list of ``(kind, matrix)`` requests, is sent back their GinvReports in the same order, and returns its
# TheoremReport. _run_checks runs many such checks at once and batches their certificates; it alone handles a
# refused certificate or an exception. The public check validates its arguments and runs its generator alone;
# the suite passes instances that are already valid, as it draws them. The four per-instance public checks
# ask for no certificate of their own and run through _plain.


def _run_checks(checks, tol: Tolerances) -> list:
    """The result of each ``(check, args)`` of ``checks``: its TheoremReport, or the exception that ended it.

    Each round certifies the requests of every live check together, one ``_certify_all`` call per kind with its
    matrices in check order, then sends each check its reports. A refused certificate (a GinvError report) ends
    its check with that error; an exception raised while creating or advancing a check ends that check, and one
    raised while certifying a kind ends the checks that asked for that kind. The other checks run on.
    """
    results = [None] * len(checks)
    gens = [_attempt(Exception, check, *args, tol) for check, args in checks]
    replies = dict.fromkeys(range(len(checks)))  # None starts each generator
    while replies:
        asked = {}
        for i, reply in replies.items():
            failed = [r for r in [gens[i], *(reply or ())] if isinstance(r, Exception)]
            step = failed[0] if failed else _attempt(Exception, gens[i].send, reply)
            if isinstance(step, Exception):  # a StopIteration carries the check's report
                results[i] = step.value if isinstance(step, StopIteration) else step
            else:
                asked[i] = step
        mats = {}
        for kind, m in chain.from_iterable(asked.values()):
            mats.setdefault(kind, []).append(m)
        certified = {}
        for kind, ms in mats.items():
            out = _attempt(Exception, _certify_all, kind, ms, tol)
            certified[kind] = repeat(out) if isinstance(out, Exception) else iter(out)
        replies = {i: [next(certified[kind]) for kind, _ in requests] for i, requests in asked.items()}
    return results


def _plain(args, check, tol: Tolerances):
    """The per-instance public ``check(*args, tol)`` as a check that asks for no certificate."""
    yield from ()
    return check(*args, tol)


def _tp_u(s: np.ndarray):
    """(tp, unital) residuals of one superoperator."""
    return tuple(r.item() for r in chn._tp_unital_residuals(s[None]))


def _keeps_tp_u(ch: chn.Channel, kind: str, both: bool, tol: Tolerances):
    """TP and unitality of ``ch`` survive its ``kind`` inverse: the check of the two preservation theorems.

    ``ch`` needs TP and unitality (``both``) or one of them, else it is inconclusive; each property it has must
    hold for its certified inverse.
    """
    theorem_id = f"{kind.replace('_', '-')}-tp-u-preservation"
    held = [r <= tol.residual_atol for r in _tp_u(ch.super)]
    if not (all(held) if both else any(held)):
        return TheoremReport(theorem_id, 1, 0.0, INCONCLUSIVE)
    (rep,) = yield [(kind, ch.super)]
    worst = max(r for r, had in zip(_tp_u(rep.inverse), held) if had)
    ok = worst <= tol.residual_atol
    witness = None if ok else chn.channel_to_dict(_inverse_channel(ch, rep.inverse))
    return TheoremReport(theorem_id, 1, worst, VERIFIED if ok else FALSIFIED, witness)


def check_drazin_preserves_tp_u(ch: chn.Channel, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """TP and/or unitality of a square channel survive Drazin inversion.

    Inconclusive when the channel is neither TP nor unital (empty
    hypothesis); numeric failures from the inverse computation propagate.
    """
    if ch.d_in != ch.d_out:
        raise ValueError("Drazin inversion needs d_in == d_out")
    return _one(_run_checks([(_keeps_tp_u, (ch, "drazin", False))], tol))


def check_drazin_cp_loss(d: int, a: float, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """Depolarizing case study: the Drazin inverse stays TP+unital, loses CP.

    Verifies the closed form: D_a is invertible for a != 1 with Drazin
    inverse D_{a/(a-1)} (D_1 is idempotent and self-inverse), the inverse is
    TP and unital, and its minimum Choi eigenvalue matches
    min((1-b)d + b/d, b/d) for b the inverse parameter. Verdict "falsified"
    (CP lost, with the inverse channel as witness) whenever b leaves the CP
    region, "verified" when the inverse stays CP (a = 1).
    """
    if a == 0:
        raise ValueError("a = 0 is the identity channel; pick a nonzero parameter")
    source = chn.depolarizing(d, a)
    b = 1.0 if a == 1 else a / (a - 1.0)
    dr = drazin_inverse(source.super, tol)
    inv_ch = _inverse_channel(source, dr.inverse)
    r_identity = fro_dist(dr.inverse, chn.depolarizing(d, b).super)
    report = chn.property_report(inv_ch, tol)
    predicted_min = min((1.0 - b) * d + b / d, b / d)
    prediction_gap = abs(report.min_choi_eigenvalue - predicted_min)
    cp_loss_expected = predicted_min < -tol.psd_atol
    consistent = (
        r_identity <= tol.residual_atol
        and report.tp
        and report.unital
        and prediction_gap <= tol.residual_atol
        and (not report.cp) == cp_loss_expected
    )
    worst = max(r_identity, report.tp_residual, report.unital_residual, prediction_gap)
    if not consistent:
        return TheoremReport("depolarizing-cp-loss", 1, worst, INCONCLUSIVE)
    if cp_loss_expected:
        return TheoremReport("depolarizing-cp-loss", 1, worst, FALSIFIED, chn.channel_to_dict(inv_ch))
    return TheoremReport("depolarizing-cp-loss", 1, worst, VERIFIED)


def check_intertwiner_propagation(
    f: np.ndarray,
    g: np.ndarray,
    k: np.ndarray,
    variant: str,
    tol: Tolerances = DEFAULT_TOL,
    h: np.ndarray | None = None,
) -> TheoremReport:
    """Commuting squares propagate to the inverses.

    For ``variant="drazin"`` (f, g square, one intertwiner k): if
    K F = G K then K F^D = G^D K. For ``variant="dagger_drazin"`` the
    hypotheses are the two squares K F = G H and H F^H = G^H K (h defaults
    to k), and the conclusions are H F^p = G^p K and
    K (F^p)^H = (G^p)^H H for the dagger-Drazin inverses. Non-commuting
    inputs give an inconclusive verdict rather than an error.
    """
    if variant not in ("drazin", "dagger_drazin"):
        raise ValueError(f"unknown variant {variant!r}")
    f, g, k = square = [as_cmatrix(f, "f"), as_cmatrix(g, "g"), as_cmatrix(k, "k")]
    wanted = {"k": (k, (g.shape[0], f.shape[0]))}
    if variant == "drazin":
        for name, m in (("f", f), ("g", g)):
            if m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square for the drazin variant, got shape {m.shape}")
    else:
        if h is not None:
            square.append(as_cmatrix(h, "h"))
        wanted["h" if h is not None else "h (default k)"] = (square[-1], (g.shape[1], f.shape[1]))
    for name, (m, shape) in wanted.items():
        if m.shape != shape:
            raise ValueError(f"{name} must have shape {shape} for f of shape {f.shape} and g of shape {g.shape}, "
                             f"got {m.shape}")
    return _one(_run_checks([(_intertwiner, (square, variant))], tol))


def _intertwiner(square, variant: str, tol: Tolerances):
    """The square ``(f, g, k)`` or ``(f, g, k, h)``; the inverses of f and g are certified when it commutes."""
    theorem_id = "intertwiner-drazin" if variant == "drazin" else "intertwiner-dagger-drazin"
    f, g, k, *rest = square
    h = rest[0] if rest else k
    if variant == "drazin":
        input_res = fro_dist(k @ f, g @ k)
    else:
        input_res = max(fro_dist(k @ f, g @ h), fro_dist(h @ dagger(f), dagger(g) @ k))
    if input_res > tol.residual_atol:
        return TheoremReport(theorem_id, 1, input_res, INCONCLUSIVE)
    fp, gp = (rep.inverse for rep in (yield [(variant, f), (variant, g)]))
    if variant == "drazin":
        out_res = fro_dist(k @ fp, gp @ k)
    else:
        out_res = max(fro_dist(h @ fp, gp @ k), fro_dist(k @ dagger(fp), dagger(gp) @ h))
    ok = out_res <= tol.residual_atol
    return TheoremReport(theorem_id, 1, out_res, VERIFIED if ok else FALSIFIED)


def check_dagger_drazin_preserves_tpu(ch: chn.Channel, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """TP + unitality survive dagger-Drazin inversion (square or not)."""
    return _one(_run_checks([(_keeps_tp_u, (ch, "dagger_drazin", True))], tol))


def check_mp_tpu_iff(ch: chn.Channel, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """A map is TP and unital iff its Moore-Penrose inverse is.

    Both directions are evaluated on the instance; an instance where
    neither side is TP+unital satisfies the biconditional vacuously.
    """
    return _one(_run_checks([(_mp_tpu_iff, (ch,))], tol))


def _mp_tpu_iff(ch: chn.Channel, tol: Tolerances):
    atol = tol.residual_atol
    (rep,) = yield [("moore_penrose", ch.super)]
    (tp_r, u_r), (inv_tp_r, inv_u_r) = _tp_u(ch.super), _tp_u(rep.inverse)
    fwd = tp_r <= atol and u_r <= atol
    bwd = inv_tp_r <= atol and inv_u_r <= atol
    residuals = [0.0]
    if fwd:
        residuals += [inv_tp_r, inv_u_r]
    if bwd:
        residuals += [tp_r, u_r]
    ok = fwd == bwd and max(residuals) <= atol
    witness = None if ok else chn.channel_to_dict(_inverse_channel(ch, rep.inverse))
    return TheoremReport("mp-tp-u-iff", 1, max(residuals), VERIFIED if ok else FALSIFIED, witness)


def amplitude_damping(gamma: float) -> chn.Channel:
    """Qubit amplitude damping; non-unital for gamma > 0, singular at gamma = 1."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return chn.kraus_to_channel([k0, k1])


def _measure_prepare_channel(d: int, rng) -> chn.Channel:
    """Rank-deficient CPTP channel: measure a random basis, prepare pure states."""
    basis = chn.haar_unitary(d, rng)
    ops = []
    for i in range(d):
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        w /= np.linalg.norm(w)
        ops.append(np.outer(w, basis[:, i].conj()))
    return chn.kraus_to_channel(ops)


def search_mp_tp_violation(
    d: int,
    env_dim: int,
    trials: int,
    seed,
    tol: Tolerances = DEFAULT_TOL,
) -> TheoremReport:
    """Hunt for non-unital CPTP channels whose Moore-Penrose inverse is not TP.

    An invertible TP superoperator can never violate (its MP inverse is the
    true inverse, which is TP), so besides generic Stinespring draws the
    sampler includes singular measure-and-prepare channels, where the
    violation generically occurs. A fixed amplitude-damping candidate at
    gamma = 0.5 is always evaluated first; being invertible, it preserves TP
    and serves as a negative control. Witness = the first channel whose
    inverse has TP residual above 10x ``residual_atol``. The report is
    empirical evidence, not a proof. Every candidate is drawn first, then all
    their inverses are certified together.
    """
    d, env_dim, trials = (chn._dimension(v, name) for v, name in ((d, "d"), (env_dim, "env_dim"), (trials, "trials")))
    if min(d, env_dim, trials) < 1:
        raise ValueError(f"d, env_dim and trials must each be at least 1, got {d}, {env_dim}, {trials}")
    rng = chn._get_rng(seed)
    candidates = [amplitude_damping(0.5)] if d == 2 else []
    for i in range(trials):
        for _ in range(8):
            if i % 2 == 0:
                ch = _measure_prepare_channel(d, rng)
            else:
                ch = chn.random_cptp(d, d, env_dim, rng)
            if not chn.is_unital(ch, tol)[0] and _certifiable(ch.super, tol):
                candidates.append(ch)
                break
    if not candidates:
        return TheoremReport("mp-tp-violation-search", 0, 0.0, INCONCLUSIVE)
    inverses = _certify_all("moore_penrose", [ch.super for ch in candidates], tol)
    tp = chn._tp_unital_residuals(np.stack([_one([rep]).inverse for rep in inverses]))[0].tolist()
    witness = next((chn.channel_to_dict(ch) for ch, r in zip(candidates, tp) if r > 10.0 * tol.residual_atol), None)
    verdict = FALSIFIED if witness is not None else VERIFIED
    return TheoremReport("mp-tp-violation-search", len(candidates), max([0.0] + tp), verdict, witness)


# variant -> (theorem id, inverse kind)
_ORTHOGONAL_SUMS = {
    "drazin": ("orthogonal-sum-drazin", "drazin"),
    "dagger_drazin": ("orthogonal-sum-dagger-drazin", "dagger_drazin"),
    "mp": ("orthogonal-sum-moore-penrose", "moore_penrose"),
}


def check_orthogonal_sum(fs, variant: str, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """Inverse of an orthogonal sum is the sum of the inverses.

    Orthogonality hypothesis: ``f_i f_j = 0`` for all i != j for the Drazin
    variant, ``f_j^H f_i = 0`` for the dagger-Drazin and Moore-Penrose
    variants. A violated hypothesis yields an inconclusive verdict.
    """
    if variant not in _ORTHOGONAL_SUMS:
        raise ValueError(f"unknown variant {variant!r}")
    mats = [as_cmatrix(f, "summand") for f in fs]
    if not mats:
        raise ValueError("at least one summand is required")
    if any(m.shape != mats[0].shape for m in mats[1:]):
        raise ValueError("summands must share one shape")
    if variant == "drazin":
        _as_square(mats[0], "Drazin inverse")
    return _one(_run_checks([(_orthogonal_sum, (mats, variant))], tol))


def _orthogonal_sum(mats, variant: str, tol: Tolerances):
    """The summands' pairwise orthogonality products; when they vanish, the sum and the summands are certified."""
    theorem_id, kind = _ORTHOGONAL_SUMS[variant]
    stack = np.stack(mats)
    left = stack if variant == "drazin" else dagger(stack)
    products = np.linalg.norm(left[:, None] @ stack[None, :], axis=(-2, -1))  # [j, i]: f_j f_i or f_j^H f_i
    np.fill_diagonal(products, 0.0)
    orth = float(products.max())
    if orth > tol.residual_atol:
        return TheoremReport(theorem_id, 1, orth, INCONCLUSIVE)
    total, *parts = yield [(kind, m) for m in [sum(mats[1:], start=mats[0].copy()), *mats]]
    residual = fro_dist(total.inverse, sum(p.inverse for p in parts))
    ok = residual <= tol.residual_atol
    return TheoremReport(theorem_id, 1, residual, VERIFIED if ok else FALSIFIED)


def check_pure_channel_lemma(f: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """Conjugation channels: CP always; TP iff isometry; unital iff coisometry."""
    f = as_cmatrix(f, "f")
    ch = chn.conjugation_channel(f)
    report = chn.property_report(ch, tol)
    iso_res = fro_dist(dagger(f) @ f, np.eye(f.shape[1]))
    coiso_res = fro_dist(f @ dagger(f), np.eye(f.shape[0]))
    isometry = iso_res <= tol.residual_atol
    coisometry = coiso_res <= tol.residual_atol
    consistent = (
        report.cp
        and report.tp == isometry
        and report.unital == coisometry
        and (report.cp and report.tp and report.unital) == (isometry and coisometry)
    )
    worst = max(
        abs(min(report.min_choi_eigenvalue, 0.0)),
        report.tp_residual if isometry else 0.0,
        report.unital_residual if coisometry else 0.0,
    )
    return TheoremReport("pure-channel-criteria", 1, worst, VERIFIED if consistent else FALSIFIED)


def check_projector_self_inverse(block_dims, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """Block-dephasing channels are UCPTP and equal all three of their inverses."""
    ch = chn.projector_channel(block_dims)
    report = chn.property_report(ch, tol)
    s = ch.super
    distances = [
        fro_dist(drazin_inverse(s, tol).inverse, s),
        fro_dist(dagger_drazin(s, tol).inverse, s),
        fro_dist(mp_inverse(s, tol).inverse, s),
    ]
    worst = max(distances + [report.tp_residual, report.unital_residual])
    ok = report.cp and report.tp and report.unital and max(distances) <= tol.residual_atol
    return TheoremReport("projector-channel-self-inverse", 1, worst, VERIFIED if ok else FALSIFIED)


def check_group_double_inverse(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """At Drazin index <= 1 the double Drazin inverse recovers the input."""
    return _one(_run_checks([(_group_double_inverse, (_as_square(a, "Drazin inverse"),))], tol))


def _group_double_inverse(a: np.ndarray, tol: Tolerances):
    """The index comes from the certified Drazin inverse; at index <= 1 that inverse is inverted in turn."""
    (first,) = yield [("drazin", a)]
    if first.index > 1:
        return TheoremReport("group-double-inverse", 1, 0.0, INCONCLUSIVE)
    (double,) = yield [("drazin", first.inverse)]
    residual = fro_dist(double.inverse, a)
    ok = residual <= tol.residual_atol
    return TheoremReport("group-double-inverse", 1, residual, VERIFIED if ok else FALSIFIED)


def _index2_tp_superoperator(d: int, rng) -> np.ndarray:
    """TP superoperator of Drazin index 2 (nilpotent block on the traceless part)."""
    n = d * d
    v = chn.vec(np.eye(d)) / np.sqrt(d)
    m = np.column_stack([v, rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))])
    q, _ = np.linalg.qr(m)
    core = np.zeros((n, n), dtype=np.complex128)
    core[0, 0] = 1.0
    core[1, 2] = 1.0
    return q @ core @ dagger(q)


def check_double_inverse_gap(d: int, seed, tol: Tolerances = DEFAULT_TOL) -> TheoremReport:
    """On TP maps of index >= 2 the double Drazin inverse genuinely differs.

    The preservation theorems cannot be run backwards through f^DD when
    f^DD != f; this exhibits a TP superoperator where the gap is large while
    the Drazin inverse itself is still TP.
    """
    if (d := chn._dimension(d, "d")) < 2:
        raise ValueError(f"an index-2 map on d x d matrices needs d >= 2, got d = {d}")
    return _one(_run_checks([(_double_inverse_gap, (_index2_tp_superoperator(d, chn._get_rng(seed)),))], tol))


def _double_inverse_gap(s: np.ndarray, tol: Tolerances):
    atol = tol.residual_atol
    (first,) = yield [("drazin", s)]
    tp_res, inv_tp_res = _tp_u(s)[0], _tp_u(first.inverse)[0]
    (double,) = yield [("drazin", first.inverse)]
    gap = fro_dist(double.inverse, s)
    ok = tp_res <= atol and inv_tp_res <= atol and first.index >= 2 and gap > atol
    return TheoremReport("drazin-double-inverse-gap", 1, max(tp_res, inv_tp_res), VERIFIED if ok else FALSIFIED)


def _aggregate(theorem_id: str, reports) -> TheoremReport:
    """Combine per-instance reports; any falsified instance marks the item falsified."""
    if not reports:
        return TheoremReport(theorem_id, 0, 0.0, INCONCLUSIVE)
    instances = sum(r.instances for r in reports)
    worst = max(r.max_residual for r in reports)
    witness = next((r.witness for r in reports if r.witness is not None), None)
    verdicts = [r.verdict for r in reports]
    if INCONCLUSIVE in verdicts:
        verdict = INCONCLUSIVE
    else:
        verdict = FALSIFIED if FALSIFIED in verdicts else VERIFIED
    return TheoremReport(theorem_id, instances, worst, verdict, witness)


def _run_item(theorem_id: str, check, instances, extra, tol: Tolerances) -> TheoremReport:
    """``check(instance, *extra, tol)`` for every instance, all through one :func:`_run_checks` call.

    An instance whose check ended with an exception gets an inconclusive report carrying its message; the other
    instances keep their reports.
    """
    results = _run_checks([(check, (instance, *extra)) for instance in instances], tol)
    return _aggregate(theorem_id, [
        TheoremReport(theorem_id, 1, float("inf"), INCONCLUSIVE, {"error": str(r)}) if isinstance(r, Exception) else r
        for r in results
    ])


def _suite_groups(seed, instance_count: int, tol: Tolerances) -> dict:
    """The suite's table: group name -> a function that draws the group's instances and returns its items
    ``(theorem_id, check, instances, *extra)``. Groups and items are in report order.

    Items that share instances form one group, which draws them once: the three orthogonal sums share their
    families and the two intertwiner items their squares. Every other item is a group of one. An item's instances
    are all drawn when it runs, before any is checked. Every item draws from its own generator, a child of ``seed``,
    so a group draws the same instances whichever groups run before it and in whichever process. A negative seed
    raises ValueError here.
    """
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(12)]
    n = range(instance_count)
    fixed = int(instance_count > 0)  # the fixed-list items run in full once any instance is asked for

    def orthogonal_sums():
        families = [_block_family(rngs[5], n_blocks=2 + i % 3, nilpotent=(i % 5 == 0)) for i in n]
        return [(theorem_id, _orthogonal_sum, families, variant)
                for variant, (theorem_id, _) in _ORTHOGONAL_SUMS.items()]

    def intertwiners():
        squares, dagger_squares = _intertwiner_instances(rngs[7], instance_count, tol)
        return [("intertwiner-drazin", _intertwiner, squares, "drazin"),
                ("intertwiner-dagger-drazin", _intertwiner, dagger_squares, "dagger_drazin")]

    return {
        # Drazin TP preservation on generic CPTP channels, unitality on mixed-unitary ones.
        "drazin-tp-preservation": lambda: [("drazin-tp-preservation", _keeps_tp_u,
            (draw_cptp(_DIMS[i % 3], _ENVS[i % 4], rngs[0], tol) for i in n), "drazin", False)],
        "drazin-unital-preservation": lambda: [("drazin-unital-preservation", _keeps_tp_u,
            (draw_ucptp(_DIMS[i % 3], 2 + i % 4, rngs[1], tol) for i in n), "drazin", False)],
        # Depolarizing case study: inverse parameter identity and CP loss.
        "depolarizing-cp-loss": lambda: [("depolarizing-cp-loss", _plain,
            [(d, a) for d in (2, 3) for a in (0.25, 0.5, 0.9, 1.0)] * fixed, check_drazin_cp_loss)],
        # Dagger-Drazin TP+U preservation on mixed-unitary channels.
        "dagger-drazin-tp-u-preservation": lambda: [("dagger-drazin-tp-u-preservation", _keeps_tp_u,
            (draw_ucptp(_DIMS[i % 3], 2 + i % 3, rngs[2], tol) for i in n), "dagger_drazin", True)],
        # Moore-Penrose TP+U biconditional on mixed instances.
        "mp-tp-u-iff": lambda: [("mp-tp-u-iff", _mp_tpu_iff, (
            draw_cptp(_DIMS[i % 3], _ENVS[i % 4], rngs[3], tol) if i % 3 == 2
            else draw_ucptp(_DIMS[i % 3], 2 + i % 3, rngs[3], tol)
            for i in n
        ))],
        # Moore-Penrose TP-violation search on non-unital channels: one search of count trials.
        "mp-tp-violation-search": lambda: [("mp-tp-violation-search", _plain,
            [(2, 3, instance_count, rngs[4])] * fixed, search_mp_tp_violation)],
        # Orthogonal-sum laws on block-embedded families.
        "orthogonal-sum": orthogonal_sums,
        # Projector channels: UCPTP and self-inverse for every kind.
        "projector-channel-self-inverse": lambda: [("projector-channel-self-inverse", _plain,
            [((1, 1),), ((2, 1),), ((2, 2),)] * fixed, check_projector_self_inverse)],
        # Pure-channel criteria on unitaries, isometries, and defective maps.
        "pure-channel-criteria": lambda: [("pure-channel-criteria", _plain,
            ((_pure_channel_map(_DIMS[i % 3], i % 3, rngs[6]),) for i in n), check_pure_channel_lemma)],
        # Intertwiner propagation: block instances plus the TP-functional square.
        "intertwiner": intertwiners,
        # Double-inverse law at index <= 1 and its failure at index 2.
        "group-double-inverse": lambda: [("group-double-inverse", _group_double_inverse, (
            draw_ucptp(_DIMS[i % 3], 2, rngs[8], tol).super if i % 2 == 0
            else chn.projector_channel((_DIMS[i % 3] - 1, 1)).super
            for i in n
        ))],
        "drazin-double-inverse-gap": lambda: [("drazin-double-inverse-gap", _double_inverse_gap,
            (_index2_tp_superoperator(_DIMS[i % 2], rngs[9]) for i in range(min(instance_count, 16))))],
    }


def _run_group(seed, instance_count: int, tol: Tolerances, group: str) -> list:
    """The reports of the items of ``group`` of the suite ``(seed, instance_count, tol)``, in table order.

    The table is rebuilt from these arguments, which pickle, so a worker process can run any group alone; the
    suite runs every group through here, in a worker or in its own process.
    """
    return [_run_item(theorem_id, check, instances, extra, tol)
            for theorem_id, check, instances, *extra in _suite_groups(seed, instance_count, tol)[group]()]


def run_suite(
    seed: int = DEFAULT_SUITE_SEED,
    instance_count: int = DEFAULT_SUITE_COUNT,
    tol: Tolerances = DEFAULT_TOL,
) -> list:
    """Run every theorem check over deterministic randomized instances.

    The suite is one table of items ``(theorem_id, check, instances, *extra)``:
    all of an item's instances are drawn, then their checks
    ``check(instance, *extra, tol)`` run together as one batch, their
    certificates stacked by :func:`_run_checks`. Every item draws from its
    own generator, a child of ``seed``, so reports are reproducible for a
    fixed seed regardless of item order or scheduling. Random channels are
    redrawn while uncertifiable (see MIN_REL_SIGMA). Individual check
    failures surface as report verdicts, never exceptions: an exception
    marks only its own instance inconclusive.
    ``instance_count = 0`` yields all-inconclusive empty reports; a negative
    count or seed raises ValueError. The table is built per call, so checks
    and draws are looked up at run time.

    The items form groups that run on their own: the three orthogonal sums,
    which share their families, the two intertwiner items, which share their
    squares, and every other item alone. Above ``_POOL_MIN_COUNT``
    instances per item, on Linux under CPython before 3.12, with no other
    Python thread alive and at least two CPUs available to this process, the
    groups run in that many forked worker processes, heaviest first (see
    :func:`_suite_workers`); otherwise, or when the pool cannot start or
    breaks, each runs in this process, exactly as a worker runs it. The
    reports come back in table order, so the output is the same either way.
    """
    instance_count = chn._dimension(instance_count, "instance count")
    if instance_count < 0:
        raise ValueError(f"instance count must be non-negative, got {instance_count}")
    table = _suite_groups(seed, instance_count, tol)  # checks the seed before any worker starts
    workers = _suite_workers(instance_count)
    reports = _forked_groups(seed, instance_count, tol, workers) if workers > 1 else None
    if reports is None:
        reports = {group: _run_group(seed, instance_count, tol, group) for group in table}
    return list(chain.from_iterable(reports[group] for group in table))


# The suite's groups, heaviest first at 200 instances per item: run_suite hands them to its workers in this order,
# and a worker takes the next group when it is done, so no heavy group starts last and keeps the others waiting. The
# orthogonal sums take 30-32% of the suite's time, the intertwiners 12-13%, and the next five items 7-10% each, in an
# order that changes from seed to seed.
_HEAVIEST_FIRST = (
    "orthogonal-sum", "intertwiner", "dagger-drazin-tp-u-preservation", "mp-tp-u-iff", "group-double-inverse",
    "drazin-unital-preservation", "drazin-tp-preservation", "mp-tp-violation-search", "pure-channel-criteria",
    "drazin-double-inverse-gap", "depolarizing-cp-loss", "projector-channel-self-inverse",
)


def _suite_workers(instance_count: int) -> int:
    """How many forked worker processes run the suite's groups at ``instance_count`` instances per item; at 1 the
    suite runs in this process.

    Forking copies only the calling thread, so the pool needs a process whose other threads can hold no lock the
    workers need: no other Python thread may be alive, and CPython 3.12 and later warn on a fork in a process that
    has other OS threads, which NumPy's OpenBLAS starts; there, and off Linux, the suite always runs here. At
    ``_POOL_MIN_COUNT`` instances or fewer, starting the pool saves little or nothing. Each worker needs a CPU.
    """
    if (
        sys.platform != "linux"
        or sys.version_info >= (3, 12)
        or threading.active_count() != 1
        or instance_count <= _POOL_MIN_COUNT
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), len(_HEAVIEST_FIRST))


def _forked_groups(seed, instance_count: int, tol: Tolerances, workers: int) -> dict | None:
    """Group name -> reports of every group of the suite, from ``workers`` forked processes that take the groups
    heaviest first; None when the pool cannot start (OSError) or breaks (a worker died).

    The process-pool modules are imported only here: most callers of the package never start a pool.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return dict(zip(_HEAVIEST_FIRST, pool.map(partial(_run_group, seed, instance_count, tol), _HEAVIEST_FIRST)))
    except (OSError, BrokenProcessPool):
        return None


def _conditioned(rng, size: int) -> np.ndarray:
    """Random size x size matrix with singular values in [0.5, 2]."""
    u, v = chn._phase_fixed_qr(np.stack([chn._ginibre(rng, size, size) for _ in range(2)]))
    return u @ np.diag(rng.uniform(0.5, 2.0, size)).astype(np.complex128) @ v


def _pure_channel_map(d: int, kind: int, rng) -> np.ndarray:
    """A Haar unitary (kind 0), a (d+1) x d isometry (kind 1) or a rank-deficient diagonal."""
    if kind == 0:
        return chn.haar_unitary(d, rng)
    if kind == 1:
        return np.linalg.qr(chn._ginibre(rng, d + 1, d))[0]
    return np.diag([1.0] * (d - 1) + [0.0]).astype(np.complex128)


def _intertwiner_instances(rng, count: int, tol: Tolerances):
    """Arguments of the Drazin and dagger-Drazin intertwiner items, drawn from one stream.

    Instance i is the block-diagonal ``diag(top, bottom)`` with the projection
    onto its first block; every fourth also adds, to the Drazin item only, a
    random CPTP channel with the trace functional as intertwiner, its Kraus
    count cycling through ``_ENVS`` (1, a unitary channel, up to 4).
    """
    drazin_args, dagger_args = [], []
    for i in range(count):
        b = 2 + i % 2
        c = 1 + i % 3
        top = _conditioned(rng, b)
        bottom = _conditioned(rng, c)
        f = np.block([[top, np.zeros((b, c))], [np.zeros((c, b)), bottom]]).astype(np.complex128)
        proj = np.eye(b, b + c, dtype=np.complex128)
        drazin_args.append((f, top, proj))
        dagger_args.append((f, top, proj))
        if i % 4 == 0:
            d = _DIMS[i % 3]
            ch = draw_cptp(d, _ENVS[(i // 4) % 4], rng, tol)
            trace_row = chn.vec(np.eye(d)).conj()[None, :]
            drazin_args.append((ch.super, np.eye(1, dtype=np.complex128), trace_row))
    return drazin_args, dagger_args


def _block_family(rng, n_blocks: int, nilpotent: bool):
    """Square block-diagonal embeddings with pairwise orthogonal supports.

    Blocks carry singular values in [0.5, 2] so every inverse stays at O(1)
    scale, matching the absolute-residual policy; the optional nilpotent
    block exercises Drazin index 2.
    """
    sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
    total = sum(sizes)
    family = []
    offset = 0
    for idx, size in enumerate(sizes):
        block = _conditioned(rng, size)
        if nilpotent and idx == 0 and size >= 2:
            block = np.zeros((size, size), dtype=np.complex128)
            block[0, 1] = 1.0
        f = np.zeros((total, total), dtype=np.complex128)
        f[offset : offset + size, offset : offset + size] = block
        family.append(f)
        offset += size
    return family
