import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chaninv import channels as chn
from chaninv import ginv
from chaninv.ginv import (
    AxiomResidualError,
    GinvError,
    GinvReport,
    IndexTooLargeError,
    _core,
    _core_inverse,
    _residuals,
    certify_many,
    dagger_drazin,
    drazin_index,
    drazin_inverse,
    group_inverse,
    mp_inverse,
    verify_axioms,
)
from chaninv.linalg import DEFAULT_TOL, Tolerances, dagger, fro_dist

_EPS = np.finfo(float).eps

ATOL = 1e-8
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def power_formula_drazin(a, tol=DEFAULT_TOL):
    """(k, a^k (a^(2k+1))^+ a^k) with k the smallest exponent where the rank of a^k stops falling."""
    n = a.shape[0]
    powers = [np.linalg.matrix_power(a, p) for p in range(2 * n + 2)]
    ranks = [np.linalg.matrix_rank(p, tol=tol.rank_rtol * n * np.linalg.norm(p, 2)) for p in powers]
    k = next(k for k in range(n + 1) if ranks[k] == ranks[k + 1])
    pinv = np.linalg.pinv(powers[2 * k + 1], rcond=tol.rank_rtol * n)
    return k, powers[k] @ pinv @ powers[k]


def power_route_core(a, tol=DEFAULT_TOL):
    """(k, a^D) by the rank-of-powers route: a full SVD of a, a^2, ... until the rank stops falling.

    The SVD of a^(k+1) that ends the search spans u = range(a^k) and v = range((a^k)^H),
    and a^D = u (v^H a u)^{-1} v^H.
    """
    n = a.shape[0]
    power = np.eye(n, dtype=complex)
    r_prev = n
    for k in range(n + 1):
        power = power @ a
        u, s, vh = np.linalg.svd(power)
        r = int(np.count_nonzero(s > tol.rank_rtol * n * s[0])) if n else 0
        if r == r_prev:
            break
        r_prev = r
    u, v = u[:, :r], dagger(vh[:r])
    return k, u @ np.linalg.solve(dagger(v) @ a @ u, dagger(v))


def lu_route_inverse(a, tol=DEFAULT_TOL):
    """a's LU inverse if the LU route of :func:`ginv._certify` takes a, else None."""
    g, lu, _ = ginv._lu_route(a[None], tol)
    return g[0] if lu[0] else None


def corrupt_lu_route(monkeypatch, corrupt):
    """Make :func:`ginv._certify` use ``corrupt(G)`` for the LU inverses G that :func:`ginv._lu_route` returns.

    The route and the norms stay those of the true G, so the corruption comes after the route is chosen.
    """
    lu_route = ginv._lu_route

    def corrupted(a, tol):
        g, lu, norms = lu_route(a, tol)
        return corrupt(g), lu, norms

    monkeypatch.setattr(ginv, "_lu_route", corrupted)


def judged(a):
    """(x, rounded): the matrix :func:`ginv._certify` hands its judge for the single matrix a, and the flags with it.

    For a Hermiticity-preserving a, A_r = Re A + Im(A) P_in and whether forming it rounded (it does not where
    Im A = 0); for any other a, a itself and None.
    """
    if not ginv._hermiticity_preserving(a[None]):
        return a, None
    return ginv._real_coordinates(a[None])[0], [bool(a.imag.any())]


def returned(a, g):
    """The inverse :func:`ginv._certify` returns for a when its judge found g: g mapped back if a is HP."""
    return ginv._complex_coordinates(g) if ginv._hermiticity_preserving(a[None]) else g


def lu_values(kind, a, tol=DEFAULT_TOL):
    """(lu, g, values, forward, double): a's LU route as :func:`ginv._certify` takes it, in the judge's coordinates,
    with the rounding of the change of coordinates counted for an HP a."""
    x, rounded = judged(a)
    g, lu, norms = ginv._lu_route(x[None], tol)
    rounding = None if rounded is None else ginv._coordinate_rounding(rounded, g, norms.tolist())
    ((values, forward, double),) = ginv._lu_values(kind, x[None], g, norms, rounding)
    return lu[0], g[0], values, forward, double


def basis_terms(kind, a, g, k):
    """The terms :func:`ginv._certify` adds to the dense values of a and its judge's inverse g at exponent k: those
    of the change of coordinates for an HP a, else None."""
    x, rounded = judged(a)
    if rounded is None:
        return None
    sizes, (scale,) = ginv._sizes(x[None], g[None])
    ((alpha, gamma),) = ginv._coordinate_rounding(rounded, g[None], sizes)
    return ginv._basis_terms(kind, *sizes[0], alpha, gamma, k, scale)


def plus_terms(residuals, terms):
    return residuals if terms is None else {label: v + terms[label] for label, v in residuals.items()}


def assert_at_least_dense(residuals, dense):
    """Each LU-route value is at least the dense residual's computed value: the bounds count its rounding too."""
    assert residuals.keys() == dense.keys()
    for label, value in residuals.items():
        assert value >= dense[label], (label, value, dense[label])


def second_deflation_group_inverse(a, tol=DEFAULT_TOL):
    """(report, gap): the group certificate by the route the closed form replaced.

    G and G1-G3 as :func:`group_inverse` forms them (at index 0, the Drazin inverse's read-off of the SVD);
    the double-inverse residual from a second certified Drazin inverse, of G, which decides G's rank anew.
    """
    k, inv = 0, lu_route_inverse(a, tol)
    if inv is None:
        k, u, v = _core(a, tol)
        if k > 1:
            raise IndexTooLargeError(k)
        inv = _core_inverse(a, u, v) if k else ginv._pinv(*ginv._svd(a[None], tol))[0]
    report = ginv._report("group", inv, _residuals("group", a, inv, [k]), tol, k, None, None, None)
    if isinstance(report, GinvError):
        raise report
    return report, fro_dist(drazin_inverse(inv, tol).inverse, a)


def closed_form_gap(a, tol=DEFAULT_TOL):
    """The double-inverse residual |(G^#)^# - a| as :func:`group_inverse` computes it."""
    g = lu_route_inverse(a, tol)
    if g is None:
        k, u, v = _core(a, tol)
        if k:
            return fro_dist(_core_inverse(_core_inverse(a, u, v), u, v), a)
        g = ginv._pinv(*ginv._svd(a[None], tol))[0]  # the SVD route's G at index 0
    return fro_dist(ginv._lu_inverse(g[None])[0], a)  # at index 0, (G^#)^# = G^-1 by LU of the returned G


def assert_same_group_certificate(a):
    """The closed-form (G^#)^# agrees with the second deflation it replaced, where that one certifies.

    Both work in the judge's coordinates: for an HP a, the second deflation runs on A_r, its inverse is mapped back
    and its residuals gain the rounding terms of the change of coordinates.
    """
    x, _ = judged(a)
    old, old_gap = second_deflation_group_inverse(x)
    new = group_inverse(a)
    assert new.index == old.index
    assert np.array_equal(new.inverse, returned(a, old.inverse))
    dense = plus_terms(old.residuals, basis_terms("group", a, old.inverse, old.index))
    if lu_route_inverse(x) is None:
        assert new.residuals == dense
    else:  # values from E = GA - I and E' = AG - I, bounds among them
        assert_at_least_dense(new.residuals, dense)
    assert abs(closed_form_gap(x) - old_gap) <= 1e-12
    return new


def core_nilpotent(rng, n_core, nil_sizes):
    """(T diag(C, N) T^-1, T diag(C^-1, 0) T^-1) with C and T of singular values in [0.5, 2].

    N is block diagonal with one nilpotent Jordan block of each size in ``nil_sizes``.
    """
    n = n_core + sum(nil_sizes)
    c = random_unitary(rng, n_core) @ np.diag(rng.uniform(0.5, 2.0, n_core))
    j = np.zeros((n, n), dtype=complex)
    jd = np.zeros((n, n), dtype=complex)
    j[:n_core, :n_core] = c
    jd[:n_core, :n_core] = np.linalg.inv(c)
    offset = n_core
    for size in nil_sizes:
        j[offset : offset + size, offset : offset + size] = np.diag(np.ones(size - 1), 1)
        offset += size
    t = random_unitary(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ random_unitary(rng, n)
    t_inv = np.linalg.inv(t)
    return t @ j @ t_inv, t @ jd @ t_inv


def reprepare_super(d, rng, noise=0.3):
    """Superoperator of a measure-and-re-prepare channel (Drazin index 1).

    Measures a random basis and re-prepares outcome b as b with probability 1 - noise,
    else as a random pure state.
    """
    basis = random_unitary(rng, d)
    ops = []
    for b in basis.T:
        w = random_complex(rng, d, 1)[:, 0]
        ops.append(np.sqrt(1 - noise) * np.outer(b, b.conj()))
        ops.append(np.sqrt(noise) * np.outer(w / np.linalg.norm(w), b.conj()))
    return chn.kraus_to_channel(ops).super


def index2_tp_super(d, rng):
    """Trace-preserving superoperator of Drazin index 2: a nilpotent block on the traceless part."""
    n = d * d
    q = np.linalg.qr(np.column_stack([np.eye(d).flatten() / np.sqrt(d), random_complex(rng, n, n - 1)]))[0]
    core = np.zeros((n, n), dtype=complex)
    core[0, 0] = core[1, 2] = 1.0
    return q @ core @ dagger(q)


class TestMoorePenrose:
    def test_diagonal(self):
        rep = mp_inverse(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(rep.inverse, np.diag([0.5, 0.0]), atol=1e-14)

    def test_unitary(self):
        u = random_unitary(np.random.default_rng(0), 3)
        assert fro_dist(mp_inverse(u).inverse, dagger(u)) <= ATOL

    def test_tall_column(self):
        # oracle: closed-form least-squares pseudoinverse (m^H m)^-1 m^H
        m = np.array([[1.0], [1.0]], dtype=complex)
        oracle = np.linalg.inv(dagger(m) @ m) @ dagger(m)
        rep = mp_inverse(m)
        np.testing.assert_allclose(rep.inverse, oracle, atol=1e-14)
        np.testing.assert_allclose(rep.inverse, [[0.5, 0.5]], atol=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(1)
        for rows, cols in [(3, 3), (4, 2), (2, 5)]:
            m = random_complex(rng, rows, cols)
            double = mp_inverse(mp_inverse(m).inverse).inverse
            assert fro_dist(double, m) <= ATOL

    def test_residuals_enforced(self):
        rep = mp_inverse(random_complex(np.random.default_rng(2), 5, 3))
        assert set(rep.residuals) == {"MP1", "MP2", "MP3", "MP4"}
        assert max(rep.residuals.values()) <= ATOL

    def test_zero_and_empty(self):
        assert fro_dist(mp_inverse(np.zeros((2, 3))).inverse, np.zeros((3, 2))) == 0.0
        assert mp_inverse(np.zeros((0, 0))).inverse.shape == (0, 0)


class TestDrazinIndex:
    def test_invertible(self):
        assert drazin_index(np.diag([2.0, 3.0])) == 0

    def test_nilpotent(self):
        # oracle: rank sequence 2, 1, 0, 0 stabilizes at k = 2
        ranks = [np.linalg.matrix_rank(np.linalg.matrix_power(NILPOTENT, k)) for k in range(4)]
        assert ranks == [2, 1, 0, 0]
        assert drazin_index(NILPOTENT) == 2

    def test_idempotent(self):
        # oracle: rank(a^0)=2 != rank(a)=1 = rank(a^2), so the index is 1
        assert drazin_index(np.diag([1.0, 0.0])) == 1

    def test_non_square(self):
        with pytest.raises(ValueError):
            drazin_index(np.zeros((2, 3)))

    def test_matches_rank_sequence_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(0, n))
            a = random_complex(rng, n, r) @ random_complex(rng, r, n) if r else np.zeros((n, n), dtype=complex)
            ranks = [np.linalg.matrix_rank(np.linalg.matrix_power(a, k)) for k in range(n + 2)]
            expected = next(k for k in range(n + 1) if ranks[k] == ranks[k + 1])
            assert drazin_index(a) == expected


class TestDrazinInverse:
    def test_identity(self):
        res = drazin_inverse(np.eye(3))
        assert res.index == 0
        np.testing.assert_allclose(res.inverse, np.eye(3), atol=1e-14)

    def test_report_type(self):
        res = drazin_inverse(NILPOTENT)
        assert isinstance(res, GinvReport)
        assert (res.kind, res.index, res.witness_k) == ("drazin", 2, None)

    def test_nilpotent_is_zero(self):
        # oracle: the axioms force the inverse of a nilpotent to vanish
        res = drazin_inverse(NILPOTENT)
        assert res.index == 2
        np.testing.assert_allclose(res.inverse, np.zeros((2, 2)), atol=1e-14)

    def test_singular_diagonal(self):
        # oracle: invert the invertible block, annihilate the nilpotent part
        res = drazin_inverse(np.diag([2.0, 0.0]))
        assert res.index == 1
        np.testing.assert_allclose(res.inverse, np.diag([0.5, 0.0]), atol=1e-14)

    def test_invertible_matches_inverse(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 4, 4)
        res = drazin_inverse(a)
        assert res.index == 0
        assert fro_dist(res.inverse, np.linalg.inv(a)) <= 1e-10

    def test_residuals_enforced(self):
        res = drazin_inverse(np.diag([1.0, 2.0, 0.0]))
        assert set(res.residuals) == {"D1", "D2", "D3"}
        assert max(res.residuals.values()) <= ATOL

    def test_uniqueness_by_perturbation(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 8):
            a = random_complex(rng, n, n)
            res = drazin_inverse(a)
            assert max(res.residuals.values()) <= 1e-10
            noise = random_complex(rng, n, n)
            perturbed = res.inverse + 1e-4 * noise / np.linalg.norm(noise)
            broken, _ = verify_axioms("drazin", a, perturbed)
            assert max(broken.values()) > 1e-10

    def test_double_inverse_law(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            a = random_complex(rng, n, 2) @ random_complex(rng, 2, n)
            res = drazin_inverse(a)
            double = drazin_inverse(res.inverse).inverse
            assert fro_dist(double, a @ res.inverse @ a) <= ATOL

    def test_unitary_conjugation_absoluteness(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 4, 2) @ random_complex(rng, 2, 4)
        u = random_unitary(rng, 4)
        lhs = drazin_inverse(u @ a @ dagger(u)).inverse
        rhs = u @ drazin_inverse(a).inverse @ dagger(u)
        assert fro_dist(lhs, rhs) <= ATOL

    def test_frozen_defective_jordan_cases(self):
        # hand-derived closed forms for non-diagonalizable inputs
        # [[1,1],[0,1]] block at eigenvalue 1 plus a zero row: index 1,
        # inverse inverts the Jordan block and annihilates the kernel
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
        res = drazin_inverse(a)
        assert res.index == 1
        np.testing.assert_allclose(
            res.inverse,
            [[1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
            atol=1e-12,
        )
        # nilpotent 2-block plus invertible scalar 2: index 2
        b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]], dtype=complex)
        res = drazin_inverse(b)
        assert res.index == 2
        np.testing.assert_allclose(res.inverse, np.diag([0.0, 0.0, 0.5]), atol=1e-12)
        # invertible defective block: Drazin inverse is the plain inverse
        c = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
        res = drazin_inverse(c)
        assert res.index == 0
        np.testing.assert_allclose(res.inverse, [[0.5, -0.25], [0.0, 0.5]], atol=1e-12)

    def test_eigen_oracle_on_diagonalizable(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            lam = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.5, 2.0, n))
            u, v = random_unitary(rng, n), random_unitary(rng, n)
            p = u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v  # controlled conditioning
            a = p @ np.diag(lam) @ np.linalg.inv(p)
            oracle = p @ np.diag([1.0 / x if x else 0.0 for x in lam]) @ np.linalg.inv(p)
            assert fro_dist(drazin_inverse(a).inverse, oracle) <= 1e-6

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_matches_power_formula_oracle(self, index):
        # oracle: the classical a^k (a^(2k+1))^+ a^k with k from the rank sequence,
        # on T diag(C, N) T^-1 with C invertible and N nilpotent of the given index
        rng = np.random.default_rng(30 + index)
        for _ in range(5):
            n_core = int(rng.integers(1, 4))
            nil_sizes = [size for size in (index, int(rng.integers(0, index + 1))) if size]
            a, expected = core_nilpotent(rng, n_core, nil_sizes)
            k, oracle = power_formula_drazin(a)
            assert k == index
            assert fro_dist(oracle, expected) <= 1e-8
            res = drazin_inverse(a)
            assert drazin_index(a) == res.index == index
            assert fro_dist(res.inverse, oracle) <= 1e-8

    def test_jordan_construction_oracle(self):
        # oracle: assemble A = P J P^-1 from explicit Jordan blocks; the
        # Drazin inverse inverts the invertible blocks and zeroes the rest
        rng = np.random.default_rng(21)
        for _ in range(10):
            blocks, inv_blocks, nil_sizes = [], [], [0]
            for _ in range(int(rng.integers(2, 5))):
                lam = float(rng.choice([0.0, 1.0, 2.0, -1.0]))
                size = int(rng.integers(1, 3))
                jb = lam * np.eye(size) + np.diag(np.ones(size - 1), 1)
                blocks.append(jb)
                if lam != 0.0:
                    inv_blocks.append(np.linalg.inv(jb))
                else:
                    inv_blocks.append(np.zeros((size, size)))
                    nil_sizes.append(size)
            n = sum(b.shape[0] for b in blocks)
            j = np.zeros((n, n), dtype=complex)
            jd = np.zeros((n, n), dtype=complex)
            offset = 0
            for b, ib in zip(blocks, inv_blocks):
                s = b.shape[0]
                j[offset : offset + s, offset : offset + s] = b
                jd[offset : offset + s, offset : offset + s] = ib
                offset += s
            u, v = random_unitary(rng, n), random_unitary(rng, n)
            p = u @ np.diag(rng.uniform(0.5, 2.0, n)).astype(complex) @ v
            p_inv = np.linalg.inv(p)
            res = drazin_inverse(p @ j @ p_inv)
            assert fro_dist(res.inverse, p @ jd @ p_inv) <= 1e-6
            assert res.index == max(nil_sizes)


class TestDeflationAgainstPowerRoute:
    # the deflation must reach the index and inverse of the rank-of-powers route it replaced, and the
    # closed-form group certificate must match the second-deflation route it replaced
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", ["random_cptp", "random_ucptp", "reprepare", "index2_tp", "projector"])
    def test_channel_superoperators(self, family, d):
        rng = np.random.default_rng(100 * d)
        for seed in range(3):
            a = {
                "random_cptp": lambda: chn.random_cptp(d, d, 2, seed).super,
                "random_ucptp": lambda: chn.random_ucptp(d, 3, seed).super,
                "reprepare": lambda: reprepare_super(d, rng),
                "index2_tp": lambda: index2_tp_super(d, rng),
                "projector": lambda: chn.projector_channel((d - 1, 1) if seed else (1,) * d).super,
            }[family]()
            # each superoperator but index2_tp's is HP and takes the real route; its 1j multiple, exact and not HP,
            # keeps the complex route
            for m in (1j * a, a):
                k, oracle = power_route_core(m)
                res = drazin_inverse(m)
                assert drazin_index(m) == res.index == k
                if family in ("reprepare", "index2_tp", "projector"):
                    assert k == {"reprepare": 1, "index2_tp": 2, "projector": 1}[family]
                assert fro_dist(res.inverse, oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))
                if k <= 1:
                    assert_same_group_certificate(m)

    def test_small_singular_value_kept(self):
        # the power route squares 1e-6 under the cutoff and certifies index 2 with diag(1, 0, 0)
        a = np.diag([1.0, 1e-6, 0.0])
        res = drazin_inverse(a)
        assert drazin_index(a) == res.index == 1
        np.testing.assert_allclose(res.inverse, np.diag([1.0, 1e6, 0.0]), rtol=1e-12)

    @pytest.mark.parametrize("nil_sizes", [None, [2], [3, 1], [4, 2, 2]])
    def test_pure_nilpotent_without_exact_basis(self, nil_sizes):
        # a^k = 0, but the bases of range(a^j) are not stored exactly, so the blocks u^H a u hold
        # rounding noise of about eps * |a|; that noise must read as rank 0 under the cutoff of a
        if nil_sizes is None:
            a, index = np.array([[2.0, -4.0], [1.0, -2.0]]), 2  # range(a) = [2, 1] / sqrt(5)
        else:
            a, index = core_nilpotent(np.random.default_rng(len(nil_sizes)), 0, nil_sizes)[0], nil_sizes[0]
        res = drazin_inverse(a)
        assert drazin_index(a) == res.index == index
        assert np.all(res.inverse == 0)
        with pytest.raises(IndexTooLargeError):
            group_inverse(a)

    def test_shear_is_numerically_nilpotent(self):
        # against |a| = 1e300 the diagonal ones are rounding noise: a is within 1e-300 of an index-2
        # nilpotent, so the group inverse is refused by its index before any inverse is formed
        with pytest.raises(IndexTooLargeError) as exc:
            group_inverse(np.array([[1.0, 1e300], [0.0, 1.0]]))
        assert exc.value.index == 2

    def test_block_cutoff_uses_size_of_a(self):
        # rank(a) = 2, but the block u^H a u = diag(1, 5e-10) sits under 1e-10 * n with n = 10,
        # though not under 1e-10 * 2: the factor is the size of a, not of the block
        a = np.zeros((10, 10))
        a[0, 0], a[1, 1], a[1, 2] = 1.0, 5e-10, 1.0
        assert drazin_index(a) == power_route_core(a)[0] == 2

    @pytest.mark.parametrize(
        "fn, m, expected",
        [
            (drazin_inverse, np.diag([1e200, 0.0]), np.diag([1e-200, 0.0])),
            (group_inverse, np.diag([1e200, 0.0]), np.diag([1e-200, 0.0])),
            (drazin_inverse, np.array([[1e200, 1e200], [0.0, 0.0]]), np.array([[1e-200, 1e-200], [0.0, 0.0]])),
            (drazin_inverse, np.diag([1e200, 0.0, 0.0, 0.0]), np.diag([1e-200, 0.0, 0.0, 0.0])),
            (group_inverse, np.diag([1e200, 0.0, 0.0, 0.0]), np.diag([1e-200, 0.0, 0.0, 0.0])),
            (drazin_inverse, np.diag([1e200] + [0.0] * 8), np.diag([1e-200] + [0.0] * 8)),
            (group_inverse, np.diag([1e200] + [0.0] * 8), np.diag([1e-200] + [0.0] * 8)),
        ],
    )
    def test_huge_entries_without_powers(self, fn, m, expected):
        # a^2 overflows at this scale; the deflation never forms it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fn(m)
        assert res.index == 1
        np.testing.assert_allclose(res.inverse, expected, rtol=1e-14, atol=0.0)


@settings(derandomize=True, deadline=None)
@given(
    n_core=st.integers(0, 6),
    index=st.integers(0, 3),
    more_blocks=st.lists(st.integers(1, 3), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_deflation_recovers_core_nilpotent_structure(n_core, index, more_blocks, seed):
    # T diag(C, N) T^-1 with N nilpotent of the drawn index has Drazin inverse T diag(C^-1, 0) T^-1
    assume(n_core or index)
    nil_sizes = [index] + [min(size, index) for size in more_blocks] if index else []
    while n_core + sum(nil_sizes) > 12:
        nil_sizes.pop()
    a, expected = core_nilpotent(np.random.default_rng(seed), n_core, nil_sizes)
    res = drazin_inverse(a)
    assert drazin_index(a) == res.index == index
    assert fro_dist(res.inverse, expected) <= 1e-8 * np.linalg.norm(expected)


class TestGroupInverse:
    def test_idempotent_self_inverse(self):
        rep = group_inverse(np.diag([1.0, 0.0]))
        assert rep.index == 1
        np.testing.assert_allclose(rep.inverse, np.diag([1.0, 0.0]), atol=1e-14)

    def test_nilpotent_rejected(self):
        with pytest.raises(IndexTooLargeError) as exc:
            group_inverse(NILPOTENT)
        assert exc.value.index == 2
        assert type(exc.value.index) is int  # not a NumPy integer, whose repr reads np.int64(2)

    def test_invertible(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 3, 3)
        rep = group_inverse(a)
        assert rep.index == 0
        assert fro_dist(rep.inverse, np.linalg.inv(a)) <= 1e-10
        assert set(rep.residuals) == {"G1", "G2", "G3"}


class TestDoubleInverseClosedForm:
    @pytest.mark.parametrize(
        "a",
        [np.zeros((0, 0)), np.zeros((3, 3)), np.diag([1e200, 0.0])],
        ids=["empty", "zero", "huge"],
    )
    def test_edge_cases(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_group_certificate(a.astype(complex))

    @pytest.mark.parametrize("a", [np.diag([1.0, 2.0]), np.diag([1.0, 0.0])], ids=["index0", "index1"])
    @pytest.mark.parametrize("corruption", [1e-6, np.nan])
    def test_gate_refuses_a_wrong_double_inverse(self, monkeypatch, a, corruption):
        # the singular input takes the SVD route, where G1-G3 pass, so only the double-inverse gate can refuse
        # it. The invertible one takes the LU route, which forms no double inverse: its law is bounded from
        # E = GA - I, as G1 is. So there G itself is corrupted, after the route is chosen, and G1 refuses it
        lu = lu_route_inverse(a.astype(complex)) is not None
        assert lu == (a[1, 1] != 0)
        if lu:
            corrupt_lu_route(monkeypatch, lambda g: g + corruption)
            match = "group inverse failed its axiom gate"
        else:  # diag(1, 0) is its own group inverse, so the member's second solve, for (G^#)^#, is the one corrupted
            calls, core_inverse = [], ginv._core_inverse

            def corrupting_second_call(*args):
                calls.append(args)
                return core_inverse(*args) + corruption if len(calls) == 2 else core_inverse(*args)

            monkeypatch.setattr(ginv, "_core_inverse", corrupting_second_call)
            match = "group inverse double-inverse law violated: residual"
        with pytest.raises(AxiomResidualError, match=match):
            group_inverse(a)
        assert lu or len(calls) == 2

    def test_index_two_still_refused(self):
        a = index2_tp_super(3, np.random.default_rng(5))
        for route in (group_inverse, second_deflation_group_inverse):
            with pytest.raises(IndexTooLargeError) as exc:
                route(a)
            assert exc.value.index == 2

    def test_non_normal_input_near_the_cutoff_of_g(self):
        # sigma(a) = (1, 1, 0), but G = diag(1, [[2^16, 2^32], [0, 0]]) has sigma(G) ~ (2^32, 1, 0): the
        # ratio 2^-32 falls under G's cutoff 3e-10, so the second deflation reads G as rank 1 and its
        # own D1 gate fails; the closed form keeps a's rank decision and certifies the law
        a = np.array([[1.0, 0.0, 0.0], [0.0, 2.0**-16, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
        with pytest.raises(AxiomResidualError, match=r"drazin inverse failed its axiom gate: max residual 1\.000e\+00"):
            second_deflation_group_inverse(a)
        res = group_inverse(a)
        assert res.index == 1
        assert max(res.residuals.values()) <= 1e-8
        assert closed_form_gap(a) <= 1e-8
        expected = np.zeros((3, 3))
        expected[0, 0], expected[1, 1], expected[1, 2] = 1.0, 2.0**16, 2.0**32
        np.testing.assert_allclose(res.inverse, expected, rtol=1e-12, atol=0.0)
        # at 2^-15 the ratio 2^-30 clears G's cutoff, and the two routes agree again
        assert_same_group_certificate(np.array([[1.0, 0.0, 0.0], [0.0, 2.0**-15, 1.0], [0.0, 0.0, 0.0]], dtype=complex))


@settings(derandomize=True, deadline=None)
@given(n_core=st.integers(0, 8), n_zero=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_double_inverse_routes_agree_on_index_one(n_core, n_zero, seed):
    # T diag(C, 0) T^-1 has index <= 1; both routes certify it with the same report and residual
    assume(n_core + n_zero)
    a, expected = core_nilpotent(np.random.default_rng(seed), n_core, [1] * n_zero)
    res = assert_same_group_certificate(a)
    assert res.index == int(n_zero > 0)
    assert fro_dist(res.inverse, expected) <= 1e-8 * max(1.0, np.linalg.norm(expected))


class TestDaggerDrazin:
    def test_unitary(self):
        u = random_unitary(np.random.default_rng(10), 3)
        rep = dagger_drazin(u)
        assert fro_dist(rep.inverse, dagger(u)) <= ATOL
        assert rep.witness_k == 0

    def test_zero_any_shape(self):
        rep = dagger_drazin(np.zeros((3, 2)))
        np.testing.assert_allclose(rep.inverse, np.zeros((2, 3)), atol=1e-14)

    def test_hermitian_triple_agreement(self):
        # oracle: on Hermitian input all three inverses coincide, computed independently
        h = np.diag([2.0, 0.0]).astype(complex)
        dd = dagger_drazin(h).inverse
        assert fro_dist(dd, mp_inverse(h).inverse) <= ATOL
        assert fro_dist(dd, drazin_inverse(h).inverse) <= ATOL
        np.testing.assert_allclose(dd, np.diag([0.5, 0.0]), atol=1e-12)

    def test_random_hermitian_triple_agreement(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 8):
            m = random_complex(rng, n, n)
            h = m + dagger(m)
            dd = dagger_drazin(h).inverse
            assert fro_dist(dd, mp_inverse(h).inverse) <= ATOL
            assert fro_dist(dd, drazin_inverse(h).inverse) <= ATOL

    def test_nilpotent_partial_isometry(self):
        # oracle: direct axiom check certifies the adjoint as MP inverse here
        rep = dagger_drazin(NILPOTENT)
        np.testing.assert_allclose(rep.inverse, dagger(NILPOTENT), atol=1e-12)
        res, _ = verify_axioms("moore_penrose", NILPOTENT, dagger(NILPOTENT))
        assert max(res.values()) == 0.0

    def test_rectangular_matches_pinv_oracle(self):
        rng = np.random.default_rng(12)
        for rows, cols in [(3, 2), (2, 5), (6, 4)]:
            f = random_complex(rng, rows, cols)
            assert fro_dist(dagger_drazin(f).inverse, np.linalg.pinv(f)) <= ATOL

    def test_residual_labels(self):
        rep = dagger_drazin(random_complex(np.random.default_rng(13), 4, 3))
        assert set(rep.residuals) == {"Dd1", "Dd2", "Dd3", "Dd4"}
        assert max(rep.residuals.values()) <= ATOL

    def test_gram_factorization_identity(self):
        # (F^H F)^D equals the product of the dagger-Drazin inverses of F and F^H
        rng = np.random.default_rng(14)
        f = random_complex(rng, 4, 3)
        lhs = drazin_inverse(dagger(f) @ f).inverse
        rhs = dagger_drazin(f).inverse @ dagger_drazin(dagger(f)).inverse
        assert fro_dist(lhs, rhs) <= ATOL

    @pytest.mark.parametrize("cond, certified", [(1e3, True), (1e6, False)])
    def test_same_verdict_and_inverse_as_mp(self, cond, certified):
        rng = np.random.default_rng(18)
        u, v = random_unitary(rng, 6), random_unitary(rng, 6)
        f = u @ np.diag(np.geomspace(1.0, 1.0 / cond, 6)) @ v
        if certified:
            mp = mp_inverse(f).inverse
            assert fro_dist(dagger_drazin(f).inverse, mp) <= ATOL * np.linalg.norm(mp)
        else:
            for fn in (mp_inverse, dagger_drazin):
                with pytest.raises(AxiomResidualError):
                    fn(f)

    def test_scale_robust_without_gram_matrix(self):
        # F^H F overflows at this scale; one thin SVD of F does not, and Dd1 passes at k = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = dagger_drazin(np.array([[1e155]]))
        assert rep.witness_k == 0
        np.testing.assert_allclose(rep.inverse, [[1e-155]], rtol=1e-15)

    def test_adjoint_inverse_is_inverse_adjoint(self):
        rng = np.random.default_rng(15)
        f = random_complex(rng, 3, 5)
        assert fro_dist(dagger_drazin(dagger(f)).inverse, dagger(dagger_drazin(f).inverse)) <= ATOL


class TestVerifyAxioms:
    def test_mp_frozen_pair(self):
        res, k = verify_axioms("moore_penrose", np.diag([2.0, 0.0]), np.diag([0.5, 0.0]))
        assert k is None
        assert max(res.values()) == 0.0

    def test_drazin_identity_pair(self):
        res, k = verify_axioms("drazin", np.eye(2), np.eye(2))
        assert k == 0
        assert max(res.values()) == 0.0

    def test_mp_nilpotent_pair(self):
        # oracle: direct substitution into the four conditions
        res, _ = verify_axioms("moore_penrose", NILPOTENT, dagger(NILPOTENT))
        assert max(res.values()) == 0.0

    def test_nilpotent_witness_matches_index(self):
        res, k = verify_axioms("drazin", NILPOTENT, np.zeros((2, 2)))
        assert k == 2
        assert max(res.values()) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify_axioms("moore_penrose", np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("kind", ["drazin", "group"])
    def test_square_kinds_refuse_rectangular(self, kind):
        with pytest.raises(ValueError, match="need a square matrix"):
            verify_axioms(kind, np.zeros((2, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("kind, label", [("drazin", "D1"), ("dagger_drazin", "Dd1")])
    @pytest.mark.parametrize("a", [0.5 * np.eye(30), 0.01 * np.eye(6)], ids=["half_eye30", "hundredth_eye6"])
    def test_zero_is_not_the_inverse_of_a_small_invertible(self, kind, label, a):
        # G = 0 fails D1/Dd1 at the index, 0, although |G A^(k+1) - A^k| = |A^k| is tiny for some k > 0
        n = a.shape[0]
        res, k = verify_axioms(kind, a, np.zeros((n, n)))
        assert k == 0
        assert res[label] == np.sqrt(n)
        assert isinstance(ginv._report(kind, np.zeros((n, n)), res, DEFAULT_TOL, 0, None, None, None),
                          AxiomResidualError)

    @pytest.mark.parametrize("kind, label", [("drazin", "D1"), ("dagger_drazin", "Dd1")])
    def test_overflowed_exponent_reads_nan(self, kind, label):
        # f's SVD overflows, so no exponent is found: D1 or Dd1 is nan, which fails the gate, and nothing raises
        res, k = verify_axioms(kind, np.full((2, 2), 1e308), np.zeros((2, 2)))
        assert k is None and np.isnan(res[label])

    @pytest.mark.parametrize("f, k", [(np.eye(2), 0), (NILPOTENT, 1), (np.eye(2, 3), 1)],
                             ids=["square_full_rank", "square_singular", "rectangular"])
    def test_dagger_drazin_exponent_by_rank_and_shape(self, f, k):
        res, got = verify_axioms("dagger_drazin", f, dagger(f))  # each f is a partial isometry: F^+ = F^H
        assert got == k
        assert max(res.values()) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            verify_axioms("cholesky", np.eye(2), np.eye(2))

    def test_overflowed_residuals_reported_and_gated(self):
        # D2 and D3 overflow to nan; D1 used to read 0.0 and the report passed the gate
        a = np.diag([1e308, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            res, _ = verify_axioms("drazin", a, a)
        assert not np.isfinite(res["D1"])
        assert np.isnan(res["D2"]) and np.isnan(res["D3"])
        assert isinstance(ginv._report("drazin", a, res, DEFAULT_TOL, 0, None, None, None), AxiomResidualError)

    @pytest.mark.parametrize("residuals", [{"D1": np.nan, "D2": 0.0}, {"D1": 0.0, "D2": np.nan}])
    def test_gate_rejects_nan_anywhere(self, residuals):
        assert isinstance(ginv._report("drazin", np.eye(2), residuals, DEFAULT_TOL, 0, None, None, None),
                          AxiomResidualError)


class TestInternalOverflow:
    # finite, valid inputs whose norm, inverse or axiom residuals overflow; NumPy's SVD
    # can hang on non-finite input, so an overflowed matrix must be refused before its SVD
    big4 = np.diag([1e200, 0.0, 0.0, 0.0])
    shear = np.array([[1.0, 1e300], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "fn, m",
        [
            (dagger_drazin, big4),
            (drazin_inverse, shear),
            (group_inverse, np.diag([1e308, 0.0])),
            (dagger_drazin, np.diag([1e200, 0.0])),
            (drazin_inverse, 1e308 * np.ones((2, 2))),
            (mp_inverse, np.array([[1e200, 1e200], [0.0, 0.0]])),
            (drazin_inverse, 1e308 * np.ones((4, 4))),
            (group_inverse, 1e308 * np.ones((2, 2))),
            (drazin_inverse, 1e308 * np.ones((9, 9))),
            (group_inverse, 1e308 * np.ones((9, 9))),
            (group_inverse, 1e308 * np.ones((4, 4))),
        ],
    )
    def test_reported_as_axiom_residual_error(self, fn, m):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(AxiomResidualError):
            fn(m)

    @pytest.mark.parametrize("n", [2, 4, 9])
    @pytest.mark.parametrize("fn", [mp_inverse, drazin_inverse, group_inverse, dagger_drazin])
    def test_overflowed_norm_named(self, fn, n):
        # sigma_max of this finite matrix exceeds the float range; it must not read as rank 0
        with pytest.raises(AxiomResidualError, match="overflow"):
            fn(1e308 * np.ones((n, n)))


class TestNoWarningsEscape:
    # overflowed residuals and gram powers fail the gate without a NumPy RuntimeWarning
    @pytest.mark.parametrize(
        "fn, m",
        [(mp_inverse, np.diag([1.0, 2.0]) * 1e-300), (dagger_drazin, np.diag([1e200, 0.0]))],
    )
    def test_refused_without_warning(self, fn, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AxiomResidualError):
                fn(m)


SINGLE_CALLS = {
    "moore_penrose": mp_inverse,
    "drazin": drazin_inverse,
    "group": group_inverse,
    "dagger_drazin": dagger_drazin,
}
FAMILIES = ("invertible", "singular", "low_rank", "index2", "nilpotent", "zero", "huge", "rectangular",
            "low_rank_wide")


def hp_member(seed, variant):
    """An HP superoperator, which takes the real route: ``variant % 4`` picks a square one of full rank (4 x 4), a
    square singular one (4 x 4, index 1), a rectangular one of full rank (9 x 4) or a rectangular singular one."""
    rng = np.random.default_rng(seed)
    rectangular = chn.random_cptp(2, 3, 2, rng).super
    return [chn.random_cptp(2, 2, 2, rng).super, reprepare_super(2, rng), rectangular,
            rectangular @ chn.projector_channel((1, 1)).super][variant % 4]


def family_member(family, n, seed, rank=0):
    """An n x n (n x (n+1) if rectangular or wide) matrix of ``family``; huge ones overflow or certify at 1e200.

    A low-rank member has rank ``rank % n`` (``rank % (n + 1)`` if wide), so a stack of them can mix ranks.
    Families "hp" and "hp_times_1j", which only the explicit examples use, ignore n: :func:`hp_member` and its 1j
    multiple, which is exact and not HP but has the same singular values.
    """
    if family in ("hp", "hp_times_1j"):
        return (1j if family == "hp_times_1j" else 1) * hp_member(seed, rank)
    rng = np.random.default_rng(seed)
    if family == "invertible":
        return random_complex(rng, n, n)
    if family == "singular":
        return random_complex(rng, n, n - 1) @ random_complex(rng, n - 1, n)
    if family == "low_rank":
        return random_complex(rng, n, rank % n) @ random_complex(rng, rank % n, n)
    if family == "index2":
        return core_nilpotent(rng, n - 2, [2])[0]
    if family == "nilpotent":
        return np.eye(n, k=1)
    if family == "zero":
        return np.zeros((n, n))
    if family == "huge":
        huge = [np.diag([1e200] + [0.0] * (n - 1)), 1e308 * np.ones((n, n)), 1e200 * random_complex(rng, n, n)]
        return huge[seed % 3]
    if family == "low_rank_wide":
        return random_complex(rng, n, rank % (n + 1)) @ random_complex(rng, rank % (n + 1), n + 1)
    return random_complex(rng, n, n + 1)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(list(SINGLE_CALLS)),
    n=st.integers(2, 6),
    members=st.lists(
        st.tuples(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(-30, 30)),
        min_size=1, max_size=8,
    ),
)
# stacks of ranks 1 and 2: a product over both triplets, the second weighted 0, changes the rank-1 member's last bits
@example(kind="moore_penrose", n=3, members=[("low_rank", 0, 1, 0), ("low_rank", 0, 2, 0)])
@example(kind="dagger_drazin", n=3, members=[("low_rank_wide", 0, 1, -30), ("low_rank_wide", 0, 2, 30)])
# HP members of every shape and rank, each next to its 1j multiple: the first are judged in real coordinates, the
# second in complex ones, though they share a stack
@example(kind="moore_penrose", n=4, members=[(f, 7, v, 0) for v in range(4) for f in ("hp", "hp_times_1j")])
@example(kind="drazin", n=4, members=[(f, 8, v, 0) for v in range(4) for f in ("hp", "hp_times_1j")])
@example(kind="group", n=4, members=[(f, 9, v, 3) for v in range(4) for f in ("hp", "hp_times_1j")])
@example(kind="dagger_drazin", n=4, members=[(f, 10, v, -3) for v in range(4) for f in ("hp", "hp_times_1j")])
def test_certify_many_matches_single_calls(kind, n, members):
    # one stacked kernel per shape gives every member, bit for bit, what the single call gives it, whatever the
    # ranks, scales and refusals of its neighbours: the members share one size n, so a stack mixes ranks
    with np.errstate(over="ignore", invalid="ignore"):
        mats = [2.0**j * family_member(family, n, seed, rank) for family, seed, rank, j in members]
        batch = certify_many(kind, mats)
        assert len(batch) == len(mats)
        for m, got in zip(mats, batch):
            assert_single_call_result(kind, m, got)


def assert_single_call_result(kind, m, got):
    """``got`` is, bit for bit, what the single call of ``kind`` gives ``m``: its report or its refusal."""
    try:
        want = SINGLE_CALLS[kind](m)
    except (GinvError, ValueError) as exc:
        assert (type(got), str(got)) == (type(exc), str(exc))
        return
    assert isinstance(got, GinvReport)
    assert (got.kind, got.index, got.witness_k, got.forward_error_bound) == (
        want.kind, want.index, want.witness_k, want.forward_error_bound)
    assert list(got.residuals.items()) == list(want.residuals.items())
    assert np.array_equal(got.inverse, want.inverse)


@pytest.mark.parametrize("kind", list(SINGLE_CALLS))
def test_overflowed_member_factored_alone(kind):
    # sigma_max of the first member overflows, so the stacked SVD is refused and each member is factored alone
    mats = [np.full((2, 2), 1e308), np.diag([1.0, 0.0])]
    batch = certify_many(kind, mats)
    assert isinstance(batch[0], AxiomResidualError) and "largest singular value is inf" in str(batch[0])
    assert isinstance(batch[1], GinvReport)
    for m, got in zip(mats, batch):
        assert_single_call_result(kind, m, got)


@pytest.mark.parametrize("kind", ["moore_penrose", "group"])
def test_one_dense_evaluation_per_stack(monkeypatch, kind):
    # an LU-route member whose bounds fail the absolute gate, so that the dense residuals judge it, next to a
    # singular member of the SVD route: one evaluation of the dense residuals, on the stack of both
    big = 2.0**27 * random_complex(np.random.default_rng(3), 3, 3)
    mats = [big, np.diag([1.0, 0.5, 0.0])]
    g, lu, norms = ginv._lu_route(np.array(mats, dtype=complex), DEFAULT_TOL)
    assert lu.tolist() == [True, False]
    ((values, _, _),) = ginv._lu_values(kind, big[None].astype(complex), g[:1], norms[:1])
    assert not all(v <= ATOL for v in values.values())
    calls, residuals = [], ginv._residuals

    def counted(kind, f, g, tol):
        calls.append(len(f))
        return residuals(kind, f, g, tol)

    monkeypatch.setattr(ginv, "_residuals", counted)
    batch = certify_many(kind, mats)
    assert calls == [2]
    for m, got in zip(mats, batch):
        assert_single_call_result(kind, m, got)


def test_certify_many_keeps_order_across_shapes():
    mats = [np.eye(2), np.diag([1.0, 0.0, 0.0]), NILPOTENT, 2 * np.eye(3), np.ones((2, 3))]
    out = certify_many("group", mats)
    assert [type(r).__name__ for r in out] == [
        "GinvReport", "GinvReport", "IndexTooLargeError", "GinvReport", "ValueError"
    ]
    assert [r.index for r in out if isinstance(r, GinvReport)] == [0, 1, 0]
    assert out[2].index == 2 and type(out[2].index) is int
    np.testing.assert_allclose(out[3].inverse, np.eye(3) / 2)
    with pytest.raises(ValueError, match="unknown inverse kind"):
        certify_many("bogus", mats)


def counting_svd(calls):
    """``np.linalg.svd`` that appends one item to ``calls`` per call."""
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    return counted


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 8), j=st.integers(-30, 30), seed=st.integers(0, 2**32 - 1))
def test_lu_route_certifies_without_svd(n, j, seed):
    # T C T^-1 with C and T of singular values in [0.5, 2]: condition number at most 64, at scale 2^j
    a = 2.0**j * core_nilpotent(np.random.default_rng(seed), n, [])[0]
    g = lu_route_inverse(a)
    assert g is not None
    pinv = np.linalg.pinv(a)
    for kind, fn in SINGLE_CALLS.items():
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "svd", counting_svd(calls))
            try:
                res = fn(a)
            except AxiomResidualError as exc:
                res = exc
        assert calls == []
        if isinstance(res, AxiomResidualError):
            # the gate is absolute, so far from scale 1 it may refuse: it is the dense gate's refusal of the LU
            # inverse, and the SVD route refuses there too
            assert refusal_text(res) == refusal_text(dense_lu_certificate(kind, a, g))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ginv, "_lu_route", lambda a, tol: (None, np.zeros(len(a), dtype=bool), None))
                (svd_route,) = ginv._certify(kind, a[None].astype(complex), DEFAULT_TOL)
            assert isinstance(svd_route, AxiomResidualError)
            continue
        assert res.index == (0 if kind in ("drazin", "group") else None)
        assert res.witness_k == (0 if kind == "dagger_drazin" else None)
        assert fro_dist(res.inverse, pinv) <= 1e-10 * np.linalg.norm(pinv)


def test_lu_route_certifies_without_svd_at_n1_j27():
    # the property above at one input that breaks it, so that its other draws still run. It fails: the dense gate
    # refuses the LU inverse of the group kind (double-inverse residual |G^-1 - A| = 1.666e-8) where the SVD route
    # certifies its own G, which differs in the last bits (7.45e-9). Near 2^27 the ulp of A is above the absolute
    # 1e-8 gate, so the verdict rests on rounding; a gate relative to the input's scale would remove it
    test_lu_route_certifies_without_svd.hypothesis.inner_test(n=1, j=27, seed=0)


class TestLuRoute:
    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    @pytest.mark.parametrize(
        "small, tol", [(3e-10, DEFAULT_TOL), (1e-15, Tolerances(rank_rtol=1e-18))], ids=["default", "rtol_below_eps"]
    )
    def test_full_rank_by_svd_but_not_by_norm_test(self, monkeypatch, kind, small, tol):
        # a = diag(1, small) at n = 2. At the default rank_rtol the SVD counts 3e-10 above its cutoff 2e-10, but
        # |A| |G| n (rank_rtol + 4 eps) = 0.67 > 1/2. At rank_rtol = 1e-18 and cond 1e15, rank_rtol alone would give
        # 2e-3 <= 1/2 where G need not be accurate to a factor 2; the eps term gives 1.8 > 1/2. Either way the
        # member keeps the SVD route and its report from before the LU route
        a = np.diag([1.0, small])
        assert lu_route_inverse(a.astype(complex), tol) is None
        calls = []
        monkeypatch.setattr(np.linalg, "svd", counting_svd(calls))
        res = SINGLE_CALLS[kind](a, tol)
        assert calls
        assert res.index == (0 if kind in ("drazin", "group") else None)
        assert res.witness_k == (0 if kind == "dagger_drazin" else None)
        assert np.array_equal(res.inverse, np.diag([1.0, 1 / small]))
        assert set(res.residuals.values()) == {0.0}

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_mixed_stack_matches_single_calls(self, kind):
        # the zero and nilpotent members make the stacked LU raise; the members are then inverted one at a time
        rng = np.random.default_rng(31)
        mats = [random_complex(rng, 3, 3), np.zeros((3, 3)), np.eye(3, k=1), random_complex(rng, 3, 3)]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.array(mats))
        for m, got in zip(mats, certify_many(kind, mats)):
            try:
                want = SINGLE_CALLS[kind](m)
            except GinvError as exc:
                assert (type(got), str(got)) == (type(exc), str(exc))
                continue
            assert (got.index, got.witness_k, got.residuals) == (want.index, want.witness_k, want.residuals)
            assert np.array_equal(got.inverse, want.inverse)

    def test_lu_inverse_of_a_stack_with_singular_members(self):
        # each member gets its own call's inverse, nan where that call finds it exactly singular
        rng = np.random.default_rng(32)
        m = np.array([random_complex(rng, 3, 3), np.zeros((3, 3)), np.eye(3, k=1), random_complex(rng, 3, 3)])
        g = ginv._lu_inverse(m)
        for x, got in zip(m, g):
            try:
                want = np.linalg.inv(x)
            except np.linalg.LinAlgError:
                want = np.full_like(x, np.nan)
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("members, inv_calls", [
        ("gg", 1),  # no member raises: one stacked call
        ("gzng", 5),  # the zero and nilpotent members make it raise: then one call per member
        ("zn", 3),
        ("gzsg", 5),  # s is singular with no zero row or column
        ("gs", 3),
        ("s", 1),  # a stack of one holds only the member that raised: no call more
    ])
    def test_lu_inverse_is_one_stacked_call_or_one_call_per_member(self, monkeypatch, members, inv_calls):
        rng = np.random.default_rng(32)
        make = {"g": lambda: random_complex(rng, 3, 3), "z": lambda: np.zeros((3, 3)), "n": lambda: np.eye(3, k=1),
                "s": lambda: np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])}
        m = np.array([make[c]() for c in members], dtype=complex)
        calls = []
        inv = np.linalg.inv

        def counting(x):
            calls.append(x.shape)
            return inv(x)

        monkeypatch.setattr(np.linalg, "inv", counting)
        g = ginv._lu_inverse(m)
        assert calls == [m.shape] + [m.shape[1:]] * (inv_calls - 1)
        for x, got in zip(m, g):
            try:
                want = inv(x)
            except np.linalg.LinAlgError:
                want = np.full_like(x, np.nan)
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize(
        "kind, family",
        [("drazin", "invertible"), ("group", "invertible"), ("drazin", "singular"), ("moore_penrose", "rectangular")],
    )
    def test_each_report_owns_its_inverse(self, kind, family):
        # a view into the stack's array would keep all 32 inverses alive for one report
        out = certify_many(kind, [family_member(family, 16, seed) for seed in range(32)])
        assert all(isinstance(r, GinvReport) and r.inverse.base is None for r in out)


def dense_lu_certificate(kind, a, g, tol=DEFAULT_TOL):
    """The certificate the dense gate gives the LU inverse g of a: what every LU-route member got before E and E'.

    Built from public parts alone: the residuals of :func:`verify_axioms`, gated first, then for the group kind
    the double-inverse residual |g^-1 - a| with g^-1 from ``np.linalg.inv``. A refusal carries the library's
    message for that gate. For an HP a, g is the LU inverse of A_r (:func:`judged`): the residuals are those of
    (A_r, g) in real arithmetic and |g^-1 - A_r|, each with its rounding term of the change of coordinates, and the
    report carries g mapped back.
    """
    x, rounded = judged(a)
    terms = None
    if rounded is None:
        residuals, witness_k = verify_axioms(kind, a, g, tol)
    else:
        witness_k = None if kind == "moore_penrose" else 0
        terms = basis_terms(kind, a, g, witness_k)
        dense = _residuals(kind, x[None], g[None], [witness_k])
        residuals = plus_terms({label: float(r[0]) for label, r in dense.items()}, terms)
    worst = float(np.max(list(residuals.values())))  # unlike max(), keeps a nan
    if not worst <= tol.residual_atol:
        return AxiomResidualError(
            f"{kind} inverse failed its axiom gate: max residual {worst:.3e} > {tol.residual_atol:.3e} "
            f"(residuals: {residuals}); check tolerances or input conditioning"
        )
    if kind == "group":
        with np.errstate(all="ignore"):
            try:
                gap = np.linalg.norm(np.linalg.inv(g) - x) + (terms["double"] if terms else 0.0)
            except np.linalg.LinAlgError:
                gap = np.nan
        if not gap <= tol.residual_atol:
            return AxiomResidualError(f"group inverse double-inverse law violated: residual {gap:.3e}")
    return GinvReport(kind, returned(a, g), residuals, 0 if kind in ("drazin", "group") else None,
                      witness_k if kind == "dagger_drazin" else None)


def refusal_text(exc):
    """(type, message) of a refusal with its numbers masked: an independent norm may differ in the last place."""
    return type(exc), re.sub(r"nan|inf|\d+(\.\d+)?(e[-+]?\d+)?", "#", str(exc))


def fraction_inverse(rows):
    """The exact inverse of an integer matrix, by Gauss-Jordan elimination over fractions.Fraction; None if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


@settings(derandomize=True, deadline=None)
@given(
    st.one_of(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
        ),
        # M + P M P for an integer M at n = 4 (d = 2) is HP, and real, so its real route bounds |G - A^-1|, with G
        # mapped back from real coordinates
        st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4).map(
            lambda m: (np.array(m) + vec_swapped(np.array(m))).tolist()
        ),
    )
)
@example([[3]])  # fl(1/3) * 3 rounds to 1: E = 0, and only the rounding term bounds |G - 1/3|
@example([[2, 0, 0, 1], [0, 3, 1, 0], [0, 1, 3, 0], [1, 0, 0, 2]])  # HP, with a G_r that need not commute with P
def test_forward_error_bound_holds_against_the_exact_inverse(rows):
    exact = fraction_inverse(rows)
    assume(exact is not None)
    a = np.array(rows, dtype=float)
    for kind, fn in SINGLE_CALLS.items():
        rep = fn(a)
        assert rep.forward_error_bound is not None  # the LU route
        dist2 = sum(
            (Fraction(g.real) - x) ** 2 + Fraction(g.imag) ** 2
            for g_row, x_row in zip(rep.inverse, exact)
            for g, x in zip(g_row, x_row)
        )
        assert dist2 <= Fraction(rep.forward_error_bound) ** 2, kind


def vec_swapped(m):
    """P_out m P_in for an (d_out^2, d_in^2) matrix m, P the vec swap vec(X) -> vec(X^T), by index arithmetic."""
    d_out, d_in = (int(round(np.sqrt(x))) for x in m.shape)
    rows = [j * d_out + i for i in range(d_out) for j in range(d_out)]
    cols = [j * d_in + i for i in range(d_in) for j in range(d_in)]
    return m[np.ix_(rows, cols)]


@pytest.mark.parametrize("kind", list(SINGLE_CALLS))
def test_inverse_of_an_hp_input_is_hp(kind):
    # the map back makes every returned inverse of an HP superoperator HP entry for entry: P_in G P_out == conj(G)
    supers = [hp_member(seed, variant) for seed in range(3) for variant in range(4)]
    supers += [chn.random_ucptp(3, 3, 5).super, chn.projector_channel((2, 1)).super,
               reprepare_super(3, np.random.default_rng(6))]
    for s in supers:
        assert np.array_equal(vec_swapped(s), s.conj())
        if kind in ("drazin", "group") and s.shape[0] != s.shape[1]:
            continue
        g = SINGLE_CALLS[kind](s).inverse
        assert np.array_equal(vec_swapped(g), g.conj()), s.shape


class TestRealCoordinates:
    # A = U diag(1, 1, 2, c) U^H at d = 2, U = ((1 + i) I + (1 - i) P) / 2: complex, HP and dyadic, so A_r is the
    # diagonal exactly and every kernel residual in real coordinates is exactly 0. Each reported value is then the
    # rounding term of the change of coordinates alone: A moves by u |A| (Im A != 0) and G by u |G| (G_r does not
    # commute with P), u = eps / 2
    P = np.eye(4)[[0, 2, 1, 3]]
    U = ((1 + 1j) * np.eye(4) + (1 - 1j) * P) / 2

    def hp_dyadic(self, c):
        return self.U @ np.diag([1.0, 1.0, 2.0, c]) @ dagger(self.U)

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_lu_values_count_the_change_of_coordinates(self, kind):
        # E = GA - I = 0 exactly; the change of coordinates moves E and E' by u |A||G| + |A| u |G| = eps |A||G|
        a = self.hp_dyadic(1.0)
        assert np.array_equal(ginv._real_coordinates(a[None])[0], np.diag([1.0, 1.0, 2.0, 1.0]))
        rep = SINGLE_CALLS[kind](a)
        na, ng = np.sqrt(7.0), np.sqrt(3.25)
        moved = _EPS * na * ng
        m = moved + 4 * (4 + 2) * _EPS * na * ng
        want = {"moore_penrose": {"MP1": na * m, "MP2": ng * m, "MP3": 2 * moved, "MP4": 2 * moved},
                "drazin": {"D1": moved, "D2": ng * m, "D3": 2 * moved},
                "group": {"G1": na * m, "G2": ng * m, "G3": 2 * moved},
                "dagger_drazin": {"Dd1": moved, "Dd2": ng * m, "Dd3": 2 * moved, "Dd4": 2 * moved}}[kind]
        assert rep.residuals == pytest.approx(want, rel=1e-12, abs=0.0)
        assert rep.forward_error_bound == pytest.approx(ng * m / (1 - m), rel=1e-12, abs=0.0)
        assert np.array_equal(rep.inverse @ a, np.eye(4))  # G is the exact inverse

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_dense_values_count_the_change_of_coordinates(self, kind):
        # singular, so the SVD route; index 1, so D1 and Dd1 at k = 1: |G A^2 - A| has two factors A and one G
        # against one A, |G F P - P| three F and one G against two
        a = self.hp_dyadic(0.0)
        rep = SINGLE_CALLS[kind](a)
        na, ng, u = np.sqrt(6.0), 1.5, _EPS / 2
        outer, inner, pair = u * (3 * na**2 * ng + na), u * (3 * na * ng**2 + ng), 4 * u * na * ng
        want = {"moore_penrose": {"MP1": outer, "MP2": inner, "MP3": pair, "MP4": pair},
                "drazin": {"D1": outer, "D2": inner, "D3": pair},
                "group": {"G1": outer, "G2": inner, "G3": pair},
                "dagger_drazin": {"Dd1": u * (4 * na**3 * ng + 2 * na**2), "Dd2": inner, "Dd3": pair,
                                  "Dd4": pair}}[kind]
        assert rep.residuals == pytest.approx(want, rel=1e-12, abs=0.0)
        assert (rep.index, rep.witness_k, rep.forward_error_bound) == (
            (1, None, None) if kind in ("drazin", "group") else (None, 1 if kind == "dagger_drazin" else None, None))

    @pytest.mark.parametrize("small, index", [(4.5e-10, 1), (3.5e-10, 2)])
    def test_rank_decision_near_the_cutoff(self, small, index):
        # A_r = diag(1, [[0, 1], [0, small]], 1): A^2 keeps rank 3 while small clears the cutoff rank_rtol * n *
        # sigma_max = 4e-10, so the index is 1 above it and 2 below. A_r has A's singular values, so the real route
        # makes the complex route's decision (its 1j multiple's): at index 2 the group inverse is refused for its
        # index, at index 1 its certificate fails the absolute gate (|G| is about small^-2)
        b = np.eye(4)
        b[1, 1], b[1, 2], b[2, 2] = 0.0, 1.0, small
        a = (b + self.P @ b @ self.P) / 2 + 1j * (b @ self.P - self.P @ b) / 2  # U b U^H, HP entry for entry
        assert ginv._hermiticity_preserving(a[None]) == [0]
        assert np.array_equal(ginv._real_coordinates(a[None])[0], b)
        for m in (a, 1j * a):
            assert drazin_index(m) == index
            error = IndexTooLargeError if index == 2 else AxiomResidualError
            with pytest.raises(error):
                group_inverse(m)

    def test_exact_change_of_coordinates_adds_nothing(self):
        # a real P-symmetric input is its own A_r, and a diagonal one has a G_r that commutes with P: neither
        # change of coordinates rounds, so the values are the kernels' own
        rep = drazin_inverse(np.diag([1e200, 0.0, 0.0, 0.0]))
        assert rep.residuals == {"D1": 0.0, "D2": 0.0, "D3": 0.0}

    # a complex HP channel that is not diagonal: forming A_r and mapping G_r back both round. Scaled by 2^j its sums of
    # squares overflow (j = 600, 1020) or underflow (j = -565); at 2^1020 its Frobenius norm exceeds DBL_MAX
    S = chn.random_cptp(2, 2, 2, 1).super
    SCALES = [-565, -20, 0, 22, 600, 1020]

    def scaled(self, j):
        top = math.frexp(np.abs(self.S).max())[1]  # so that the largest entry stays finite at j = 1020
        return np.ldexp(self.S.real, j - top) + 1j * np.ldexp(self.S.imag, j - top)

    def test_norms_of_the_rounding_terms_do_not_overflow(self):
        # |A| = a 2^s and |G| = g 2^-s with a and g floats, at every scale; at unit scale s = 0 and they are _norm's
        a = ginv._real_coordinates(self.S[None])
        g = np.linalg.inv(a)
        top = math.frexp(np.abs(self.S).max())[1]
        for j in self.SCALES:
            (sizes,), (s,) = ginv._sizes(np.ldexp(a, j - top), np.ldexp(g, top - j))
            assert math.ldexp(sizes[0], s) == pytest.approx(math.ldexp(np.linalg.norm(a), j - top), rel=1e-14)
            assert math.ldexp(sizes[1], -s) == pytest.approx(math.ldexp(np.linalg.norm(g), top - j), rel=1e-14)
        assert ginv._sizes(a, g) == ([[float(ginv._norm(a[0])), float(ginv._norm(g[0]))]], [0])

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_rounding_terms_scale_with_their_residuals(self, kind):
        # A -> tA, G -> G/t multiplies a residual of degree p in A, and its rounding term, by t^p: the terms at 2^j
        # are those at unit scale times 2^(p j), neither 0 by underflow nor inf by overflow where that is a float
        g = np.linalg.inv(ginv._real_coordinates(self.S[None])[0])
        unit = basis_terms(kind, self.S, g, 0)
        degree = {"MP1": 1, "G1": 1, "double": 1, "MP2": -1, "D2": -1, "G2": -1, "Dd2": -1}
        for j in self.SCALES:
            top = math.frexp(np.abs(self.S).max())[1]
            terms = basis_terms(kind, self.scaled(j), np.ldexp(g, top - j), 0)
            for label, term in terms.items():
                want = unit[label] * 2.0 ** (degree.get(label, 0) * (j - top))
                assert term == pytest.approx(want, rel=1e-13), (j, label)

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_extreme_scales_keep_the_complex_verdict(self, kind):
        # the real route accepts and refuses what the complex route, on the 1j multiple, does: far from unit scale
        # the axioms of degree 0 (D1, D3, Dd1, Dd3, Dd4 at k = 0) pass while MP1/G1 or MP2/D2/G2/Dd2 overflow the gate
        for a in [self.scaled(-565), 1e200 * self.S, self.scaled(1020)]:
            real, complex_ = (certify_many(kind, [m])[0] for m in (a, 1j * a))
            assert isinstance(real, GinvReport) == isinstance(complex_, GinvReport)
            if isinstance(real, GinvReport):
                assert (real.index, real.witness_k) == (complex_.index, complex_.witness_k)
            else:
                assert type(real) is type(complex_)
        assert isinstance(certify_many(kind, [1e200 * self.S])[0], GinvReport) == (kind in ("drazin", "dagger_drazin"))

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_overflowing_real_coordinates_keep_the_complex_path(self, kind):
        # Re A + Im(A) P_in overflows where sigma_max(A) > DBL_MAX: such a member is judged as it is, and refused
        # with the complex path's message, that of its 1j multiple
        a = np.eye(4, dtype=complex)
        a[1, 1] = a[2, 2] = 1e308
        a[1, 2], a[2, 1] = 1e308j, -1e308j
        assert ginv._hermiticity_preserving(a[None]) == [0]
        with np.errstate(over="ignore"):
            assert not np.isfinite(ginv._real_coordinates(a[None])).all()
        got, want = certify_many(kind, [a, 1j * a])
        assert isinstance(got, AxiomResidualError)
        assert str(got) == str(want) == "computation overflowed: largest singular value is inf"


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 8), j=st.integers(-30, 30), seed=st.integers(0, 2**32 - 1))
def test_lu_certificate_keeps_the_dense_verdict(n, j, seed):
    # the bounds scale with |A| or |G| against an absolute gate, so far from unit scale they fail where the dense
    # residuals may pass: those members reach the dense fallback. Either way the verdict is the dense gate's, and
    # each reported value is at least the dense one, whose rounding the bounds count
    a = 2.0**j * core_nilpotent(np.random.default_rng(seed), n, [])[0]
    g = lu_route_inverse(a)
    assert g is not None
    for kind in SINGLE_CALLS:
        want = dense_lu_certificate(kind, a, g)
        (got,) = ginv._certify(kind, a[None], DEFAULT_TOL)
        if isinstance(want, GinvError):
            assert refusal_text(got) == refusal_text(want)
            continue
        assert isinstance(got, GinvReport)
        assert np.array_equal(got.inverse, g)
        assert (got.index, got.witness_k) == (want.index, want.witness_k)
        assert got.forward_error_bound is not None
        assert_at_least_dense(got.residuals, want.residuals)


class TestLuCertificate:
    # a random_cptp superoperator at d = 3; at 2^-14 its bounds |G| m fail the absolute gate while the dense
    # residuals pass. It is HP, so it takes the real route; its 1j multiple, exact and not HP, has the same singular
    # values and keeps the complex route. Every test asserts the same on both
    A = chn.random_cptp(3, 3, 2, 41).super
    ROUTES = {"complex": 1j * A, "real": A}

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_two_products_at_unit_scale(self, kind):
        for route, a in self.ROUTES.items():
            lu, g, values, forward, double = lu_values(kind, a)
            assert lu and all(v <= ATOL for v in values.values()), route
            assert (double is not None) == (kind == "group") and (double or 0.0) <= ATOL
            rep = SINGLE_CALLS[kind](a)
            assert rep.residuals == values, route
            assert rep.forward_error_bound == forward, route
            assert np.array_equal(rep.inverse, returned(a, g)), route
            assert fro_dist(rep.inverse, np.linalg.inv(a)) <= rep.forward_error_bound, route

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_fallback_keeps_the_dense_certificate(self, kind):
        for route, a in self.ROUTES.items():
            a = 2.0**-14 * a
            lu, g, values, forward, _ = lu_values(kind, a)
            assert lu and not all(v <= ATOL for v in values.values()), route
            want = dense_lu_certificate(kind, a, g)
            rep = SINGLE_CALLS[kind](a)
            assert (rep.index, rep.witness_k, rep.residuals) == (want.index, want.witness_k, want.residuals), route
            assert np.array_equal(rep.inverse, want.inverse), route
            assert rep.forward_error_bound == forward, route

    @staticmethod
    def corrupted(a, size, seed):
        """The judge's inverse of a off by ``size`` relative, in a random direction: complex on the complex route,
        real on the real one; and the inverse returned for it."""
        x, rounded = judged(a)
        r = random_complex(np.random.default_rng(seed), *x.shape)
        r = r if rounded is None else r.real
        g = np.linalg.inv(x)
        bad = g + size * np.linalg.norm(g) * r / np.linalg.norm(r)
        return x, bad, returned(a, bad)

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_gate_refuses_a_corrupted_inverse(self, monkeypatch, kind):
        # G off by 1e-6 relative, in a random direction, after the route is chosen: the values from E and E' refuse
        # it, and so would the dense residuals of the returned pair
        for route, a in self.ROUTES.items():
            x, bad, shown = self.corrupted(a, 1e-6, 42)
            norms = np.array([[np.linalg.norm(x), np.linalg.norm(bad)]])
            ((values, _, _),) = ginv._lu_values(kind, x[None], bad[None], norms)
            assert not all(v <= ATOL for v in values.values()), route
            assert max(verify_axioms(kind, a, shown)[0].values()) > ATOL, route
            with monkeypatch.context() as patch:
                corrupt_lu_route(patch, lambda g: bad[None])
                with pytest.raises(AxiomResidualError, match=f"{kind} inverse failed its axiom gate"):
                    SINGLE_CALLS[kind](a)

    def test_fallback_keeps_the_axiom_refusal_over_the_double_inverse_law(self, monkeypatch):
        # at 2^-14 the bounds fail, so G reaches the dense fallback; corrupted after the route is chosen, it fails
        # G1 and the double-inverse law alike, and the axiom gate is the one that speaks
        for route, a in self.ROUTES.items():
            a = 2.0**-14 * a
            _, lu, _ = ginv._lu_route(judged(a)[0][None], DEFAULT_TOL)
            _, bad, shown = self.corrupted(a, 1e-2, 43)
            assert lu[0] and verify_axioms("group", a, shown)[0]["G1"] > ATOL, route
            assert np.linalg.norm(np.linalg.inv(shown) - a) > ATOL, route
            with monkeypatch.context() as patch:
                corrupt_lu_route(patch, lambda g: bad[None])
                with pytest.raises(AxiomResidualError, match="group inverse failed its axiom gate"):
                    group_inverse(a)

    def test_group_at_index_zero_makes_one_lu(self, monkeypatch):
        calls = []
        inv = np.linalg.inv

        def counted(m):
            calls.append(m.shape)
            return inv(m)

        monkeypatch.setattr(np.linalg, "inv", counted)
        for route, a in self.ROUTES.items():
            calls.clear()
            rep = group_inverse(a)
            assert rep.index == 0 and calls == [(1, 9, 9)], route

    @pytest.mark.parametrize("route", ["svd", "lu_fallback"])
    def test_group_at_index_zero_inverts_the_returned_inverse(self, monkeypatch, route):
        # the double-inverse law |G^-1 - A| at index 0 comes from one LU of the G that is returned, on either route
        # where the bounds from E and E' do not settle it; in real coordinates, of the G_r that is mapped back
        inputs = [np.diag([1.0, 3e-10]).astype(complex)] if route == "svd" else \
            [2.0**-14 * a for a in self.ROUTES.values()]
        expected = [lu_values("group", a) for a in inputs]
        calls = []
        lu_inverse = ginv._lu_inverse

        def recording(m):
            calls.append(m.copy())
            return lu_inverse(m)

        monkeypatch.setattr(ginv, "_lu_inverse", recording)
        for a, (lu, g, _, forward, _) in zip(inputs, expected):
            assert lu == (route == "lu_fallback")
            calls.clear()
            rep = group_inverse(a)
            assert len(calls) == 2 and calls[0].tobytes() == judged(a)[0][None].tobytes()
            assert np.array_equal(rep.inverse, returned(a, calls[1][0]))
            if route == "svd":
                assert (rep.index, rep.forward_error_bound) == (0, None)
                assert rep.residuals == {"G2": 0.0, "G3": 0.0, "G1": 0.0}
                assert np.array_equal(rep.inverse, np.diag([1.0, 1 / 3e-10]))
            else:
                want = dense_lu_certificate("group", a, g)
                assert (rep.index, rep.residuals) == (want.index, want.residuals)
                assert np.array_equal(rep.inverse, want.inverse)
                assert rep.forward_error_bound == forward

    def test_every_value_is_a_python_float(self):
        # on the LU bounds (A), the LU fallback (2^-14 A) and the SVD route (a singular and an ill-conditioned member)
        mats = [*self.ROUTES.values(), *(2.0**-14 * a for a in self.ROUTES.values()), np.diag([1.0] * 8 + [0.0]),
                np.diag([1.0, 3e-10])]
        bound_types = [float, float, float, float, type(None), type(None)]
        for kind, fn in SINGLE_CALLS.items():
            for reps in ([fn(m) for m in mats], certify_many(kind, mats)):
                for rep, bound_type in zip(reps, bound_types):
                    assert {type(v) for v in rep.residuals.values()} == {float}, (kind, rep.residuals)
                    assert type(rep.forward_error_bound) is bound_type

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_svd_route_has_no_forward_error_bound(self, kind):
        assert SINGLE_CALLS[kind](np.diag([1.0, 0.0])).forward_error_bound is None


def refusing(original, target):
    """``_core_inverse`` that finds the r x r block of ``target`` singular: a member's own, or, for its group
    inverse, the one that forms (G^#)^#.

    For that call v is zeroed, so v^H x u = 0 and the solve fails as it would on a wrong index; every other
    call is passed through unchanged.
    """
    def patched(x, u, v):
        if x.shape == target.shape and np.allclose(x, target):
            v = np.zeros_like(v)
        return original(x, u, v)

    return patched


class TestOneRefusedMember:
    """A refusal of one singular member of a stack, after its index is found, ends only that member."""

    rng = np.random.default_rng(21)
    # invertible, two of index 1 (the second is refused), index 2, zero
    MATS = [
        random_complex(rng, 3, 3),
        core_nilpotent(rng, 2, [1])[0],
        core_nilpotent(rng, 2, [1])[0],
        core_nilpotent(rng, 1, [2])[0],
        np.zeros((3, 3)),
    ]
    TARGET = 2

    def assert_only_target_refused(self, kind, refused, message="Drazin core block is singular"):
        target = self.MATS[self.TARGET]
        with pytest.raises(AxiomResidualError) as single:
            SINGLE_CALLS[kind](target)
        assert str(single.value).startswith(message)
        for i, (got, want) in enumerate(zip(refused, self.reference[kind])):
            if i == self.TARGET:
                assert (type(got), str(got)) == (AxiomResidualError, str(single.value))
            elif isinstance(want, GinvReport):
                assert (got.index, got.residuals) == (want.index, want.residuals)
                assert np.array_equal(got.inverse, want.inverse)
            else:
                assert (type(got), str(got)) == (type(want), str(want))

    @pytest.fixture(autouse=True)
    def unpatched(self):
        self.reference = {kind: certify_many(kind, self.MATS) for kind in ("drazin", "group")}
        assert all(isinstance(r, GinvReport) for r in self.reference["drazin"])
        assert [type(r).__name__ for r in self.reference["group"]] == [
            "GinvReport", "GinvReport", "GinvReport", "IndexTooLargeError", "GinvReport"
        ]

    @pytest.mark.parametrize("kind", ["drazin", "group"])
    def test_refused_core_block(self, monkeypatch, kind):
        monkeypatch.setattr(ginv, "_core_inverse", refusing(ginv._core_inverse, self.MATS[self.TARGET]))
        self.assert_only_target_refused(kind, certify_many(kind, self.MATS))

    def test_refused_double_inverse(self, monkeypatch):
        target_inverse = self.reference["group"][self.TARGET].inverse
        monkeypatch.setattr(ginv, "_core_inverse", refusing(ginv._core_inverse, target_inverse))
        self.assert_only_target_refused("group", certify_many("group", self.MATS))

    def test_axiom_refusal_outranks_a_refused_double_inverse(self, monkeypatch):
        # the target's inverse is corrupted, so G1 fails, and the solve for its (G^#)^# is refused: the member
        # keeps the axiom gate's message
        target = self.MATS[self.TARGET]
        core_inverse = ginv._core_inverse

        def corrupting(x, u, v):
            inv = core_inverse(x, u, v)
            return inv + 1e-3 if x.shape == target.shape and np.allclose(x, target) else inv

        bad = self.reference["group"][self.TARGET].inverse + 1e-3
        monkeypatch.setattr(ginv, "_core_inverse", refusing(corrupting, bad))
        refused = certify_many("group", self.MATS)
        self.assert_only_target_refused("group", refused, "group inverse failed its axiom gate")


class TestDegenerateConventions:
    def test_empty_matrix_every_kind(self):
        e = np.zeros((0, 0))
        assert drazin_inverse(e).inverse.shape == (0, 0)
        assert group_inverse(e).inverse.shape == (0, 0)
        assert dagger_drazin(e).inverse.shape == (0, 0)

    def test_zero_matrix_every_kind(self):
        z = np.zeros((3, 3))
        assert fro_dist(drazin_inverse(z).inverse, z) == 0.0
        assert fro_dist(group_inverse(z).inverse, z) == 0.0
        assert fro_dist(dagger_drazin(z).inverse, z) == 0.0
        assert fro_dist(mp_inverse(z).inverse, z) == 0.0

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            Tolerances(residual_atol=-1.0)
