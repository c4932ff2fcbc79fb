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
    _double_inverse,
    _enforce,
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


def assert_at_least_dense(residuals, dense):
    """Each LU-route value is at least the dense residual's computed value: the bounds count its rounding too."""
    assert residuals.keys() == dense.keys()
    for label, value in residuals.items():
        assert value >= dense[label], (label, value, dense[label])


def second_deflation_group_inverse(a, tol=DEFAULT_TOL):
    """(report, gap): the group certificate by the route the closed form replaced.

    G and G1-G3 as :func:`group_inverse` forms them; the double-inverse residual
    from a second certified Drazin inverse, of G, which decides G's rank anew.
    """
    k, inv = 0, lu_route_inverse(a, tol)
    if inv is None:
        k, u, v, s = _core(a, tol)
        if k > 1:
            raise IndexTooLargeError(k)
        inv = _core_inverse(a, u, v, s)
    residuals, _ = _residuals("group", a, inv, tol)
    _enforce("group", residuals, tol)
    report = GinvReport(kind="group", inverse=inv, residuals=residuals, index=k)
    return report, fro_dist(drazin_inverse(inv, tol).inverse, a)


def closed_form_gap(a, tol=DEFAULT_TOL):
    """The double-inverse residual |(G^#)^# - a| as :func:`group_inverse` computes it."""
    g = lu_route_inverse(a, tol)
    if g is not None:
        return fro_dist(_double_inverse(g[None], None, None, None)[0], a)
    _, u, v, s = _core(a, tol)
    return fro_dist(_double_inverse(_core_inverse(a, u, v, s), u, v, s), a)


def assert_same_group_certificate(a):
    """The closed-form (G^#)^# agrees with the second deflation it replaced, where that one certifies."""
    old, old_gap = second_deflation_group_inverse(a)
    new = group_inverse(a)
    assert new.index == old.index
    assert np.array_equal(new.inverse, old.inverse)
    if lu_route_inverse(a) is None:
        assert new.residuals == old.residuals
    else:  # values from E = GA - I and E' = AG - I, bounds among them
        assert_at_least_dense(new.residuals, old.residuals)
    assert abs(closed_form_gap(a) - old_gap) <= 1e-12
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
            k, oracle = power_route_core(a)
            res = drazin_inverse(a)
            assert drazin_index(a) == res.index == k
            if family in ("reprepare", "index2_tp", "projector"):
                assert k == {"reprepare": 1, "index2_tp": 2, "projector": 1}[family]
            assert fro_dist(res.inverse, oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))
            if k <= 1:
                assert_same_group_certificate(a)

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
            by_lu = ginv._by_lu
            monkeypatch.setattr(ginv, "_by_lu", lambda kind, a, g, *rest: by_lu(kind, a, g + corruption, *rest))
            match = "group inverse failed its axiom gate"
        else:
            closed_form = ginv._double_inverse
            monkeypatch.setattr(ginv, "_double_inverse", lambda *args: closed_form(*args) + corruption)
            match = "group inverse double-inverse law violated: residual"
        with pytest.raises(AxiomResidualError, match=match):
            group_inverse(a)

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
        with pytest.raises(AxiomResidualError):
            _enforce("drazin", res, DEFAULT_TOL)

    @pytest.mark.parametrize("residuals", [{"D1": np.nan, "D2": 0.0}, {"D1": 0.0, "D2": np.nan}])
    def test_gate_rejects_nan_anywhere(self, residuals):
        with pytest.raises(AxiomResidualError):
            _enforce("drazin", residuals, DEFAULT_TOL)


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
FAMILIES = ("invertible", "singular", "index2", "nilpotent", "zero", "huge", "rectangular")


def family_member(family, n, seed):
    """An n x n (n x (n+1) if rectangular) matrix of ``family``; huge ones overflow or certify at 1e200."""
    rng = np.random.default_rng(seed)
    if family == "invertible":
        return random_complex(rng, n, n)
    if family == "singular":
        return random_complex(rng, n, n - 1) @ random_complex(rng, n - 1, n)
    if family == "index2":
        return core_nilpotent(rng, n - 2, [2])[0]
    if family == "nilpotent":
        return np.eye(n, k=1)
    if family == "zero":
        return np.zeros((n, n))
    if family == "huge":
        huge = [np.diag([1e200] + [0.0] * (n - 1)), 1e308 * np.ones((n, n)), 1e200 * random_complex(rng, n, n)]
        return huge[seed % 3]
    return random_complex(rng, n, n + 1)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    kind=st.sampled_from(list(SINGLE_CALLS)),
    members=st.lists(
        st.tuples(st.sampled_from(FAMILIES), st.integers(2, 4), st.integers(0, 2**32 - 1)), min_size=1, max_size=8
    ),
)
def test_certify_many_matches_single_calls(kind, members):
    # one stacked kernel per shape gives every member what the single call gives it, whatever its neighbours
    mats = [family_member(*m) for m in members]
    with np.errstate(over="ignore", invalid="ignore"):
        batch = certify_many(kind, mats)
        assert len(batch) == len(mats)
        for m, got in zip(mats, batch):
            try:
                want = SINGLE_CALLS[kind](m)
            except (GinvError, ValueError) as exc:
                assert (type(got), str(got)) == (type(exc), str(exc))
                continue
            assert isinstance(got, GinvReport)
            assert (got.kind, got.index, got.witness_k) == (want.kind, want.index, want.witness_k)
            assert got.residuals.keys() == want.residuals.keys()
            assert fro_dist(got.inverse, want.inverse) <= 1e-14 * np.linalg.norm(want.inverse)


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
    assert lu_route_inverse(a) is not None
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
            # the gate is absolute, so far from scale 1 it may refuse; the SVD route refuses there too
            assert isinstance(ginv._by_svd(kind, a[None].astype(complex), DEFAULT_TOL)[0], AxiomResidualError)
            continue
        assert res.index == (0 if kind in ("drazin", "group") else None)
        assert res.witness_k == (0 if kind == "dagger_drazin" else None)
        assert fro_dist(res.inverse, pinv) <= 1e-10 * np.linalg.norm(pinv)


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
        ("gzng", 2),  # the zero-row members are left out of one retried stack
        ("zn", 2),  # which is empty here
        ("gzsg", 5),  # s is singular with no zero row, so the retried stack raises too: one call per member left
        ("gs", 3),  # nothing to leave out: no retried stack
        ("s", 1),  # a stack of one holds only the member that raised
    ])
    def test_lu_inverse_retries_the_members_without_a_zero_line(self, monkeypatch, members, inv_calls):
        # a member with an all-zero row or column stays nan without a call of its own; the others keep their own
        # call's inverse
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
        assert len(calls) == inv_calls
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


def dense_lu_certificate(kind, a, g):
    """The certificate the dense gate gives the LU inverse g of a: what every LU-route member got before E and E'."""
    out = ginv._reports(kind, a[None], g[None], {} if kind in ("drazin", "group") else None, {}, DEFAULT_TOL)
    if kind == "group":
        ginv._gate_double_inverse(out, a[None], ginv._double_inverse(g[None], None, None, None), DEFAULT_TOL)
    return out[0]


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
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
@example([[3]])  # fl(1/3) * 3 rounds to 1: E = 0, and only the rounding term bounds |G - 1/3|
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
            assert (type(got), str(got)) == (type(want), str(want))
            continue
        assert isinstance(got, GinvReport)
        assert np.array_equal(got.inverse, g)
        assert (got.index, got.witness_k) == (want.index, want.witness_k)
        assert got.forward_error_bound is not None
        assert_at_least_dense(got.residuals, want.residuals)


class TestLuCertificate:
    # a random_cptp superoperator at d = 3; at 2^-14 its bounds |G| m fail the absolute gate while the dense
    # residuals pass
    A = chn.random_cptp(3, 3, 2, 41).super

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_two_products_at_unit_scale(self, kind):
        g, lu, norms = ginv._lu_route(self.A[None], DEFAULT_TOL)
        ((values, forward),) = ginv._lu_values(kind, self.A[None], g, norms)
        assert all(v <= ATOL for v in values.values())
        rep = SINGLE_CALLS[kind](self.A)
        assert rep.residuals == {label: values[label] for label in ginv.KIND_AXIOMS[kind]}
        assert rep.forward_error_bound == forward
        assert fro_dist(rep.inverse, np.linalg.inv(self.A)) <= rep.forward_error_bound

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_fallback_keeps_the_dense_certificate(self, kind):
        a = 2.0**-14 * self.A
        g, lu, norms = ginv._lu_route(a[None], DEFAULT_TOL)
        ((values, forward),) = ginv._lu_values(kind, a[None], g, norms)
        assert lu[0] and not all(v <= ATOL for v in values.values())
        want = dense_lu_certificate(kind, a, g[0])
        rep = SINGLE_CALLS[kind](a)
        assert (rep.index, rep.witness_k, rep.residuals) == (want.index, want.witness_k, want.residuals)
        assert np.array_equal(rep.inverse, want.inverse)
        assert rep.forward_error_bound == forward

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_gate_refuses_a_corrupted_inverse(self, monkeypatch, kind):
        # G off by 1e-6 relative, in a random direction, after the route is chosen: the values from E and E' refuse
        # it, and so would the dense residuals
        r = random_complex(np.random.default_rng(42), 9, 9)
        g = np.linalg.inv(self.A)
        bad = g + 1e-6 * np.linalg.norm(g) * r / np.linalg.norm(r)
        norms = np.array([[np.linalg.norm(self.A), np.linalg.norm(bad)]])
        ((values, _),) = ginv._lu_values(kind, self.A[None], bad[None], norms)
        assert not all(v <= ATOL for v in values.values())
        assert max(verify_axioms(kind, self.A, bad)[0].values()) > ATOL
        by_lu = ginv._by_lu
        monkeypatch.setattr(ginv, "_by_lu", lambda kind, a, g, *rest: by_lu(kind, a, bad[None], *rest))
        with pytest.raises(AxiomResidualError, match=f"{kind} inverse failed its axiom gate"):
            SINGLE_CALLS[kind](self.A)

    def test_group_at_index_zero_makes_one_lu(self, monkeypatch):
        calls = []
        inv = np.linalg.inv

        def counted(m):
            calls.append(m.shape)
            return inv(m)

        monkeypatch.setattr(np.linalg, "inv", counted)
        rep = group_inverse(self.A)
        assert rep.index == 0 and calls == [(1, 9, 9)]

    @pytest.mark.parametrize("kind", list(SINGLE_CALLS))
    def test_svd_route_has_no_forward_error_bound(self, kind):
        assert SINGLE_CALLS[kind](np.diag([1.0, 0.0])).forward_error_bound is None


def refusing(original, target):
    """``_core_inverse`` or ``_double_inverse`` that finds the r x r block of the member ``target`` singular.

    For that member v is zeroed, so v^H x u = 0 and the solve fails as it would on a wrong index; every other
    call is passed through unchanged.
    """
    def patched(x, u, v, s):
        if s is None and x.shape == target.shape and np.allclose(x, target):
            v = np.zeros_like(v)
        return original(x, u, v, s)

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

    def assert_only_target_refused(self, kind, refused):
        target = self.MATS[self.TARGET]
        with pytest.raises(AxiomResidualError) as single:
            SINGLE_CALLS[kind](target)
        assert str(single.value).startswith("Drazin core block is singular")
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
        monkeypatch.setattr(ginv, "_double_inverse", refusing(ginv._double_inverse, target_inverse))
        self.assert_only_target_refused("group", certify_many("group", self.MATS))


def witness_by_member(residuals, tol):
    """The per-member reference for :func:`ginv._witness`: the same rule, one member at a time in Python."""
    atol = tol.residual_atol
    for k, r in enumerate(residuals):
        if k == 0:
            shape, best = np.shape(r), np.ravel(r).tolist()
            best_k = [0] * len(best)
        else:
            for j, x in enumerate(np.ravel(r).tolist()):
                b = best[j]
                if not b <= atol and (x <= atol or b != b or x < b):  # b != b: b is nan
                    best_k[j], best[j] = k, x
        if all(b <= atol for b in best):
            break
    return np.array(best_k).reshape(shape), np.array(best).reshape(shape)


# residuals that pass, tie, fail, overflow or are undefined
RESIDUALS = st.one_of(
    st.sampled_from([0.0, 1e-9, ATOL, 2e-8, 0.5, 1.0, np.inf, np.nan]),
    st.floats(0.0, 10.0),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    members=st.one_of(st.none(), st.integers(1, 8)),
    data=st.data(),
)
def test_witness_matches_per_member_rule(members, data):
    # None: one matrix, whose residuals are NumPy scalars; else a stack of that many members
    items = data.draw(st.lists(st.lists(RESIDUALS, min_size=members or 1, max_size=members or 1), min_size=1,
                               max_size=6))
    items = [np.float64(item[0]) if members is None else np.array(item) for item in items]
    drawn = {"vectorized": 0, "by_member": 0}

    def counted(name):
        for item in items:
            drawn[name] += 1
            yield item

    k, r = ginv._witness(counted("vectorized"), DEFAULT_TOL)
    want_k, want_r = witness_by_member(counted("by_member"), DEFAULT_TOL)
    assert drawn["vectorized"] == drawn["by_member"]
    assert (k.shape, k.dtype, r.shape, r.dtype) == (want_k.shape, want_k.dtype, want_r.shape, want_r.dtype)
    np.testing.assert_array_equal(k, want_k)
    np.testing.assert_array_equal(r, want_r)  # nan matches nan

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
