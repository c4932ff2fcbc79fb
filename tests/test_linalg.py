import numpy as np
import pytest

from chaninv.linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_cmatrix,
    dagger,
    eigh,
    fro_dist,
    kron,
    matpow,
    rank,
    svd,
)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_rtol == 1e-10
        assert tol.residual_atol == 1e-8
        assert tol.psd_atol == 1e-8

    @pytest.mark.parametrize("field", ["rank_rtol", "residual_atol", "psd_atol"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})
        with pytest.raises(ValueError):
            Tolerances(**{field: -1e-8})


class TestCMatrixValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_cmatrix(np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_cmatrix(np.array([[1.0, np.inf], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            as_cmatrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestDagger:
    def test_scalar_conjugation(self):
        np.testing.assert_array_equal(dagger(np.array([[1j]])), np.array([[-1j]]))

    def test_identity_self_adjoint(self):
        np.testing.assert_array_equal(dagger(np.eye(3, dtype=complex)), np.eye(3))

    def test_real_transpose(self):
        np.testing.assert_array_equal(dagger(NILPOTENT), np.array([[0, 0], [1, 0]]))

    def test_involution_exact_and_antihomomorphism(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_complex(rng, 4, 3)
            b = random_complex(rng, 3, 5)
            # entrywise conjugate-transpose is exact; the antihomomorphism
            # comparison multiplies along two different BLAS paths
            assert fro_dist(dagger(dagger(a)), a) == 0.0
            assert fro_dist(dagger(a @ b), dagger(b) @ dagger(a)) <= 1e-12


class TestKron:
    def test_identities(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonals(self):
        np.testing.assert_allclose(
            kron(np.diag([1.0, 2.0]), np.diag([1.0, 3.0])), np.diag([1.0, 3.0, 2.0, 6.0])
        )

    def test_shape_law(self):
        assert kron(np.zeros((2, 2)), np.zeros((2, 2))).shape == (4, 4)

    def test_mixed_product(self):
        rng = np.random.default_rng(1)
        a, b = random_complex(rng, 2, 3), random_complex(rng, 2, 2)
        c, d = random_complex(rng, 3, 2), random_complex(rng, 2, 3)
        np.testing.assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


class TestSvd:
    def test_diagonal_singular_values(self):
        f = svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(f.singular_values, [3.0, 0.0], atol=1e-14)

    def test_unitary_all_ones(self):
        u = random_unitary(np.random.default_rng(2), 4)
        np.testing.assert_allclose(svd(u).singular_values, np.ones(4), atol=1e-12)

    def test_nilpotent_values(self):
        # oracle: eigenvalues of m^H m = diag(0, 1) are {1, 0}
        f = svd(NILPOTENT)
        np.testing.assert_allclose(f.singular_values, [1.0, 0.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for rows, cols in [(3, 3), (5, 2), (2, 5), (64, 64)]:
            m = random_complex(rng, rows, cols)
            f = svd(m)
            r = min(rows, cols)
            assert fro_dist(dagger(f.u) @ f.u, np.eye(r)) <= DEFAULT_TOL.residual_atol
            assert fro_dist(dagger(f.v) @ f.v, np.eye(r)) <= DEFAULT_TOL.residual_atol
            assert fro_dist(f.reconstruct(), m) <= DEFAULT_TOL.residual_atol
            assert np.all(np.diff(f.singular_values) <= 0)


class TestEigh:
    def test_diagonal(self):
        w, _ = eigh(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-14)

    def test_flip_spectrum(self):
        w, _ = eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_rank_one_projector(self):
        # maximally entangled pair state for two qubits: eigenvalues {0, 0, 0, 1}
        omega = np.zeros(4, dtype=complex)
        omega[0] = omega[3] = 1.0 / np.sqrt(2.0)
        w, _ = eigh(np.outer(omega, omega.conj()))
        np.testing.assert_allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh(NILPOTENT)

    def test_recovers_spectrum(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 8):
            lam = np.sort(rng.uniform(-2.0, 2.0, n))
            u = random_unitary(rng, n)
            w, v = eigh(u @ np.diag(lam) @ dagger(u))
            np.testing.assert_allclose(w, lam, atol=1e-8)
            h = u @ np.diag(lam) @ dagger(u)
            assert fro_dist(v @ np.diag(w) @ dagger(v), h) <= 1e-8


class TestRank:
    def test_zero_matrix(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert rank(np.eye(5)) == 5

    def test_rank_one(self):
        assert rank(np.ones((2, 2))) == 1

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for n in (2, 8, 16):
            r = n // 2
            m = random_complex(rng, n, r) @ random_complex(rng, r, n)
            u, v = random_unitary(rng, n), random_unitary(rng, n)
            assert rank(m) == rank(u @ m @ v) == r


class TestFroDist:
    def test_self_distance_zero(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert fro_dist(m, m) == 0.0

    def test_identity_to_zero(self):
        assert fro_dist(np.eye(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2.0))

    def test_disjoint_diagonals(self):
        assert fro_dist(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fro_dist(np.zeros((2, 2)), np.zeros((2, 3)))


class TestMatpow:
    def test_zeroth_power(self):
        np.testing.assert_array_equal(matpow(NILPOTENT, 0), np.eye(2))

    def test_nilpotent_square(self):
        np.testing.assert_array_equal(matpow(NILPOTENT, 2), np.zeros((2, 2)))

    def test_large_power(self):
        np.testing.assert_allclose(matpow(np.array([[2.0]]), 10), np.array([[1024.0]]))

    def test_non_square(self):
        with pytest.raises(ValueError):
            matpow(np.zeros((2, 3)), 2)
