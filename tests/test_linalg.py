import gc
import math
from fractions import Fraction

import numpy as np
import pytest

from chaninv.linalg import (
    DEFAULT_TOL,
    Tolerances,
    _attempt,
    _numerical_rank,
    as_cmatrix,
    dagger,
    eigh,
    fro_dist,
    kron,
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
        # a bool, a value that is not a real number, a non-finite one, and ones past the largest float, each named
        # by its field
        for value in (True, np.True_, "1e-8", 1 + 0j, None, math.inf, math.nan, np.float64(np.inf), 10**400,
                      Fraction(10**400)):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                Tolerances(**{field: value})

    @pytest.mark.parametrize("value", [1, np.float32(1e-3), np.int64(2), Fraction(1, 3), 5e-324], ids=repr)
    def test_keeps_a_valid_value_as_given(self, value):
        tol = Tolerances(rank_rtol=value, residual_atol=value, psd_atol=value)
        assert all(type(v) is type(value) and v == value for v in (tol.rank_rtol, tol.residual_atol, tol.psd_atol))


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

    def test_empty_and_cutoff_scaling(self):
        assert rank(np.zeros((0, 3))) == 0
        # the cutoff is rank_rtol * max(shape) * sigma_max: 1e-10 * 3 = 3e-10
        assert _numerical_rank(np.array([1.0, 4e-10, 2e-10]), (3, 2), DEFAULT_TOL) == 2
        assert _numerical_rank(np.array([0.0, 0.0]), (2, 2), DEFAULT_TOL) == 0
        # a non-finite sigma_max is an overflow, not rank 0
        with pytest.raises(OverflowError):
            _numerical_rank(np.array([np.nan, 1.0]), (2, 2), DEFAULT_TOL)

    def test_block_judged_by_outer_sigma_max(self):
        # a block's own sigma_max of 1e-16 is rounding noise next to the outer matrix's sigma_max of 5
        assert _numerical_rank(np.array([1e-16]), (1, 1), DEFAULT_TOL) == 1
        assert _numerical_rank(np.array([1e-16]), (2, 2), DEFAULT_TOL, top=5.0) == 0
        assert _numerical_rank(np.array([2.0, 1e-6]), (4, 4), DEFAULT_TOL, top=5.0) == 2
        with pytest.raises(OverflowError):
            _numerical_rank(np.array([1.0]), (2, 2), DEFAULT_TOL, top=np.inf)

    def test_overflowed_sigma_max_raises(self):
        # finite entries, but the 2-norm 2e308 exceeds the float range; the true rank is 1
        with pytest.raises(OverflowError):
            rank(1e308 * np.ones((2, 2)))


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



def test_attempt_names_where_it_was_raised_and_keeps_no_frame():
    # the note is built from the traceback without holding its frames, whose callers include _attempt's own: a
    # frame held by a local of _attempt would form a cycle that keeps every array of those frames alive until
    # the cyclic collector runs
    def failing(m):
        raise ValueError("refused")

    gc.collect()
    gc.disable()
    try:
        exc = _attempt(ValueError, failing, np.ones((64, 64)))
        assert gc.collect() == 0
    finally:
        gc.enable()
    code = failing.__code__
    assert exc.__traceback__ is None
    assert exc.__notes__ == [f"raised in failing ({code.co_filename}:{code.co_firstlineno + 1})"]
