import numpy as np
import pytest

from chaninv.ginv import (
    AxiomResidualError,
    GinvReport,
    IndexTooLargeError,
    _enforce,
    dagger_drazin,
    drazin_index,
    drazin_inverse,
    group_inverse,
    is_mp_of_dagger_drazin,
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


class TestGroupInverse:
    def test_idempotent_self_inverse(self):
        rep = group_inverse(np.diag([1.0, 0.0]))
        assert rep.index == 1
        np.testing.assert_allclose(rep.inverse, np.diag([1.0, 0.0]), atol=1e-14)

    def test_nilpotent_rejected(self):
        with pytest.raises(IndexTooLargeError) as exc:
            group_inverse(NILPOTENT)
        assert exc.value.index == 2

    def test_invertible(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 3, 3)
        rep = group_inverse(a)
        assert rep.index == 0
        assert fro_dist(rep.inverse, np.linalg.inv(a)) <= 1e-10
        assert set(rep.residuals) == {"G1", "G2", "G3"}


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
    # finite, valid inputs whose powers or gram matrices overflow
    @pytest.mark.parametrize(
        "fn, m",
        [
            (dagger_drazin, np.array([[1e155]])),
            (drazin_inverse, np.diag([1e200, 0.0])),
            (group_inverse, np.diag([1e200, 0.0])),
            (dagger_drazin, np.diag([1e200, 0.0])),
            (drazin_inverse, np.array([[1e200, 1e200], [0.0, 0.0]])),
            (mp_inverse, np.array([[1e200, 1e200], [0.0, 0.0]])),
        ],
    )
    def test_reported_as_axiom_residual_error(self, fn, m):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(AxiomResidualError):
            fn(m)


class TestMpDaggerDrazinLink:
    def test_unitary(self):
        ok, residual = is_mp_of_dagger_drazin(random_unitary(np.random.default_rng(16), 3))
        assert ok and residual <= 1e-10

    def test_random_rectangular(self):
        ok, _ = is_mp_of_dagger_drazin(random_complex(np.random.default_rng(17), 3, 2))
        assert ok

    def test_nilpotent(self):
        ok, residual = is_mp_of_dagger_drazin(NILPOTENT)
        assert ok and residual <= 1e-10


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
