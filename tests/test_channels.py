import numpy as np
import pytest

from chaninv import channels as chn
from chaninv.linalg import dagger, fro_dist

ATOL = 1e-8

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def basis_matrix(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


class TestVec:
    def test_identity(self):
        np.testing.assert_array_equal(chn.vec(np.eye(2)), [1, 0, 0, 1])

    def test_column_major_order(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(chn.vec(m), [1, 3, 2, 4])

    def test_round_trip(self):
        m = random_complex(np.random.default_rng(0), 3, 3)
        np.testing.assert_array_equal(chn.unvec(chn.vec(m), 3, 3), m)

    def test_unvec_length_mismatch(self):
        with pytest.raises(ValueError):
            chn.unvec(np.zeros(5), 2, 2)


class TestKrausToChannel:
    def test_identity_channel(self):
        ch = chn.kraus_to_channel([np.eye(3)])
        np.testing.assert_allclose(ch.super, np.eye(9), atol=1e-14)

    def test_full_amplitude_damping_basis_action(self):
        # oracle: apply to all matrix units; the channel must send rho to Tr(rho)|0><0|
        ch = chn.kraus_to_channel([basis_matrix(2, 0, 0), basis_matrix(2, 0, 1)])
        for i in range(2):
            for j in range(2):
                expected = (1.0 if i == j else 0.0) * basis_matrix(2, 0, 0)
                np.testing.assert_allclose(chn.apply(ch, basis_matrix(2, i, j)), expected, atol=1e-14)

    def test_block_kraus_gives_block_super(self):
        # oracle: brute-force action on the basis units
        k1 = np.diag([1.0, 0.0]).astype(complex)
        k2 = np.diag([0.0, 1.0]).astype(complex)
        ch = chn.kraus_to_channel([k1, k2])
        for i in range(2):
            for j in range(2):
                e = basis_matrix(2, i, j)
                expected = k1 @ e @ dagger(k1) + k2 @ e @ dagger(k2)
                np.testing.assert_allclose(chn.apply(ch, e), expected, atol=1e-14)

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            chn.kraus_to_channel([])
        with pytest.raises(ValueError):
            chn.kraus_to_channel([np.eye(2), np.eye(3)])

    def test_super_kraus_consistency_enforced(self):
        with pytest.raises(ValueError):
            chn.Channel(d_in=2, d_out=2, super=np.eye(4), kraus=(X,))

    def test_non_finite_operator_named(self):
        with pytest.raises(ValueError, match="kraus operator"):
            chn.kraus_to_channel([np.diag([np.nan, 1.0])])
        with pytest.raises(ValueError, match="kraus operator"):
            chn.Channel(2, 2, kraus=(X, np.diag([np.inf, 1.0])))

    def test_channel_needs_super_or_kraus(self):
        with pytest.raises(ValueError, match="superoperator or Kraus"):
            chn.Channel(2, 2)

    def test_kraus_super_computed_once(self, monkeypatch):
        calls = []
        original = chn._kraus_super
        monkeypatch.setattr(chn, "_kraus_super", lambda ops: calls.append(1) or original(ops))
        rng = np.random.default_rng(50)
        for d in (2, 3, 4):
            chn.kraus_to_channel([random_complex(rng, d, d) for _ in range(2)])
        assert len(calls) == 3

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kraus_only_channel_super_is_the_kraus_sum(self, d):
        # bitwise: the einsum over the complex128 stack, which kraus_to_channel also builds
        rng = np.random.default_rng(60 + d)
        ops = [random_complex(rng, d, d) for _ in range(3)]
        expected = chn._kraus_super(np.asarray(ops, dtype=np.complex128))
        for ch in (chn.Channel(d, d, kraus=ops), chn.kraus_to_channel(ops)):
            np.testing.assert_array_equal(ch.super, expected)
            assert ch.super.dtype == np.complex128 and len(ch.kraus) == 3

    @pytest.mark.parametrize("shapes", [[(3, 2)], [(2, 2), (2, 3)]], ids=["mismatched", "ragged"])
    def test_kraus_shape_error_is_dimension_mismatch(self, shapes):
        with pytest.raises(chn.DimensionMismatchError, match="Kraus operator shapes"):
            chn.Channel(2, 2, kraus=[np.ones(s) for s in shapes])

    @pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2)])
    def test_kraus_sum_matches_kron_loop(self, d_in, d_out):
        # oracle: the sum of conj(K) (x) K, one Kronecker product per operator
        rng = np.random.default_rng(40 + d_in)
        ops = [random_complex(rng, d_out, d_in) for _ in range(3)]
        expected = sum(np.kron(k.conj(), k) for k in ops)
        np.testing.assert_allclose(chn._kraus_super(ops), expected, rtol=0, atol=1e-13)


class TestApply:
    def test_identity(self):
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        np.testing.assert_allclose(chn.apply(chn.identity_channel(2), rho), rho, atol=1e-14)

    def test_full_depolarizing(self):
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        np.testing.assert_allclose(
            chn.apply(chn.depolarizing(2, 1.0), rho), np.trace(rho) * np.eye(2) / 2, atol=1e-14
        )

    def test_unitary_conjugation(self):
        rng = np.random.default_rng(1)
        u = chn.haar_unitary(3, rng)
        rho = random_complex(rng, 3, 3)
        ch = chn.conjugation_channel(u)
        np.testing.assert_allclose(chn.apply(ch, rho), u @ rho @ dagger(u), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            chn.apply(chn.identity_channel(2), np.eye(3))


class TestChoi:
    def test_identity_channel_explicit(self):
        # oracle: 4x4 matrix assembled from the basis action by hand
        j = chn.choi(chn.identity_channel(2)).matrix
        w = np.array([1.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(j, np.outer(w, w), atol=1e-14)
        eigs = np.linalg.eigvalsh(j)
        np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0])
    def test_depolarizing_closed_form(self, d, a):
        # oracle: (1-a) * d * |Omega><Omega| + (a/d) * I on the doubled space
        j = chn.choi(chn.depolarizing(d, a)).matrix
        omega = sum(np.kron(np.eye(d)[:, i], np.eye(d)[:, i]) for i in range(d))
        expected = (1.0 - a) * np.outer(omega, omega) + (a / d) * np.eye(d * d)
        assert fro_dist(j, expected) <= 1e-10

    def test_dephasing_choi_is_diagonal(self):
        ch = chn.projector_channel((1, 1))
        j = chn.choi(ch).matrix
        np.testing.assert_allclose(j, np.diag(np.diagonal(j)), atol=1e-14)

    @pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2)])
    def test_rectangular_matches_definition(self, d_in, d_out):
        # oracle: the definition sum_ij E_ij (x) apply(ch, E_ij), on a map with all
        # entries distinct, where a wrongly chosen transpose axis cannot hide
        rng = np.random.default_rng(30 + d_in)
        ch = chn.Channel(d_in=d_in, d_out=d_out, super=random_complex(rng, d_out**2, d_in**2))
        expected = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
        for i in range(d_in):
            for j in range(d_in):
                e = basis_matrix(d_in, i, j)
                expected += np.kron(e, chn.apply(ch, e))
        np.testing.assert_array_equal(chn.choi(ch).matrix, expected)


class TestChoiToKraus:
    def test_identity_single_kraus(self):
        ops = chn.choi_to_kraus(chn.choi(chn.identity_channel(2)))
        assert len(ops) == 1
        # equal to the identity up to a global phase
        phase = ops[0][0, 0] / abs(ops[0][0, 0])
        np.testing.assert_allclose(ops[0] / phase, np.eye(2), atol=1e-10)

    def test_full_depolarizing_kraus_count_and_norms(self):
        ops = chn.choi_to_kraus(chn.choi(chn.depolarizing(2, 1.0)))
        assert len(ops) == 4
        for k in ops:
            assert np.linalg.norm(k) == pytest.approx(np.sqrt(0.5), abs=1e-10)

    def test_not_cp_rejected(self):
        j = chn.ChoiMatrix(matrix=np.diag([1.0, -0.1, 1.0, 1.0]).astype(complex), d_in=2, d_out=2)
        with pytest.raises(chn.NotCPError):
            chn.choi_to_kraus(j)

    def test_round_trip_random_cptp(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            ch = chn.random_cptp(d, d, 2, rng)
            ops = chn.choi_to_kraus(chn.choi(ch))
            rebuilt = chn.kraus_to_channel(ops)
            assert fro_dist(rebuilt.super, ch.super) <= ATOL

    def test_zero_channel_yields_zero_kraus(self):
        zero = chn.Channel(d_in=2, d_out=2, super=np.zeros((4, 4)))
        ops = chn.choi_to_kraus(chn.choi(zero))
        assert len(ops) == 1
        np.testing.assert_array_equal(ops[0], np.zeros((2, 2)))


class TestPropertyChecks:
    def test_identity_is_ucptp(self):
        rep = chn.property_report(chn.identity_channel(2))
        assert rep.cp and rep.tp and rep.unital

    def test_depolarizing_half(self):
        rep = chn.property_report(chn.depolarizing(2, 0.5))
        assert rep.cp and rep.tp and rep.unital

    def test_depolarizing_two_not_cp(self):
        # oracle: Choi eigenvalues (1-a)d + a/d = -1 and a/d = 1 at d=2, a=2
        rep = chn.property_report(chn.depolarizing(2, 2.0))
        assert rep.tp and rep.unital and not rep.cp
        assert rep.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-10)

    def test_non_hermiticity_preserving_map_is_not_cp(self):
        rng = np.random.default_rng(23)
        ch = chn.Channel(d_in=2, d_out=2, super=random_complex(rng, 4, 4))
        assert not chn.is_cp(ch)[0]

    def test_tp_residual_matches_kraus_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ch = chn.random_cptp(3, 3, 2, rng)
            r_super = chn.is_tp(ch)[1]
            r_kraus = fro_dist(sum(dagger(k) @ k for k in ch.kraus), np.eye(3))
            assert abs(r_super - r_kraus) <= 1e-10
            assert r_super <= 1e-10

    def test_unital_residual_matches_kraus_form(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ch = chn.random_ucptp(3, 3, rng)
            r_super = chn.is_unital(ch)[1]
            r_kraus = fro_dist(sum(k @ dagger(k) for k in ch.kraus), np.eye(3))
            assert abs(r_super - r_kraus) <= 1e-10
            assert r_super <= 1e-10


class TestAdjointChannel:
    def test_identity_self_adjoint(self):
        ch = chn.identity_channel(2)
        assert fro_dist(chn.adjoint_channel(ch).super, ch.super) == 0.0

    def test_depolarizing_self_adjoint(self):
        ch = chn.depolarizing(3, 0.7)
        assert fro_dist(chn.adjoint_channel(ch).super, ch.super) <= 1e-12

    def test_isometry_conjugation_adjoint_is_unital(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = np.linalg.qr(random_complex(rng, 4, 2))[0]
            ch = chn.conjugation_channel(v)
            assert chn.is_tp(ch)[0] and not chn.is_unital(ch)[0]
            adj = chn.adjoint_channel(ch)
            assert chn.is_unital(adj)[0] and not chn.is_tp(adj)[0]

    def test_duality_on_random_channels(self):
        rng = np.random.default_rng(6)
        for i in range(200):
            d = 2 + i % 3
            if i % 2 == 0:
                ch = chn.random_cptp(d, d, 1 + i % 3, rng)
            else:
                ch = chn.random_ucptp(d, 2 + i % 2, rng)
            adj = chn.adjoint_channel(ch)
            assert chn.is_tp(ch)[0] == chn.is_unital(adj)[0]
            assert chn.is_unital(ch)[0] == chn.is_tp(adj)[0]


class TestDepolarizing:
    def test_zero_is_identity(self):
        assert fro_dist(chn.depolarizing(3, 0.0).super, np.eye(9)) == 0.0

    def test_composition_parameter_law(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = rng.uniform(-2, 2, 2)
            lhs = chn.compose(chn.depolarizing(2, a), chn.depolarizing(2, b))
            rhs = chn.depolarizing(2, a + b - a * b)
            assert fro_dist(lhs.super, rhs.super) <= 1e-12

    def test_tp_unital_for_any_a(self):
        for a in (-3.0, 0.0, 1.0, 4.5):
            ch = chn.depolarizing(3, a)
            assert chn.is_tp(ch)[0] and chn.is_unital(ch)[0]


class TestConjugationChannel:
    def test_unitary_gives_ucptp(self):
        rep = chn.property_report(chn.conjugation_channel(chn.haar_unitary(2, 8)))
        assert rep.cp and rep.tp and rep.unital

    def test_isometry_tp_not_unital(self):
        v = np.linalg.qr(random_complex(np.random.default_rng(9), 3, 2))[0]
        rep = chn.property_report(chn.conjugation_channel(v))
        assert rep.cp and rep.tp and not rep.unital

    def test_projector_cp_only(self):
        rep = chn.property_report(chn.conjugation_channel(np.diag([1.0, 0.0])))
        assert rep.cp and not rep.tp and not rep.unital


class TestMixedUnitary:
    def test_single_unitary(self):
        u = chn.haar_unitary(2, 10)
        ch = chn.mixed_unitary([u], [1.0])
        assert fro_dist(ch.super, chn.conjugation_channel(u).super) <= 1e-12

    def test_bit_flip(self):
        rep = chn.property_report(chn.mixed_unitary([np.eye(2), X], [0.5, 0.5]))
        assert rep.cp and rep.tp and rep.unital

    def test_dephasing_family(self):
        rep = chn.property_report(chn.mixed_unitary([np.eye(2), Z], [0.7, 0.3]))
        assert rep.cp and rep.tp and rep.unital

    def test_bad_probabilities(self):
        with pytest.raises(ValueError):
            chn.mixed_unitary([np.eye(2), X], [0.9, 0.3])
        with pytest.raises(ValueError):
            chn.mixed_unitary([np.eye(2), X], [1.2, -0.2])

    def test_non_unitary_member(self):
        with pytest.raises(ValueError):
            chn.mixed_unitary([np.eye(2), np.diag([1.0, 0.0])], [0.5, 0.5])


class TestProjectorChannel:
    def test_fully_dephasing_basis_action(self):
        ch = chn.projector_channel((1, 1))
        rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        np.testing.assert_allclose(chn.apply(ch, rho), np.diag([0.6, 0.4]), atol=1e-14)

    def test_single_block_is_identity(self):
        assert fro_dist(chn.projector_channel((3,)).super, np.eye(9)) == 0.0

    def test_block_partition_ucptp(self):
        rep = chn.property_report(chn.projector_channel((2, 1)))
        assert rep.cp and rep.tp and rep.unital


class TestRandomChannels:
    def test_env_one_is_unitary_conjugation(self):
        ch = chn.random_cptp(2, 2, 1, 11)
        assert len(ch.kraus) == 1
        u = ch.kraus[0]
        assert fro_dist(dagger(u) @ u, np.eye(2)) <= 1e-12

    def test_cptp_tp_by_construction(self):
        ch = chn.random_cptp(2, 2, 4, 12)
        assert chn.is_tp(ch)[1] <= 1e-10

    def test_ucptp_tp_and_unital(self):
        ch = chn.random_ucptp(3, 5, 13)
        assert chn.is_tp(ch)[1] <= 1e-10
        assert chn.is_unital(ch)[1] <= 1e-10

    def test_deterministic_per_seed(self):
        a = chn.random_cptp(3, 2, 2, 14)
        b = chn.random_cptp(3, 2, 2, 14)
        assert fro_dist(a.super, b.super) == 0.0
        c = chn.random_ucptp(2, 3, 15)
        d = chn.random_ucptp(2, 3, 15)
        assert fro_dist(c.super, d.super) == 0.0

    def test_rectangular_shapes(self):
        ch = chn.random_cptp(2, 3, 2, 16)
        assert ch.super.shape == (9, 4)
        assert chn.is_tp(ch)[1] <= 1e-10

    def test_isometry_needs_room(self):
        with pytest.raises(ValueError):
            chn.random_cptp(5, 2, 1, 17)


class TestComposition:
    def test_closure_of_tp_unital_cp(self):
        rng = np.random.default_rng(18)
        for d in (2, 3):
            a = chn.random_cptp(d, d, 2, rng)
            b = chn.random_ucptp(d, 2, rng)
            both = chn.compose(a, b)
            assert chn.is_tp(both)[0]
            assert chn.is_cp(both)[0]
            uu = chn.compose(chn.random_ucptp(d, 2, rng), chn.random_ucptp(d, 3, rng))
            assert chn.is_unital(uu)[0] and chn.is_tp(uu)[0]

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            chn.compose(chn.identity_channel(2), chn.identity_channel(3))


class TestPartialTrace:
    def test_trace_out_first(self):
        rng = np.random.default_rng(19)
        a, b = random_complex(rng, 2, 2), random_complex(rng, 3, 3)
        np.testing.assert_allclose(
            chn.partial_trace(np.kron(a, b), (2, 3), 1), np.trace(a) * b, atol=1e-12
        )

    def test_trace_out_second(self):
        rng = np.random.default_rng(20)
        a, b = random_complex(rng, 2, 2), random_complex(rng, 3, 3)
        np.testing.assert_allclose(
            chn.partial_trace(np.kron(a, b), (2, 3), 2), np.trace(b) * a, atol=1e-12
        )

    def test_maximally_entangled_marginal(self):
        omega = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(omega, omega)
        np.testing.assert_allclose(chn.partial_trace(rho, (2, 2), 1), np.eye(2) / 2, atol=1e-14)

    def test_preserves_trace(self):
        rng = np.random.default_rng(21)
        m = random_complex(rng, 6, 6)
        assert np.trace(chn.partial_trace(m, (2, 3), 1)) == pytest.approx(np.trace(m), abs=1e-12)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            chn.partial_trace(np.eye(5), (2, 3), 1)


class TestRepresentationRoundTrip:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kraus_super_choi_kraus_super(self, d):
        ch = chn.random_cptp(d, d, 3, seed=100 + d)
        ops = chn.choi_to_kraus(chn.choi(ch))
        rebuilt = chn.kraus_to_channel(ops)
        assert fro_dist(rebuilt.super, ch.super) <= 1e-8

    @pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2)])
    def test_rectangular_choi_kraus_round_trip(self, d_in, d_out):
        ch = chn.random_cptp(d_in, d_out, 2, seed=110 + d_in)
        rebuilt = chn.kraus_to_channel(chn.choi_to_kraus(chn.choi(ch)))
        assert (rebuilt.d_in, rebuilt.d_out) == (d_in, d_out)
        assert fro_dist(rebuilt.super, ch.super) <= 1e-8


class TestJsonWireFormat:
    def test_kraus_round_trip(self):
        ch = chn.random_cptp(2, 3, 2, 22)
        again = chn.channel_from_dict(chn.channel_to_dict(ch))
        assert fro_dist(again.super, ch.super) <= 1e-12
        assert again.d_in == 2 and again.d_out == 3

    def test_super_round_trip(self):
        ch = chn.depolarizing(2, 0.3)
        data = chn.channel_to_dict(ch)
        assert "super" in data and "kraus" not in data
        again = chn.channel_from_dict(data)
        assert fro_dist(again.super, ch.super) == 0.0

    def test_malformed_rejected(self):
        with pytest.raises(chn.ChannelFormatError):
            chn.channel_from_dict({"d_in": 2})
        with pytest.raises(chn.ChannelFormatError):
            chn.channel_from_dict({"d_in": 2, "d_out": 2, "super": [[1, 2], [3, 4]]})
        with pytest.raises(chn.ChannelFormatError):
            chn.channel_from_dict([1, 2, 3])

    @pytest.mark.parametrize("d_in", [2.7, 2.0, "2", True, None, [2]])
    def test_non_integer_dims_rejected(self, d_in):
        data = chn.channel_to_dict(chn.identity_channel(2))
        data["d_in"] = d_in
        with pytest.raises(chn.ChannelFormatError, match="integer d_in and d_out"):
            chn.channel_from_dict(data)
        data["d_in"], data["d_out"] = 2, d_in
        with pytest.raises(chn.ChannelFormatError, match="integer d_in and d_out"):
            chn.channel_from_dict(data)

    @pytest.mark.parametrize("field", ["super", "kraus"])
    @pytest.mark.parametrize("value", ["1", True, False])
    def test_non_numeric_entries_rejected(self, field, value):
        # float() takes "1", true and false; the wire format is JSON numbers
        data = {"d_in": 1, "d_out": 1, "super": [[[value, 0.0]]]} if field == "super" else {
            "d_in": 1, "d_out": 1, "kraus": [[[[1.0, value]]]]}
        with pytest.raises(chn.ChannelFormatError, match="numeric"):
            chn.channel_from_dict(data)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(chn.ChannelFormatError, match="beyond the float range"):
            chn.matrix_from_pairs([[[10**400, 0]]])
        np.testing.assert_array_equal(chn.matrix_from_pairs([[[1, -2]]]), [[1 - 2j]])

    def test_dimension_mismatch_rejected(self):
        data = chn.channel_to_dict(chn.identity_channel(2))
        data["d_out"] = 3
        with pytest.raises(chn.DimensionMismatchError):
            chn.channel_from_dict(data)
