import json

import numpy as np
import pytest

from chaninv import channels as chn
from chaninv import theorems as thm
from chaninv.cli import main
from chaninv.linalg import dagger, fro_dist


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_channel(path, ch):
    return write_json(path, chn.channel_to_dict(ch))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_identity_all_true(self, tmp_path, capsys):
        f = write_channel(tmp_path / "id.json", chn.identity_channel(2))
        code, out, _ = run(capsys, ["check", f])
        assert code == 0
        report = json.loads(out)
        assert report["cp"]["verdict"] and report["tp"]["verdict"] and report["unital"]["verdict"]

    def test_depolarizing_two(self, tmp_path, capsys):
        f = write_channel(tmp_path / "dep.json", chn.depolarizing(2, 2.0))
        code, out, _ = run(capsys, ["check", f])
        assert code == 0
        report = json.loads(out)
        assert not report["cp"]["verdict"]
        assert report["tp"]["verdict"] and report["unital"]["verdict"]
        assert report["cp"]["min_choi_eigenvalue"] == pytest.approx(-1.0, abs=1e-10)

    def test_truncated_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d_in": 2, "d_out"')
        code, _, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert "error" in err

    def test_dimension_inconsistency_exit_3(self, tmp_path, capsys):
        data = chn.channel_to_dict(chn.identity_channel(2))
        data["d_out"] = 3
        f = write_json(tmp_path / "dim.json", data)
        code, _, _ = run(capsys, ["check", f])
        assert code == 3

    def test_entries_near_float_limit_exit_0(self, tmp_path, capsys):
        # the Hermitian part of the Choi matrix must not overflow on a valid channel
        huge = [[[1e308 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        f = write_json(tmp_path / "huge.json", {"d_in": 2, "d_out": 2, "super": huge})
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run(capsys, ["check", f])
        assert code == 0
        assert json.loads(out)["cp"]["verdict"] is True

    def test_text_output_same_numbers(self, tmp_path, capsys):
        f = write_channel(tmp_path / "dep.json", chn.depolarizing(2, 0.5))
        code, out_json, _ = run(capsys, ["check", f, "--output", "json"])
        code2, out_text, _ = run(capsys, ["check", f, "--output", "text"])
        assert code == code2 == 0
        report = json.loads(out_json)
        assert repr(report["cp"]["min_choi_eigenvalue"]) in out_text
        assert repr(report["tp"]["residual"]) in out_text


class TestInverse:
    def test_drazin_of_depolarizing_is_reflected_parameter(self, tmp_path, capsys):
        f = write_channel(tmp_path / "dep.json", chn.depolarizing(2, 0.5))
        code, out, _ = run(capsys, ["inverse", f, "--kind", "drazin"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ginv"]["kind"] == "drazin"
        assert payload["ginv"]["index"] == 0
        inv = chn.channel_from_dict(payload)
        # D_a composes as D_a . D_b = D_{a+b-ab}, so the inverse parameter is
        # a/(a-1) = -1 rather than 1/a
        assert fro_dist(inv.super, chn.depolarizing(2, -1.0).super) <= 1e-8

    def test_mp_of_unitary_conjugation(self, tmp_path, capsys):
        u = chn.haar_unitary(2, 5)
        f = write_channel(tmp_path / "u.json", chn.conjugation_channel(u))
        code, out, _ = run(capsys, ["inverse", f, "--kind", "mp"])
        assert code == 0
        inv = chn.channel_from_dict(json.loads(out))
        expected = chn.conjugation_channel(dagger(u))
        assert fro_dist(inv.super, expected.super) <= 1e-8

    def test_group_of_amplitude_damping_by_index(self, tmp_path, capsys):
        # gamma = 0.5 has an invertible superoperator (index 0), so the group
        # inverse exists and the command succeeds
        f = write_channel(tmp_path / "ad.json", thm.amplitude_damping(0.5))
        code, out, _ = run(capsys, ["inverse", f, "--kind", "group"])
        assert code == 0
        assert json.loads(out)["ginv"]["index"] == 0

    def test_group_exit_4_when_index_too_large(self, tmp_path, capsys):
        nilpotent_super = np.zeros((4, 4))
        nilpotent_super[0, 1] = 1.0
        f = write_channel(tmp_path / "nil.json", chn.Channel(2, 2, nilpotent_super))
        code, _, err = run(capsys, ["inverse", f, "--kind", "group"])
        assert code == 4
        assert "index" in err

    def test_drazin_needs_square_exit_3(self, tmp_path, capsys):
        f = write_channel(tmp_path / "rect.json", chn.random_cptp(2, 3, 2, 6))
        code, _, _ = run(capsys, ["inverse", f, "--kind", "drazin"])
        assert code == 3

    def test_dagger_drazin_rectangular_ok(self, tmp_path, capsys):
        f = write_channel(tmp_path / "rect.json", chn.random_cptp(2, 3, 2, 7))
        code, out, _ = run(capsys, ["inverse", f, "--kind", "dagger-drazin"])
        assert code == 0
        payload = json.loads(out)
        assert payload["d_in"] == 3 and payload["d_out"] == 2
        assert payload["ginv"]["witness_k"] is not None

    def test_unreachable_tolerance_exit_5(self, tmp_path, capsys):
        f = write_channel(tmp_path / "r.json", chn.random_ucptp(2, 3, 8))
        code, _, err = run(capsys, ["inverse", f, "--kind", "drazin", "--atol", "1e-30"])
        assert code == 5
        assert "residual" in err

    def test_internal_overflow_exit_5(self, tmp_path, capsys):
        # a valid channel whose gram matrix overflows: a failed certificate, not bad input
        f = write_json(tmp_path / "big.json", {"d_in": 1, "d_out": 1, "super": [[[1e155, 0]]]})
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, ["inverse", f, "--kind", "dagger-drazin"])
        assert code == 5
        assert out == ""
        assert err.startswith("error:") and "overflow" in err

    @pytest.mark.parametrize(
        "kind, has_index, has_witness",
        [("mp", False, False), ("drazin", True, False), ("group", True, False), ("dagger-drazin", False, True)],
    )
    def test_ginv_keys_every_kind(self, tmp_path, capsys, kind, has_index, has_witness):
        f = write_channel(tmp_path / "u.json", chn.random_ucptp(2, 2, 9))
        code, out, _ = run(capsys, ["inverse", f, "--kind", kind])
        assert code == 0
        ginv = json.loads(out)["ginv"]
        assert set(ginv) == {"kind", "residuals", "index", "witness_k"}
        assert (ginv["index"] is not None, ginv["witness_k"] is not None) == (has_index, has_witness)

    def test_mp_involution_end_to_end(self, tmp_path, capsys):
        original = chn.random_ucptp(2, 3, 9)
        f = write_channel(tmp_path / "orig.json", original)
        code, out, _ = run(capsys, ["inverse", f, "--kind", "mp"])
        assert code == 0
        f2 = tmp_path / "inv.json"
        f2.write_text(out)
        code, out2, _ = run(capsys, ["inverse", str(f2), "--kind", "mp"])
        assert code == 0
        back = chn.channel_from_dict(json.loads(out2))
        assert fro_dist(back.super, original.super) <= 1e-8

    def test_out_file_written(self, tmp_path, capsys):
        f = write_channel(tmp_path / "dep.json", chn.depolarizing(2, 0.25))
        target = tmp_path / "inverse.json"
        code, _, _ = run(capsys, ["inverse", f, "--kind", "mp", "--out", str(target), "--output", "text"])
        assert code == 0
        saved = chn.channel_from_dict(json.loads(target.read_text()))
        assert saved.d_in == 2


class TestTheorems:
    def test_default_invocation_exit_0(self, capsys):
        code, out, _ = run(capsys, ["theorems", "--count", "12"])
        assert code == 0
        reports = json.loads(out)
        ids = {r["theorem_id"] for r in reports}
        assert "drazin-tp-preservation" in ids and "mp-tp-violation-search" in ids

    def test_zero_count_exit_1(self, capsys):
        code, out, _ = run(capsys, ["theorems", "--count", "0"])
        assert code == 1
        assert all(r["verdict"] == "inconclusive" for r in json.loads(out))

    def test_fixed_seed_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, ["theorems", "--count", "6", "--seed", "42"])
        code2, out2, _ = run(capsys, ["theorems", "--count", "6", "--seed", "42"])
        assert code1 == code2 == 0
        assert out1 == out2


class TestMitigate:
    def _files(self, tmp_path, ch, rho, obs):
        return (
            write_channel(tmp_path / "ch.json", ch),
            write_json(tmp_path / "rho.json", chn.matrix_to_pairs(rho)),
            write_json(tmp_path / "obs.json", {"matrix": chn.matrix_to_pairs(obs)}),
        )

    def test_depolarizing_recovers_ideal(self, tmp_path, capsys):
        rho = np.diag([1.0, 0.0]).astype(complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        fch, frho, fobs = self._files(tmp_path, chn.depolarizing(2, 0.3), rho, z)
        code, out, _ = run(capsys, ["mitigate", fch, frho, fobs, "-n", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ideal"] == pytest.approx(1.0, abs=1e-12)
        assert abs(payload["noisy"]) < 1.0  # contracted by noise
        assert payload["mitigated"] == pytest.approx(payload["ideal"], abs=1e-8)
        assert payload["invertible"] and payload["caveat"] is None

    def test_identity_channel_all_equal(self, tmp_path, capsys):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        fch, frho, fobs = self._files(tmp_path, chn.identity_channel(2), rho, x)
        code, out, _ = run(capsys, ["mitigate", fch, frho, fobs, "-n", "2"])
        payload = json.loads(out)
        assert code == 0
        assert payload["ideal"] == payload["noisy"] == payload["mitigated"] == pytest.approx(1.0)

    def test_dephasing_emits_caveat(self, tmp_path, capsys):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # |+><+|
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        fch, frho, fobs = self._files(tmp_path, chn.projector_channel((1, 1)), rho, x)
        code, out, _ = run(capsys, ["mitigate", fch, frho, fobs])
        payload = json.loads(out)
        assert code == 0
        assert payload["ideal"] == pytest.approx(1.0)
        assert payload["mitigated"] == pytest.approx(0.0, abs=1e-12)  # coherence is gone
        assert payload["caveat"] is not None and not payload["invertible"]

    def test_non_tp_channel_exit_6(self, tmp_path, capsys):
        rho = np.diag([1.0, 0.0]).astype(complex)
        fch, frho, fobs = self._files(
            tmp_path, chn.conjugation_channel(np.diag([1.0, 0.0])), rho, np.eye(2)
        )
        code, _, _ = run(capsys, ["mitigate", fch, frho, fobs])
        assert code == 6

    def test_dimension_mismatch_exit_3(self, tmp_path, capsys):
        rho3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        fch, frho, fobs = self._files(tmp_path, chn.identity_channel(2), rho3, np.eye(3))
        code, _, _ = run(capsys, ["mitigate", fch, frho, fobs])
        assert code == 3

    def test_invalid_state_exit_2(self, tmp_path, capsys):
        rho = np.diag([2.0, 0.0]).astype(complex)  # trace 2
        fch, frho, fobs = self._files(tmp_path, chn.identity_channel(2), rho, np.eye(2))
        code, _, _ = run(capsys, ["mitigate", fch, frho, fobs])
        assert code == 2


class TestRandom:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["random", "--kind", "ucptp", "-d", "2", "-m", "3", "--seed", "7"])
        code2, out2, _ = run(capsys, ["random", "--kind", "ucptp", "-d", "2", "-m", "3", "--seed", "7"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_one_is_unitary(self, capsys):
        code, out, _ = run(capsys, ["random", "--kind", "cptp", "-d", "2", "--env", "1", "--seed", "1"])
        assert code == 0
        ch = chn.channel_from_dict(json.loads(out))
        assert len(ch.kraus) == 1
        u = ch.kraus[0]
        assert fro_dist(dagger(u) @ u, np.eye(2)) <= 1e-10

    def test_output_round_trips_into_check_and_inverse(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["random", "--kind", "cptp", "-d", "3", "--env", "3", "--seed", "2"])
        assert code == 0
        f = tmp_path / "ch.json"
        f.write_text(out)
        code, out2, _ = run(capsys, ["check", str(f)])
        assert code == 0
        assert json.loads(out2)["tp"]["residual"] <= 1e-10
        code, _, _ = run(capsys, ["inverse", str(f), "--kind", "mp"])
        assert code == 0

    def test_bad_parameters_exit_2(self, capsys):
        code, _, _ = run(
            capsys,
            ["random", "--kind", "cptp", "-d", "5", "--d-out", "2", "--env", "1", "--seed", "3"],
        )
        assert code == 2
