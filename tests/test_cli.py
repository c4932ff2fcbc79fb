import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chaninv import channels as chn
from chaninv import cli
from chaninv import theorems as thm
from chaninv.cli import _build_parser, main
from chaninv.ginv import AxiomResidualError, dagger_drazin, drazin_inverse, group_inverse, mp_inverse
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

    @pytest.mark.parametrize("d_in", [2.7, "2", True])
    def test_non_integer_dims_exit_2(self, tmp_path, capsys, d_in):
        data = chn.channel_to_dict(chn.identity_channel(2))
        data["d_in"] = d_in
        code, out, err = run(capsys, ["check", write_json(tmp_path / "dims.json", data)])
        assert code == 2 and out == ""
        assert "integer d_in and d_out" in err

    @pytest.mark.parametrize("command", [["check"], ["inverse", "--kind", "group"]], ids=["check", "inverse"])
    @pytest.mark.parametrize("field", ["super", "kraus"])
    @pytest.mark.parametrize("value", ["1", True, False])
    def test_non_numeric_entries_exit_2(self, tmp_path, capsys, command, field, value):
        data = {"d_in": 1, "d_out": 1, field: [[[value, 0.0]]] if field == "super" else [[[[value, 0.0]]]]}
        code, out, err = run(capsys, [*command, write_json(tmp_path / "entries.json", data)])
        assert code == 2 and out == ""
        assert "numeric [re, im] pairs" in err

    def test_dimension_inconsistency_exit_3(self, tmp_path, capsys):
        data = chn.channel_to_dict(chn.identity_channel(2))
        data["d_out"] = 3
        f = write_json(tmp_path / "dim.json", data)
        code, _, _ = run(capsys, ["check", f])
        assert code == 3

    def test_ragged_kraus_exit_3(self, tmp_path, capsys):
        data = {"d_in": 2, "d_out": 3, "kraus": [chn.matrix_to_pairs(np.eye(3, 2)), chn.matrix_to_pairs(np.eye(3))]}
        code, out, err = run(capsys, ["check", write_json(tmp_path / "ragged.json", data)])
        assert code == 3 and out == ""
        assert "Kraus operator shapes [(3, 2), (3, 3)] do not match (3, 2)" in err

    def test_entries_near_float_limit_exit_0(self, tmp_path, capsys):
        # the Hermitian part of the Choi matrix must not overflow on a valid channel
        huge = [[[1e308 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        f = write_json(tmp_path / "huge.json", {"d_in": 2, "d_out": 2, "super": huge})
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run(capsys, ["check", f])
        assert code == 0
        assert json.loads(out)["cp"]["verdict"] is True

    def test_non_finite_residuals_are_strict_json(self, tmp_path, capsys):
        huge = [[[1e308 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        f = write_json(tmp_path / "huge.json", {"d_in": 2, "d_out": 2, "super": huge})
        code, out, _ = run(capsys, ["check", f])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(out, parse_constant=reject)
        assert report["tp"]["residual"] == "inf" and report["tp"]["verdict"] is False

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
        # a valid channel whose superoperator's 2-norm overflows: a failed certificate,
        # not bad input, reported on one line without NumPy warnings
        big = [[[1e308, 0.0]] * 4 for _ in range(4)]
        f = write_json(tmp_path / "big.json", {"d_in": 2, "d_out": 2, "super": big})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["inverse", f, "--kind", "drazin"])
        assert code == 5
        assert out == ""
        assert err.startswith("error:") and "overflow" in err
        assert len(err.splitlines()) == 1

    def test_huge_entry_certifies_without_powers(self, tmp_path, capsys):
        # the square of this superoperator overflows, but the index search never forms it
        big = [[[1e200 if i == j == 0 else 0.0, 0.0] for j in range(4)] for i in range(4)]
        f = write_json(tmp_path / "big.json", {"d_in": 2, "d_out": 2, "super": big})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, ["inverse", f, "--kind", "drazin"])
        assert code == 0
        assert json.loads(out)["ginv"]["index"] == 1

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

    # the text report of a projector channel's inverses, as printed before the JSON payload became lazy
    PROJECTOR_TEXT = {
        "mp": "kind: mp\nMP1: 0.0\nMP2: 0.0\nMP3: 0.0\nMP4: 0.0\n",
        "drazin": "kind: drazin\nindex: 1\nD1: 0.0\nD2: 0.0\nD3: 0.0\n",
        "group": "kind: group\nindex: 1\nG1: 0.0\nG2: 0.0\nG3: 0.0\n",
        "dagger-drazin": "kind: dagger-drazin\nwitness_k: 1\nDd1: 0.0\nDd2: 0.0\nDd3: 0.0\nDd4: 0.0\n",
    }

    @pytest.mark.parametrize("kind", list(PROJECTOR_TEXT))
    def test_text_output_builds_no_payload(self, tmp_path, capsys, monkeypatch, kind):
        f = write_channel(tmp_path / "proj.json", chn.projector_channel((2, 1)))
        calls = []
        original = chn.channel_to_dict
        monkeypatch.setattr(chn, "channel_to_dict", lambda ch: calls.append(ch) or original(ch))
        code, out, _ = run(capsys, ["inverse", f, "--kind", kind, "--output", "text"])
        assert (code, out, len(calls)) == (0, self.PROJECTOR_TEXT[kind], 0)
        code, _, _ = run(capsys, ["inverse", f, "--kind", kind, "--output", "text", "--out", str(tmp_path / "i.json")])
        assert (code, len(calls)) == (0, 1)

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

    GOLDEN = json.loads((Path(__file__).parent / "data" / "suite_golden.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("seed", sorted(GOLDEN, key=int))
    def test_count_200_matches_golden_record(self, capsys, seed):
        # recorded from the per-instance suite before items were certified as one batch each
        self.assert_golden(capsys, seed)

    def test_count_200_in_one_process_matches_golden_record(self, capsys, monkeypatch):
        # the path off Linux and on CPython 3.12 and later, where the suite never forks
        monkeypatch.setattr(thm, "_suite_workers", lambda instance_count: 1)
        self.assert_golden(capsys, "7")

    def assert_golden(self, capsys, seed):
        code, out, _ = run(capsys, ["theorems", "--count", "200", "--seed", seed])
        golden = self.GOLDEN[seed]
        assert code == golden["exit_code"]
        reports = json.loads(out)
        assert [(r["theorem_id"], r["verdict"], r["instances"], r["witness"] is not None) for r in reports] == [
            (g["theorem_id"], g["verdict"], g["instances"], g["witness"]) for g in golden["items"]
        ]
        for r, g in zip(reports, golden["items"]):
            assert abs(r["max_residual"] - g["max_residual"]) <= 1e-12, r["theorem_id"]

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--count", "-3")])
    def test_negative_seed_or_count_exit_2(self, capsys, flag, value):
        # exit 1 would read as a failed suite
        code, out, err = run(capsys, ["theorems", flag, value])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_text_output_one_line_per_item(self, capsys):
        code, out, _ = run(capsys, ["theorems", "--output", "text", "--count", "1"])
        reports = thm.run_suite(instance_count=1)
        assert out.splitlines() == [
            f"{r.theorem_id}: {r.verdict} (instances={r.instances}, max_residual={r.max_residual!r}, "
            f"witness={'yes' if r.witness else 'no'})" for r in reports
        ]
        assert code == (0 if thm.suite_passed(reports) else 1)

    def test_fixed_seed_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, ["theorems", "--count", "6", "--seed", "42"])
        code2, out2, _ = run(capsys, ["theorems", "--count", "6", "--seed", "42"])
        assert code1 == code2 == 0
        assert out1 == out2


@pytest.mark.parametrize(
    "argv", [["check"], ["inverse", "--kind", "drazin"], ["mitigate", "rho.json", "obs.json"]]
)
def test_overflowed_kraus_file_exit_5(tmp_path, capsys, monkeypatch, argv):
    # finite Kraus entries whose superoperator overflows: an overflow (exit 5), not malformed input (exit 2)
    monkeypatch.chdir(tmp_path)
    f = write_json(tmp_path / "big.json", {"d_in": 2, "d_out": 2, "kraus": [chn.matrix_to_pairs(1e200 * np.eye(2))]})
    write_json(tmp_path / "rho.json", chn.matrix_to_pairs(np.diag([1.0, 0.0])))
    write_json(tmp_path / "obs.json", chn.matrix_to_pairs(np.diag([1.0, -1.0])))
    code, out, err = run(capsys, [argv[0], f, *argv[1:]])
    assert code == 5 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "overflowed" in err


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


    def test_negative_repetitions_exit_2(self, tmp_path, capsys):
        fch, frho, fobs = self._files(tmp_path, chn.identity_channel(2), np.diag([1.0, 0.0]), np.eye(2))
        code, out, err = run(capsys, ["mitigate", fch, frho, fobs, "-n", "-1"])
        assert code == 2 and out == ""
        assert "repetitions must be non-negative" in err

    def test_rectangular_channel_exit_3(self, tmp_path, capsys):
        isometry = chn.conjugation_channel(np.eye(3, 2))  # 2 -> 3 and trace preserving
        fch, frho, fobs = self._files(tmp_path, isometry, np.diag([1.0, 0.0]), np.eye(2))
        code, out, err = run(capsys, ["mitigate", fch, frho, fobs])
        assert code == 3 and out == ""
        assert "needs a square channel, got 2 -> 3" in err

    @pytest.mark.parametrize("rho, obs, message", [
        (np.diag([1.5, -0.5]), np.eye(2), "state must be positive semidefinite"),
        (np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), "observable must be Hermitian"),
    ], ids=["negative_state", "non_hermitian_observable"])
    def test_invalid_state_or_observable_exit_2(self, tmp_path, capsys, rho, obs, message):
        fch, frho, fobs = self._files(tmp_path, chn.identity_channel(2), rho, obs)
        code, out, err = run(capsys, ["mitigate", fch, frho, fobs])
        assert code == 2 and out == ""
        assert message in err

    def test_refused_drazin_certificate_exit_5(self, tmp_path, capsys, monkeypatch):
        def refuse(a, tol):
            raise AxiomResidualError("drazin inverse failed its axiom gate")

        monkeypatch.setattr(cli, "drazin_inverse", refuse)
        fch, frho, fobs = self._files(tmp_path, chn.identity_channel(2), np.diag([1.0, 0.0]), np.eye(2))
        code, out, err = run(capsys, ["mitigate", fch, frho, fobs])
        assert code == 5 and out == ""
        assert "failed its axiom gate" in err

    def test_text_output_on_singular_channel_has_caveat(self, tmp_path, capsys):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        fch, frho, fobs = self._files(tmp_path, chn.projector_channel((1, 1)), rho, x)
        code, out, _ = run(capsys, ["mitigate", fch, frho, fobs, "--output", "text"])
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["ideal", "noisy", "mitigated", "drazin_index", "caveat"]
        assert lines[3] == "drazin_index: 1"
        assert lines[4].startswith("caveat: channel is singular (Drazin index 1)")

    @pytest.mark.parametrize("which", ["state", "observable"])
    @pytest.mark.parametrize("value", ["1", True, False])
    def test_non_numeric_entries_exit_2(self, tmp_path, capsys, which, value):
        fch, frho, fobs = self._files(tmp_path, chn.identity_channel(2), np.diag([1.0, 0.0]), np.eye(2))
        bad = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [value, 0.0]]]
        if which == "state":
            frho = write_json(tmp_path / "rho.json", bad)
        else:
            fobs = write_json(tmp_path / "obs.json", {"matrix": bad})
        code, out, err = run(capsys, ["mitigate", fch, frho, fobs])
        assert code == 2 and out == ""
        assert "numeric [re, im] pairs" in err


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

    @pytest.mark.parametrize("d_out, code", [("3", 2), ("2", 0)])
    def test_ucptp_refuses_a_different_output_dimension(self, capsys, d_out, code):
        # a mixed-unitary channel is square: a --d-out other than -d is refused, not ignored
        got, out, err = run(capsys, ["random", "--kind", "ucptp", "-d", "2", "--d-out", d_out, "--seed", "3"])
        assert got == code
        if code:
            assert out == "" and "--d-out 3 differs from -d 2" in err
        else:
            ch = chn.channel_from_dict(json.loads(out))
            assert (ch.d_in, ch.d_out) == (2, 2)

    @pytest.mark.parametrize("kind, flag", [("ucptp", "--env"), ("cptp", "-m"), ("cptp", "--unitaries")])
    def test_refuses_a_flag_of_the_other_kind(self, capsys, kind, flag):
        code, out, err = run(capsys, ["random", "--kind", kind, "-d", "2", flag, "2", "--seed", "3"])
        assert code == 2 and out == ""
        assert err.startswith("error: " + ("--env" if flag == "--env" else "-m/--unitaries")) and err.count("\n") == 1

    @pytest.mark.parametrize("kind, flag", [("cptp", ["--env", "2"]), ("ucptp", ["-m", "3"])])
    def test_kind_flag_defaults(self, capsys, kind, flag):
        argv = ["random", "--kind", kind, "-d", "3", "--seed", "6"]
        assert run(capsys, argv) == run(capsys, argv + flag)


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def bits(m):
    """The IEEE-754 bit patterns of a complex matrix, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(m, dtype=np.complex128).view(np.uint64)


def pairs_by_entry(m):
    """The entry-by-entry conversion that ``matrix_to_pairs`` replaced, kept as its reference."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=np.complex128)]


def signed_zero_channel(d):
    # every exact zero of the superoperator becomes -0.0, in both parts
    s = chn.random_ucptp(d, 3, 20 + d).super.copy()
    s.real[s.real == 0] = -0.0
    s.imag[s.imag == 0] = -0.0
    s[0, 1] = complex(-0.0, -0.0)
    return chn.Channel(d, d, s)


def subnormal_channel(d):
    s = chn.random_ucptp(d, 3, 30 + d).super.copy()
    s[0, -1] += complex(5e-324, -2.5e-320)
    s[-1, 0] += complex(-1e-310, 5e-324)
    return chn.Channel(d, d, s)


class TestWireFormat:
    @pytest.mark.parametrize("kind", ["mp", "drazin", "group", "dagger-drazin"])
    @pytest.mark.parametrize("make", [signed_zero_channel, subnormal_channel], ids=["signed-zero", "subnormal"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_inverse_round_trip_is_bitwise(self, tmp_path, capsys, kind, make, d):
        ch = make(d)
        f = write_channel(tmp_path / "ch.json", ch)
        loaded = chn.channel_from_dict(json.loads((tmp_path / "ch.json").read_text()))
        np.testing.assert_array_equal(bits(loaded.super), bits(ch.super))
        code, out, _ = run(capsys, ["inverse", f, "--kind", kind])
        assert code == 0
        inverse = {"mp": mp_inverse, "drazin": drazin_inverse, "group": group_inverse,
                   "dagger-drazin": dagger_drazin}[kind]
        expected = inverse(ch.super).inverse
        np.testing.assert_array_equal(bits(chn.channel_from_dict(json.loads(out)).super), bits(expected))

    def test_random_out_reloads_bitwise(self, tmp_path, capsys):
        target = tmp_path / "ch.json"
        code, _, _ = run(capsys, ["random", "--kind", "cptp", "-d", "3", "--env", "2", "--seed", "4",
                                  "--out", str(target)])
        assert code == 0
        reloaded = chn.channel_from_dict(json.loads(target.read_text()))
        expected = chn.random_cptp(3, 3, 2, 4)
        assert len(reloaded.kraus) == len(expected.kraus)
        for got, want in zip(reloaded.kraus, expected.kraus):
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("m", [
        np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, 1.0), 2.0]]),
        np.array([[5e-324, complex(-2.5e-320, 1e-310)], [1.7976931348623157e308, complex(0.1, -1 / 3)]]),
        chn.haar_unitary(4, 3),
        np.arange(6.0).reshape(2, 3),
    ], ids=["signed-zero", "extremes", "unitary", "real-rectangular"])
    def test_matrix_to_pairs_matches_entry_loop(self, m):
        pairs = chn.matrix_to_pairs(m)
        # repr is exact for floats and tells -0.0 from 0.0
        assert repr(pairs) == repr(pairs_by_entry(m))
        assert all(type(x) is float for row in pairs for entry in row for x in entry)
        np.testing.assert_array_equal(bits(chn.matrix_from_pairs(json.loads(json.dumps(pairs)))), bits(m))

    @pytest.mark.parametrize("command", [
        ["inverse", "{channel}", "--kind", "group"],
        ["random", "--kind", "ucptp", "-d", "2", "--seed", "3"],
    ], ids=["inverse", "random"])
    def test_out_file_equals_stdout(self, tmp_path, capsys, command):
        f = write_channel(tmp_path / "ch.json", chn.random_ucptp(2, 3, 11))
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, [a.format(channel=f) for a in command] + ["--out", str(target)])
        assert code == 0
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("command", [
        ["inverse", "{channel}", "--kind", "group"],
        ["random", "--kind", "ucptp", "-d", "2", "--seed", "3"],
    ], ids=["inverse", "random"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        f = write_channel(tmp_path / "ch.json", chn.random_ucptp(2, 3, 11))
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, [a.format(channel=f) for a in command] + ["--out", str(target)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "inverse", "theorems", "mitigate", "random"])
    def test_json_stdout_is_one_strict_line(self, tmp_path, capsys, command):
        f = write_channel(tmp_path / "ch.json", chn.depolarizing(2, 0.3))
        argv = {
            "check": ["check", f],
            "inverse": ["inverse", f, "--kind", "drazin"],
            "theorems": ["theorems", "--count", "1"],
            "mitigate": ["mitigate", f, write_json(tmp_path / "rho.json", chn.matrix_to_pairs(np.diag([1.0, 0.0]))),
                         write_json(tmp_path / "obs.json", chn.matrix_to_pairs(np.diag([1.0, -1.0])))],
            "random": ["random", "--kind", "cptp", "-d", "2", "--seed", "5"],
        }[command]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        payload = json.loads(out, parse_constant=reject_constant)
        assert out == json.dumps(payload, sort_keys=True) + "\n"


OPTIONS = {
    "check": {"--atol", "--psd-atol", "--output"},
    "inverse": {"--rank-rtol", "--atol", "--output", "--kind", "--out"},
    "theorems": {"--rank-rtol", "--atol", "--psd-atol", "--seed", "--output", "--count"},
    "mitigate": {"--rank-rtol", "--atol", "--psd-atol", "--output", "-n", "--repetitions"},
    "random": {"--seed", "--kind", "-d", "--d-out", "--env", "-m", "--unitaries", "--out"},
}
# each shared option with its default value, which a subcommand that does not read it refuses all the same
SHARED = {"--rank-rtol": "1e-10", "--atol": "1e-8", "--psd-atol": "1e-8", "--seed": "7", "--output": "json"}
REMOVED = [(command, flag) for command, options in OPTIONS.items() for flag in SHARED if flag not in options]


class TestWireFormatRefusals:
    # each is refused at the boundary, directly and through `chaninv check`: exit 2, or 3 for a shape contradiction

    @pytest.mark.parametrize("pairs, message", [
        ("[]", "must be a non-empty nested list of [re, im] pairs"),
        ("[[]]", "rows must be non-empty"),
        ("[[[1, 0], [0, 0]], [[1, 0]]]", "rows have inconsistent lengths"),
        ("[[[Infinity, 0]]]", "contains non-finite entries"),  # json reads Infinity as inf
    ], ids=["empty", "empty_row", "ragged", "infinite"])
    def test_bad_matrix_exit_2(self, tmp_path, capsys, pairs, message):
        with pytest.raises(chn.ChannelFormatError) as exc:
            chn.matrix_from_pairs(json.loads(pairs))
        assert message in str(exc.value)
        f = tmp_path / "ch.json"
        f.write_text(f'{{"d_in": 1, "d_out": 1, "super": {pairs}}}')
        code, out, err = run(capsys, ["check", str(f)])
        assert code == 2 and out == ""
        assert f"super {message}" in err

    @pytest.mark.parametrize("data, message", [
        ({"d_in": 1, "d_out": 1, "kraus": []}, "kraus must be a non-empty list of matrices"),
        ({"d_in": 1, "d_out": 1}, "channel JSON needs a 'kraus' or 'super' field"),
    ], ids=["no_kraus", "no_field"])
    def test_bad_channel_exit_2(self, tmp_path, capsys, data, message):
        with pytest.raises(chn.ChannelFormatError) as exc:
            chn.channel_from_dict(data)
        assert str(exc.value) == message
        code, out, err = run(capsys, ["check", write_json(tmp_path / "ch.json", data)])
        assert code == 2 and out == ""
        assert message in err

    def test_super_contradicting_dims_exit_3(self, tmp_path, capsys):
        message = "superoperator shape (3, 3) does not match dims (4, 4)"
        with pytest.raises(chn.DimensionMismatchError) as exc:
            chn.Channel(d_in=2, d_out=2, super=np.eye(3))
        assert str(exc.value) == message
        data = {"d_in": 2, "d_out": 2, "super": chn.matrix_to_pairs(np.eye(3))}
        code, out, err = run(capsys, ["check", write_json(tmp_path / "ch.json", data)])
        assert code == 3 and out == ""
        assert message in err


class TestOptions:
    """Each subcommand takes exactly the options its handler reads."""

    def test_each_subcommand_takes_only_its_options(self):
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert options == OPTIONS
        assert sum(len(opts & set(SHARED)) for opts in options.values()) == 16
        assert len(REMOVED) == 9

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        f = write_channel(tmp_path / "ch.json", chn.depolarizing(2, 0.3))
        argv = {
            "check": ["check", f],
            "inverse": ["inverse", f, "--kind", "drazin"],
            "mitigate": ["mitigate", f, write_json(tmp_path / "rho.json", chn.matrix_to_pairs(np.diag([1.0, 0.0]))),
                         write_json(tmp_path / "obs.json", chn.matrix_to_pairs(np.diag([1.0, -1.0])))],
            "random": ["random", "--kind", "cptp", "-d", "2"],
        }[command]
        assert run(capsys, argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, SHARED[flag]])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"unrecognized arguments: {flag}" in out.err


@pytest.mark.parametrize("d", [2, 8], ids=["buffered", "past-the-buffer"])
def test_closed_stdout_exits_141_quietly(d):
    # the console script on a pipe whose reader is gone, as in `chaninv random ... | head -c 60`
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from chaninv.cli import entry_point; entry_point()",
             "random", "--kind", "cptp", "-d", str(d), "--seed", "4"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


class TestParserReuse:
    """``main`` builds its parser once per process; no call may leave state for the next."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_atol_returns_to_default(self, tmp_path, capsys):
        # trace preserving only to about 1.4e-5: passes at --atol 1e-3, fails at the default 1e-8
        dep = chn.depolarizing(2, 0.5)
        f = write_channel(tmp_path / "dep.json", chn.Channel(2, 2, dep.super * (1 + 1e-5)))
        code, out, _ = run(capsys, ["check", f, "--atol", "1e-3"])
        assert code == 0 and json.loads(out)["tp"]["verdict"] is True
        code, out, _ = run(capsys, ["check", f])
        assert code == 0 and json.loads(out)["tp"]["verdict"] is False

    def test_output_returns_to_json(self, tmp_path, capsys):
        f = write_channel(tmp_path / "id.json", chn.identity_channel(2))
        code, out, _ = run(capsys, ["check", f, "--output", "text"])
        assert code == 0 and out.startswith("cp: True")
        code, out, _ = run(capsys, ["check", f])
        assert code == 0 and json.loads(out)["cp"]["verdict"] is True

    def test_good_call_after_bad_atol(self, tmp_path, capsys):
        f = write_channel(tmp_path / "id.json", chn.identity_channel(2))
        code, out, err = run(capsys, ["check", f, "--atol", "-1"])
        assert code == 2 and out == "" and err.startswith("error:")
        code, out, err = run(capsys, ["check", f])
        assert code == 0 and err == ""
        json.loads(out)

    def test_out_not_carried_to_next_call(self, tmp_path, capsys):
        f = write_channel(tmp_path / "dep.json", chn.depolarizing(2, 0.25))
        target = tmp_path / "x.json"
        code, _, _ = run(capsys, ["inverse", f, "--kind", "mp", "--out", str(target)])
        assert code == 0 and target.exists()
        target.unlink()
        code, out, _ = run(capsys, ["inverse", f, "--kind", "mp"])
        assert code == 0 and json.loads(out)["ginv"]["kind"] == "mp"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dep.json"]
