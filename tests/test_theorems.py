import concurrent.futures
import json
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from chaninv import channels as chn
from chaninv import theorems as thm
from chaninv.ginv import IndexTooLargeError, drazin_inverse, mp_inverse
from chaninv import linalg
from chaninv.linalg import dagger, fro_dist

ATOL = 1e-8


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestDrazinPreservesTpU:
    def test_depolarizing_half(self):
        rep = thm.check_drazin_preserves_tp_u(chn.depolarizing(2, 0.5))
        assert rep.verdict == thm.VERIFIED
        assert rep.max_residual <= ATOL

    def test_random_cptp(self):
        rep = thm.check_drazin_preserves_tp_u(chn.random_cptp(3, 3, 2, 0))
        assert rep.verdict == thm.VERIFIED

    def test_identity(self):
        rep = thm.check_drazin_preserves_tp_u(chn.identity_channel(2))
        assert rep.verdict == thm.VERIFIED and rep.max_residual <= 1e-14

    def test_neither_tp_nor_unital_inconclusive(self):
        rep = thm.check_drazin_preserves_tp_u(chn.conjugation_channel(np.diag([1.0, 0.0])))
        assert rep.verdict == thm.INCONCLUSIVE

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            thm.check_drazin_preserves_tp_u(chn.random_cptp(2, 3, 2, 1))


class TestDepolarizingCaseStudy:
    def test_half_loses_cp(self):
        rep = thm.check_drazin_cp_loss(2, 0.5)
        assert rep.verdict == thm.FALSIFIED
        assert rep.witness is not None
        # the Drazin inverse is the depolarizing map at b = a/(a-1) = -1,
        # whose smallest Choi eigenvalue is b/d = -0.5
        inv = chn.channel_from_dict(rep.witness)
        assert fro_dist(inv.super, chn.depolarizing(2, -1.0).super) <= ATOL
        assert chn.property_report(inv).min_choi_eigenvalue == pytest.approx(-0.5, abs=1e-10)

    def test_fixed_point_keeps_cp(self):
        rep = thm.check_drazin_cp_loss(2, 1.0)
        assert rep.verdict == thm.VERIFIED
        assert rep.witness is None

    def test_d3_large_a(self):
        rep = thm.check_drazin_cp_loss(3, 0.9)
        assert rep.verdict == thm.FALSIFIED
        inv = chn.channel_from_dict(rep.witness)
        assert fro_dist(inv.super, chn.depolarizing(3, 0.9 / (0.9 - 1.0)).super) <= ATOL

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            thm.check_drazin_cp_loss(2, 0.0)

    @pytest.mark.parametrize("build", [chn.depolarizing, thm.check_drazin_cp_loss])
    @pytest.mark.parametrize("a", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameter_named(self, build, a):
        # rejected up front, naming a, before any arithmetic could warn (warnings are errors here)
        with pytest.raises(ValueError, match="parameter a must be finite"):
            build(2, a)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.9, 1.0])
    def test_inverse_parameter_identity(self, d, a):
        b = 1.0 if a == 1.0 else a / (a - 1.0)
        inverse = drazin_inverse(chn.depolarizing(d, a).super).inverse
        assert fro_dist(inverse, chn.depolarizing(d, b).super) <= ATOL


class TestIntertwinerPropagation:
    def test_block_projection_drazin(self):
        rng = np.random.default_rng(2)
        top = random_complex(rng, 2, 2)
        bottom = random_complex(rng, 3, 3)
        f = np.block([[top, np.zeros((2, 3))], [np.zeros((3, 2)), bottom]])
        proj = np.hstack([np.eye(2), np.zeros((2, 3))])
        rep = thm.check_intertwiner_propagation(f, top, proj, "drazin")
        assert rep.verdict == thm.VERIFIED
        assert rep.max_residual <= ATOL

    def test_trace_functional_square_is_tp_preservation(self):
        # with g the 1x1 identity and k the trace functional, the commuting
        # input square says exactly "the channel is TP" and the output square
        # says "its Drazin inverse is TP"
        ch = chn.random_cptp(3, 3, 2, 3)
        trace_row = chn.vec(np.eye(3)).conj()[None, :]
        rep = thm.check_intertwiner_propagation(
            ch.super, np.eye(1, dtype=complex), trace_row, "drazin"
        )
        assert rep.verdict == thm.VERIFIED
        assert rep.max_residual <= ATOL

    def test_trivial_square(self):
        rng = np.random.default_rng(4)
        f = random_complex(rng, 3, 3)
        rep = thm.check_intertwiner_propagation(f, f, np.eye(3), "drazin")
        assert rep.verdict == thm.VERIFIED

    def test_non_commuting_inconclusive(self):
        rng = np.random.default_rng(5)
        rep = thm.check_intertwiner_propagation(
            random_complex(rng, 2, 2), random_complex(rng, 2, 2), np.eye(2), "drazin"
        )
        assert rep.verdict == thm.INCONCLUSIVE

    def test_block_projection_dagger_variant(self):
        rng = np.random.default_rng(6)
        top = random_complex(rng, 2, 2)
        bottom = random_complex(rng, 2, 2)
        f = np.block([[top, np.zeros((2, 2))], [np.zeros((2, 2)), bottom]])
        proj = np.hstack([np.eye(2), np.zeros((2, 2))])
        rep = thm.check_intertwiner_propagation(f, top, proj, "dagger_drazin")
        assert rep.verdict == thm.VERIFIED

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            thm.check_intertwiner_propagation(np.eye(2), np.eye(2), np.eye(2), "schur")


class TestDaggerDrazinPreservesTpU:
    def test_random_ucptp(self):
        rep = thm.check_dagger_drazin_preserves_tpu(chn.random_ucptp(2, 3, 7))
        assert rep.verdict == thm.VERIFIED
        assert rep.max_residual <= ATOL

    def test_projector_channel_self_inverse(self):
        ch = chn.projector_channel((1, 1))
        rep = thm.check_dagger_drazin_preserves_tpu(ch)
        assert rep.verdict == thm.VERIFIED

    def test_identity(self):
        rep = thm.check_dagger_drazin_preserves_tpu(chn.identity_channel(3))
        assert rep.verdict == thm.VERIFIED and rep.max_residual <= 1e-14

    def test_tp_only_is_inconclusive(self):
        rep = thm.check_dagger_drazin_preserves_tpu(thm.amplitude_damping(0.5))
        assert rep.verdict == thm.INCONCLUSIVE


class TestMpTpuIff:
    def test_mixed_unitary_three_terms(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        ch = chn.mixed_unitary([np.eye(2), x, z], [1 / 3, 1 / 3, 1 / 3])
        rep = thm.check_mp_tpu_iff(ch)
        assert rep.verdict == thm.VERIFIED
        assert rep.max_residual <= ATOL

    def test_depolarizing(self):
        rep = thm.check_mp_tpu_iff(chn.depolarizing(2, 0.7))
        assert rep.verdict == thm.VERIFIED

    def test_identity(self):
        rep = thm.check_mp_tpu_iff(chn.identity_channel(2))
        assert rep.verdict == thm.VERIFIED

    def test_non_unital_instance_vacuous(self):
        rep = thm.check_mp_tpu_iff(thm.amplitude_damping(0.3))
        assert rep.verdict == thm.VERIFIED


class TestMpTpViolationSearch:
    def test_finds_witness_on_singular_channels(self):
        rep = thm.search_mp_tp_violation(2, 3, trials=100, seed=8)
        assert rep.verdict == thm.FALSIFIED
        assert rep.witness is not None
        assert rep.max_residual > 1e-3
        witness = chn.channel_from_dict(rep.witness)
        assert chn.is_tp(witness)[0] and not chn.is_unital(witness)[0]
        inv = mp_inverse(witness.super).inverse
        inv_ch = chn.Channel(d_in=witness.d_out, d_out=witness.d_in, super=inv)
        assert chn.is_tp(inv_ch)[1] > 1e-3

    def test_invertible_candidate_is_negative_control(self):
        # amplitude damping below gamma = 1 has an invertible superoperator,
        # so its MP inverse is the true inverse and stays TP
        ch = thm.amplitude_damping(0.5)
        inv = mp_inverse(ch.super).inverse
        r = chn.is_tp(chn.Channel(2, 2, inv))[1]
        assert r <= 1e-12

    def test_full_damping_is_genuine_witness(self):
        ch = thm.amplitude_damping(1.0)
        inv = mp_inverse(ch.super).inverse
        r = chn.is_tp(chn.Channel(2, 2, inv))[1]
        assert r > 1e-3

    def test_identity_limit(self):
        ch = thm.amplitude_damping(0.0)
        assert fro_dist(ch.super, np.eye(4)) == 0.0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            thm.search_mp_tp_violation(2, 3, trials=0, seed=9)


class TestOrthogonalSum:
    @pytest.mark.parametrize("variant", ["drazin", "dagger_drazin", "mp"])
    def test_block_families(self, variant):
        rng = np.random.default_rng(10)
        for i in range(10):
            fs = thm._block_family(rng, n_blocks=2 + i % 3, nilpotent=(i % 4 == 0))
            rep = thm.check_orthogonal_sum(fs, variant)
            assert rep.verdict == thm.VERIFIED, rep
            assert rep.max_residual <= ATOL

    def test_single_map_trivial(self):
        rng = np.random.default_rng(11)
        rep = thm.check_orthogonal_sum([random_complex(rng, 3, 3)], "mp")
        assert rep.verdict == thm.VERIFIED

    def test_projector_kraus_family(self):
        # the projector channel is the orthogonal sum of its block conjugations
        # and equals its own inverse of every kind
        ch = chn.projector_channel((2, 1))
        summands = [np.kron(k.conj(), k) for k in ch.kraus]
        for variant in ("drazin", "dagger_drazin", "mp"):
            rep = thm.check_orthogonal_sum(summands, variant)
            assert rep.verdict == thm.VERIFIED

    def test_non_orthogonal_inconclusive(self):
        rng = np.random.default_rng(12)
        fs = [random_complex(rng, 2, 2), random_complex(rng, 2, 2)]
        rep = thm.check_orthogonal_sum(fs, "drazin")
        assert rep.verdict == thm.INCONCLUSIVE


class TestPureChannelLemma:
    def test_hadamard(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        rep = thm.check_pure_channel_lemma(h)
        assert rep.verdict == thm.VERIFIED

    def test_qr_isometry(self):
        rng = np.random.default_rng(13)
        v = np.linalg.qr(random_complex(rng, 3, 2))[0]
        rep = thm.check_pure_channel_lemma(v)
        assert rep.verdict == thm.VERIFIED

    def test_projector(self):
        rep = thm.check_pure_channel_lemma(np.diag([1.0, 0.0]))
        assert rep.verdict == thm.VERIFIED


class TestProjectorSelfInverse:
    @pytest.mark.parametrize("partition", [(1, 1), (2, 1), (2, 2)])
    def test_partitions(self, partition):
        rep = thm.check_projector_self_inverse(partition)
        assert rep.verdict == thm.VERIFIED
        assert rep.max_residual <= ATOL


class TestDoubleInverseLaws:
    def test_group_double_inverse_on_invertible(self):
        rep = thm.check_group_double_inverse(chn.random_ucptp(2, 2, 14).super)
        assert rep.verdict == thm.VERIFIED

    def test_group_double_inverse_on_idempotent(self):
        rep = thm.check_group_double_inverse(chn.projector_channel((1, 1)).super)
        assert rep.verdict == thm.VERIFIED

    def test_high_index_inconclusive(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = thm.check_group_double_inverse(n)
        assert rep.verdict == thm.INCONCLUSIVE

    def test_gap_at_index_two(self):
        rep = thm.check_double_inverse_gap(2, seed=15)
        assert rep.verdict == thm.VERIFIED

    def test_gap_construction_properties(self):
        rng = np.random.default_rng(16)
        s = thm._index2_tp_superoperator(3, rng)
        v = chn.vec(np.eye(3))
        assert np.linalg.norm(dagger(s) @ v - v) <= 1e-12  # trace preserving
        dr = drazin_inverse(s)
        assert dr.index == 2
        assert np.linalg.norm(dagger(dr.inverse) @ v - v) <= 1e-12  # inverse still TP
        double = drazin_inverse(dr.inverse).inverse
        assert fro_dist(double, s) > 0.5  # double inverse genuinely differs


class TestDraws:
    @pytest.mark.parametrize("draw, name", [(thm.draw_cptp, "random_cptp"), (thm.draw_ucptp, "random_ucptp")])
    def test_redraw_until_certifiable(self, monkeypatch, draw, name):
        # singular values 1 and 1e-3: below MIN_REL_SIGMA, so uncertifiable
        bad, good = chn.depolarizing(2, 0.999), chn.identity_channel(2)
        queue = [bad, bad, good]
        monkeypatch.setattr(chn, name, lambda *args: queue.pop(0))
        assert draw(2, 2, np.random.default_rng(0)) is good
        assert not queue

    @pytest.mark.parametrize("draw, name", [(thm.draw_cptp, "random_cptp"), (thm.draw_ucptp, "random_ucptp")])
    def test_gives_up_after_64_draws(self, monkeypatch, draw, name):
        bad = chn.depolarizing(2, 0.999)
        calls = []
        monkeypatch.setattr(chn, name, lambda *args: calls.append(args) or bad)
        assert draw(2, 2, np.random.default_rng(0)) is bad
        assert len(calls) == 64


class TestRunSuite:
    def test_default_suite_passes(self):
        reports = thm.run_suite(seed=thm.DEFAULT_SUITE_SEED, instance_count=24)
        by_id = {r.theorem_id: r for r in reports}
        assert thm.suite_passed(reports), [(r.theorem_id, r.verdict) for r in reports]
        assert by_id["mp-tp-violation-search"].verdict == thm.FALSIFIED
        assert by_id["depolarizing-cp-loss"].verdict == thm.FALSIFIED
        assert by_id["drazin-tp-preservation"].verdict == thm.VERIFIED
        assert by_id["drazin-tp-preservation"].instances == 24

    def test_zero_instances_all_inconclusive(self):
        reports = thm.run_suite(seed=1, instance_count=0)
        assert all(r.verdict == thm.INCONCLUSIVE for r in reports)
        assert not thm.suite_passed(reports)

    def test_instances_per_item(self):
        counts = {r.theorem_id: r.instances for r in thm.run_suite(seed=5, instance_count=6)}
        fixed = {
            "depolarizing-cp-loss": 8,
            "projector-channel-self-inverse": 3,
            "intertwiner-drazin": 8,  # 6 block squares + the trace squares of instances 0 and 4
            "mp-tp-violation-search": 7,  # the amplitude-damping control + 6 trials
        }
        assert len(counts) == 15
        assert counts == {item: fixed.get(item, 6) for item in counts}
        assert all(r.instances == 0 for r in thm.run_suite(seed=5, instance_count=0))

    def test_trace_squares_cover_non_unitary_channels(self):
        # the trace-functional squares of instances 0, 4, 8, 12 draw 1, 2, 3, 4 Kraus operators: TP
        # propagation through vec(I)^H must also run on channels whose superoperator is not unitary
        drazin_args, _ = thm._intertwiner_instances(np.random.default_rng(3), 16, thm.DEFAULT_TOL)
        supers = [f for f, top, *_ in drazin_args if top.shape == (1, 1)]
        unitary = [fro_dist(dagger(s) @ s, np.eye(s.shape[0])) <= ATOL for s in supers]
        assert unitary == [True, False, False, False]

    def test_raising_check_marks_only_its_item(self, monkeypatch):
        plain = thm.run_suite(seed=5, instance_count=6)

        def broken(*args):
            raise RuntimeError("broken check")

        monkeypatch.setattr(thm, "_mp_tpu_iff", broken)
        patched = thm.run_suite(seed=5, instance_count=6)
        assert [r.theorem_id for r in patched] == [r.theorem_id for r in plain]
        for before, after in zip(plain, patched):
            if after.theorem_id != "mp-tp-u-iff":
                assert after == before
        hit = next(r for r in patched if r.theorem_id == "mp-tp-u-iff")
        assert hit.verdict == thm.INCONCLUSIVE and hit.instances == 6
        assert hit.max_residual == float("inf")
        assert hit.witness == {"error": "broken check"}

    def test_checks_looked_up_per_call(self, monkeypatch):
        calls = []
        original = thm._orthogonal_sum

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(thm, "_orthogonal_sum", counting)
        thm.run_suite(seed=5, instance_count=6)
        assert len(calls) == 18
        assert sorted(set(calls)) == ["dagger_drazin", "drazin", "mp"]

    def test_per_instance_checks_run_through_public_names(self, monkeypatch):
        # the suite calls these checks once per instance, looked up by their public names
        expected = {"check_drazin_cp_loss": 8, "search_mp_tp_violation": 1,
                    "check_pure_channel_lemma": 6, "check_projector_self_inverse": 3}
        calls = dict.fromkeys(expected, 0)
        for name in expected:

            def counting(*args, _name=name, _original=getattr(thm, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(thm, name, counting)
        thm.run_suite(seed=5, instance_count=6)
        assert calls == expected

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            thm.run_suite(seed=5, instance_count=-3)

    def test_empty_report_list_fails(self):
        assert not thm.suite_passed([])

    def test_deterministic_per_seed(self):
        a = thm.run_suite(seed=33, instance_count=6)
        b = thm.run_suite(seed=33, instance_count=6)
        assert json.dumps([thm.report_to_dict(r) for r in a], sort_keys=True) == json.dumps(
            [thm.report_to_dict(r) for r in b], sort_keys=True
        )

    def test_report_serialization_schema(self):
        reports = thm.run_suite(seed=2, instance_count=3)
        for r in reports:
            data = thm.report_to_dict(r)
            assert set(data) == {"theorem_id", "instances", "max_residual", "verdict", "witness"}
            assert data["verdict"] in (thm.VERIFIED, thm.FALSIFIED, thm.INCONCLUSIVE)

    def test_suite_does_not_revalidate_its_own_arrays(self, monkeypatch):
        # the suite certifies the channels and matrices it draws through the private batch entry; only the
        # public boundaries it passes (Channel construction from a superoperator, the per-instance public checks
        # and inverses) validate. Validating every certified stack again would make about 2,500 calls
        calls = []
        original = linalg.as_cmatrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "chaninv" or name.startswith("chaninv."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        monkeypatch.setattr(thm, "_suite_workers", lambda instance_count: 1)  # a worker's calls are not counted here
        thm.run_suite(seed=2, instance_count=50)
        assert 0 < len(calls) <= 1000


def _suite_json(seed, instance_count):
    return json.dumps([thm.report_to_dict(r) for r in thm.run_suite(seed=seed, instance_count=instance_count)])


def _serial_suite_json(monkeypatch, seed, instance_count):
    with monkeypatch.context() as m:
        m.setattr(thm, "_suite_workers", lambda instance_count: 1)
        return _suite_json(seed, instance_count)


# what _suite_workers asks of the host before it forks workers
FORKS_HERE = sys.platform == "linux" and sys.version_info < (3, 12) and len(os.sched_getaffinity(0)) >= 2


class TestSuiteWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        """The arguments of each process pool run_suite builds."""
        built = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        return built

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_forked_groups_give_the_serial_reports(self, monkeypatch, pools, seed):
        serial = _serial_suite_json(monkeypatch, seed, 40)
        monkeypatch.setattr(thm, "_suite_workers", lambda instance_count: 2)
        assert _suite_json(seed, 40) == serial
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_refused_pool_runs_the_groups_here(self, monkeypatch):
        class Refused:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool here")

        serial = _serial_suite_json(monkeypatch, 4, 40)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Refused)
        monkeypatch.setattr(thm, "_suite_workers", lambda instance_count: 2)
        assert _suite_json(4, 40) == serial

    def test_broken_pool_runs_the_groups_here(self, monkeypatch, pools):
        # a worker that dies breaks the pool; every group then runs in this process
        serial = _serial_suite_json(monkeypatch, 5, 40)
        parent = os.getpid()
        run_item = thm._run_item

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run_item(*args)

        monkeypatch.setattr(thm, "_run_item", dying)
        monkeypatch.setattr(thm, "_suite_workers", lambda instance_count: 2)
        assert _suite_json(5, 40) == serial
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not FORKS_HERE, reason="the suite forks only on Linux, CPython < 3.12, with 2 CPUs or more")
    def test_pool_above_one_batch(self, pools):
        thm.run_suite(seed=1, instance_count=thm._BATCH_SIZE + 1)
        assert len(pools) == 1
        (workers,), kwargs = pools[0]
        assert workers == min(len(os.sched_getaffinity(0)), len(thm._HEAVIEST_FIRST))
        assert kwargs["mp_context"].get_start_method() == "fork"
        assert multiprocessing.active_children() == []

    def test_no_pool_at_one_batch(self, pools):
        thm.run_suite(seed=1, instance_count=thm._BATCH_SIZE)
        assert pools == []

    def test_no_pool_while_another_thread_lives(self, pools):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            thm.run_suite(seed=1, instance_count=40)
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert pools == []

    @pytest.mark.parametrize("seed, count", [(-1, 40), (1, -40)])
    def test_bad_arguments_raise_before_any_worker(self, monkeypatch, pools, seed, count):
        monkeypatch.setattr(thm, "_suite_workers", lambda instance_count: 2)
        with pytest.raises(ValueError):
            thm.run_suite(seed=seed, instance_count=count)
        assert pools == []


def _asks(kind, m, tag, tol):
    """A check that asks for one ``kind`` certificate of m and reports the certificate's index."""
    (rep,) = yield [(kind, m)]
    return thm.TheoremReport(tag, 1, float(rep.index), thm.VERIFIED)


def _inverts(m, expected, tol):
    """A check that asks for the Drazin inverse of m and reports its distance from ``expected``."""
    (rep,) = yield [("drazin", m)]
    return thm.TheoremReport("inverts", 1, fro_dist(rep.inverse, expected), thm.VERIFIED)


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class TestRunChecks:
    def test_raising_check_ends_only_itself(self):
        def raising(m, tol):
            yield [("drazin", m)]
            raise RuntimeError("after its reports")

        checks = [(_asks, ("drazin", np.eye(2), "a")), (raising, (np.eye(2),)), (_asks, ("drazin", NILPOTENT, "c"))]
        a, b, c = thm._run_checks(checks, thm.DEFAULT_TOL)
        assert a == thm.TheoremReport("a", 1, 0.0, thm.VERIFIED)
        assert isinstance(b, RuntimeError) and str(b) == "after its reports"
        assert c == thm.TheoremReport("c", 1, 2.0, thm.VERIFIED)

    def test_check_raising_when_created(self):
        def broken(*args):
            raise RuntimeError("no check")

        def screening(tol):
            raise ValueError("hypothesis screen failed")
            yield

        checks = [(broken, ()), (thm._group_double_inverse, (2.0 * np.eye(2),)), (screening, ())]
        created, report, screened = thm._run_checks(checks, thm.DEFAULT_TOL)
        assert isinstance(created, RuntimeError) and str(created) == "no check"
        assert report.theorem_id == "group-double-inverse" and report.verdict == thm.VERIFIED
        assert isinstance(screened, ValueError)

    def test_refused_group_request_ends_only_its_check(self):
        checks = [(_asks, ("group", NILPOTENT, "g")), (_asks, ("drazin", NILPOTENT, "d")),
                  (_asks, ("group", np.eye(2), "e"))]
        g, d, e = thm._run_checks(checks, thm.DEFAULT_TOL)
        assert isinstance(g, IndexTooLargeError) and g.index == 2
        assert d == thm.TheoremReport("d", 1, 2.0, thm.VERIFIED)
        assert e == thm.TheoremReport("e", 1, 0.0, thm.VERIFIED)

    def test_raising_certificate_ends_only_its_askers(self, monkeypatch):
        original = thm._certify_all

        def certify(kind, mats, tol):
            if kind == "moore_penrose":
                raise RuntimeError("kernel failed")
            return original(kind, mats, tol)

        monkeypatch.setattr(thm, "_certify_all", certify)
        ch = chn.conjugation_channel(np.diag([1.0, 0.0]))  # neither TP nor unital: screened out, asks for nothing
        checks = [(thm._mp_tpu_iff, (chn.identity_channel(2),)), (_asks, ("drazin", np.eye(2), "d")),
                  (thm._keeps_tp_u, (ch, "drazin", False)), (_asks, ("moore_penrose", np.eye(3), "m"))]
        iff, d, screened, m = thm._run_checks(checks, thm.DEFAULT_TOL)
        assert isinstance(iff, RuntimeError) and isinstance(m, RuntimeError) and str(m) == "kernel failed"
        assert d == thm.TheoremReport("d", 1, 0.0, thm.VERIFIED)
        assert screened.verdict == thm.INCONCLUSIVE

    def test_error_names_where_it_was_raised(self, monkeypatch):
        # a stored error keeps no traceback, so a note names the function, file and line that raised it, once,
        # also when a public check re-raises it inside another round of checks
        def broken_tp_u(s):
            raise RuntimeError("broken body")

        monkeypatch.setattr(thm, "_tp_u", broken_tp_u)
        code = broken_tp_u.__code__
        note = f"raised in broken_tp_u ({code.co_filename}:{code.co_firstlineno + 1})"
        ch = chn.depolarizing(2, 0.5)
        with pytest.raises(RuntimeError, match="broken body") as exc:
            thm.check_drazin_preserves_tp_u(ch)
        assert exc.value.__notes__ == [note]
        (stored,) = thm._run_checks([(thm._plain, ((ch,), thm.check_drazin_preserves_tp_u))], thm.DEFAULT_TOL)
        assert stored.__traceback__ is None and stored.__notes__ == [note]

    def test_reports_reach_their_askers(self):
        # shapes alternate, so the certificates come back grouped by shape and must be routed back in order
        mats = [c * np.eye(2 + c % 2) for c in range(1, 33)]
        reports = thm._run_checks([(_inverts, (m, np.linalg.inv(m))) for m in mats], thm.DEFAULT_TOL)
        assert all(r.max_residual <= 1e-12 for r in reports)

    def test_one_certificate_call_per_round(self, monkeypatch):
        # the batching carries the suite's throughput: 32 group-double-inverse instances, two rounds, two calls
        calls = []
        original = thm._certify_all

        def counting(kind, mats, tol):
            calls.append((kind, len(mats)))
            return original(kind, mats, tol)

        monkeypatch.setattr(thm, "_certify_all", counting)
        rng = np.random.default_rng(4)
        mats = [thm.draw_ucptp(2 + i % 2, 2, rng).super for i in range(32)]
        reports = thm._run_checks([(thm._group_double_inverse, (m,)) for m in mats], thm.DEFAULT_TOL)
        assert calls == [("drazin", 32), ("drazin", 32)]
        assert [r.verdict for r in reports] == [thm.VERIFIED] * 32


NON_SQUARE = np.ones((2, 3), dtype=complex)


@pytest.mark.parametrize(
    "check, args, match",
    [
        (thm.check_intertwiner_propagation, (NON_SQUARE, np.eye(2), np.eye(2), "drazin"), "shape"),
        (thm.check_intertwiner_propagation, (np.eye(2), np.eye(2), np.diag([1.0, np.inf]), "drazin"), "k contains"),
        (thm.check_intertwiner_propagation, (np.eye(2), np.eye(2), np.eye(2), "bogus"), "unknown variant"),
        (thm.check_orthogonal_sum, ([], "mp"), "at least one summand"),
        (thm.check_orthogonal_sum, ([np.eye(2), np.eye(3)], "dagger_drazin"), "one shape"),
        (thm.check_orthogonal_sum, ([NON_SQUARE], "drazin"), "square"),
        (thm.check_orthogonal_sum, ([np.eye(2)], "bogus"), "unknown variant"),
        (thm.check_group_double_inverse, (NON_SQUARE,), "square"),
        (thm.check_drazin_preserves_tp_u, (chn.kraus_to_channel([NON_SQUARE]),), "d_in == d_out"),
        (thm.check_double_inverse_gap, (0, 1), "d >= 2"),
        (thm.check_double_inverse_gap, (1, 1), "d >= 2"),
        (thm.check_intertwiner_propagation, (np.eye(2), np.eye(2), np.ones((3, 2)), "drazin"),
         r"k must have shape \(2, 2\) for f of shape \(2, 2\) and g of shape \(2, 2\), got \(3, 2\)"),
        (thm.check_intertwiner_propagation, (NON_SQUARE, NON_SQUARE, np.eye(2), "drazin"),
         r"f must be square for the drazin variant, got shape \(2, 3\)"),
        (thm.check_intertwiner_propagation, (NON_SQUARE, NON_SQUARE.T, np.ones((3, 2)), "dagger_drazin"),
         r"h \(default k\) must have shape \(2, 3\) for f of shape \(2, 3\) and g of shape \(3, 2\), got \(3, 2\)"),
    ],
)
def test_public_checks_reject_malformed_input(check, args, match):
    # the generator checks behind these public checks take valid instances; the public checks validate first
    with pytest.raises(ValueError, match=match):
        check(*args)
