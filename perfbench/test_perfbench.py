"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import harness  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import SUITE_ITEMS, SUITE_NEGATIVE, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Operations per test run: one suite operation already takes seconds.
OPS = {"suite": 1, "invert": 16, "cli": 12}


@pytest.fixture(scope="module")
def lib():
    return harness.load_library()


def run_ops(lib, name, seed, workdir, trace=False):
    workload = WORKLOADS[name](lib, seed, workdir)
    tracer = tracer_mod.Tracer().install(vars(lib)) if trace else None
    try:
        loop = harness.measure(workload, max_ops=OPS[name], tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        harness.close(workload)
    return workload, loop, tracer


def test_emitted_metric_names_match_benchmark_json(lib, tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    _, loop, tracer = run_ops(lib, "invert", 1, tmp_path, trace=True)
    e2e = harness.end_to_end(loop, [0.5])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    per_layer = tracer.metrics(len(loop.latencies), 1.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in per_layer.items()}
    assert list(per_layer) == [m["name"] for m in SPEC["per_layer"]]
    assert not tracer.missing


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_and_verdicts(lib, tmp_path, name):
    first, loop_a, _ = run_ops(lib, name, 3, tmp_path / "a")
    second, loop_b, _ = run_ops(lib, name, 3, tmp_path / "b")
    other = WORKLOADS[name](lib, 4, tmp_path / "c")
    harness.close(other)
    assert first.input_digest == second.input_digest
    assert loop_a.verdict_digest == loop_b.verdict_digest
    assert other.input_digest != first.input_digest


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_agree(lib, tmp_path, name):
    _, plain, _ = run_ops(lib, name, 5, tmp_path / "plain")
    _, traced, tracer = run_ops(lib, name, 5, tmp_path / "traced", trace=True)
    assert plain.output_digest == traced.output_digest
    assert plain.verdict_digest == traced.verdict_digest
    assert plain.failed == traced.failed == 0
    assert len(tracer.span_start) > 0
    assert all(end >= start for start, end in zip(tracer.span_start, tracer.span_end))


def _bindings(lib):
    owners = list(vars(lib).values()) + [np.linalg, lib.channels.Channel]
    return {(id(owner), k): v for owner in owners for k, v in vars(owner).items()}


def test_tracer_restores_every_name(lib):
    before = _bindings(lib)
    original_svd = lib.ginv.svd
    tracer = tracer_mod.Tracer().install(vars(lib))
    try:
        assert lib.ginv.svd is not original_svd
        assert lib.theorems.drazin_inverse is lib.ginv.drazin_inverse is lib.package.drazin_inverse
        assert np.linalg.svd is not before[(id(np.linalg), "svd")]
    finally:
        tracer.uninstall()
    after = _bindings(lib)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    tracer.active = True
    lib.ginv.mp_inverse(np.eye(2))
    assert len(tracer.span_start) == 0


def test_oracles_reject_corrupted_outputs(lib, tmp_path):
    invert = WORKLOADS["invert"](lib, 1, tmp_path / "i")
    raw = invert.run(0)
    assert not invert.check(0, raw).failed
    bad = dataclasses.replace(raw, inverse=raw.inverse * 1.001)
    assert invert.check(0, bad).failed

    cli = WORKLOADS["cli"](lib, 1, tmp_path / "c")
    try:
        i = next(i for i in range(len(cli.plan)) if cli._argv(i)[0] == "check")
        code, text = cli.run(i)
        assert (code, cli.check(i, (code, text)).failed) == (0, False)
        flipped = text.replace("true", "TMP").replace("false", "true").replace("TMP", "false")
        assert cli.check(i, (0, flipped)).failed
    finally:
        harness.close(cli)

    suite = WORKLOADS["suite"](lib, 1, tmp_path / "s")
    reports = [
        {"theorem_id": t, "verdict": "falsified" if t in SUITE_NEGATIVE else "verified",
         "witness": {} if t in SUITE_NEGATIVE else None}
        for t in SUITE_ITEMS
    ]
    assert not suite.check(0, (0, json.dumps(reports))).failed
    assert suite.check(0, (RuntimeError("broken"), "")).failed
    reports[0]["verdict"] = "inconclusive"
    assert suite.check(0, (0, json.dumps(reports))).failed
    assert suite.check(0, (1, json.dumps(reports))).failed


def test_oracles_accept_only_the_expected_refusal(lib, tmp_path):
    g = lib.ginv
    invert = WORKLOADS["invert"](lib, 1, tmp_path / "i")
    index = [invert.reference(k)["index"] for k in range(len(invert.inputs))]
    assert {0, 1, 2} <= set(index)
    singular, nilpotent = index.index(1), index.index(2)
    assert invert._check(0, "mp", TypeError("broken")).failed
    assert invert._check(singular, "drazin", g.AxiomResidualError("gate")).failed
    assert invert._check(singular, "dagger_drazin", g.FormulaMismatchError("formulas")).failed
    assert invert._check(singular, "group", g.IndexTooLargeError(2)).failed
    assert not invert._check(nilpotent, "group", g.IndexTooLargeError(2)).failed

    cli = WORKLOADS["cli"](lib, 1, tmp_path / "c")
    try:
        path = next(p for _, p in cli.files if "cptp" in p)
        assert cli._verify(["inverse", path, "--kind", "mp"], (TypeError("broken"), "")).failed
        assert cli._verify(["check", path], (5, "")).failed
        index2 = next(p for _, p in cli.files if "index2" in p)
        assert not cli._verify(["inverse", index2, "--kind", "group"], (4, "")).failed
    finally:
        harness.close(cli)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_operation_fails(lib, tmp_path, seed):
    """Every input of invert and cli has a certifiable answer: one pass over all of them fails nothing."""
    invert = WORKLOADS["invert"](lib, seed, tmp_path / "i")
    assert harness.measure(invert, max_ops=len(invert.inputs) * len(invert.kinds)).failed_ops == []
    cli = WORKLOADS["cli"](lib, seed, tmp_path / "c")
    try:
        assert harness.measure(cli, max_ops=len(cli.plan)).failed_ops == []
    finally:
        harness.close(cli)


def _record(directory, workload, seed, gain, failed_ops):
    """A run record whose every metric is ``gain`` times better than a base value."""
    metrics = {
        m["name"]: {"value": (1 + seed / 1000) * (gain if m["better"] == "higher" else 1 / gain), "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    record = {"workload": workload, "seed": seed, "result": {"metrics": metrics},
              "failed_frac": len(failed_ops) / 100, "failed_ops": failed_ops}
    directory.mkdir(exist_ok=True)
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_compare_counts_more_failures_as_regressed(tmp_path, capsys):
    for seed in range(1, 11):
        _record(tmp_path / "base", "invert", seed, 1.0, ["a"])
        _record(tmp_path / "same", "invert", seed, 1.0, ["a"])
        _record(tmp_path / "faster", "invert", seed, 1.5, ["a"])
        _record(tmp_path / "fails", "invert", seed, 1.5, ["a", "b"])
    assert compare.compare(tmp_path / "base", tmp_path / "same") == 0
    assert compare.compare(tmp_path / "base", tmp_path / "faster") == 0
    assert capsys.readouterr().out.count("improved") == len(SPEC["end_to_end"])
    assert compare.compare(tmp_path / "base", tmp_path / "fails") == 1
    out = capsys.readouterr().out
    assert "improved" not in out and "regressed" in out
