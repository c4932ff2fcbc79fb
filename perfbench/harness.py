"""Set-up, timed loop, metrics and provenance for one benchmark run.

End-to-end metrics come from an untraced run; ``trace=True`` installs the
per-layer tracer for the timed loop and reports per-layer metrics instead.
Only ``run()`` of a workload is timed; its oracle ``check()`` runs outside
the timed region with the tracer switched off.
"""

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_RESULTS = BENCH_DIR / "out"

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# Set-ups per untraced run: this process plus SETUP_PROBES fresh child
# processes, spread evenly over the timed loop so that they do not all meet
# the same moment of host load; setup_s is their median.
SETUP_PROBES = 8

BLAS_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no chaninv sources)."""


def load_spec():
    """The benchmark contract, ``BENCHMARK.json`` at the checkout root."""
    try:
        return json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from exc


def load_library():
    """Import chaninv from this checkout's ``src`` and return its modules."""
    package_dir = SRC / "chaninv"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no chaninv sources at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chaninv
    from chaninv import channels, cli, ginv, linalg, theorems

    if Path(chaninv.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported chaninv from {chaninv.__file__}, not from {package_dir}")
    return SimpleNamespace(package=chaninv, linalg=linalg, ginv=ginv, channels=channels, theorems=theorems, cli=cli)


def set_up(workload_name, seed, workdir):
    """Import chaninv, build the workload's inputs and warm up.

    Returns ``(lib, workload, seconds)``; the seconds include the first
    import of chaninv in this process. NumPy is already imported by then.
    """
    from workloads import WORKLOADS

    start = time.perf_counter()
    lib = load_library()
    workload = WORKLOADS[workload_name](lib, seed, workdir)
    workload.warmup()
    return lib, workload, time.perf_counter() - start


def close(workload):
    if hasattr(workload, "close"):
        workload.close()


def probe_setup(workload_name, seed):
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload_name, "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds=None, max_ops=None, tracer=None, pause=None):
    """Closed loop over ``workload`` for ``seconds`` of loop time or ``max_ops`` operations.

    Loop time is wall time, oracle included. ``pause(elapsed)``, if given,
    is called after each operation with the loop time so far; the time it
    takes is not loop time.
    """
    latencies = []
    failed = 0
    failed_ops = set()
    verdicts = hashlib.sha256()
    outputs = hashlib.sha256()
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while (max_ops is None or i < max_ops) and (seconds is None or time.perf_counter() - start - paused < seconds):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        raw = workload.run(i)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        outcome = workload.check(i, raw)
        failed += outcome.failed
        if outcome.failed:
            failed_ops.add(outcome.label)
        verdicts.update(outcome.label.encode() + b"\n")
        outputs.update(hashlib.sha256(outcome.output).digest())
        i += 1
        if pause is not None:
            t = time.perf_counter()
            pause(t - start - paused)
            paused += time.perf_counter() - t
    return SimpleNamespace(
        latencies=latencies,
        failed=failed,
        failed_ops=sorted(failed_ops),
        verdict_digest=verdicts.hexdigest(),
        output_digest=outputs.hexdigest(),
    )


def end_to_end(loop, setup_samples):
    lat = loop.latencies
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(seed):
    """Machine, library versions and BLAS thread settings, read but never set."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_benchmark(workload_name, seed, seconds, trace, results_dir=DEFAULT_RESULTS):
    """One full run: set-up (timed several times), timed loop, oracle, record.

    Returns ``(result, record)``: ``result`` is the one-line summary with
    ``correct``, ``attempted``, ``failed`` and ``metrics``; ``record`` adds
    provenance, digests and the distinct operations that failed.
    """
    from tracer import Tracer

    results_dir = Path(results_dir)
    workdir = results_dir / f"work-{workload_name}-{os.getpid()}"
    lib, workload, setup_s = set_up(workload_name, seed, workdir)
    results_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    setup_samples = [setup_s]
    probes = 0 if trace else SETUP_PROBES

    def probe(elapsed):
        if len(setup_samples) <= probes * elapsed / seconds:
            setup_samples.append(probe_setup(workload_name, seed))

    try:
        if trace:
            tracer = Tracer().install(vars(lib))
        try:
            loop = measure(workload, seconds=seconds, tracer=tracer, pause=probe if probes else None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        while len(setup_samples) <= probes:
            setup_samples.append(probe_setup(workload_name, seed))
    finally:
        close(workload)
    ops = len(loop.latencies)
    if tracer is not None:
        metrics = tracer.metrics(ops, ops / sum(loop.latencies))
        tracer.save_spans(results_dir / f"spans-{workload_name}.npz")
    else:
        metrics = end_to_end(loop, setup_samples)
    result = {"correct": loop.failed == 0, "attempted": ops, "failed": loop.failed, "metrics": metrics}
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "result": result,
        "failed_frac": loop.failed / ops,
        "setup_samples_s": setup_samples,
        "input_digest": workload.input_digest,
        "verdict_digest": loop.verdict_digest,
        "output_digest": loop.output_digest,
        "failed_ops": loop.failed_ops,
        "untraced_names": tracer.missing if tracer is not None else [],
        "provenance": provenance(seed),
    }
    path = results_dir / f"{workload_name}-seed{seed}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, record
