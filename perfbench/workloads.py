"""The three benchmark workloads: ``suite``, ``invert`` and ``cli``.

Each workload is a closed loop with one caller: operation ``i`` is issued
only after operation ``i - 1`` has returned. The constructor is the set-up:
it turns the workload seed into inputs, so the same seed always gives the
same inputs and the library only ever sees the generated data. ``run(i)``
is the timed operation; ``check(i, raw)`` is the correctness oracle, run
outside the timed region. Every call into chaninv goes through a module
attribute, so the tracer's rebinding reaches it.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass

import numpy as np

# Relative Frobenius tolerance for comparing a certified inverse with an
# independent NumPy reference. Inputs are O(1) in norm; the largest
# deviation seen on these inputs is about 1e-11 (dagger-Drazin on CPTP).
REFERENCE_RTOL = 1e-8

# Every generated channel is well conditioned, so that each operation has a
# certifiable answer at chaninv's default tolerances and none fails:
# invertible superoperators are redrawn until their NumPy condition number is
# at most COND_MAX (dagger-Drazin's two gram-matrix formulas then agree to
# about 1e-10, against a gate of 1e-8), and the singular family re-prepares
# each measurement outcome with preparation error REPREPARE_NOISE, which keeps
# the nonzero eigenvalues of its superoperator at least 1 - 2 * REPREPARE_NOISE.
COND_MAX = 100.0
REPREPARE_NOISE = 0.3
MAX_DRAWS = 100

# The 15 items of ``chaninv theorems`` in report order; the two negative
# results must come back falsified with a witness, every other item verified.
SUITE_ITEMS = (
    "drazin-tp-preservation",
    "drazin-unital-preservation",
    "depolarizing-cp-loss",
    "dagger-drazin-tp-u-preservation",
    "mp-tp-u-iff",
    "mp-tp-violation-search",
    "orthogonal-sum-drazin",
    "orthogonal-sum-dagger-drazin",
    "orthogonal-sum-moore-penrose",
    "projector-channel-self-inverse",
    "pure-channel-criteria",
    "intertwiner-drazin",
    "intertwiner-dagger-drazin",
    "group-double-inverse",
    "drazin-double-inverse-gap",
)
SUITE_NEGATIVE = ("depolarizing-cp-loss", "mp-tp-violation-search")


@dataclass(frozen=True)
class Outcome:
    """Oracle verdict on one operation.

    ``failed``: the operation did not produce a correct result (an
    exception, an unexpected exit code, a wrong verdict or a mismatch).
    Every input has a certifiable answer, so a run with a failure is not
    correct.
    ``label``: the operation and what happened, for the verdict digest and
    the list of failed operations.
    ``output``: bytes that identify the output, for the output digest.
    """

    failed: bool
    label: str
    output: bytes


def _ok(label, output=b""):
    return Outcome(False, label, output)


def _fail(label):
    return Outcome(True, label, label.encode())


def _call(fn, *args):
    """Run ``fn`` and return its result, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # an operation's failure is data for the oracle
        return exc


def _rel_dist(a, b):
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))


def _index2_tp_super(d, rng):
    """TP superoperator of Drazin index 2: a nilpotent block on the traceless part."""
    n = d * d
    v = np.eye(d, dtype=np.complex128).flatten(order="F") / np.sqrt(d)
    m = np.column_stack([v, rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))])
    q, _ = np.linalg.qr(m)
    core = np.zeros((n, n), dtype=np.complex128)
    core[0, 0] = 1.0
    core[1, 2] = 1.0
    return q @ core @ q.conj().T


def _reprepare_kraus(d, rng):
    """Kraus operators of a singular CPTP channel of Drazin index 1.

    Measure a random basis and re-prepare outcome ``b`` as ``b`` itself
    with probability ``1 - REPREPARE_NOISE``, or else as a random pure state.
    """
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ops = []
    for i in range(d):
        b = basis[:, i]
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        ops.append(np.sqrt(1 - REPREPARE_NOISE) * np.outer(b, b.conj()))
        ops.append(np.sqrt(REPREPARE_NOISE) * np.outer(w / np.linalg.norm(w), b.conj()))
    return ops


def _well_conditioned(draw):
    """The first channel from ``draw()`` whose superoperator has condition number at most COND_MAX."""
    for _ in range(MAX_DRAWS):
        channel = draw()
        if np.linalg.cond(channel.super) <= COND_MAX:
            return channel
    raise RuntimeError(f"no channel with condition number at most {COND_MAX} in {MAX_DRAWS} draws")


def _drazin_index_reference(a, rank_rtol):
    """Drazin index from NumPy singular values, with chaninv's rank cutoff."""
    n = a.shape[0]
    power = np.eye(n, dtype=np.complex128)
    r_prev = n
    for k in range(n + 1):
        power = power @ a
        s = np.linalg.svd(power, compute_uv=False)
        r_cur = 0 if s[0] == 0.0 else int(np.count_nonzero(s > rank_rtol * n * s[0]))
        if r_cur == r_prev:
            return k
        r_prev = r_cur
    return n


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class SuiteWorkload:
    """``chaninv theorems --count 200`` in-process, one suite seed per operation."""

    name = "suite"
    count = 200

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        self.suite_seeds = [rng.randrange(1, 2**31) for _ in range(256)]
        self.input_digest = _digest(self.suite_seeds)

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.lib.cli.main(["theorems", "--count", "4", "--seed", str(self.suite_seeds[-1])])

    def run(self, i):
        argv = ["theorems", "--count", str(self.count), "--seed", str(self.suite_seeds[i % len(self.suite_seeds)])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _call(self.lib.cli.main, argv)
        return code, out.getvalue()

    def check(self, i, raw):
        code, text = raw
        tag = f"seed {self.suite_seeds[i % len(self.suite_seeds)]}"
        if isinstance(code, BaseException):
            return _fail(f"{tag} raised {type(code).__name__}")
        try:
            reports = json.loads(text)
            verdicts = [(r["theorem_id"], r["verdict"], r["witness"] is not None) for r in reports]
        except (ValueError, KeyError, TypeError):
            return _fail(f"{tag} exit {code}, unparsable report")
        expected = [(t, "falsified", True) if t in SUITE_NEGATIVE else (t, "verified", False) for t in SUITE_ITEMS]
        right = verdicts == expected
        label = f"{tag} exit {code}, verdicts {'as expected' if right else repr(verdicts)}"
        if code == 0 and right:
            return _ok(label, text.encode())
        return _fail(label)


class InvertWorkload:
    """One library inverse per operation on pre-built superoperators, d = 5..8."""

    name = "invert"
    kinds = ("mp", "drazin", "group", "dagger_drazin")
    dims = (5, 6, 7, 8)
    per_family = 3

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        ch = lib.channels
        rng = np.random.default_rng(seed)
        self.tol = lib.linalg.DEFAULT_TOL
        inputs = []
        for d in self.dims:
            for j in range(self.per_family):
                inputs.append(("cptp", _well_conditioned(lambda: ch.random_cptp(d, d, 2, rng)).super))
                inputs.append(("ucptp", _well_conditioned(lambda: ch.random_ucptp(d, 2 + j, rng)).super))
                inputs.append(("reprepare", ch.kraus_to_channel(_reprepare_kraus(d, rng)).super))
                inputs.append(("index2-tp", _index2_tp_super(d, rng)))
        self.inputs = inputs
        self.order = rng.permutation(len(inputs))
        self.input_digest = _digest(*[s.tobytes() for _, s in self.inputs])
        # computed by the oracle on first use, so that set-up time is the
        # library's work and not the benchmark's
        self._references = {}

    def reference(self, k):
        """NumPy pseudo-inverse, inverse (index 0 only) and Drazin index of input ``k``."""
        if k not in self._references:
            s = self.inputs[k][1]
            index = _drazin_index_reference(s, self.tol.rank_rtol)
            self._references[k] = {
                "pinv": np.linalg.pinv(s, rcond=self.tol.rank_rtol * max(s.shape)),
                "inv": np.linalg.inv(s) if index == 0 else None,
                "index": index,
            }
        return self._references[k]

    def _slot(self, i):
        return int(self.order[(i // len(self.kinds)) % len(self.inputs)]), self.kinds[i % len(self.kinds)]

    def warmup(self):
        # every kind on the first four inputs (one per family, d = 5), so
        # that warm-up costs the same for every seed
        for k in range(4):
            for kind in self.kinds:
                self._check(k, kind, self._run(k, kind))

    def run(self, i):
        return self._run(*self._slot(i))

    def check(self, i, raw):
        return self._check(*self._slot(i), raw)

    def _run(self, k, kind):
        g = self.lib.ginv
        fn = {
            "mp": g.mp_inverse,
            "drazin": g.drazin_inverse,
            "group": g.group_inverse,
            "dagger_drazin": g.dagger_drazin,
        }[kind]
        return _call(fn, self.inputs[k][1], self.tol)

    def _check(self, k, kind, raw):
        family, s = self.inputs[k]
        ref = self.reference(k)
        g = self.lib.ginv
        tag = f"{kind} {family}#{k}"
        if isinstance(raw, BaseException):
            if kind == "group" and isinstance(raw, g.IndexTooLargeError):
                if ref["index"] > 1 and raw.index == ref["index"]:
                    return _ok(f"{tag} index {raw.index} has no group inverse", repr(raw.index).encode())
                return _fail(f"{tag} IndexTooLargeError({raw.index}), reference index {ref['index']}")
            return _fail(f"{tag} raised {type(raw).__name__}")
        inv = raw.inverse
        if kind in ("mp", "dagger_drazin"):
            good = _rel_dist(inv, ref["pinv"]) <= REFERENCE_RTOL
        else:
            if kind == "group" and ref["index"] > 1:
                return _fail(f"{tag} returned a group inverse at index {ref['index']}")
            if raw.index != ref["index"]:
                return _fail(f"{tag} index {raw.index}, reference {ref['index']}")
            if ref["inv"] is not None:
                good = _rel_dist(inv, ref["inv"]) <= REFERENCE_RTOL
            else:
                axioms = "group" if kind == "group" else "drazin"
                residuals, _ = g.verify_axioms(axioms, s, inv, self.tol)
                good = max(residuals.values()) <= self.tol.residual_atol
        if not good:
            return _fail(f"{tag} disagrees with the reference")
        return _ok(f"{tag} ok index {getattr(raw, 'index', None)}", inv.tobytes())


def _pairs(m):
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _from_pairs(data):
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _close(a, b):
    """Recursive comparison of decoded JSON payloads, floats to 1e-9 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))
    return a == b


class CliWorkload:
    """In-process ``chaninv`` commands on JSON channel files, d = 2..8."""

    name = "cli"
    dims = (2, 3, 4, 5, 6, 7, 8)
    actions = ("mp", "drazin", "group", "dagger-drazin", "check", "mitigate")

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        ch = lib.channels
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        files = []
        blobs = []

        def write(name, payload):
            text = json.dumps(payload)
            blobs.append(text.encode())
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        for d in self.dims:
            cptp = _well_conditioned(lambda: ch.random_cptp(d, d, 2, rng))
            ucptp = _well_conditioned(lambda: ch.random_ucptp(d, 3, rng))
            rp_ops = _reprepare_kraus(d, rng)
            idx2 = _index2_tp_super(d, rng)
            files.append((d, write(f"cptp-kraus-{d}.json", {"d_in": d, "d_out": d, "kraus": [_pairs(k) for k in cptp.kraus]})))
            files.append((d, write(f"ucptp-super-{d}.json", {"d_in": d, "d_out": d, "super": _pairs(ucptp.super)})))
            files.append((d, write(f"reprepare-kraus-{d}.json", {"d_in": d, "d_out": d, "kraus": [_pairs(k) for k in rp_ops]})))
            files.append((d, write(f"index2-super-{d}.json", {"d_in": d, "d_out": d, "super": _pairs(idx2)})))
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = x @ x.conj().T
            rho /= np.trace(rho).real
            obs = x + x.conj().T
            write(f"state-{d}.json", {"matrix": _pairs(rho)})
            write(f"observable-{d}.json", {"matrix": _pairs(obs)})
        self.files = files
        grid = [(f, a) for f in range(len(files)) for a in range(len(self.actions))]
        self.plan = [grid[k] for k in rng.permutation(len(grid))]
        self.input_digest = _digest(*blobs)
        self._expected = {}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _argv(self, i):
        return self._command(*self.plan[i % len(self.plan)])

    def _command(self, f, a):
        d, path = self.files[f]
        action = self.actions[a]
        if action == "check":
            return ["check", path]
        if action == "mitigate":
            return ["mitigate", path, os.path.join(self.workdir, f"state-{d}.json"),
                    os.path.join(self.workdir, f"observable-{d}.json")]
        return ["inverse", path, "--kind", action]

    def warmup(self):
        # every action on the four d = 2 files, so that warm-up costs the
        # same for every seed
        for a in range(len(self.actions)):
            argv = self._command(a % 4, a)
            self._verify(argv, self._invoke(argv))

    def run(self, i):
        return self._invoke(self._argv(i))

    def check(self, i, raw):
        return self._verify(self._argv(i), raw)

    def _invoke(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = _call(self.lib.cli.main, argv)
        return code, out.getvalue()

    def _reference(self, argv):
        """Exit code and payload that the library itself gives for ``argv``."""
        lib = self.lib
        g = lib.ginv
        with open(argv[1], encoding="utf-8") as fh:
            channel = lib.channels.channel_from_dict(json.load(fh))
        tol = lib.linalg.DEFAULT_TOL
        if argv[0] == "check":
            return 0, lib.channels.property_report(channel, tol).to_dict()
        if argv[0] == "mitigate":
            rho, obs = (self._matrix(p) for p in argv[2:4])
            dr = _call(g.drazin_inverse, channel.super, tol)
            if isinstance(dr, g.GinvError):
                return 5, None
            d = channel.d_in
            noisy_state = lib.channels.apply(channel, rho)
            recovered = (dr.inverse @ noisy_state.flatten(order="F")).reshape((d, d), order="F")
            values = [float(np.trace(obs @ m).real) for m in (rho, noisy_state, recovered)]
            if dr.index == 0 and abs(values[2] - values[0]) > REFERENCE_RTOL * max(1.0, abs(values[0])):
                return -1, None  # an invertible channel must be undone exactly
            return 0, {"ideal": values[0], "noisy": values[1], "mitigated": values[2], "drazin_index": dr.index}
        kind = argv[3]
        fn = {"mp": g.mp_inverse, "drazin": g.drazin_inverse, "group": g.group_inverse,
              "dagger-drazin": g.dagger_drazin}[kind]
        rep = _call(fn, channel.super, tol)
        if isinstance(rep, g.IndexTooLargeError):
            return 4, None
        if isinstance(rep, g.GinvError):
            return 5, None
        return 0, {
            "super": rep.inverse,
            "residuals": {k: float(v) for k, v in rep.residuals.items()},
            "index": getattr(rep, "index", None),
            "witness_k": getattr(rep, "witness_k", None),
        }

    @staticmethod
    def _matrix(path):
        with open(path, encoding="utf-8") as fh:
            return _from_pairs(json.load(fh)["matrix"])

    def _verify(self, argv, raw):
        code, text = raw
        tag = " ".join(os.path.basename(a) for a in argv)
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = self._reference(argv)
        want_code, want = self._expected[key]
        if isinstance(code, BaseException):
            # main turns every expected error into an exit code
            return _fail(f"{tag} raised {type(code).__name__}")
        if want_code == -1:
            return _fail(f"{tag} reference mitigation does not undo an invertible channel")
        if code != want_code:
            return _fail(f"{tag} exit {code}, library gives {want_code}")
        if code != 0:
            # exit 4, no group inverse at index 2, is the one expected refusal
            label = f"{tag} exit {code}"
            return _ok(label, label.encode()) if code == 4 else _fail(label)
        try:
            payload = json.loads(text)
        except ValueError:
            return _fail(f"{tag} output is not JSON")
        if argv[0] == "inverse":
            try:
                inv = _from_pairs(payload["super"])
                ginv = payload["ginv"]
            except (KeyError, TypeError, ValueError):
                return _fail(f"{tag} output lacks the inverse")
            good = (
                inv.shape == want["super"].shape
                and _rel_dist(inv, want["super"]) <= 1e-9
                and _close(ginv["residuals"], want["residuals"])
                and ginv["index"] == want["index"]
                and ginv["witness_k"] == want["witness_k"]
            )
        elif argv[0] == "mitigate":
            good = all(k in payload for k in want) and _close({k: payload[k] for k in want}, want)
        else:
            good = _close(payload, want)
        if not good:
            return _fail(f"{tag} output differs from the library result")
        return _ok(f"{tag} exit 0", text.encode())


WORKLOADS = {w.name: w for w in (SuiteWorkload, InvertWorkload, CliWorkload)}
