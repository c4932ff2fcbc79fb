"""Command-line front end: property checks, inverses, the theorem suite,
and a deterministic error-mitigation demonstration.

Exit codes:
  0  success
  1  theorem suite verification failure
  2  malformed input (bad JSON, bad parameters, invalid state/observable,
     an unwritable --out path)
  3  dimension inconsistency
  4  group inverse does not exist (Drazin index > 1)
  5  the computation overflowed, or the inverse failed its certificate
  6  channel is not trace preserving (mitigate)
  141  stdout was closed before the output was written (128 + SIGPIPE; the
       console script only, not ``main``)

Each subcommand takes only the options it reads; any other is a usage error
(exit 2):

  check     --atol --psd-atol --output
  inverse   --rank-rtol --atol --output --kind --out
  theorems  --rank-rtol --atol --psd-atol --seed --output --count
  mitigate  --rank-rtol --atol --psd-atol --output -n/--repetitions
  random    --seed --kind -d --d-out --env -m/--unitaries --out

A tolerance a subcommand takes no flag for keeps the library default.
``random`` refuses a flag of the other ``--kind``: ``--env`` with ucptp,
``-m`` with cptp, and a ``--d-out`` other than ``-d`` with ucptp.

Channels are JSON objects ``{"d_in": n, "d_out": m, "kraus": [...]}`` or
``{"d_in": n, "d_out": m, "super": [...]}`` with matrices as row-major
nested lists of [re, im] pairs. States and observables for ``mitigate`` are
either a bare nested matrix or ``{"matrix": ...}`` in the same entry format.

JSON output (the default ``--output json``, and every ``--out`` file) is one
line of strict JSON with sorted keys: a non-finite number is written as the
string "inf", "-inf" or "nan". ``--output text`` is the form for reading.
Environment variables are never consulted; flags alone determine a run.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import channels as chn
from . import theorems
from .ginv import (
    GinvError,
    IndexTooLargeError,
    dagger_drazin,
    drazin_inverse,
    group_inverse,
    mp_inverse,
)
from .linalg import Tolerances, dagger, fro_dist

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DIMENSION = 3
EXIT_NO_GROUP_INVERSE = 4
EXIT_RESIDUAL = 5
EXIT_NOT_TP = 6
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _tolerances(args) -> Tolerances:
    """The tolerances the subcommand's flags set; a field it has no flag for keeps the library default."""
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    try:
        return Tolerances(**{name: value for name, value in vars(args).items() if name in fields})
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, str(exc)) from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_BAD_INPUT, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_BAD_INPUT, f"malformed JSON in {path}: {exc}") from exc


def _load_channel(path: str) -> chn.Channel:
    data = _load_json(path)
    try:
        return chn.channel_from_dict(data)
    except chn.DimensionMismatchError as exc:
        raise CliError(EXIT_DIMENSION, f"{path}: {exc}") from exc
    except (chn.ChannelFormatError, ValueError) as exc:
        raise CliError(EXIT_BAD_INPUT, f"{path}: {exc}") from exc
    except OverflowError as exc:  # finite input whose superoperator overflowed
        raise CliError(EXIT_RESIDUAL, f"{path}: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    data = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    try:
        return chn.matrix_from_pairs(data, path)
    except chn.ChannelFormatError as exc:
        raise CliError(EXIT_BAD_INPUT, str(exc)) from exc


def _dump(payload) -> str:
    """One line of strict JSON with sorted keys: a non-finite float is written
    as the string "inf", "-inf" or "nan"."""
    # json.dumps runs CPython's C encoder only when indent is None; any indent
    # selects the pure-Python encoder, which dominates a d = 8 inverse call
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float: rewrite the Infinity/NaN tokens as strings
        strict = json.loads(json.dumps(payload), parse_constant=lambda token: str(float(token)))
        return json.dumps(strict, sort_keys=True, allow_nan=False)


def _write_out(text, out_path) -> None:
    """Write the encoded ``text`` and a newline to ``out_path``, when one is given."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(EXIT_BAD_INPUT, f"cannot write {out_path}: {exc}") from exc


def cmd_check(args) -> int:
    tol = _tolerances(args)
    ch = _load_channel(args.channel)
    report = chn.property_report(ch, tol)
    if args.output == "json":
        print(_dump(report.to_dict()))
    else:
        print(f"cp: {report.cp} (min_choi_eigenvalue={report.min_choi_eigenvalue!r})")
        print(f"tp: {report.tp} (residual={report.tp_residual!r})")
        print(f"unital: {report.unital} (residual={report.unital_residual!r})")
    return EXIT_OK


def cmd_inverse(args) -> int:
    tol = _tolerances(args)
    ch = _load_channel(args.channel)
    if args.kind in ("drazin", "group") and ch.d_in != ch.d_out:
        raise CliError(EXIT_DIMENSION, f"{args.kind} inverse needs d_in == d_out, got {ch.d_in} != {ch.d_out}")
    # looked up per call, so that a rebinding of these module names takes effect
    inverse = {"mp": mp_inverse, "drazin": drazin_inverse, "group": group_inverse,
               "dagger-drazin": dagger_drazin}[args.kind]
    try:
        rep = inverse(ch.super, tol)
    except IndexTooLargeError as exc:
        raise CliError(EXIT_NO_GROUP_INVERSE, str(exc)) from exc
    except GinvError as exc:
        raise CliError(EXIT_RESIDUAL, str(exc)) from exc
    if args.out or args.output == "json":  # the payload is built only to be encoded
        payload = chn.channel_to_dict(chn.Channel(d_in=ch.d_out, d_out=ch.d_in, super=rep.inverse))
        payload["ginv"] = {
            "kind": args.kind,
            "residuals": {k: float(v) for k, v in sorted(rep.residuals.items())},
            "index": rep.index,
            "witness_k": rep.witness_k,
        }
        text = _dump(payload)
        _write_out(text, args.out)
    if args.output == "json":
        print(text)
    else:
        print(f"kind: {args.kind}")
        if rep.index is not None:
            print(f"index: {rep.index}")
        if rep.witness_k is not None:
            print(f"witness_k: {rep.witness_k}")
        for label, value in sorted(rep.residuals.items()):
            print(f"{label}: {float(value)!r}")
        if args.out:
            print(f"inverse channel written to {args.out}")
    return EXIT_OK


def cmd_theorems(args) -> int:
    tol = _tolerances(args)
    try:
        reports = theorems.run_suite(seed=args.seed, instance_count=args.count, tol=tol)
    except ValueError as exc:  # a negative seed or count
        raise CliError(EXIT_BAD_INPUT, str(exc)) from exc
    payload = [theorems.report_to_dict(r) for r in reports]
    if args.output == "json":
        print(_dump(payload))
    else:
        for r in reports:
            print(
                f"{r.theorem_id}: {r.verdict} (instances={r.instances}, "
                f"max_residual={r.max_residual!r}, witness={'yes' if r.witness else 'no'})"
            )
    return EXIT_OK if theorems.suite_passed(reports) else EXIT_SUITE_FAILED


def cmd_mitigate(args) -> int:
    tol = _tolerances(args)
    if args.repetitions < 0:
        raise CliError(EXIT_BAD_INPUT, "repetitions must be non-negative")
    ch = _load_channel(args.channel)
    rho = _load_matrix(args.state)
    obs = _load_matrix(args.observable)
    if ch.d_in != ch.d_out:
        raise CliError(EXIT_DIMENSION, f"mitigation needs a square channel, got {ch.d_in} -> {ch.d_out}")
    d = ch.d_in
    if rho.shape != (d, d) or obs.shape != (d, d):
        raise CliError(
            EXIT_DIMENSION,
            f"state {rho.shape} and observable {obs.shape} must match channel dimension {d}",
        )
    if not chn.is_tp(ch, tol)[0]:
        raise CliError(EXIT_NOT_TP, "channel is not trace preserving")
    if fro_dist(rho, dagger(rho)) > tol.residual_atol or abs(np.trace(rho) - 1.0) > tol.residual_atol:
        raise CliError(EXIT_BAD_INPUT, "state must be Hermitian with unit trace")
    if np.linalg.eigvalsh((rho + dagger(rho)) / 2)[0] < -tol.psd_atol:
        raise CliError(EXIT_BAD_INPUT, "state must be positive semidefinite")
    if fro_dist(obs, dagger(obs)) > tol.residual_atol:
        raise CliError(EXIT_BAD_INPUT, "observable must be Hermitian")
    try:
        dr = drazin_inverse(ch.super, tol)
    except GinvError as exc:
        raise CliError(EXIT_RESIDUAL, str(exc)) from exc
    noisy_state = rho
    for _ in range(args.repetitions):
        noisy_state = chn.apply(ch, noisy_state)
    recovered = chn.vec(noisy_state)
    for _ in range(args.repetitions):
        recovered = dr.inverse @ recovered
    recovered = chn.unvec(recovered, d, d)
    ideal = float(np.trace(obs @ rho).real)
    noisy = float(np.trace(obs @ noisy_state).real)
    mitigated = float(np.trace(obs @ recovered).real)
    caveat = None
    if dr.index > 0:
        caveat = (
            "channel is singular (Drazin index "
            f"{dr.index}); mitigation recovers only the core subspace, so the "
            "mitigated value can differ from the ideal one"
        )
    payload = {
        "ideal": ideal,
        "noisy": noisy,
        "mitigated": mitigated,
        "repetitions": args.repetitions,
        "drazin_index": dr.index,
        "invertible": dr.index == 0,
        "caveat": caveat,
    }
    if args.output == "json":
        print(_dump(payload))
    else:
        print(f"ideal: {ideal!r}")
        print(f"noisy: {noisy!r}")
        print(f"mitigated: {mitigated!r}")
        print(f"drazin_index: {dr.index}")
        if caveat:
            print(f"caveat: {caveat}")
    return EXIT_OK


def cmd_random(args) -> int:
    if args.kind == "ucptp" and args.d_out not in (None, args.d):
        raise CliError(EXIT_BAD_INPUT,
                       f"a mixed-unitary channel is square: --d-out {args.d_out} differs from -d {args.d}")
    if args.kind == "ucptp" and args.env is not None:
        raise CliError(EXIT_BAD_INPUT, "--env sizes a cptp channel's environment, not a ucptp channel's")
    if args.kind == "cptp" and args.unitaries is not None:
        raise CliError(EXIT_BAD_INPUT, "-m/--unitaries counts a ucptp channel's unitaries, not a cptp channel's")
    try:
        if args.kind == "cptp":
            d_out = args.d_out if args.d_out is not None else args.d
            ch = chn.random_cptp(args.d, d_out, args.env if args.env is not None else 2, args.seed)
        else:
            ch = chn.random_ucptp(args.d, args.unitaries if args.unitaries is not None else 3, args.seed)
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, str(exc)) from exc
    text = _dump(chn.channel_to_dict(ch))
    _write_out(text, args.out)
    print(text)
    return EXIT_OK


def _option(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, attached to each subcommand that reads it."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*names, **kwargs)
    return parser


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    rank_rtol = _option("--rank-rtol", type=float, default=Tolerances().rank_rtol,
                        help="relative singular-value cutoff for rank decisions")
    atol = _option("--atol", dest="residual_atol", metavar="ATOL", type=float, default=Tolerances().residual_atol,
                   help="absolute Frobenius tolerance for residual checks")
    psd_atol = _option("--psd-atol", type=float, default=Tolerances().psd_atol,
                       help="eigenvalue floor for positive-semidefiniteness")
    seed = _option("--seed", type=int, default=theorems.DEFAULT_SUITE_SEED, help="seed for randomized commands")
    output = _option("--output", choices=("json", "text"), default="json", help="report format")

    parser = argparse.ArgumentParser(
        prog="chaninv",
        description="Generalized inverses of quantum channels with certified residuals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[atol, psd_atol, output], help="CP/TP/unital report for a channel file")
    p.add_argument("channel", help="channel JSON file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("inverse", parents=[rank_rtol, atol, output], help="compute a generalized inverse")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--kind", choices=("mp", "drazin", "group", "dagger-drazin"), required=True)
    p.add_argument("--out", help="also write the inverse channel JSON to this file")
    p.set_defaults(handler=cmd_inverse)

    p = sub.add_parser("theorems", parents=[rank_rtol, atol, psd_atol, seed, output],
                       help="run the verification suite")
    p.add_argument("--count", type=int, default=theorems.DEFAULT_SUITE_COUNT,
                   help="instances per randomized item")
    p.set_defaults(handler=cmd_theorems)

    p = sub.add_parser("mitigate", parents=[rank_rtol, atol, psd_atol, output],
                       help="deterministic error-mitigation demonstration")
    p.add_argument("channel", help="channel JSON file (square, trace preserving)")
    p.add_argument("state", help="density matrix JSON file")
    p.add_argument("observable", help="Hermitian observable JSON file")
    p.add_argument("-n", "--repetitions", type=int, default=1,
                   help="number of channel applications to undo")
    p.set_defaults(handler=cmd_mitigate)

    p = sub.add_parser("random", parents=[seed], help="generate a random channel file")
    p.add_argument("--kind", choices=("cptp", "ucptp"), required=True)
    p.add_argument("-d", type=int, required=True, help="input dimension")
    p.add_argument("--d-out", type=int, default=None, help="output dimension (cptp; default d)")
    p.add_argument("--env", type=int, help="environment dimension (cptp; default 2)")
    p.add_argument("-m", "--unitaries", type=int, help="number of unitaries (ucptp; default 3)")
    p.add_argument("--out", help="also write the channel JSON to this file")
    p.set_defaults(handler=cmd_random)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # every non-finite result is gated or reported, so NumPy's warnings only add noise
        with np.errstate(all="ignore"):
            return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry_point():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at shutdown is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
