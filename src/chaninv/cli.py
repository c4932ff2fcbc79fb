"""Command-line front end: property checks, inverses, the theorem suite,
and a deterministic error-mitigation demonstration.

Exit codes:
  0  success
  1  theorem suite verification failure
  2  malformed input (bad JSON, bad parameters, invalid state/observable)
  3  dimension inconsistency
  4  group inverse does not exist (Drazin index > 1)
  5  axiom residual overflow / formula disagreement
  6  channel is not trace preserving (mitigate)

Channels are JSON objects ``{"d_in": n, "d_out": m, "kraus": [...]}`` or
``{"d_in": n, "d_out": m, "super": [...]}`` with matrices as row-major
nested lists of [re, im] pairs. States and observables for ``mitigate`` are
either a bare nested matrix or ``{"matrix": ...}`` in the same entry format.
Environment variables are never consulted; flags alone determine a run.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import channels as chn
from . import theorems
from .ginv import (
    AxiomResidualError,
    FormulaMismatchError,
    IndexTooLargeError,
    dagger_drazin,
    drazin_inverse,
    group_inverse,
    mp_inverse,
)
from .linalg import Tolerances, dagger, eigh, fro_dist

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DIMENSION = 3
EXIT_NO_GROUP_INVERSE = 4
EXIT_RESIDUAL = 5
EXIT_NOT_TP = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class CliConfig:
    """Run configuration; defaults reproduce the verification suite."""

    tolerances: Tolerances
    seed: int
    output: str


def _config(args) -> CliConfig:
    try:
        tol = Tolerances(
            rank_rtol=args.rank_rtol, residual_atol=args.atol, psd_atol=args.psd_atol
        )
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, str(exc)) from exc
    return CliConfig(tolerances=tol, seed=args.seed, output=args.output)


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


def _load_matrix(path: str) -> np.ndarray:
    data = _load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    try:
        return chn.matrix_from_pairs(data, path)
    except chn.ChannelFormatError as exc:
        raise CliError(EXIT_BAD_INPUT, str(exc)) from exc


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _write_out(payload, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(_dump(payload) + "\n")


def cmd_check(args) -> int:
    cfg = _config(args)
    ch = _load_channel(args.channel)
    report = chn.property_report(ch, cfg.tolerances)
    if cfg.output == "json":
        print(_dump(report.to_dict()))
    else:
        print(f"cp: {report.cp} (min_choi_eigenvalue={report.min_choi_eigenvalue!r})")
        print(f"tp: {report.tp} (residual={report.tp_residual!r})")
        print(f"unital: {report.unital} (residual={report.unital_residual!r})")
    return EXIT_OK


def cmd_inverse(args) -> int:
    cfg = _config(args)
    ch = _load_channel(args.channel)
    if args.kind in ("drazin", "group") and ch.d_in != ch.d_out:
        raise CliError(EXIT_DIMENSION, f"{args.kind} inverse needs d_in == d_out, got {ch.d_in} != {ch.d_out}")
    # looked up per call, so that a rebinding of these module names takes effect
    inverse = {"mp": mp_inverse, "drazin": drazin_inverse, "group": group_inverse,
               "dagger-drazin": dagger_drazin}[args.kind]
    try:
        rep = inverse(ch.super, cfg.tolerances)
    except IndexTooLargeError as exc:
        raise CliError(EXIT_NO_GROUP_INVERSE, str(exc)) from exc
    except (AxiomResidualError, FormulaMismatchError) as exc:
        raise CliError(EXIT_RESIDUAL, str(exc)) from exc
    inv_ch = chn.Channel(d_in=ch.d_out, d_out=ch.d_in, super=rep.inverse)
    payload = chn.channel_to_dict(inv_ch)
    payload["ginv"] = {
        "kind": args.kind,
        "residuals": {k: float(v) for k, v in sorted(rep.residuals.items())},
        "index": rep.index,
        "witness_k": rep.witness_k,
    }
    _write_out(payload, args.out)
    if cfg.output == "json":
        print(_dump(payload))
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
    cfg = _config(args)
    reports = theorems.run_suite(seed=cfg.seed, instance_count=args.count, tol=cfg.tolerances)
    payload = [theorems.report_to_dict(r) for r in reports]
    if cfg.output == "json":
        print(_dump(payload))
    else:
        for r in reports:
            print(
                f"{r.theorem_id}: {r.verdict} (instances={r.instances}, "
                f"max_residual={r.max_residual!r}, witness={'yes' if r.witness else 'no'})"
            )
    return EXIT_OK if theorems.suite_passed(reports) else EXIT_SUITE_FAILED


def cmd_mitigate(args) -> int:
    cfg = _config(args)
    tol = cfg.tolerances
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
    if eigh((rho + dagger(rho)) / 2, tol)[0][0] < -tol.psd_atol:
        raise CliError(EXIT_BAD_INPUT, "state must be positive semidefinite")
    if fro_dist(obs, dagger(obs)) > tol.residual_atol:
        raise CliError(EXIT_BAD_INPUT, "observable must be Hermitian")
    try:
        dr = drazin_inverse(ch.super, tol)
    except (AxiomResidualError, FormulaMismatchError) as exc:
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
    if cfg.output == "json":
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
    cfg = _config(args)
    try:
        if args.kind == "cptp":
            d_out = args.d_out if args.d_out is not None else args.d
            ch = chn.random_cptp(args.d, d_out, args.env, cfg.seed)
        else:
            ch = chn.random_ucptp(args.d, args.unitaries, cfg.seed)
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, str(exc)) from exc
    payload = chn.channel_to_dict(ch)
    _write_out(payload, args.out)
    print(_dump(payload))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank-rtol", type=float, default=Tolerances().rank_rtol,
                        help="relative singular-value cutoff for rank decisions")
    common.add_argument("--atol", type=float, default=Tolerances().residual_atol,
                        help="absolute Frobenius tolerance for residual checks")
    common.add_argument("--psd-atol", type=float, default=Tolerances().psd_atol,
                        help="eigenvalue floor for positive-semidefiniteness")
    common.add_argument("--seed", type=int, default=theorems.DEFAULT_SUITE_SEED,
                        help="seed for randomized commands")
    common.add_argument("--output", choices=("json", "text"), default="json",
                        help="report format")

    parser = argparse.ArgumentParser(
        prog="chaninv",
        description="Generalized inverses of quantum channels with certified residuals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="CP/TP/unital report for a channel file")
    p.add_argument("channel", help="channel JSON file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("inverse", parents=[common], help="compute a generalized inverse")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--kind", choices=("mp", "drazin", "group", "dagger-drazin"), required=True)
    p.add_argument("--out", help="also write the inverse channel JSON to this file")
    p.set_defaults(handler=cmd_inverse)

    p = sub.add_parser("theorems", parents=[common], help="run the verification suite")
    p.add_argument("--count", type=int, default=theorems.DEFAULT_SUITE_COUNT,
                   help="instances per randomized item")
    p.set_defaults(handler=cmd_theorems)

    p = sub.add_parser("mitigate", parents=[common],
                       help="deterministic error-mitigation demonstration")
    p.add_argument("channel", help="channel JSON file (square, trace preserving)")
    p.add_argument("state", help="density matrix JSON file")
    p.add_argument("observable", help="Hermitian observable JSON file")
    p.add_argument("-n", "--repetitions", type=int, default=1,
                   help="number of channel applications to undo")
    p.set_defaults(handler=cmd_mitigate)

    p = sub.add_parser("random", parents=[common], help="generate a random channel file")
    p.add_argument("--kind", choices=("cptp", "ucptp"), required=True)
    p.add_argument("-d", type=int, required=True, help="input dimension")
    p.add_argument("--d-out", type=int, default=None, help="output dimension (cptp; default d)")
    p.add_argument("--env", type=int, default=2, help="environment dimension (cptp)")
    p.add_argument("-m", "--unitaries", type=int, default=3, help="number of unitaries (ucptp)")
    p.add_argument("--out", help="also write the channel JSON to this file")
    p.set_defaults(handler=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
