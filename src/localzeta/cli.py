"""Command-line front door.

Exit codes: 0 all checks passed, 1 at least one mismatch, 2 invalid input,
141 (128 + SIGPIPE) the reader closed the output early.
Instance reports are emitted one JSON object per line so sweeps stream.
Each subcommand handler yields (row, passed) pairs; main writes each row to
stdout, the one output stream, as it arrives and derives the exit code from
the passed flags.  Shell redirection sends it to a file.
The parser is built once per process, on the first main call.  The
arch-verify and cosets handlers import arch and cosets (and so numpy)
themselves, so the exact subcommands never load numpy.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Iterator

from . import cgamma, globalconst, zeta
from .bessel import BesselDatum, SatakeParams, bessel_coeffs
from .errors import LocalZetaError, require_object
from .gl2 import (RAMIFIED_OTHER, RAMIFIED_PS_UNRAM_ALPHA,
                  STEINBERG_UNRAMIFIED, induced_invariant_dim,
                  newform_space_dim)
from .series import DEFAULT_ORDER, Poly, RatFn

EXIT_OK, EXIT_MISMATCH, EXIT_INPUT = 0, 1, 2
EXIT_CLOSED_OUTPUT = 141  # as a shell reports a writer killed by SIGPIPE
# what decoding or checking an input raises on a bad value: exit 2
_BAD_INPUT = (LocalZetaError, KeyError, TypeError, ValueError)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (UnicodeDecodeError, RecursionError) as exc:
        raise _InputError(f"{path}: {exc}")


def _load_items(path: str) -> list:
    """The JSON list at path, or its one object as a list; not empty."""
    data = _load_json(path)
    items = data if isinstance(data, list) else [data]
    if not items:
        raise _InputError(f"{path}: the list is empty, nothing to check")
    return items


class _InputError(Exception):
    pass


def _require_at_least(flag: str, value: int, low: int) -> None:
    """Reject a command-line count below low before any work starts."""
    if value < low:
        raise _InputError(f"{flag} must be >= {low}, got {value}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_nonarch(args):
    for idx, obj in enumerate(_load_items(args.params)):
        try:
            inst = zeta.LocalInstance.from_json(obj, args.order)
            report = zeta.verify_local(inst)
        except _BAD_INPUT as exc:
            raise _InputError(f"instance {idx}: {exc}")
        yield dict(report.to_json(), index=idx), report.passed


def _cmd_bessel(args):
    data = _load_json(args.params)
    try:
        require_object("an instance", data)
        q = data["q"]
        order = args.order if args.order is not None else data.get("order", DEFAULT_ORDER)
        satake = SatakeParams.from_json(data["satake"], q)
        datum = BesselDatum.from_json(data["bessel"], q)
        series = bessel_coeffs(satake, datum, order)
    except _BAD_INPUT as exc:
        raise _InputError(str(exc))
    yield {"q": q, "order": order, "coefficients": series.to_json()}, True


def _cmd_dims(args):
    _require_at_least("--max-n", args.max_n, 0)
    _require_at_least("--max-r", args.max_r, 0)
    mismatches = 0
    checked = 0
    for n in range(args.max_n + 1):
        for r in range(n, args.max_r + 1):
            checked += 1
            expected = sum(newform_space_dim(n, r - m) for m in range(r + 1))
            if induced_invariant_dim(n, r) != expected:
                mismatches += 1
    yield ({"max_n": args.max_n, "max_r": args.max_r, "checked": checked,
            "mismatches": mismatches, "all_match": mismatches == 0},
           mismatches == 0)


def _cmd_cosets(args):
    from . import cosets
    try:
        report = cosets.double_coset_partition(args.p, method=args.method)
    except LocalZetaError as exc:
        raise _InputError(str(exc))
    yield report.to_json(), report.class_count == 2 and report.t1_distinct


def _cmd_arch_verify(args):
    from . import arch
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _InputError(f"--tol must be a finite number > 0, got {args.tol}")
    for idx, obj in enumerate(_load_items(args.spec)):
        try:
            spec = arch.ArchSpec.from_json(obj)
        except _BAD_INPUT as exc:
            raise _InputError(f"spec {idx}: {exc}")
        try:
            closed = arch.arch_zeta_closed(spec)
            quad = arch.arch_zeta_quadrature(spec)
        except LocalZetaError as exc:
            yield ({"index": idx, "spec": spec.to_json(),
                    "error": str(exc), "passed": False}, False)
            continue
        rel = abs(quad - closed) / abs(closed)
        passed = rel <= args.tol
        yield ({"index": idx, "spec": spec.to_json(),
                "closed": [closed.real, closed.imag],
                "quadrature": [quad.real, quad.imag],
                "rel_error": rel, "tol": args.tol, "passed": passed}, passed)


def _cmd_gamma_selftest(args):
    report = cgamma.gamma_selftest()
    worst = max(report["recurrence_max_rel_err"],
                report["gamma_half_rel_err"],
                report["factorial_max_rel_err"])
    report["passed"] = worst <= 1e-10
    yield report, report["passed"]


def _cmd_global_constant(args):
    data = _load_json(args.spec)
    try:
        spec = globalconst.GlobalSpec.from_json(data)
        result = globalconst.special_value_constant(spec)
    except _BAD_INPUT as exc:
        raise _InputError(str(exc))
    yield result.to_json(), True


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_plan(seed: int, order: int,
                repeat: int) -> Iterator[zeta.LocalInstance]:
    """The sweep's instances in draw order, each drawn when it is asked for."""
    import random
    rng = random.Random(seed)
    # (kind, legendre, beta_chi_unramified) per instance, in draw order, each
    # made when it is drawn
    mix = itertools.chain(
        ((RAMIFIED_OTHER, i % 3 - 1, False) for i in range(20 * repeat)),
        ((RAMIFIED_PS_UNRAM_ALPHA, legendre, flag)
         for legendre, flag in ((-1, False), (0, False), (0, True),
                                (1, False))
         for _ in range(10 * repeat)),
        ((STEINBERG_UNRAMIFIED, i % 3 - 1, False)
         for i in range(10 * repeat)))
    for kind, legendre, flag in mix:
        yield zeta.random_local_instance(rng, kind, legendre,
                                         beta_chi_unramified=flag, order=order)


def _corrupted_y_factor(inst):
    """Negative-control hook: a wrong Y (extra unit of T in the numerator)."""
    good = zeta.y_factor(inst)
    bump = Poly([1, 1], inst.q)
    return RatFn(good.numer * bump, good.denom)


def _run_sweep_instance(inst, corrupt: bool) -> dict:
    fn = _corrupted_y_factor if corrupt else None
    report = zeta.verify_local(inst, y_factor_fn=fn)
    result = {"case": report.case, "passed": report.passed}
    if not report.passed:
        # echo verbatim so the instance can be re-run via verify-nonarch
        result["instance"] = report.instance.to_json()
        if report.lhs_vs_hq is not None:
            result["lhs_vs_hq"] = report.lhs_vs_hq.to_json()
        if report.lhs_vs_rhs is not None:
            result["lhs_vs_rhs"] = report.lhs_vs_rhs.to_json()
    return result


def _cmd_sweep(args):
    _require_at_least("--order", args.order, 0)
    _require_at_least("--repeat", args.repeat, 1)
    instances = failures = 0
    for inst in _sweep_plan(args.seed, args.order, args.repeat):
        result = _run_sweep_instance(inst, args.corrupt_y)
        passed = result["passed"]
        failures += not passed
        yield dict(result, index=instances, seed=args.seed), passed
        instances += 1
    yield ({"summary": True, "seed": args.seed, "instances": instances,
            "failures": failures}, True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the input file and order that verify-nonarch and bessel both take
_PARAMS = [("--params", dict(required=True)), ("--order", dict(type=int))]
# (name, help, handler, arguments), in the order --help lists them
_COMMANDS = [
    ("verify-nonarch", "verify a local instance file", _cmd_verify_nonarch,
     _PARAMS),
    ("bessel", "print the B(h(l,0)) coefficient table", _cmd_bessel, _PARAMS),
    ("dims", "check the invariant-dimension identities", _cmd_dims,
     [("--max-n", dict(type=int, default=6)),
      ("--max-r", dict(type=int, default=12))]),
    ("cosets", "double-coset partition of GL4(F_p)", _cmd_cosets,
     [("--p", dict(type=int, required=True)),
      ("--method", dict(choices=("full", "quotient"), default="full"))]),
    ("arch-verify", "archimedean quadrature vs closed form", _cmd_arch_verify,
     [("--spec", dict(required=True)),
      ("--tol", dict(type=float, default=1e-6))]),
    ("gamma-selftest", "complex Gamma accuracy checks", _cmd_gamma_selftest,
     []),
    ("global-constant", "special-value constant C", _cmd_global_constant,
     [("--spec", dict(required=True))]),
    ("sweep", "randomized identity sweep over Cases 1-3", _cmd_sweep,
     [("--seed", dict(type=int, default=0)),
      ("--order", dict(type=int, default=DEFAULT_ORDER)),
      ("--repeat", dict(type=int, default=1,
                        help="multiplier on the per-case instance counts")),
      ("--corrupt-y", dict(action="store_true",
                           help="negative control: tamper with the Y factor"))]),
]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localzeta",
        description="verify local zeta-integral identities and constants")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, func, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    status = EXIT_OK
    try:
        for row, passed in args.func(args):
            sys.stdout.write(json.dumps(row, sort_keys=True) + "\n")
            if not passed:
                status = EXIT_MISMATCH
        sys.stdout.flush()
        return status
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader is gone (`| head`): stop without a traceback, and point
        # stdout at devnull so the interpreter's last flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT


if __name__ == "__main__":
    raise SystemExit(main())
