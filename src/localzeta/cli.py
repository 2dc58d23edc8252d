"""Command-line front door.

Exit codes: 0 all checks passed, 1 at least one mismatch, 2 invalid input.
Instance reports are emitted one JSON object per line so sweeps stream.
Each subcommand handler yields (row, passed) pairs; main writes each row as
it arrives and derives the exit code from the passed flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import arch, cgamma, cosets, globalconst, zeta
from .bessel import BesselDatum, SatakeParams, bessel_coeffs
from .errors import LocalZetaError
from .gl2 import (RAMIFIED_OTHER, RAMIFIED_PS_UNRAM_ALPHA,
                  STEINBERG_UNRAMIFIED, induced_invariant_dim,
                  newform_space_dim)
from .series import DEFAULT_ORDER, Poly, RatFn

EXIT_OK, EXIT_MISMATCH, EXIT_INPUT = 0, 1, 2


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


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8"), True
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_nonarch(args):
    for idx, obj in enumerate(_load_items(args.params)):
        try:
            if args.order is not None:
                obj = dict(obj, order=args.order)
            inst = zeta.LocalInstance.from_json(obj)
            report = zeta.verify_local(inst)
        except (LocalZetaError, KeyError, TypeError, ValueError) as exc:
            raise _InputError(f"instance {idx}: {exc}")
        yield dict(report.to_json(), index=idx), report.passed


def _cmd_bessel(args):
    data = _load_json(args.params)
    try:
        q = data["q"]
        order = args.order if args.order is not None else data.get("order", DEFAULT_ORDER)
        satake = SatakeParams.from_json(data["satake"], q)
        datum = BesselDatum.from_json(data["bessel"], q)
        series = bessel_coeffs(satake, datum, order)
    except (LocalZetaError, KeyError, TypeError, ValueError) as exc:
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
    try:
        report = cosets.double_coset_partition(args.p, method=args.method)
    except LocalZetaError as exc:
        raise _InputError(str(exc))
    yield report.to_json(), report.class_count == 2 and report.t1_distinct


def _cmd_arch_verify(args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _InputError(f"--tol must be a finite number > 0, got {args.tol}")
    for idx, obj in enumerate(_load_items(args.spec)):
        try:
            spec = arch.ArchSpec.from_json(obj)
        except (LocalZetaError, KeyError, TypeError, ValueError) as exc:
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
    except (LocalZetaError, KeyError, TypeError, ValueError) as exc:
        raise _InputError(str(exc))
    yield result.to_json(), True


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_plan(seed: int, order: int, repeat: int) -> list[zeta.LocalInstance]:
    import random
    rng = random.Random(seed)
    plan = []
    legendres = (-1, 0, 1)
    for i in range(20 * repeat):
        inst = zeta.random_local_instance(
            rng, RAMIFIED_OTHER, legendres[i % 3], order=order)
        plan.append(inst)
    for legendre, flag in ((-1, False), (0, False), (0, True), (1, False)):
        for _ in range(10 * repeat):
            inst = zeta.random_local_instance(
                rng, RAMIFIED_PS_UNRAM_ALPHA, legendre,
                beta_chi_unramified=flag, order=order)
            plan.append(inst)
    for i in range(10 * repeat):
        inst = zeta.random_local_instance(
            rng, STEINBERG_UNRAMIFIED, legendres[i % 3], order=order)
        plan.append(inst)
    return plan


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
        result["instance"] = report.instance
        if report.lhs_vs_hq is not None:
            result["lhs_vs_hq"] = report.lhs_vs_hq.to_json()
        if report.lhs_vs_rhs is not None:
            result["lhs_vs_rhs"] = report.lhs_vs_rhs.to_json()
    return result


def _cmd_sweep(args):
    _require_at_least("--order", args.order, 0)
    _require_at_least("--repeat", args.repeat, 1)
    plan = _sweep_plan(args.seed, args.order, args.repeat)
    failures = 0
    for idx, inst in enumerate(plan):
        result = _run_sweep_instance(inst, args.corrupt_y)
        passed = result["passed"]
        failures += not passed
        yield dict(result, index=idx, seed=args.seed), passed
    yield ({"summary": True, "seed": args.seed, "instances": len(plan),
            "failures": failures}, True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localzeta",
        description="verify local zeta-integral identities and constants")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)

    def add(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[common])

    p = add("verify-nonarch", help="verify a local instance file")
    p.add_argument("--params", required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=_cmd_verify_nonarch)

    p = add("bessel", help="print the B(h(l,0)) coefficient table")
    p.add_argument("--params", required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=_cmd_bessel)

    p = add("dims", help="check the invariant-dimension identities")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-r", type=int, default=12)
    p.set_defaults(func=_cmd_dims)

    p = add("cosets", help="double-coset partition of GL4(F_p)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", choices=("full", "quotient"), default="full")
    p.set_defaults(func=_cmd_cosets)

    p = add("arch-verify", help="archimedean quadrature vs closed form")
    p.add_argument("--spec", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_arch_verify)

    p = add("gamma-selftest", help="complex Gamma accuracy checks")
    p.set_defaults(func=_cmd_gamma_selftest)

    p = add("global-constant", help="special-value constant C")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_global_constant)

    p = add("sweep", help="randomized identity sweep over Cases 1-3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--repeat", type=int, default=1,
                   help="multiplier on the per-case instance counts")
    p.add_argument("--corrupt-y", action="store_true",
                   help="negative control: tamper with the Y factor")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out, close = sys.stdout, False
    status = EXIT_OK
    try:
        out, close = _open_out(args.out)
        for row, passed in args.func(args):
            out.write(json.dumps(row, sort_keys=True) + "\n")
            if not passed:
                status = EXIT_MISMATCH
        return status
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if close:
            out.close()


if __name__ == "__main__":
    raise SystemExit(main())
