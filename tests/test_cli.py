import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from localzeta import (INERT, RAMIFIED, SPLIT, RAMIFIED_OTHER,
                       RAMIFIED_PS_UNRAM_ALPHA, STEINBERG_UNRAMIFIED, cli,
                       zeta)
from localzeta.series import DEFAULT_ORDER, Poly, RatFn

from test_sqrt_regime import sqrt_instance

WORKED_CASE2 = {
    "q": 4,
    "order": 12,
    "satake": {"gamma": [{"rat": "2"}, {"rat": "1"}, {"rat": "1"}, {"rat": "2"}]},
    "bessel": {"legendre": -1, "lambda_varpi": {"rat": "2"}},
    "rep": {"kind": "RamifiedPSUnramAlpha", "alpha": {"rat": "1"},
            "beta": {"rat": "3"}, "n": 1},
}

# the package source, for a child interpreter that imports it fresh
SRC = Path(__file__).resolve().parents[1] / "src"

ARCH_SPEC = {"l": 10, "l1": 10, "D": 4, "q_exp": 0.0,
             "a_plus": 3.16652e-06, "s": 7 / 6, "ir": 9.0}


def run_cli(*args, check=False):
    """cli.main in this process; its return value, or the code of the
    SystemExit that argparse raises on a usage error, is the return code.
    An uncaught exception fails the test that called it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return _checked(subprocess.CompletedProcess(
        ["localzeta", *args], code, out.getvalue(), err.getvalue()), check)


def run_module(*args, check=False):
    """python -m localzeta in a child process, for the tests of the process
    itself: the module entry point, exit codes and stderr."""
    return _checked(subprocess.run([sys.executable, "-m", "localzeta", *args],
                                   capture_output=True, text=True), check)


def _checked(proc, check):
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def _lines(proc):
    return [json.loads(line, parse_constant=_no_constant)
            for line in proc.stdout.splitlines() if line]


def test_verify_nonarch_worked_instance(tmp_path):
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(WORKED_CASE2))
    proc = run_cli("verify-nonarch", "--params", str(path))
    assert proc.returncode == 0
    (report,) = _lines(proc)
    assert report["passed"] is True
    assert report["case"] == "case2"
    assert report["lhs_vs_hq"] == {"match": True}
    assert report["lhs_vs_rhs"] == {"match": True}


@pytest.mark.parametrize("q, kind, legendre, flag", [
    (4, RAMIFIED_OTHER, SPLIT, False),
    (9, RAMIFIED_PS_UNRAM_ALPHA, INERT, False),
    (7, RAMIFIED_PS_UNRAM_ALPHA, RAMIFIED, True),
    (5, STEINBERG_UNRAMIFIED, RAMIFIED, False)])
def test_verify_nonarch_on_a_sqrt_instance(tmp_path, q, kind, legendre, flag):
    # every value has a sqrt(q) part: the instance passes, and is echoed
    # exactly as it was read
    obj = sqrt_instance(random.Random(q), q, kind, legendre, flag).to_json()
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    proc = run_cli("verify-nonarch", "--params", str(path))
    assert proc.returncode == 0, proc.stderr
    (report,) = _lines(proc)
    assert report["passed"] is True
    assert report["instance"] == obj


def test_verify_nonarch_order_flag(tmp_path):
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(WORKED_CASE2))
    proc = run_cli("verify-nonarch", "--params", str(path), "--order", "5")
    (report,) = _lines(proc)
    assert len(report["lhs"]) == 6


def test_malformed_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run_cli("verify-nonarch", "--params", str(path))
    assert proc.returncode == 2
    assert "line 1" in proc.stderr


@pytest.mark.parametrize("command, flag", [
    ("verify-nonarch", "--params"), ("bessel", "--params"),
    ("arch-verify", "--spec"), ("global-constant", "--spec")])
def test_non_utf8_file_exit_2(tmp_path, command, flag):
    # not UTF-8, nested past the recursion limit, and missing
    for content in (b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, None):
        path = tmp_path / "bad.json"
        path.unlink(missing_ok=True)
        if content is not None:
            path.write_bytes(content)
        proc = run_cli(command, flag, str(path))
        _assert_input_error(proc)
        assert str(path) in proc.stderr


def test_schema_error_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 4, "satake": {"gamma": []}}))
    proc = run_cli("verify-nonarch", "--params", str(path))
    assert proc.returncode == 2
    assert "instance 0" in proc.stderr


def test_unramified_instance_rejected(tmp_path):
    path = tmp_path / "unram.json"
    obj = dict(WORKED_CASE2,
               rep={"kind": "UnramifiedPS", "alpha": {"rat": "1"},
                    "beta": {"rat": "2"}},
               satake={"gamma": [{"rat": "1"}] * 4},
               bessel={"legendre": -1, "lambda_varpi": {"rat": "1"}})
    path.write_text(json.dumps(obj))
    proc = run_cli("verify-nonarch", "--params", str(path))
    assert proc.returncode == 2
    assert "ramified" in proc.stderr


def test_bessel_table(tmp_path):
    path = tmp_path / "bessel.json"
    path.write_text(json.dumps({
        "q": 4,
        "satake": WORKED_CASE2["satake"],
        "bessel": WORKED_CASE2["bessel"],
    }))
    proc = run_cli("bessel", "--params", str(path), "--order", "3", check=True)
    (table,) = _lines(proc)
    assert table["coefficients"][0] == {"rat": "1", "sqrt": "0"}
    # B(h(1,0)) = sum gamma_i q^(-3/2) = 6/16 sqrt(4)
    assert table["coefficients"][1] == {"rat": "0", "sqrt": "3/8"}


def test_bessel_zero_lambda_exit_2(tmp_path):
    # a character's values are units, so Lambda(varpi) = 0 is no datum
    path = tmp_path / "bessel.json"
    path.write_text(json.dumps({
        "q": 4,
        "satake": WORKED_CASE2["satake"],
        "bessel": {"legendre": -1, "lambda_varpi": {"rat": "0"}},
    }))
    proc = run_cli("bessel", "--params", str(path))
    _assert_input_error(proc)
    assert "lambda_varpi must be invertible" in proc.stderr


@pytest.mark.parametrize("gamma", ["2112", {"2": 0, "1": 0, "1 ": 0, "2 ": 0}],
                         ids=["string", "object"])
def test_bessel_gamma_not_a_list_exit_2(tmp_path, gamma):
    path = tmp_path / "bessel.json"
    path.write_text(json.dumps({"q": 4, "satake": {"gamma": gamma},
                                "bessel": WORKED_CASE2["bessel"]}))
    proc = run_cli("bessel", "--params", str(path))
    _assert_input_error(proc)
    assert "gamma must be a list" in proc.stderr


@pytest.mark.parametrize("command, flag, data, name", [
    ("bessel", "--params", dict(WORKED_CASE2, satake="abc"), "satake"),
    ("bessel", "--params", dict(WORKED_CASE2, bessel="abc"), "bessel"),
    ("verify-nonarch", "--params", dict(WORKED_CASE2, rep="RamifiedOther"),
     "instance 0: rep"),
    ("verify-nonarch", "--params", ["abc"], "instance 0: an instance"),
    ("bessel", "--params", "abc", "an instance"),
    # "ir" in "abc" was a substring search
    ("arch-verify", "--spec", ["abc"], "spec 0: an arch spec"),
], ids=["satake", "bessel", "rep", "instance", "bessel-instance", "arch-spec"])
def test_non_object_where_an_object_is_required_exit_2(tmp_path, command,
                                                       flag, data, name):
    # a string was indexed as if it were an object: "string indices must be
    # integers", which named no field
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    proc = run_cli(command, flag, str(path))
    _assert_input_error(proc)
    assert proc.stderr == f"input error: {name} must be a JSON object\n"


def _assert_input_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_bessel_negative_order_exit_2(tmp_path):
    path = tmp_path / "bessel.json"
    path.write_text(json.dumps({
        "q": 4,
        "satake": WORKED_CASE2["satake"],
        "bessel": WORKED_CASE2["bessel"],
    }))
    _assert_input_error(run_module("bessel", "--params", str(path),
                                   "--order", "-1"))


@pytest.mark.parametrize("order", [True, 2.5])
def test_bessel_non_integer_order_exit_2(tmp_path, order):
    path = tmp_path / "bessel.json"
    path.write_text(json.dumps({
        "q": 4,
        "order": order,
        "satake": WORKED_CASE2["satake"],
        "bessel": WORKED_CASE2["bessel"],
    }))
    proc = run_cli("bessel", "--params", str(path))
    _assert_input_error(proc)
    assert "order must be an integer" in proc.stderr


@pytest.mark.parametrize("args", [
    ("sweep", "--order", "-1"),
    # counts that would check nothing must not report a pass
    ("sweep", "--repeat", "0"),
    ("dims", "--max-r", "-1"),
    ("dims", "--max-n", "-1"),
    ("verify-nonarch", "--params", "{case2}", "--order", "-1"),
])
def test_out_of_range_count_exit_2(tmp_path, args):
    case2 = tmp_path / "case2.json"
    case2.write_text(json.dumps(WORKED_CASE2))
    _assert_input_error(run_cli(*(a.format(case2=case2) for a in args)))


@pytest.mark.parametrize("args", [
    ("verify-nonarch", "--params", "{huge}"),
    ("bessel", "--params", "{huge}"),
    ("verify-nonarch", "--params", "{case2}", "--order", "100000000"),
    ("bessel", "--params", "{case2}", "--order", "2001"),
    ("sweep", "--order", "100000000"),
    ("sweep", "--order", "2001"),
    ("dims", "--max-r", "100000"),
    ("dims", "--max-n", "201"),
], ids=["verify-order-1e40", "bessel-order-1e40", "verify-order-flag-1e8",
        "bessel-order-flag-2001", "sweep-order-1e8", "sweep-order-2001",
        "dims-max-r-1e5", "dims-max-n-201"])
def test_work_past_its_bound_exit_2(tmp_path, args):
    # an order past MAX_ORDER ran the series division until a MemoryError
    # (a traceback, exit 1) or past any budget, and dims past
    # MAX_DIMS_BOUND ran for minutes: now each is refused before any work
    case2, huge = tmp_path / "case2.json", tmp_path / "huge.json"
    case2.write_text(json.dumps(WORKED_CASE2))
    huge.write_text(json.dumps(dict(WORKED_CASE2, order=10**40)))
    proc = run_cli(*(a.format(case2=case2, huge=huge) for a in args))
    _assert_input_error(proc)
    assert "must be at most" in proc.stderr


def test_dims_command():
    proc = run_cli("dims", check=True)
    (report,) = _lines(proc)
    assert report["all_match"] is True
    assert report["checked"] == 70


COSETS_KEYS = {"p", "method", "classes", "sizes", "reps", "identity_class",
               "t1_class", "t1_distinct", "elapsed_s"}


def _cosets_report(*args, extra_keys):
    proc = run_cli("cosets", "--p", "2", *args)
    assert proc.returncode == 0, proc.stderr
    (report,) = _lines(proc)
    assert set(report) == COSETS_KEYS | extra_keys
    assert report["classes"] == 2
    assert sorted(report["sizes"]) == [2880, 17280]
    assert report["t1_distinct"] is True
    return report


def test_cosets_command_quotient():
    report = _cosets_report(
        "--method", "quotient",
        extra_keys={"flag_orbit_sizes", "flags", "p4_order"})
    assert report["method"] == "quotient"


def test_cosets_command_full():
    # the documented default route
    report = _cosets_report(extra_keys={"group_order"})
    assert report["method"] == "full"
    assert report["group_order"] == 20160


def test_cosets_bad_p():
    proc = run_cli("cosets", "--p", "5")
    assert proc.returncode == 2


def test_gamma_selftest_command():
    proc = run_module("gamma-selftest", check=True)
    (report,) = _lines(proc)
    assert report["passed"] is True


def test_arch_verify_command(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(ARCH_SPEC))
    proc = run_cli("arch-verify", "--spec", str(path), "--tol", "1e-6",
                   check=True)
    (report,) = _lines(proc)
    assert report["passed"] is True
    assert report["rel_error"] <= 1e-6


def test_global_constant_command(tmp_path):
    path = tmp_path / "global.json"
    path.write_text(json.dumps({"l": 10, "D": 3, "a_lambda": 1.0}))
    proc = run_cli("global-constant", "--spec", str(path), check=True)
    (report,) = _lines(proc)
    assert report["exact_mantissa"] == "875875/226492416"
    import math
    expected = 3.0**-8.5 * 2.0**-34 * math.factorial(15)
    assert abs(report["value"][0] - expected) < 1e-15


def test_global_constant_class_data(tmp_path):
    path = tmp_path / "global.json"
    path.write_text(json.dumps(
        {"l": 10, "D": 3, "class_data": [[1.0, 3.5], [-1.0, 1.25]]}))
    proc = run_cli("global-constant", "--spec", str(path), check=True)
    (report,) = _lines(proc)
    assert report["a_lambda"] == [2.25, 0.0]
    path.write_text(json.dumps({"l": 10, "D": 3, "a_lambda": 1.0}))
    (base,) = _lines(run_cli("global-constant", "--spec", str(path),
                             check=True))
    assert report["value"][0] == pytest.approx(2.25 * base["value"][0],
                                               rel=1e-15)


@pytest.mark.parametrize("spec", [
    {"l": 2, "D": 3},  # (2l-5)! needs l >= 3
    {"l": 10, "D": 3, "a_lambda": 1.0, "class_data": [[1.0, 3.5]]},
    {"l": 10, "D": 3, "class_data": []},
    # C is a product over distinct bad primes
    {"l": 10, "D": 3, "bad_primes": [[2, 0.9], [2, 0.8]]},
    # the mantissa overflows a double; the last is past the bound on l
    {"l": 137, "D": 3},
    {"l": 142, "D": 4},
    {"l": 100_000_000, "D": 3},
    # the mantissa underflows; C overflows with a normal mantissa
    {"l": 1000, "D": 1_000_000},
    {"l": 10, "D": 3, "a_lambda": 1e308, "bad_primes": [[2, 1e10]]},
])
def test_global_constant_bad_spec_exit_2(tmp_path, spec):
    path = tmp_path / "global.json"
    path.write_text(json.dumps(spec))
    _assert_input_error(run_cli("global-constant", "--spec", str(path)))


# 4,300 digits, the most Python's JSON decoder reads; 3 mod 4 and a
# multiple of 23
HUGE = 10**4299 + 3
# as long, with no factor among the thirteen Miller-Rabin bases, so only
# the bound on a bad prime stops a test that took seconds
HUGE_PAST_THE_BASES = 10**4299 + 7


@pytest.mark.parametrize("spec", [
    # the mantissa is far below the doubles, which the log-space estimate
    # sees before any exact power of D
    {"l": 1000, "D": HUGE},
    {"l": 10, "D": 3, "a_lambda": HUGE},
    {"l": 10, "D": 3, "bad_primes": [[HUGE, 0.5]]},
    {"l": 10, "D": 3, "bad_primes": [[HUGE_PAST_THE_BASES, 0.5]]},
])
def test_global_constant_huge_integer_exit_2(tmp_path, spec):
    path = tmp_path / "global.json"
    path.write_text(json.dumps(spec))
    t0 = time.perf_counter()
    proc = run_cli("global-constant", "--spec", str(path))
    assert time.perf_counter() - t0 < 0.5
    _assert_input_error(proc)
    assert "a 4300-digit integer" in proc.stderr
    assert len(proc.stderr) < 200


@pytest.mark.parametrize("spec", [[], "abc"])
def test_global_constant_non_object_spec_exit_2(tmp_path, spec):
    path = tmp_path / "global.json"
    path.write_text(json.dumps(spec))
    _assert_input_error(run_cli("global-constant", "--spec", str(path)))


@pytest.mark.parametrize("command, flag", [("verify-nonarch", "--params"),
                                           ("arch-verify", "--spec")])
def test_empty_list_exit_2(tmp_path, command, flag):
    # no instance means no check ran, which must not read as a pass
    path = tmp_path / "empty.json"
    path.write_text("[]")
    proc = run_cli(command, flag, str(path))
    _assert_input_error(proc)
    assert "empty" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("field, value", [
    ("l", 10.5), ("l1", 10.5), ("D", 4.0),
    # out of range: l < 2, D = 1 or 2 mod 4, neither ir nor r (None drops ir),
    # both ir and r
    ("l", 1), ("D", 5), ("D", 6), ("ir", None), ("r", [0, 5])])
def test_arch_verify_non_integer_weight_exit_2(tmp_path, field, value):
    spec = dict(ARCH_SPEC, **{field: value})
    if value is None:
        del spec[field]
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(spec))
    _assert_input_error(run_cli("arch-verify", "--spec", str(path)))


@pytest.mark.parametrize("key", ["qexp", "a_plus_", "R"])
def test_arch_verify_unknown_key_exit_2(tmp_path, key):
    # a misspelt q_exp was read as absent, that is as q_exp = 0
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, **{key: 0.4})))
    proc = run_cli("arch-verify", "--spec", str(path))
    _assert_input_error(proc)
    assert f"spec 0: an arch spec has unknown key {key!r}" in proc.stderr


@pytest.mark.parametrize("key, value", [
    ("bad_prime", [[2, 0.5]]), ("a_lamda", 2.5), ("class", [])])
def test_global_constant_unknown_key_exit_2(tmp_path, key, value):
    # a misspelt bad_primes was read as absent: C came out twice too large
    path = tmp_path / "global.json"
    path.write_text(json.dumps({"l": 10, "D": 3, key: value}))
    proc = run_cli("global-constant", "--spec", str(path))
    _assert_input_error(proc)
    assert f"a global spec has unknown key {key!r}" in proc.stderr


@pytest.mark.parametrize("field", ["l", "l1"])
def test_arch_verify_weight_past_the_double_range_exit_2(tmp_path, field):
    # the gate and the Gamma arguments take the weights as doubles
    spec = {"l": 4, "l1": 8, "D": 4, "a_plus": 1.0, "s": 1.0, "ir": 7.0}
    spec[field] = 10**400
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("arch-verify", "--spec", str(path))
    _assert_input_error(proc)
    assert len(proc.stderr.splitlines()) == 1
    assert f"{field} must be" in proc.stderr


def test_arch_verify_discriminant_past_the_double_range_passes(tmp_path):
    # q_exp = 10 makes the closed form's power of D 0, so it is a double;
    # the quadrature takes D only through log D
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"l": 4, "l1": 8, "D": 4 * 10**400,
                                "q_exp": 10.0, "a_plus": 1.0, "s": 1.0,
                                "ir": 7.0}))
    proc = run_cli("arch-verify", "--spec", str(path), check=True)
    assert proc.stderr == ""
    (row,) = _lines(proc)
    assert row["passed"] is True
    assert row["rel_error"] <= 1e-6


@pytest.mark.parametrize("n", [2.5, True])
def test_verify_nonarch_non_integer_conductor_exit_2(tmp_path, n):
    path = tmp_path / "case1.json"
    obj = dict(WORKED_CASE2, rep={"kind": "RamifiedOther",
                                  "omega_tau": {"rat": "1"}, "n": n})
    path.write_text(json.dumps(obj))
    _assert_input_error(run_cli("verify-nonarch", "--params", str(path)))


@pytest.mark.parametrize("order", [True, 2.5])
def test_verify_nonarch_non_integer_order_exit_2(tmp_path, order):
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(dict(WORKED_CASE2, order=order)))
    proc = run_cli("verify-nonarch", "--params", str(path))
    _assert_input_error(proc)
    assert "order must be an integer" in proc.stderr


@pytest.mark.parametrize("key, value, message", [
    ("rep", dict(WORKED_CASE2["rep"], beta_chi_unramified="false"),
     "beta_chi_unramified must be a boolean"),
    ("bessel", dict(WORKED_CASE2["bessel"], legendre=-1.0),
     "legendre must be an integer"),
    # a valid split datum, but the symbol is a boolean
    ("bessel", dict(WORKED_CASE2["bessel"], legendre=True,
                    lambda_varpiL={"rat": "1"}, lambda_varpi_conj={"rat": "2"}),
     "legendre must be an integer"),
    ("satake", {"gamma": [{"rat": "2"}, True, {"rat": "1"}, {"rat": "2"}]},
     "not a rational value: True"),
    ("rep", dict(WORKED_CASE2["rep"], alpha={"rat": True}),
     "not a rational value: True"),
    # each would read as the Satake parameters 2, 1, 1, 2
    ("satake", {"gamma": "2112"}, "gamma must be a list"),
    ("satake", {"gamma": {"2": 0, "1": 0, "1 ": 0, "2 ": 0}},
     "gamma must be a list"),
], ids=["flag-string", "legendre-float", "legendre-bool", "scalar-bool",
        "rat-bool", "gamma-string", "gamma-object"])
def test_verify_nonarch_loose_field_exit_2(tmp_path, key, value, message):
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(dict(WORKED_CASE2, **{key: value})))
    proc = run_cli("verify-nonarch", "--params", str(path))
    _assert_input_error(proc)
    assert message in proc.stderr


@pytest.mark.parametrize("key, value", [
    ("rep", {"kind": "RamifiedOther", "omega_tau": {"rat": "1"}, "n": 1,
             "alpha": {"rat": "0"}}),
    ("rep", {"kind": "SteinbergUnramified", "omega": {"rat": "1"},
             "beta_chi_unramified": True}),
    ("bessel", {"legendre": 0, "lambda_varpi": {"rat": "1"},
                "lambda_varpiL": {"rat": "1"},
                "lambda_varpi_conj": {"rat": "0"}}),
], ids=["alpha-case-i", "flag-steinberg", "conj-ramified"])
def test_verify_nonarch_value_its_case_does_not_take_exit_2(tmp_path, key, value):
    # each local datum takes exactly the values its case reads; with
    # omega_pi = 1 = Lambda(varpi) the instance is valid but for value
    obj = dict(WORKED_CASE2, satake={"gamma": [{"rat": "1"}] * 4},
               bessel={"legendre": -1, "lambda_varpi": {"rat": "1"}})
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(dict(obj, **{key: value})))
    proc = run_cli("verify-nonarch", "--params", str(path))
    _assert_input_error(proc)
    assert "takes no" in proc.stderr


# a ramified-extension Case 2 instance, where beta_chi_unramified matters
RAMIFIED_CASE2 = dict(
    WORKED_CASE2,
    satake={"gamma": [{"rat": "4"}, {"rat": "2"}, {"rat": "1"}, {"rat": "2"}]},
    bessel={"legendre": 0, "lambda_varpi": {"rat": "4"},
            "lambda_varpiL": {"rat": "2"}},
    rep=dict(WORKED_CASE2["rep"], beta_chi_unramified=False))


@pytest.mark.parametrize("key, value, message", [
    ("rep", dict(RAMIFIED_CASE2["rep"], beta_chi_unramifed=True),
     "rep has unknown key 'beta_chi_unramifed'"),
    ("rep", dict(RAMIFIED_CASE2["rep"], alpha={"rat": "1", "sqrtt": "1"}),
     "a scalar has unknown key 'sqrtt'"),
    ("satake", dict(RAMIFIED_CASE2["satake"], omega_pi={"rat": "4"}),
     "satake has unknown key 'omega_pi'"),
    ("bessel", dict(RAMIFIED_CASE2["bessel"], lambda_varpi_L={"rat": "2"}),
     "bessel has unknown key 'lambda_varpi_L'"),
], ids=["rep-flag", "scalar-sqrtt", "satake", "bessel"])
def test_verify_nonarch_unknown_key_exit_2(tmp_path, key, value, message):
    # a misspelt optional key is refused, not read as absent
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(RAMIFIED_CASE2))
    run_cli("verify-nonarch", "--params", str(path), check=True)
    path.write_text(json.dumps(dict(RAMIFIED_CASE2, **{key: value})))
    proc = run_cli("verify-nonarch", "--params", str(path))
    _assert_input_error(proc)
    assert message in proc.stderr


def test_unknown_keys_inside_and_outside_the_local_objects(tmp_path):
    # top-level keys stay lenient: bessel reads a verify-nonarch file and
    # leaves its rep unread, so a bad key there does not reach it
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(dict(WORKED_CASE2, note="README instance")))
    run_cli("verify-nonarch", "--params", str(path), check=True)
    path.write_text(json.dumps(dict(WORKED_CASE2, rep=dict(
        WORKED_CASE2["rep"], n_=1))))
    run_cli("bessel", "--params", str(path), check=True)
    _assert_input_error(run_cli("verify-nonarch", "--params", str(path)))
    path.write_text(json.dumps(dict(WORKED_CASE2, bessel=dict(
        WORKED_CASE2["bessel"], legendr=-1))))
    proc = run_cli("bessel", "--params", str(path))
    _assert_input_error(proc)
    assert "bessel has unknown key 'legendr'" in proc.stderr


@pytest.mark.parametrize("field, value", [("l", 10.5), ("l", True), ("D", 3.0)])
def test_global_constant_non_integer_exit_2(tmp_path, field, value):
    path = tmp_path / "global.json"
    path.write_text(json.dumps(dict({"l": 10, "D": 3}, **{field: value})))
    proc = run_cli("global-constant", "--spec", str(path))
    _assert_input_error(proc)
    assert f"{field} must be an integer" in proc.stderr


@pytest.mark.parametrize("field, value", [
    ("s", [1.2]), ("s", [1.2, 0, 5]), ("s", math.nan), ("s", "1.2"),
    ("a_plus", True), ("ir", [9.0, math.inf]), ("q_exp", 10**400)])
def test_arch_verify_bad_complex_exit_2(tmp_path, field, value):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, **{field: value})))
    proc = run_cli("arch-verify", "--spec", str(path))
    _assert_input_error(proc)
    assert f"{field} must be a finite number" in proc.stderr


@pytest.mark.parametrize("spec", [
    {"l": 10, "D": 3, "a_lambda": [1]},
    {"l": 10, "D": 3, "bad_primes": [[2, math.nan]]},
    {"l": 10, "D": 3, "class_data": [[1.0, [3.5, 0, 1]]]},
])
def test_global_constant_bad_complex_exit_2(tmp_path, spec):
    path = tmp_path / "global.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("global-constant", "--spec", str(path))
    _assert_input_error(proc)
    assert "must be a finite number" in proc.stderr


def test_arch_verify_non_finite_gamma_argument_error_row(tmp_path):
    # s is finite, but 6s overflows to inf before Gamma is evaluated
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, s=1e308)))
    proc = run_cli("arch-verify", "--spec", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (row,) = _lines(proc)
    assert row["passed"] is False
    assert "finite" in row["error"]


@pytest.mark.parametrize("s", [1e5, 1e10, 1e300, [1.0, 1e5]])
def test_arch_verify_gamma_out_of_range_error_row(tmp_path, s):
    # Gamma's evaluation overflows, or Gamma(z3) underflows to 0
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, s=s)))
    proc = run_cli("arch-verify", "--spec", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (row,) = _lines(proc)
    assert row["passed"] is False
    assert "double range" in row["error"]


@pytest.mark.parametrize("a_plus, s", [(1e308, 1.2), ([1.5e308, 1.5e308], 5)],
                         ids=["real", "complex"])
def test_arch_verify_a_plus_near_the_double_limit(tmp_path, a_plus, s):
    # the closed values are 1.8e302 and 9.3e297 (1 + i); a+ pi overflows,
    # and so does |a+| itself for the second
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, a_plus=a_plus, s=s)))
    (row,) = _lines(run_cli("arch-verify", "--spec", str(path), check=True))
    assert row["passed"] is True
    if not isinstance(a_plus, list):
        assert row["quadrature"][1] == 0.0


def test_arch_verify_value_past_the_double_range_error_row(tmp_path):
    # the closed and the quadrature values are both 2.5e308
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, a_plus=1e308, s=-1.4)))
    proc = run_cli("arch-verify", "--spec", str(path))
    assert proc.returncode == 1
    (row,) = _lines(proc)
    assert row["passed"] is False
    assert "double range" in row["error"]


@pytest.mark.parametrize("s", [60, 100])
def test_arch_verify_past_the_gamma_range_passes(tmp_path, s):
    # Gamma(3s + 13.5) overflows, the closed value (3.5e31, 1.1e115) does not
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, s=s)))
    (row,) = _lines(run_cli("arch-verify", "--spec", str(path), check=True))
    assert row["passed"] is True
    assert row["rel_error"] <= 1e-6


def test_arch_verify_unconverged_quadrature_error_row(tmp_path):
    # the closed value is 7.1e-231+2.4e-230i, but the quadrature does not
    # converge within its 10 levels: a typed error row, not a traceback
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, s=[1.0, 120.0])))
    proc = run_cli("arch-verify", "--spec", str(path))
    assert proc.returncode == 1
    (row,) = _lines(proc)
    assert row["passed"] is False
    assert "no convergence" in row["error"]


SMALL_GATE_SPEC = {"l": 2, "l1": 2, "D": 3, "q_exp": 0.99, "a_plus": 1.0,
                   "s": 0.0, "ir": 1.0}


def test_arch_verify_small_gate_passes(tmp_path):
    # gate 6s + 2l + l2 - q - 1 = 0.01: U over u = 1 + t lost the tail of
    # u^(-1.01) past its last node and did not converge
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(SMALL_GATE_SPEC))
    (row,) = _lines(run_cli("arch-verify", "--spec", str(path), check=True))
    assert row["passed"] is True
    assert row["rel_error"] <= 1e-6


def test_arch_verify_small_oscillating_gate_error_row(tmp_path):
    # gate 0.01 + 3i: U = int_0^inf e^(-gate v) dv oscillates 300 times per
    # e-fold of decay, and its quadrature does not converge
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(SMALL_GATE_SPEC, s=[0.0, 0.5])))
    proc = run_cli("arch-verify", "--spec", str(path))
    assert proc.returncode == 1
    (row,) = _lines(proc)
    assert row["passed"] is False
    assert "no convergence" in row["error"]


@pytest.mark.parametrize("key, value", [
    ("r", [30, 200]), ("ir", 25.01), ("ir", 26), ("ir", 60)],
    ids=["r30+200i", "ir25.01", "ir26", "ir60"])
def test_arch_verify_divergent_mellin_integral_exit_2(tmp_path, key, value):
    # l = l1 = 10, s = 1.1666: Re(3s + l - 1 - ir/2) = 0 at ir = 24.9996,
    # and at ir = -200 + 30i (mu = 100 - 15i) Re(3s + l - 1 + ir/2) = -87.5.
    # M = int W(x) e^(-x/2) x^(sigma-1) dx then diverges at x = 0, and the
    # closed form is an analytic continuation that no quadrature checks;
    # these were error rows (exit 1), as if the integral existed
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"l": 10, "l1": 10, "D": 4,
                                "a_plus": 3.16652e-06, "s": 1.1666,
                                key: value}))
    proc = run_cli("arch-verify", "--spec", str(path))
    _assert_input_error(proc)
    assert "the Mellin integral diverges at x = 0" in proc.stderr


@pytest.mark.parametrize("ir", [24.9, 24.99])
def test_arch_verify_convergent_mellin_integral_is_checked(tmp_path, ir):
    # just inside the boundary M converges: 24.9 passes, and at 24.99
    # (Re(3s + l - 1 - ir/2) = +0.005) its quadrature does not converge
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"l": 10, "l1": 10, "D": 4, "a_plus": 1.0,
                                "s": 1.1666, "ir": ir}))
    proc = run_cli("arch-verify", "--spec", str(path))
    (row,) = _lines(proc)
    assert proc.returncode == (0 if ir == 24.9 else 1)
    assert row["passed"] is (ir == 24.9)


def test_arch_verify_tolerance_miss_exit_1(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(ARCH_SPEC))
    proc = run_cli("arch-verify", "--spec", str(path), "--tol", "1e-300")
    assert proc.returncode == 1
    (row,) = _lines(proc)
    assert row["passed"] is False
    assert row["rel_error"] > row["tol"]


def test_arch_verify_closed_forms_disagree_error_row(tmp_path):
    # |3s + l| is about 560: each form's log sum rounds at its size
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"l": 10, "l1": 10, "D": 4, "a_plus": 1.0,
                                "s": [100, 175], "ir": 9.0}))
    proc = run_cli("arch-verify", "--spec", str(path))
    assert proc.returncode == 1
    (row,) = _lines(proc)
    assert row["passed"] is False
    assert "disagree" in row["error"]


def test_verify_nonarch_mismatch_exit_1(tmp_path, monkeypatch):
    good = zeta.y_factor

    def corrupted(inst):  # an extra unit of T in the numerator
        y = good(inst)
        return RatFn(y.numer * Poly([1, 1], inst.q), y.denom)

    monkeypatch.setattr(zeta, "y_factor", corrupted)
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(WORKED_CASE2))
    proc = run_cli("verify-nonarch", "--params", str(path))
    assert proc.returncode == 1
    (report,) = _lines(proc)
    assert report["passed"] is False


def test_arch_verify_zero_a_plus_exit_2(tmp_path):
    # the integral vanishes identically: no relative error to take
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(dict(ARCH_SPEC, a_plus=0)))
    proc = run_cli("arch-verify", "--spec", str(path))
    _assert_input_error(proc)
    assert "a_plus" in proc.stderr


@pytest.mark.parametrize("spec", [
    {"l": 3, "l1": 5, "D": 7, "q_exp": 0, "a_plus": 1, "s": 0.147, "ir": 4},
    {"l": 2, "l1": 2, "D": 3, "q_exp": [0.3, 0.5], "a_plus": 1, "s": 0.106,
     "ir": 1},
    {"l": 10, "l1": 12, "D": 4, "q_exp": 0.4, "a_plus": 1, "s": -0.745,
     "ir": 11},
])
def test_arch_verify_tiny_inner_rows_pass(tmp_path, spec):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(spec))
    (row,) = _lines(run_cli("arch-verify", "--spec", str(path), check=True))
    assert row["passed"] is True
    assert row["rel_error"] <= 1e-6


# 2021 = 43 * 47 and the Carmichael number 151 * 751 * 28351, a strong
# pseudoprime to the bases 2, 3, 5 and 7, pass trial division by the bases;
# the last, globalconst.PRIME_BOUND, is a strong pseudoprime to all thirteen
@pytest.mark.parametrize("prime", [2.5, True, "7", -3, 1, 4, 91, 2021,
                                   3_215_031_751,
                                   3_317_044_064_679_887_385_961_981])
def test_global_constant_bad_prime_exit_2(tmp_path, prime):
    path = tmp_path / "global.json"
    path.write_text(json.dumps({"l": 10, "D": 3, "bad_primes": [[prime, 0.9]]}))
    proc = run_cli("global-constant", "--spec", str(path))
    _assert_input_error(proc)
    assert "bad prime" in proc.stderr


@pytest.mark.parametrize("prime", [43, 1_000_003])
def test_global_constant_prime_past_the_bases(tmp_path, prime):
    path = tmp_path / "global.json"
    path.write_text(json.dumps({"l": 10, "D": 3, "bad_primes": [[prime, 0.9]]}))
    (row,) = _lines(run_cli("global-constant", "--spec", str(path), check=True))
    assert row["bad_prime_y_values"] == [[prime, [0.9, 0.0]]]


@pytest.mark.parametrize("command", ["verify-nonarch", "bessel"])
@pytest.mark.parametrize("scalar", [{"rat": "1/0"}, {"rat": "2", "sqrt": "1/0"}])
def test_zero_denominator_scalar_exit_2(tmp_path, command, scalar):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(dict(WORKED_CASE2, bessel={
        "legendre": -1, "lambda_varpi": scalar})))
    proc = run_cli(command, "--params", str(path))
    _assert_input_error(proc)
    assert "zero denominator" in proc.stderr


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_arch_verify_bad_tol_exit_2(tmp_path, tol):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(ARCH_SPEC))
    _assert_input_error(run_cli("arch-verify", "--spec", str(path),
                                f"--tol={tol}"))


def test_sweep_passes_and_is_deterministic(tmp_path):
    a = run_cli("sweep", "--seed", "11", check=True)
    b = run_cli("sweep", "--seed", "11", check=True)
    assert a.stdout == b.stdout
    summary = _lines(a)[-1]
    assert summary["failures"] == 0
    assert summary["instances"] == 70


# sha256 of the stdout of `sweep --order N --corrupt-y` at seed 0: pins the
# first mismatching coefficient, left and right, of every failing report
@pytest.mark.parametrize("order, digest", [
    (12, "672ec33f1e1ffd8e970b10d572e51ba918667f1e787a12a1531394e7d5231537"),
    (48, "888936296eb50c422349b34bfd7b9bb1006fa319c902d00f998eb6ad8c62a650"),
])
def test_sweep_corrupt_y_output_is_unchanged(order, digest):
    proc = run_cli("sweep", "--order", str(order), "--corrupt-y")
    assert proc.returncode == 1
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


# the README instance and the Case-3 instance at q = 5, whose values all
# have sqrt(q) parts, that the CI smoke runs
README_INSTANCE = dict(WORKED_CASE2, rep=dict(WORKED_CASE2["rep"],
                                              beta_chi_unramified=False))
CASE3_SQRT_Q5 = {
    "q": 5, "order": 12,
    "satake": {"gamma": [{"rat": "1", "sqrt": "1"}, {"sqrt": "1"},
                         {"rat": "2", "sqrt": "1"},
                         {"rat": "3", "sqrt": "7/5"}]},
    "bessel": {"legendre": -1, "lambda_varpi": {"rat": "7", "sqrt": "3"}},
    "rep": {"kind": "SteinbergUnramified", "n": 1,
            "omega": {"rat": "1/2", "sqrt": "1/2"}},
}


# sha256 of the stdout of a command on an instance: pins every printed LHS,
# H/Q and RHS coefficient, or every Bessel coefficient
@pytest.mark.parametrize("instance, args, digest", [
    (README_INSTANCE, ["verify-nonarch", "--order", "60"],
     "49e15dc14165fa67d34bd19ef436e80010e2974fd97fe3e66eca17735f4c546e"),
    (README_INSTANCE, ["bessel", "--order", "40"],
     "e96911d9f6f0b04cffbd9f149e2d35d120a84a91cd3e3073c088b127e0ac44f6"),
    (CASE3_SQRT_Q5, ["verify-nonarch"],
     "af1f2e7f7cde49b19266726844832d0da3af04a7d1617239055d3cf0f18cd812"),
], ids=["readme-verify-o60", "readme-bessel-o40", "case3-sqrt-q5-verify"])
def test_printed_series_are_unchanged(tmp_path, instance, args, digest):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    proc = run_cli(*args, "--params", str(path), check=True)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_closed_stdout_stops_quietly():
    # about 300 KB of rows, more than a pipe holds, so the child is still
    # writing when the reader closes the pipe after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "localzeta", "sweep", "--order", "12",
         "--repeat", "8", "--corrupt-y"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_CLOSED_OUTPUT
    assert first["passed"] is False
    assert err == b""


def test_sweep_failure_echo_is_rerunnable(tmp_path):
    proc = run_cli("sweep", "--seed", "3", "--corrupt-y")
    assert proc.returncode == 1
    lines = _lines(proc)
    assert lines[-1]["failures"] > 0
    failing = next(l for l in lines if not l.get("passed", True))
    # the echoed instance must be directly consumable by verify-nonarch
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(failing["instance"]))
    rerun = run_cli("verify-nonarch", "--params", str(path), check=True)
    assert _lines(rerun)[0]["passed"] is True  # instance itself is valid


def test_unknown_command_rejected():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_out_flag_rejected():
    # rows go to stdout only; a shell redirection writes them to a file
    proc = run_cli("dims", "--out", "x")
    assert proc.returncode == 2
    assert "unrecognized arguments: --out x" in proc.stderr
    assert proc.stdout == ""


# what only arch-verify and cosets may load: numpy and the numpy modules
NUMPY_MODULES = ("numpy", "localzeta.arch", "localzeta.cosets",
                 "localzeta.quadrature", "localzeta._kernels")


def test_exact_routes_never_load_numpy(tmp_path):
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(WORKED_CASE2))
    script = f"""
import contextlib, io, sys
import localzeta.cli as cli

def run(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(args))

for args in (["sweep", "--order", "2"], ["dims"], ["gamma-selftest"],
             ["verify-nonarch", "--params", {str(path)!r}],
             ["bessel", "--params", {str(path)!r}]):
    assert run(*args) == 0, args
loaded = [m for m in {NUMPY_MODULES!r} if m in sys.modules]
assert not loaded, loaded
assert run("cosets", "--p", "2", "--method", "quotient") == 0
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cached_parser_keeps_no_state_between_calls():
    assert cli._build_parser() is cli._build_parser()
    run_cli("cosets", "--p", "2", "--method", "quotient", check=True)
    # the default --method is the full route's, not the last call's
    (report,) = _lines(run_cli("cosets", "--p", "2", check=True))
    assert report["method"] == "full"
    assert "group_order" in report and "flags" not in report
    assert run_cli("cosets").returncode == 2  # --p is required
    run_cli("dims", check=True)
    assert run_cli("sweep", "--order", "2", "--corrupt-y").returncode == 1
    summary = _lines(run_cli("sweep", "--order", "2", check=True))[-1]
    assert summary["failures"] == 0
    first, second = run_cli("--help"), run_cli("--help")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and "sweep" in first.stdout


def test_warm_call_leaves_no_cyclic_garbage():
    calls = [("dims",), ("cosets", "--p", "2", "--method", "quotient"),
             ("sweep", "--order", "2")]
    for args in calls:  # warm up: the parser and every module are built
        run_cli(*args, check=True)
    gc.collect()
    gc.disable()
    try:
        for args in calls:
            run_cli(*args, check=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_default_order_is_12():
    # the order a LocalInstance, its JSON form and sweep take when none
    # is given
    assert DEFAULT_ORDER == 12
    inst = zeta.LocalInstance.from_json(
        {k: v for k, v in WORKED_CASE2.items() if k != "order"})
    assert inst.order == 12
    assert zeta.LocalInstance(inst.satake, inst.bessel, inst.rep).order == 12
    assert cli._build_parser().parse_args(["sweep"]).order == 12
