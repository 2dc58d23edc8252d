"""End-to-end benchmark of the localzeta command line, with a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every check goes through the public entry
point ``localzeta.cli.main(argv)`` in this one process (the Mellin identity,
which has no subcommand, through ``arch.mellin_whittaker_check``), with
``LOCALZETA_WORKERS`` and ``LOCALZETA_NO_NUMBA`` unset.  Every output line
is parsed and checked at the CLI's own tolerances.  Work runs in a closed
loop of rounds, each starting when the previous one has returned, until
the rounds have taken ``--seconds``.  ``checks_per_s`` is the checks that
passed per reference second of the rounds: the host changes speed by up
to twice for seconds at a time, so the fixed loop of ``reference.py`` is
timed every REFERENCE_EVERY seconds of checks, from a timer signal that
interrupts the checks, and the checks' wall time is scaled by the loop's
mean duration against REFERENCE_S.  The plain wall rate is in the
``info`` line as ``wall_checks_per_s``.  Round k of each workload (see
BENCHMARK.json for why each was chosen):

    sweep-o48  sweep --order 48 --seed S*1000+k              70 instances
    sweep-o12  sweep --order 12 --repeat 4 --seed S*1000+k  280 instances
    arch       arch-verify on each of the four criterion-7 spec shapes, s
               drawn in [0.9, 1.5], and three Mellin triples drawn as in
               criterion 6
    cosets     cosets --p 3 --method quotient, cosets --p 2 --method
               quotient; the seed does not apply

``setup_s`` is the median of SETUP_SPAWNS fresh interpreters importing
``localzeta.cli``, spread over the loop with its clock stopped, because
this machine's speed changes for seconds at a time, and put in reference
seconds like the checks' time (the wall figure is ``wall_setup_s``).
``peak_rss_mb`` is read as soon as the loop ends.  After that, every
invocation runs the
negative control ``sweep --order 12 --corrupt-y --seed S``, which must
flag exactly the 60 Case-1/2 instances, and the cosets workload runs the
documented ``cosets --p 2`` once to show whether it still crashes.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the first TRACE_ROUNDS rounds of the seed run once under the
span tracer of ``spans.py``, then untraced until ``--seconds`` have passed,
and the last line reports the per-layer metrics of the traced pass: a
fixed set of checks, so that counts and times do not grow with the
program's speed.  The line before the last is an ``info`` object: machine
facts, failures by kind, and the sample count behind each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_S, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # inputs while running, span traces after
KNOBS = ("LOCALZETA_WORKERS", "LOCALZETA_NO_NUMBA")
WORKLOADS = ("sweep-o48", "sweep-o12", "arch", "cosets")
SETUP_SPAWNS = 21
REFERENCE_EVERY = 0.5  # seconds of checks between reference-loop samples
ARCH_TOL = 1e-6     # arch-verify --tol default
MELLIN_TOL = 1e-8   # acceptance criterion 6
# criterion 7 shapes; s is drawn per spec
ARCH_SHAPES = (
    {"l": 10, "l1": 10, "D": 4, "q_exp": 0.0,
     "a_plus": (4 * math.pi) ** -5, "ir": 9.0},
    {"l": 12, "l1": 10, "D": 8, "q_exp": 0.4, "a_plus": 1.0, "ir": 9.0},
    {"l": 10, "l1": 12, "D": 4, "q_exp": 0.0, "a_plus": 1.0, "ir": 11.0},
    {"l": 11, "l1": 11, "D": 12, "q_exp": 0.0, "a_plus": [2.0, -1.0],
     "ir": 10.0},
)
MELLIN_PER_ROUND = 3
# rounds the traced run replays: at least twenty verify_local spans on the
# sweeps, twelve arch specs, twenty coset partitions
TRACE_ROUNDS = {"sweep-o48": 1, "sweep-o12": 1, "arch": 3, "cosets": 10}
NEGATIVE_CONTROL_SIZE = 70  # sweep --order 12: 20 Case-1, 40 Case-2, 10 Case-3


def gl4_order(p: int) -> int:
    return (p**4 - 1) * (p**4 - p) * (p**4 - p**2) * (p**4 - p**3)


def run_cli(argv: list[str]):
    """cli.main(argv) with its output captured and parsed:
    (exit code, JSON objects printed, error kind or None)."""
    from localzeta import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed check, never the end of the run
        return None, [], type(exc).__name__
    try:
        return rc, [json.loads(line) for line in out.getvalue().splitlines()], None
    except ValueError:
        return rc, [], "unparsable output"


# ---------------------------------------------------------------------------
# checks: each unit returns (attempted, Counter of failure kinds)
# ---------------------------------------------------------------------------

class Sweep:
    def __init__(self, seed: int, order: int, repeat: int):
        self.expected = 70 * repeat
        self.argv = ["sweep", "--order", str(order), "--repeat", str(repeat),
                     "--seed", str(seed)]

    def run(self):
        rc, rows, error = run_cli(self.argv)
        if error:
            return self.expected, Counter({error: self.expected})
        summary = rows.pop() if rows else {}
        passed = sum(1 for r in rows if r.get("passed") is True)
        consistent = (rc == 0 and summary.get("summary") is True
                      and summary.get("failures") == 0
                      and summary.get("instances") == self.expected
                      and len(rows) == self.expected
                      and [r.get("index") for r in rows] == list(range(len(rows))))
        if passed == self.expected and consistent:
            return self.expected, Counter()
        if passed == self.expected:
            return self.expected, Counter({"inconsistent output": self.expected})
        return self.expected, Counter({"wrong verdict": self.expected - passed})


class ArchVerify:
    def __init__(self, spec: dict, path: Path):
        path.write_text(json.dumps(spec), encoding="utf-8")
        self.argv = ["arch-verify", "--spec", str(path)]

    def run(self):
        rc, rows, error = run_cli(self.argv)
        if error:
            return 1, Counter({error: 1})
        ok = (rc == 0 and len(rows) == 1 and rows[0].get("passed") is True
              and rows[0].get("rel_error", math.inf) <= ARCH_TOL)
        return 1, Counter() if ok else Counter({"wrong verdict": 1})


class Mellin:
    def __init__(self, kappa: float, mu: float, sigma: float):
        self.args = (kappa, mu, sigma)

    def run(self):
        from localzeta import arch
        try:
            report = arch.mellin_whittaker_check(*self.args)
        except Exception as exc:
            return 1, Counter({type(exc).__name__: 1})
        ok = report.rel_error <= MELLIN_TOL
        return 1, Counter() if ok else Counter({"wrong verdict": 1})


class Cosets:
    def __init__(self, p: int, *flags: str):
        self.p = p
        self.argv = ["cosets", "--p", str(p), *flags]
        self.lane = None

    def run(self):
        rc, rows, error = run_cli(self.argv)
        if error:
            return 1, Counter({error: 1})
        row = rows[0] if len(rows) == 1 else {}
        self.lane = row.get("lane")
        ok = (rc == 0 and row.get("classes") == 2
              and sum(row.get("sizes", [])) == gl4_order(self.p)
              and row.get("t1_distinct") is True)
        return 1, Counter() if ok else Counter({"wrong verdict": 1})


def rounds(workload: str, seed: int, workdir: Path):
    """The workload's checks in rounds, endlessly; the same seed gives the
    same sequence."""
    k = 0
    rng = random.Random(seed)
    while True:
        if workload == "sweep-o48":
            yield [Sweep(seed * 1000 + k, order=48, repeat=1)]
        elif workload == "sweep-o12":
            yield [Sweep(seed * 1000 + k, order=12, repeat=4)]
        elif workload == "arch":
            batch = [ArchVerify(dict(shape, s=rng.uniform(0.9, 1.5)),
                                workdir / f"spec-{k}-{j}.json")
                     for j, shape in enumerate(ARCH_SHAPES)]
            while len(batch) < len(ARCH_SHAPES) + MELLIN_PER_ROUND:
                # drawn as in criterion 6
                mu = rng.uniform(-1.2, 1.2)
                kappa = mu + 0.5 - rng.uniform(0.2, 1.6)
                sigma = abs(mu) - 0.5 + rng.uniform(0.35, 2.5)
                if sigma + 0.5 - abs(mu) > 0.3:
                    batch.append(Mellin(kappa, mu, sigma))
            yield batch
        else:
            yield [Cosets(3, "--method", "quotient"),
                   Cosets(2, "--method", "quotient")]
        k += 1


def run_checks(checks) -> tuple[int, Counter]:
    attempted, failures = 0, Counter()
    for check in checks:
        n, failed = check.run()
        attempted += n
        failures += failed
    return attempted, failures


class ReferenceClock:
    """Times the reference loop of ``reference.py`` every REFERENCE_EVERY
    seconds of checks, from a SIGALRM handler, so that its samples fall
    evenly over the checks' time, within long checks too.

    The timer runs only between ``resume()`` and ``pause()``; what is left
    of its interval carries over, so short checks get their share of
    samples.  ``paused`` is the total time the handler took, for the
    caller to take out of the checks' time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self.running = False
        self.left = REFERENCE_EVERY
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self.running:  # fired as pause() stopped it
            self.left = 1e-3
            return
        t0 = perf_counter()
        self.samples.append(reference_seconds())
        self.paused += perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY)

    def resume(self):
        self.running = True
        signal.setitimer(signal.ITIMER_REAL, self.left)

    def pause(self):
        self.running = False
        self.left = signal.setitimer(signal.ITIMER_REAL, 0)[0] or 1e-3

    def close(self):
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_loop(source, seconds: float):
    """Run rounds of checks until they have taken `seconds`.

    The reference loop is timed before the first check, every
    REFERENCE_EVERY seconds while the checks run (see ReferenceClock),
    and after the last round; its time is not the checks'.  The set-up
    spawns are spread over the loop, one whenever the checks have used up
    another 1/SETUP_SPAWNS of `seconds`, with the clocks stopped while
    they run.  Returns (checks run, seconds the checks took, reference
    loop seconds per sample, attempted, failures, set-up seconds per
    spawn).
    """
    done, attempted, failures, setup = [], 0, Counter(), []
    clock = ReferenceClock()
    clock.samples.append(reference_seconds())
    busy = 0.0
    try:
        while busy < seconds:
            for check in next(source):
                while (len(setup) < SETUP_SPAWNS
                       and busy >= len(setup) * seconds / SETUP_SPAWNS):
                    setup.append(setup_seconds())
                paused = clock.paused
                t0 = perf_counter()
                clock.resume()
                n, failed = check.run()
                clock.pause()
                busy += perf_counter() - t0 - (clock.paused - paused)
                done.append(check)
                attempted += n
                failures += failed
    finally:
        clock.close()
    clock.samples.append(reference_seconds())
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_seconds())
    return done, busy, clock.samples, attempted, failures, setup


# ---------------------------------------------------------------------------
# checks outside the timed loop
# ---------------------------------------------------------------------------

def negative_control(seed: int) -> tuple[int, bool]:
    """sweep --corrupt-y must fail every Case-1/2 instance and no Case-3 one.

    Returns (instances flagged, whether the pattern is exactly right).
    """
    rc, rows, error = run_cli(["sweep", "--order", "12", "--corrupt-y",
                               "--seed", str(seed)])
    if error:
        return 0, False
    rows = [r for r in rows if "case" in r]
    failed = Counter(r["case"] for r in rows if r["passed"] is False)
    cases = Counter(r["case"] for r in rows)
    exact = (rc == 1 and cases == Counter(case1=20, case2=40, case3=10)
             and failed == Counter(case1=20, case2=40))
    return sum(failed.values()), exact


def documented_cosets_p2() -> dict:
    """The README's `cosets --p 2` (full route), known to crash at output."""
    _, failures = Cosets(2).run()
    return {"failed": sum(failures.values()), "errors": dict(failures)}


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing localzeta.cli.

    No timeout: with one, subprocess polls for the exit in sleeps of up
    to 50 ms, and the time would read in steps of that size.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import localzeta.cli"],
                   cwd=ROOT, env=env, stdin=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


def machine_facts() -> dict:
    import numpy
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "numba_imports": has_numba,
            "env_unset": list(KNOBS)}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    done, busy, ref, attempted, failures, setup = timed_loop(
        rounds(workload, seed, workdir), seconds)
    # read before the untimed checks below can raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {}
    if workload == "cosets":
        info["documented_cosets_p2"] = documented_cosets_p2()
    passed = attempted - sum(failures.values())  # a failed check is no work
    # wall seconds to reference seconds: the speed at which the reference
    # loop takes REFERENCE_S.  Its samples are spread evenly over the
    # checks' time, and so are the set-up spawns, so their mean is the
    # machine's mean slowness while either ran.
    to_reference = REFERENCE_S / statistics.fmean(ref)
    metrics = {
        "checks_per_s": passed / (busy * to_reference),
        "setup_s": statistics.median(setup) * to_reference,
        "peak_rss_mb": peak_rss_mb,
    }
    info["samples"] = {"checks_per_s": attempted, "setup_s": len(setup),
                       "peak_rss_mb": 1, "reference_loop": len(ref)}
    info["wall_s"] = busy
    info["wall_checks_per_s"] = passed / busy
    info["wall_setup_s"] = statistics.median(setup)
    info["reference_loop_s"] = {"mean": statistics.fmean(ref),
                                "min": min(ref), "max": max(ref)}
    return metrics, info, done, attempted, failures, True


def traced(workload: str, seed: int, seconds: float, workdir: Path):
    """Per-layer figures over the first TRACE_ROUNDS rounds of the seed.

    A fixed set, so that counts and self times do not grow with the
    program's speed.  The set runs once traced, then untraced again and
    again until `seconds` have passed; the overhead ratio compares the
    traced pass with the median untraced one.
    """
    import spans as tr

    source = rounds(workload, seed, workdir)
    checks = [c for _ in range(TRACE_ROUNDS[workload]) for c in next(source)]
    info = {}
    tracer = tr.Tracer()
    try:
        tracer.install()
    except LookupError as exc:
        print(exc, file=sys.stderr)
        return None
    try:
        traced_failures = Counter()
        t0 = perf_counter()
        for check in checks:
            tracer.check_id += 1
            traced_failures += check.run()[1]
        traced_wall = perf_counter() - t0
        accounted = sum(s[tr.SELF] for s in tracer.spans)
        if workload == "cosets":
            info["documented_cosets_p2"] = documented_cosets_p2()
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{workload}.json", t0)
    metrics = tr.layer_metrics(tracer)
    n_spans = len(tracer.spans)
    # drop the spans, so that the collector does not walk them during the
    # untraced passes
    del tracer

    walls, attempted, failures = [], 0, Counter()
    while not walls or sum(walls) < seconds:
        t1 = perf_counter()
        n, failed = run_checks(checks)
        walls.append(perf_counter() - t1)
        attempted += n
        failures += failed
    mul_calls, mul_zero = tr.count_qscalar_mul(lambda: checks[0].run())

    metrics.update({
        "scalars.QScalar.mul.calls": mul_calls,
        "scalars.QScalar.mul.zero_operand_share":
            mul_zero / mul_calls if mul_calls else 0.0,
        "cosets.documented_p2.failed":
            info.get("documented_cosets_p2", {}).get("failed", 0),
        "trace.overhead_ratio": traced_wall / statistics.median(walls),
        "trace.accounted_share": accounted / traced_wall,
    })
    # every traced span nests under a cli.main or Mellin call the traced
    # pass made, so their self times must add up to its wall time; and the
    # wrappers must not change a verdict
    ok = (0.95 <= metrics["trace.accounted_share"] <= 1.0
          and traced_failures == failures == Counter())
    info.update({"traced_checks": len(checks), "untraced_walls_s": walls,
                 "traced_failures": dict(traced_failures),
                 "traced_wall_s": traced_wall, "spans": n_spans,
                 # a layer's timings rest on its calls; other figures on one pass
                 "samples": {name: metrics.get(name.rsplit(".", 1)[0] + ".calls", 1)
                             for name in metrics}})
    return metrics, info, checks, attempted, failures, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "localzeta" / "cli.py").is_file():
        print(f"no localzeta sources under {SRC}", file=sys.stderr)
        return 2
    set_knobs = [k for k in KNOBS if k in os.environ]
    if set_knobs:
        print(f"unset {', '.join(set_knobs)}: the benchmark measures one "
              "process with the default kernel lane", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        run = traced if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds, Path(tmp))
    if result is None:
        return 2
    metrics, info, done, attempted, failures, ok = result
    detected, control_ok = negative_control(args.seed)
    metrics["zeta.negative_control.detected"] = detected
    info["samples"]["zeta.negative_control.detected"] = NEGATIVE_CONTROL_SIZE

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 2
    lanes = sorted({u.lane for u in done if isinstance(u, Cosets) and u.lane})
    info.update({
        "workload": args.workload, "seed": args.seed,
        "machine": machine_facts(), "lane": lanes or None,
        "units": len(done), "attempted": attempted,
        "failures": dict(failures),
        "fail_ratio": sum(failures.values()) / attempted,
        "negative_control": {"detected": detected, "exact": control_ok},
    })
    print(json.dumps({"info": info}, sort_keys=True))
    failed = sum(failures.values())
    print(json.dumps({
        "correct": ok and control_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
