"""Every workload's end-to-end and per-layer metrics in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once untraced and once traced per workload, each in its
own process so that peak memory is the workload's own, and prints each
metric with its unit and sample count, and each workload's fail ratio.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    args = parser.parse_args()

    row = "{:<10} {:<42} {:>14} {:<6} {}"
    print(row.format("workload", "metric", "value", "unit", "samples"))
    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        correct = True
        for trace in (0, 1):
            info, result = run(workload, args.seed, args.seconds, trace)
            correct &= result["correct"]
            samples = info["samples"]
            if trace == 0:
                print(row.format(workload, "fail_ratio",
                                 f"{info['fail_ratio']:.4g}", "ratio",
                                 f"{info['attempted']} checks "
                                 f"{info['failures'] or ''}"))
                # checks_per_s and setup_s before scaling by the
                # reference loop
                print(row.format(workload, "wall_checks_per_s",
                                 f"{info['wall_checks_per_s']:.6g}", "1/s",
                                 samples["checks_per_s"]))
                print(row.format(workload, "wall_setup_s",
                                 f"{info['wall_setup_s']:.6g}", "s",
                                 samples["setup_s"]))
            for name, metric in result["metrics"].items():
                print(row.format(workload, name, f"{metric['value']:.6g}",
                                 metric["unit"], samples.get(name, "")))
        print(row.format(workload, "correct", str(correct), "",
                         json.dumps(info["machine"], sort_keys=True)))
        ok &= correct
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
