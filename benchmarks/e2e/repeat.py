"""``--repeat K``: is the benchmark steady enough to judge a change with?

Runs one workload K times in fresh processes, splits the runs into two
alternating sets (A = runs 0, 2, 4 …; B = runs 1, 3, 5 …) and prints, per
end-to-end metric, both medians, how much worse B's is than A's, the spread
of all K values (interquartile range over median — what the driver checks
with ``--vary-seed``) and PASS/FAIL against the metric's bound.  With a fixed
seed the count metrics must be bit-equal across runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.e2e.spec import child_env

__all__ = ["repeat_check"]

#: Counts, not timings: identical inputs must give identical values.
COUNT_METRICS = ("bytes_loaded_fraction", "compression_ratio", "verified_fraction")


def _one_run(workload: str, seed: int, seconds: float, scale: str) -> Dict[str, float]:
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--scale", scale,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, env=child_env())
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def repeat_check(spec: dict, workload: str, seed: int, seconds: float, scale: str,
                 repeats: int, vary_seed: bool) -> int:
    runs: List[Dict[str, float]] = []
    for index in range(repeats):
        run_seed = seed + index if vary_seed else seed
        runs.append(_one_run(workload, run_seed, seconds, scale))
        print(f"run {index} (seed {run_seed}) done", file=sys.stderr)
    print(f"{workload}: {repeats} runs, {'seeds %d..%d' % (seed, seed + repeats - 1) if vary_seed else 'seed %d' % seed}")
    print(f"  {'metric':<24} {'median A':>12} {'median B':>12} {'B worse by':>11} {'spread':>8} {'bound':>7}")
    verdict = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run[name] for run in runs]
        first, second = statistics.median(values[0::2]), statistics.median(values[1::2])
        worse = _worsening(first, second, metric["better"])
        quartiles = statistics.quantiles(values, n=4)
        spread = (quartiles[2] - quartiles[0]) / statistics.median(values)
        ok = worse <= bound and (name == "setup_s" or spread <= bound)
        if name in COUNT_METRICS and not vary_seed and len(set(values)) > 1:
            ok = False
            print(f"  {name}: a count that did not repeat exactly: {sorted(set(values))}")
        verdict |= not ok
        print(f"  {name:<24} {first:>12.6g} {second:>12.6g} {worse:>+11.4f} {spread:>8.4f} {bound:>7} "
              f"{'PASS' if ok else 'FAIL'}   runs: {' '.join(f'{v:.5g}' for v in values)}")
    return verdict
