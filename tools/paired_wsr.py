"""Per-trial weighted sum-rates of one scheme in two checkouts, paired by trial.

    python3 tools/paired_wsr.py PARENT CHANGE --config configs/multi_user.yaml \
        --scheme tts-ssca --trials 8

Runs `harness.simulate_point` on the config's scenario with only SCHEME and
the first N trials, once per checkout: each in its own subprocess, with that
checkout's `src` and BLAS at one thread. Trial i draws from the same
substreams on both sides, so the runs pair by trial. For each q of the config
it prints the trials' weighted sum-rates side by side, the number of trials
in which CHANGE is higher and in which the two are tied (bit-equal), and the
mean paired difference (CHANGE - PARENT) with its standard error and in SE
units, so a gate such as "not below -2 SE" reads straight off the output.
The config must have no sweep, and a failed trial on either side is an
error, since it would break the pairing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import dataclasses, json, sys
from ttsbeam.config import load_config
from ttsbeam.harness import simulate_point
spec = load_config(sys.argv[1])
if spec.sweep is not None:
    sys.exit("paired_wsr: the config has a sweep; give a config without one")
spec = dataclasses.replace(spec, schemes=(sys.argv[2],), trials=int(sys.argv[3]))
stats, failures = simulate_point(spec.scenario, spec)
print(json.dumps({"failures": failures,
                  "cells": {q: s.weighted.tolist() for (_, q), s in sorted(stats.items())}}))
"""


def run_side(checkout: Path, config: Path, scheme: str, trials: int) -> dict:
    """{q: per-trial weighted sum-rates} of one checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(config), scheme, str(trials)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failures"]:
        raise SystemExit(f"{checkout}: {result['failures']} trial(s) failed; the runs do not pair")
    return result["cells"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--trials", type=int, required=True)
    args = p.parse_args(argv)
    if args.trials < 2:
        p.error("--trials must be at least 2")

    config = args.config.resolve()
    parent = run_side(args.parent.resolve(), config, args.scheme, args.trials)
    change = run_side(args.change.resolve(), config, args.scheme, args.trials)
    for q in parent:
        print(f"{args.scheme} q={q}")
        print("trial  parent     change     change-parent")
        diffs = []
        for i, (a, b) in enumerate(zip(parent[q], change[q])):
            diffs.append(b - a)
            print(f"{i:5d}  {a:.6f}  {b:.6f}  {b - a:+.6f}")
        mean, se = statistics.mean(diffs), statistics.stdev(diffs) / len(diffs) ** 0.5
        in_se = f"{mean / se:+.2f} SE" if se else "no spread"
        print(f"mean   {statistics.mean(parent[q]):.6f}  {statistics.mean(change[q]):.6f}  "
              f"{mean:+.6f} (SE {se:.6f}, {in_se})")
        print(f"change higher in {sum(d > 0 for d in diffs)} of {len(diffs)} trials, "
              f"{sum(d == 0 for d in diffs)} tied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
