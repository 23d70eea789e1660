"""A/B of the benchmark's end-to-end metrics between two checkouts, in alternated pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload icsi --pairs 10

Runs `perfbench/run.py --trace 0` in each checkout, one run at a time. Pair i
gives both sides the seed SEED + i, and the side that runs first swaps on
every pair, so a host whose speed drifts over time loads both sides alike.
Each run lasts CHANGE's BENCHMARK.json `run_seconds`. For each end-to-end
metric listed there, it prints each side's median and quartiles, the number
of pairs where CHANGE is better, and a verdict against the metric's `bound`,
a fraction of PARENT's median. "worse": CHANGE's median is worse than
PARENT's by more than the bound. "unresolved": PARENT's quartile range is
wider than the bound and CHANGE's median lies inside it, so the runs cannot
tell the two sides apart. Otherwise "within bound". The checkouts' files are
only read; each run writes its output under its own perfbench/out/.

Exit status: 1 when any metric is "worse" or any run is not correct or has
failed trials, else 0 ("unresolved" is printed but does not fail).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run in `checkout`; its result JSON (the last stdout line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        parent, change = spread(values["parent"]), spread(values["change"])
        better = sum((c < p) if lower else (c > p)
                     for p, c in zip(values["parent"], values["change"]))
        worse_by = (change["median"] - parent["median"]) / parent["median"] * (1 if lower else -1)
        width = (parent["q3"] - parent["q1"]) / parent["median"]
        if width > metric["bound"] and parent["q1"] <= change["median"] <= parent["q3"]:
            verdict = "unresolved"
        else:
            verdict = "worse" if worse_by > metric["bound"] else "within bound"
        summary[name] = {"unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"], "parent": parent, "change": change,
                         "worse_by": worse_by, "pairs_change_better": better, "verdict": verdict}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed, bench["run_seconds"])
            runs[side].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']} {values}", flush=True)

    summary = summarize(bench["end_to_end"], runs)
    for name, s in summary.items():
        par, chg = s["parent"], s["change"]
        print(f"{name} ({s['unit']}, {s['better']} is better): "
              f"parent {par['median']:.4g} [{par['q1']:.4g}, {par['q3']:.4g}], "
              f"change {chg['median']:.4g} [{chg['q1']:.4g}, {chg['q3']:.4g}], "
              f"worse by {s['worse_by']:+.3f} (bound {s['bound']}), "
              f"change better in {s['pairs_change_better']} of {args.pairs}: {s['verdict']}")
    failed = [r for rs in runs.values() for r in rs if not r["correct"] or r["failed"]]
    print(f"runs not correct or with failed trials: {len(failed)}")
    worse = [name for name, s in summary.items() if s["verdict"] == "worse"]
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
