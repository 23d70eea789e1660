"""Benchmark of the ttsbeam simulator: trial time end to end, solver time per layer.

    python3 perfbench/run.py --workload mu-tts --seed 1 --seconds 55 --trace 0

Runs `ttsbeam run` in-process on configs generated from the shipped
`configs/*.yaml`, one Monte-Carlo trial per experiment, and repeats whole
experiments until `--seconds` is used up. Every CSV is checked. The last line
of standard output is one JSON object: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported: the simulator's matrices are
# 4x4 to 40x40, and extra BLAS threads only add CPU time on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

import checks
from tracer import KERNEL_CHECKS, QUANTITIES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = HERE / "out"

WORKLOADS = ("mu-tts", "icsi")

# The shipped 500 iterations make one multi-user trial take ~30 s, too long to
# time several trials in one run. At 100 iterations SSCA is still ~86 % of the
# trial and still runs ~50 iterations past the point where r_hat stabilizes.
MU_SSCA_MAX_ITERS = 100

# Toy sizes for the benchmark's own tests, and the smaller warm-up sizes.
TOY_SLOTS = 8
TOY_SSCA_ITERS = 12
WARMUP_SLOTS = 2
WARMUP_SSCA_ITERS = 2

SETUP_ROUNDS = 7

END_TO_END = (("trial_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics, per trial: <module>.<function>.<quantity>
PER_LAYER = (
    ("multi_user.wmmse_solve.calls", "count"),
    ("multi_user.wmmse_solve.self_s", "s"),
    ("multi_user.wmmse_solve.iters", "count"),
    ("multi_user.wmmse_solve.over_budget", "count"),
    ("multi_user.ssca_run.self_s", "s"),
    ("multi_user.ssca_run.iters", "count"),
    ("multi_user.ssca_run.iters_after_stable", "count"),
    ("multi_user.ssca_run.converged", "count"),
    ("multi_user.instantaneous_rates.calls", "count"),
    ("multi_user.instantaneous_rates.self_s", "s"),
    ("multi_user.rate_jacobian.calls", "count"),
    ("multi_user.rate_jacobian.self_s", "s"),
    ("single_user.pdd_solve.calls", "count"),
    ("single_user.pdd_solve.self_s", "s"),
    ("single_user.pdd_solve.outer_iters", "count"),
    ("single_user.build_quadratic_form.self_s", "s"),
    ("single_user.pdd_solve_batch.calls", "count"),
    ("single_user.pdd_solve_batch.self_s", "s"),
    ("single_user.pdd_solve_batch.problems", "count"),
    ("single_user.bcd_solve.calls", "count"),
    ("single_user.bcd_solve.self_s", "s"),
    ("single_user.bcd_solve.sweeps", "count"),
    ("baselines.icsi_per_slot.calls", "count"),
    ("baselines.icsi_per_slot.self_s", "s"),
    ("baselines.icsi_per_slot.rounds", "count"),
    ("baselines.random_phase.calls", "count"),
    ("baselines.random_phase.self_s", "s"),
    ("rng.substream.calls", "count"),
    ("rng.substream.self_s", "s"),
    ("channel.sample_batch.calls", "count"),
    ("channel.sample_batch.self_s", "s"),
    ("channel.build_scsi.self_s", "s"),
    ("baselines.no_irs_rate.self_s", "s"),
    ("harness.simulate_point.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("harness.emit_csv.self_s", "s"),
    ("cli.cli_main.self_s", "s"),
    ("bench.traced_trial_s", "s"),
    ("bench.untraced_trial_s", "s"),
    ("bench.overhead_s", "s"),
    ("bench.self_sum_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed warm-up)."""


def _shipped(name: str) -> dict:
    with open(CONFIGS / name, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def workload_configs(workload: str) -> list[dict]:
    """One-trial, one-thread configs derived from the two shipped configs."""
    su, mu = _shipped("single_user.yaml"), _shipped("multi_user.yaml")
    if workload == "mu-tts":
        mu["experiment"]["ssca"]["max_iters"] = MU_SSCA_MAX_ITERS
        cfgs = [mu]
    elif workload == "icsi":
        # the single-user TTS schemes ride along, so pdd_solve and random_phase
        # are measured without a workload of their own
        su["experiment"].update(schemes=["icsi-per-slot", "naive-icsi", "tts-pdd",
                                         "random-phase", "no-irs"], q_bits=[1, 2, 3],
                                sweep={"variable": "ap_user_distance", "grid": [50.0]})
        mu["experiment"].update(schemes=["icsi-per-slot", "naive-icsi", "random-phase", "no-irs"],
                                q_bits=[2])
        cfgs = [su, mu]
    else:
        raise BenchError(f"unknown workload '{workload}'")
    for cfg in cfgs:
        cfg["experiment"].update(trials=1, threads=1)
    return cfgs


def toy_config(cfg: dict, slots: int = TOY_SLOTS, ssca_iters: int = TOY_SSCA_ITERS) -> dict:
    """The same schemes at a few slots, a few SSCA iterations and one sweep point."""
    cfg = copy.deepcopy(cfg)
    exp = cfg["experiment"]
    exp["slots"] = min(exp["slots"], slots)
    if "ssca" in exp:
        exp["ssca"]["max_iters"] = min(exp["ssca"]["max_iters"], ssca_iters)
    if exp.get("sweep"):
        exp["sweep"]["grid"] = exp["sweep"]["grid"][:1]
    return cfg


def experiment_seed(seed: int, index: int) -> int:
    """Config seed of the index-th experiment of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, index]).generate_state(1)[0])


class Workload:
    """Generated configs written under `run_dir`, and the in-process CLI that runs them."""

    def __init__(self, configs: list[dict], run_dir: Path, prefix: str):
        from ttsbeam import cli
        self.cli = cli
        self.dir = run_dir
        self.prefix = prefix
        self.configs = configs
        self.paths = []
        for i, cfg in enumerate(configs):
            path = run_dir / f"{prefix}{i}.yaml"
            path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            self.paths.append(path)
        self.trial_points = sum(checks.trial_points(c) for c in configs)

    def run(self, seed: int, tag: str) -> tuple[float, list[int], list[Path]]:
        """Run every config once; (wall time, exit codes, CSV paths)."""
        codes, outs = [], []
        start = perf_counter()
        for i, path in enumerate(self.paths):
            out = self.dir / f"{self.prefix}{i}-{tag}.csv"
            # looked up at call time so that a traced cli_main is the one called
            codes.append(self.cli.cli_main(["--quiet", "--seed", str(seed), "run",
                                            "--config", str(path), "--out", str(out)]))
            outs.append(out)
        return perf_counter() - start, codes, outs


def prepare(name: str, run_dir: Path, toy: bool) -> Workload:
    """Everything a run does before its first timed experiment: import, configs, warm-up."""
    if not (SRC / "ttsbeam").is_dir() or not CONFIGS.is_dir():
        raise BenchError(f"no ttsbeam sources under {ROOT}; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    run_dir.mkdir(parents=True, exist_ok=True)
    configs = workload_configs(name)
    if toy:
        configs = [toy_config(c) for c in configs]
    warm = Workload([toy_config(c, WARMUP_SLOTS, WARMUP_SSCA_ITERS) for c in configs],
                    run_dir, "warmup")
    _, codes, _ = warm.run(experiment_seed(0, 0), "out")
    if any(codes):
        raise BenchError(f"warm-up exited with {codes}")
    return Workload(configs, run_dir, "config")


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import, generate configs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.toy:
        cmd.append("--toy")
    times = []
    for _ in range(SETUP_ROUNDS):
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


class Outcome:
    """Counts and problems accumulated over a run's experiments."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, workload: Workload, codes: list[int], outs: list[Path]) -> dict[int, bytes]:
        """Count trials, check each CSV of a config that succeeded; return its bytes."""
        texts = {}
        for i, (cfg, code, out) in enumerate(zip(workload.configs, codes, outs)):
            points = checks.trial_points(cfg)
            self.attempted += points
            if code != 0:
                self.failed += points
                continue
            texts[i] = out.read_bytes()
            self.problems += [f"config{i}: {p}" for p in
                              checks.check_csv(texts[i].decode("utf-8"), cfg)]
        return texts


def _loop(seconds: float, step) -> None:
    """Call step(index) for whole experiments until `seconds` is used up.

    The next experiment starts while at least half of a typical one still
    fits, so runs end near `seconds` on average even when a `mu-tts`
    experiment takes a seventh of the run.
    """
    durations = []
    start = perf_counter()
    index = 0
    while True:
        t0 = perf_counter()
        step(index)
        durations.append(perf_counter() - t0)
        index += 1
        if perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return


def run_untraced(workload: Workload, seed: int, seconds: float, outcome: Outcome) -> dict:
    per_trial = []

    def step(index):
        wall, codes, outs = workload.run(experiment_seed(seed, index), "out")
        outcome.record(workload, codes, outs)
        per_trial.append(wall / workload.trial_points)

    _loop(seconds, step)
    return {"trial_s": statistics.median(per_trial)}


def run_traced(workload: Workload, seed: int, seconds: float, outcome: Outcome) -> dict:
    """Alternate untraced and traced runs of the same experiment; per-layer numbers."""
    tracer = Tracer()
    untraced, traced, quantities = [], [], []

    def step(index):
        exp_seed = experiment_seed(seed, index)
        wall, codes, outs = workload.run(exp_seed, "plain")
        plain = outcome.record(workload, codes, outs)
        untraced.append(wall / workload.trial_points)

        tracer.experiment = index
        with tracer.patch():
            wall, codes, outs = workload.run(exp_seed, "traced")
        traced_texts = outcome.record(workload, codes, outs)
        traced.append(wall / workload.trial_points)
        for i in plain.keys() & traced_texts.keys():
            outcome.problems += checks.check_identical(traced_texts[i], plain[i])

        counts: dict[str, float] = {}
        for name, bound, result in tracer.take_calls():
            if name in KERNEL_CHECKS:
                outcome.problems += [f"{name}: {p}" for p in KERNEL_CHECKS[name](bound, result)]
            for quantity, read in QUANTITIES.get(name, {}).items():
                key = f"{name}.{quantity}"
                counts[key] = counts.get(key, 0) + read(bound, result)
        quantities.append(counts)

    _loop(seconds, step)
    tracer.write_spans(workload.dir / "spans.jsonl")

    per_experiment = []
    for index, layers in sorted(tracer.self_times().items()):
        values = dict(quantities[index])
        for name, (calls, self_s) in layers.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        values["bench.self_sum_s"] = sum(s for _, s in layers.values())
        per_experiment.append({k: v / workload.trial_points for k, v in values.items()})

    metrics = {name: statistics.median(e.get(name, 0.0) for e in per_experiment)
               for name, _ in PER_LAYER}
    metrics["bench.traced_trial_s"] = statistics.median(traced)
    metrics["bench.untraced_trial_s"] = statistics.median(untraced)
    metrics["bench.overhead_s"] = metrics["bench.traced_trial_s"] - metrics["bench.untraced_trial_s"]
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # used by measure_setup's child processes and by the tests
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    try:
        workload = prepare(args.workload, run_dir, args.toy)
        if args.setup_only:
            shutil.rmtree(run_dir, ignore_errors=True)
            return 0
        outcome = Outcome()
        if args.trace:
            values = run_traced(workload, args.seed, args.seconds, outcome)
            units = PER_LAYER
        else:
            setup_s = measure_setup(args)
            values = run_untraced(workload, args.seed, args.seconds, outcome)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
