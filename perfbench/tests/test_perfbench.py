"""Fast tests of the benchmark itself: toy-size runs, and checks fed corrupted results.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import KERNEL_CHECKS, Tracer  # noqa: E402

from ttsbeam import baselines, cli, harness, multi_user  # noqa: E402


def _declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_run_passes_its_checks(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--toy"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == list(run.END_TO_END)
    assert _declared("per_layer") == list(run.PER_LAYER)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "icsi",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs_and_distinct_experiments():
    assert run.experiment_seed(3, 0) == run.experiment_seed(3, 0)
    assert len({run.experiment_seed(3, i) for i in range(50)}) == 50
    assert run.experiment_seed(3, 0) != run.experiment_seed(4, 0)


# --- CSV checks --------------------------------------------------------------

@pytest.fixture(scope="module")
def su_output(tmp_path_factory):
    """A real one-trial CSV of the toy single-user icsi config at two distances."""
    cfg = run.toy_config(run.workload_configs("icsi")[0])
    cfg["experiment"]["sweep"]["grid"] = [40.0, 50.0]
    d = tmp_path_factory.mktemp("su")
    path = d / "cfg.yaml"
    path.write_text(run.yaml.safe_dump(cfg))
    assert cli.cli_main(["--quiet", "run", "--config", str(path), "--out", str(d / "o.csv")]) == 0
    return (d / "o.csv").read_text(), cfg


def _edit(text: str, scheme: str, q: str, column: str, value: str, point: str = "40") -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    for i, line in enumerate(lines[1:], 1):
        fields = line.split(",")
        if fields[:3] == [point, scheme, q]:
            fields[col] = value
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_csv_check_accepts_real_output(su_output):
    text, cfg = su_output
    assert checks.check_csv(text, cfg) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace("weighted_sum_rate", "wsr", 1),
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
    lambda t: _edit(t, "tts-pdd", "2", "rate_user1", "nan"),
    lambda t: _edit(t, "no-irs", "0", "rate_user1", "0"),
    lambda t: _edit(t, "random-phase", "1", "trials_used", "0"),
    lambda t: _edit(t, "tts-pdd", "3", "weighted_sum_rate", "0.001"),
    lambda t: _edit(t, "no-irs", "0", "weighted_sum_rate", "99", point="50"),
], ids=["header", "missing-row", "nan-rate", "zero-rate", "trials-used",
        "tts-below-random", "tts-below-no-irs"])
def test_csv_check_rejects_corrupted_output(su_output, corrupt):
    text, cfg = su_output
    assert checks.check_csv(corrupt(text), cfg) != []


def test_icsi_ordering_is_checked():
    wsr = {("", "icsi-per-slot", "2"): 3.0, ("", "naive-icsi", "2"): 3.1,
           ("", "no-irs", "0"): 2.0}
    assert len(checks._ordering_problems(wsr)) == 1
    wsr[("", "naive-icsi", "2")] = 2.5
    assert checks._ordering_problems(wsr) == []


# --- kernel checks -----------------------------------------------------------

def _channel(k=3, m=4, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) * 1e-3


def test_wmmse_check_accepts_the_solver_and_rejects_corruption():
    h, alpha, power, noise = _channel(), np.array([1.0, 2.0, 1.0]), 3e-3, np.full(3, 1e-8)
    st = multi_user.wmmse_solve(h, alpha, power, noise)
    assert checks.check_wmmse(h, alpha, power, noise, st.w, st.objective) == []
    assert checks.check_wmmse(h, alpha, power, noise, st.w * 1.01, st.objective) != []
    assert checks.check_wmmse(h, alpha, power, noise, st.w, st.objective + 1e-3) != []


def test_phase_check_accepts_solver_output_and_rejects_corruption():
    cfg = baselines.random_phase(4, 40, np.random.default_rng(1))
    assert checks.check_phases(cfg.v, 4) == []
    off_grid = cfg.v.copy()
    off_grid[3] *= np.exp(0.01j)
    assert checks.check_phases(off_grid, 4) != []
    assert checks.check_phases(off_grid, 0) == []
    assert checks.check_phases(cfg.v * 1.01, 4) != []
    assert checks.check_phases(cfg.v, 8) == []   # the 4-point grid lies on the 8-point one
    assert checks.check_phases(cfg.v * np.exp(2j * np.pi / 8), 4) != []


def test_identical_check():
    assert checks.check_identical(b"a,b\n1,2\n", b"a,b\n1,2\n") == []
    assert checks.check_identical(b"a,b\n1,2\n", b"a,b\n1,3\n") != []


def test_traced_calls_feed_the_kernel_checks():
    """A traced wmmse_solve call passes its check, and fails it once corrupted."""
    tracer = Tracer()
    with tracer.patch():
        multi_user.wmmse_solve(_channel(), np.ones(3), 3e-3, np.full(3, 1e-8))
    (name, bound, result), = list(tracer.take_calls())
    assert name == "multi_user.wmmse_solve"
    assert KERNEL_CHECKS[name](bound, result) == []
    result.w = result.w * 2.0
    assert KERNEL_CHECKS[name](bound, result) != []


# --- tracer ------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them():
    originals = (multi_user.wmmse_solve, harness.wmmse_solve, baselines.wmmse_solve,
                 cli.wmmse_solve, harness.simulate_point, cli.emit_csv)
    tracer = Tracer()
    with tracer.patch():
        patched = (multi_user.wmmse_solve, harness.wmmse_solve, baselines.wmmse_solve,
                   cli.wmmse_solve, harness.simulate_point, cli.emit_csv)
        assert all(p is not o for p, o in zip(patched, originals))
        assert multi_user.wmmse_solve is harness.wmmse_solve is baselines.wmmse_solve
    assert (multi_user.wmmse_solve, harness.wmmse_solve, baselines.wmmse_solve,
            cli.wmmse_solve, harness.simulate_point, cli.emit_csv) == originals


def test_self_times_sum_to_the_root_span(tmp_path):
    cfg = run.toy_config(run.workload_configs("mu-tts")[0])
    path = tmp_path / "cfg.yaml"
    path.write_text(run.yaml.safe_dump(cfg))
    tracer = Tracer()
    tracer.experiment = 0
    with tracer.patch():
        assert cli.cli_main(["--quiet", "run", "--config", str(path),
                             "--out", str(tmp_path / "o.csv")]) == 0
    layers = tracer.self_times()[0]
    root = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in root] == ["cli.cli_main"]
    total = sum(self_s for _, self_s in layers.values())
    assert total == pytest.approx(root[0][2] - root[0][1], rel=1e-9)
    assert all(self_s >= 0 for _, self_s in layers.values())
    assert layers["multi_user.ssca_run"][0] == 1
    assert layers["multi_user.wmmse_solve"][0] > cfg["experiment"]["ssca"]["max_iters"]


def test_failed_experiments_count_every_trial(tmp_path):
    outcome = run.Outcome()
    workload = run.Workload(run.workload_configs("icsi"), tmp_path, "config")
    outcome.record(workload, [2, 2], [tmp_path / "none0.csv", tmp_path / "none1.csv"])
    assert outcome.attempted == outcome.failed == workload.trial_points == 2
    assert outcome.problems == []
