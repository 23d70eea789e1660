import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttsbeam import ConfigError, SweepSpec, dbm_to_watts, db_to_linear, load_config
from ttsbeam.cli import cli_main
import ttsbeam.harness as harness
from ttsbeam.config import (
    default_multi_user_scenario,
    default_single_user_scenario,
    levels_for_bits,
    semicircle_positions,
)

TINY_CONFIG = """
seed: 123
scenario:
  ap_position: [2.0, 0.0, 0.0]
  ap_antennas: 2
  irs_position: [0.0, 50.0, 3.0]
  irs_shape: [2, 2]
  user_positions: [[2.0, 50.0, 0.0]]
  transmit_power_dbm: 5.0
  noise_power_dbm: [-80.0]
  path_loss: {c0_db: -30.0}
  rician: {beta_au_db: -3.0, beta_ai_db: 3.0, beta_iu_db: 3.0}
  correlation: {r_d: 0.2, r_r: 0.5, r_rk: [0.5]}
experiment:
  schemes: [tts-pdd, no-irs]
  q_bits: [1]
  slots: 2
  trials: 2
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CONFIG)
    return str(path)


class TestUnits:
    def test_dbm_conversion(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(-80.0) == pytest.approx(1e-11)

    def test_db_conversion(self):
        assert db_to_linear(3.0) == pytest.approx(1.9953, rel=1e-4)
        assert db_to_linear(-30.0) == pytest.approx(1e-3)

    def test_levels_encoding(self):
        assert levels_for_bits(0) == 0
        assert levels_for_bits(1) == 2
        assert levels_for_bits(3) == 8


class TestDefaults:
    def test_single_user_defaults(self):
        scen = default_single_user_scenario()
        assert scen.num_elements == 40
        assert scen.ap_antennas == 4
        assert scen.transmit_power == pytest.approx(dbm_to_watts(5.0))
        assert scen.noise_powers[0] == pytest.approx(dbm_to_watts(-80.0))
        assert scen.rician.beta_ai == pytest.approx(db_to_linear(3.0))

    def test_multi_user_defaults(self):
        scen = default_multi_user_scenario()
        assert scen.num_users == 4
        assert scen.ap_antennas == 6
        assert scen.correlation.r_rk == pytest.approx((0.0, 1 / 3, 2 / 3, 1.0))
        dists = np.linalg.norm(scen.user_positions - np.array([0.0, 50.0, 0.0]), axis=1)
        assert np.allclose(dists, 3.0)

    def test_semicircle_spacing(self):
        pos = semicircle_positions(4)
        angles = np.arctan2(pos[:, 1] - 50.0, pos[:, 0])
        assert np.allclose(np.diff(angles), np.pi / 3)


class TestLoadConfig:
    def test_loads_and_converts(self, tiny_config):
        spec = load_config(tiny_config)
        assert spec.seed == 123
        assert spec.scenario.num_elements == 4
        assert spec.scenario.transmit_power == pytest.approx(dbm_to_watts(5.0))
        assert spec.schemes == ("tts-pdd", "no-irs")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not-there.yaml"):
            load_config("not-there.yaml")

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_scheme(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_CONFIG.replace("tts-pdd", "warp-drive"))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_scheme_tags_are_read_verbatim(self, tmp_path):
        path = tmp_path / "upper.yaml"
        path.write_text(TINY_CONFIG.replace("tts-pdd", "TTS-PDD"))
        with pytest.raises(ConfigError, match="unknown scheme tag 'TTS-PDD'"):
            load_config(str(path))

    def test_env_overrides(self, tiny_config, tmp_path, monkeypatch):
        # TTSBEAM_SEED is a CLI override: the loader keeps the file's seed and
        # `run` behaves as if --seed had been given
        monkeypatch.setenv("TTSBEAM_SEED", "999")
        assert load_config(tiny_config).seed == 123
        env, flag = tmp_path / "env.csv", tmp_path / "flag.csv"
        assert cli_main(["--quiet", "run", "--config", tiny_config, "--out", str(env)]) == 0
        monkeypatch.delenv("TTSBEAM_SEED")
        assert cli_main(["--quiet", "--seed", "999", "run", "--config", tiny_config,
                         "--out", str(flag)]) == 0
        assert env.read_bytes() == flag.read_bytes()

    @pytest.mark.parametrize("old, new, key, section", [
        ("beta_iu_db: 3.0}", "beta_iu_db: 3.0, beta_ui_db: 1.0}", "beta_ui_db", "rician"),
        ("seed: 123", "sead: 123", "sead", "top-level"),
        ("  trials: 2", "  trials: 2\n  ssca: {max_iter: 8}", "max_iter", "ssca"),
        ("transmit_power_dbm: 5.0", "transmit_power_watts: 0.00316", "transmit_power_watts",
         "scenario"),
    ], ids=["rician", "top-level", "ssca", "watts"])
    def test_unknown_key_is_named(self, tmp_path, old, new, key, section):
        path = tmp_path / "typo.yaml"
        path.write_text(TINY_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=f"'{key}' in {section} section"):
            load_config(str(path))

    @pytest.mark.parametrize("old, key, section", [
        ("c0_db: -30.0", "c0_db", "path_loss"),
        ("beta_ai_db: 3.0, ", "beta_ai_db", "rician"),
        ("  noise_power_dbm: [-80.0]\n", "noise_power_dbm", "scenario"),
        ("  schemes: [tts-pdd, no-irs]\n", "schemes", "experiment"),
        ("  q_bits: [1]\n", "q_bits", "experiment"),
        (TINY_CONFIG[TINY_CONFIG.index("experiment:"):], "schemes", "experiment"),
    ], ids=["path_loss", "rician", "scenario", "schemes", "q_bits", "no-experiment"])
    def test_missing_unit_key_is_named(self, tmp_path, old, key, section):
        path = tmp_path / "missing.yaml"
        path.write_text(TINY_CONFIG.replace(old, ""))
        with pytest.raises(ConfigError, match=f"missing '{key}' in {section} section"):
            load_config(str(path))

    @pytest.mark.parametrize("old, new, key", [
        ("  schemes: [tts-pdd, no-irs]", "  schemes: tts-pdd", "schemes"),
        ("  q_bits: [1]", "  q_bits: 2", "q_bits"),
    ], ids=["schemes", "q_bits"])
    def test_scalar_in_place_of_list_is_named(self, tmp_path, old, new, key):
        path = tmp_path / "scalar.yaml"
        path.write_text(TINY_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=f"'{key}' must be a list"):
            load_config(str(path))

    def test_rayleigh_link_is_minus_infinity_db(self, tmp_path):
        path = tmp_path / "rayleigh.yaml"
        path.write_text(TINY_CONFIG.replace("beta_au_db: -3.0", "beta_au_db: -.inf"))
        assert load_config(str(path)).scenario.rician.beta_au == 0.0

    def test_sweep_variable_takes_its_full_name_only(self):
        with pytest.raises(ConfigError, match="unknown sweep variable 'd'"):
            SweepSpec(variable="d", grid=[40.0])

    @pytest.mark.parametrize("old,new,key", [
        ("  slots: 2", "  slots: 2.5", "slots"),
        ("  q_bits: [1]", "  q_bits: [1.7]", "q_bits"),
        ("  trials: 2", "  trials: true", "trials"),
        ("  trials: 2", "  trials: 2\n  ssca: {max_iters: 10.9}", "ssca.max_iters"),
        ("  irs_shape: [2, 2]", "  irs_shape: [2, 2.5]", "irs_shape"),
        ("seed: 123", "seed: 1.5", "seed"),
    ])
    def test_fractional_count_is_named(self, tmp_path, old, new, key):
        path = tmp_path / "count.yaml"
        path.write_text(TINY_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            load_config(str(path))

    def test_integral_float_count_is_accepted(self, tmp_path):
        path = tmp_path / "count.yaml"
        path.write_text(TINY_CONFIG.replace("  slots: 2", "  slots: 2.0"))
        slots = load_config(str(path)).slots
        assert slots == 2 and isinstance(slots, int)

    def test_threads_setting_is_accepted(self, tmp_path):
        path = tmp_path / "threads.yaml"
        path.write_text(TINY_CONFIG + "  threads: 1\n")
        assert load_config(str(path)).slots == 2

    def test_shipped_configs_parse(self):
        configs = Path(__file__).parent.parent / "configs"
        su = load_config(str(configs / "single_user.yaml"))
        assert su.scenario.num_elements == 40
        assert su.sweep is not None and su.sweep.variable == "ap_user_distance"
        mu = load_config(str(configs / "multi_user.yaml"))
        assert mu.scenario.num_users == 4
        assert mu.schemes == ("tts-ssca", "random-phase", "no-irs")


class TestCli:
    def test_run_writes_csv(self, tiny_config, tmp_path):
        out = tmp_path / "out.csv"
        code = cli_main(["--quiet", "run", "--config", tiny_config, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sweep_value,scheme,q_bits")
        assert len(lines) == 3  # two scheme cells

    def test_run_deterministic_bytes(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["--quiet", "run", "--config", tiny_config, "--out", str(a)]) == 0
        assert cli_main(["--quiet", "run", "--config", tiny_config, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_overrides_grid(self, tiny_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli_main(["--quiet", "sweep", "--config", tiny_config, "--out", str(out),
                         "--var", "ap_user_distance", "--grid", "45,55"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 cells x 2 sweep points

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg, out = tmp_path / "typo.yaml", tmp_path / "out.csv"
        cfg.write_text(TINY_CONFIG.replace("  slots: 2", "  slotz: 5"))
        assert cli_main(["--quiet", "run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unknown key 'slotz' in experiment section" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_spelling_exits_one(self, tmp_path, capsys):
        cfg, out = tmp_path / "linear.yaml", tmp_path / "out.csv"
        cfg.write_text(TINY_CONFIG.replace("{c0_db: -30.0}", "{c0: 0.001}"))
        assert cli_main(["--quiet", "run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unknown key 'c0' in path_loss section" in capsys.readouterr().err
        assert not out.exists()

    def test_tts_pdd_on_multiuser_exits_one(self, tmp_path, capsys):
        cfg, out = tmp_path / "mu.yaml", tmp_path / "out.csv"
        cfg.write_text(TINY_CONFIG.replace("user_positions: [[2.0, 50.0, 0.0]]",
                                           "user_positions: [[2.0, 50.0, 0.0], [3.0, 50.0, 0.0]]")
                       .replace("r_rk: [0.5]", "r_rk: [0.3, 0.6]"))
        assert cli_main(["--quiet", "run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error: tts-pdd is the single-user" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_count_exits_one(self, tmp_path, capsys):
        cfg, out = tmp_path / "count.yaml", tmp_path / "out.csv"
        cfg.write_text(TINY_CONFIG.replace("  slots: 2", "  slots: 2.5"))
        assert cli_main(["--quiet", "run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config error: slots must be an integer, got 2.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("max_iters: 0", "max_iters must be >= 1, got 0"),
        ("max_iters: -5", "max_iters must be >= 1, got -5"),
        ("patience: 0", "patience must be >= 1, got 0"),
        ("samples_per_iter: 0", "samples_per_iter must be >= 1, got 0"),
        ("tol: -1", "tol must be >= 0, got -1.0"),
        ("tol: .nan", "tol must be >= 0, got nan"),
        ("tau: .nan", "tau must be positive, got nan"),
    ], ids=["max_iters-0", "max_iters-neg", "patience", "samples_per_iter", "tol-neg", "tol-nan",
            "tau-nan"])
    def test_bad_ssca_setting_exits_one(self, tmp_path, capsys, setting, message):
        cfg, out = tmp_path / "ssca.yaml", tmp_path / "out.csv"
        cfg.write_text(TINY_CONFIG.replace("  trials: 2", f"  trials: 2\n  ssca: {{{setting}}}"))
        assert cli_main(["--quiet", "run", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_grid_exits_one(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main(["--quiet", "sweep", "--config", tiny_config, "--out", str(out),
                         "--var", "ap_user_distance", "--grid", "40,abc"])
        assert code == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_sweep_value_fails_before_any_point(self, tiny_config, tmp_path,
                                                            capsys, monkeypatch):
        import ttsbeam.harness as harness
        points = []
        simulate = harness.simulate_point
        monkeypatch.setattr(harness, "simulate_point",
                            lambda *a: points.append(a) or simulate(*a))
        out = tmp_path / "sweep.csv"
        code = cli_main(["--quiet", "sweep", "--config", tiny_config, "--out", str(out),
                         "--var", "r_r", "--grid", "0.5,1.5"])
        assert code == 1
        assert "config error:" in capsys.readouterr().err
        assert points == [] and not out.exists()

    def test_missing_config_exits_one(self, tmp_path):
        code = cli_main(["--quiet", "run", "--config", str(tmp_path / "none.yaml"),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["run", "--bogus-flag", "x"]) == 1

    def test_unknown_subcommand_exits_one(self):
        assert cli_main(["frobnicate"]) == 1

    def test_seed_flag_changes_output(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli_main(["--quiet", "--seed", "1", "run", "--config", tiny_config, "--out", str(a)])
        cli_main(["--quiet", "--seed", "2", "run", "--config", tiny_config, "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_convergence_trace_pdd(self, tiny_config, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli_main(["--quiet", "convergence", "--scheme", "tts-pdd",
                         "--config", tiny_config, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "outer_iter,inner_iter,al_value,objective,violation_inf_norm"
        assert len(lines) > 2

    def test_convergence_pdd_on_multiuser_is_config_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "mu.yaml", tmp_path / "trace.csv"
        cfg.write_text(TINY_CONFIG.replace("user_positions: [[2.0, 50.0, 0.0]]",
                                           "user_positions: [[2.0, 50.0, 0.0], [3.0, 50.0, 0.0]]")
                       .replace("r_rk: [0.5]", "r_rk: [0.3, 0.6]")
                       .replace("noise_power_dbm: [-80.0]", "noise_power_dbm: [-80.0, -80.0]")
                       .replace("schemes: [tts-pdd, no-irs]", "schemes: [tts-ssca]"))
        assert cli_main(["--quiet", "convergence", "--scheme", "tts-pdd",
                         "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: tts-pdd trace requires a single-user scenario" in err
        assert not out.exists()

    def test_convergence_trace_without_config(self, tmp_path, monkeypatch):
        # the default single-user scenario at seed 0, unless --seed is given
        monkeypatch.delenv("TTSBEAM_SEED", raising=False)
        runs = [[], ["--seed", "0"], ["--seed", "3"]]
        traces = []
        for i, seed in enumerate(runs):
            out = tmp_path / f"trace{i}.csv"
            assert cli_main(["--quiet", *seed, "convergence", "--scheme", "tts-pdd",
                             "--out", str(out)]) == 0
            traces.append(out.read_bytes())
        header = b"outer_iter,inner_iter,al_value,objective,violation_inf_norm\n"
        assert traces[0].startswith(header) and traces[0].count(b"\n") > 2
        assert traces[0] == traces[1]
        assert traces[2] != traces[0]

    def test_convergence_trace_ssca(self, tmp_path, monkeypatch):
        cfg = tmp_path / "mu.yaml"
        cfg.write_text(TINY_CONFIG.replace("user_positions: [[2.0, 50.0, 0.0]]",
                                           "user_positions: [[2.0, 50.0, 0.0], [3.0, 50.0, 0.0]]")
                       .replace("r_rk: [0.5]", "r_rk: [0.3, 0.6]")
                       .replace("noise_power_dbm: [-80.0]",
                                "noise_power_dbm: [-80.0, -80.0]")
                       .replace("schemes: [tts-pdd, no-irs]", "schemes: [tts-ssca]")
                       .replace("q_bits: [1]", "q_bits: [2, 3]")
                       + "  ssca: {max_iters: 8, patience: 2}\n")
        monkeypatch.delenv("TTSBEAM_SEED", raising=False)
        out = tmp_path / "trace.csv"
        code = cli_main(["--quiet", "convergence", "--scheme", "tts-ssca",
                         "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,rho_t,gamma_t,sum_r_hat,v_change_inf_norm"

        # the trace is the SSCA run that trial 0's cells share, at every q
        runs, real = [], harness.ssca_run

        def recording(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(harness, "ssca_run", recording)
        spec = load_config(str(cfg))
        harness._run_trial(spec.scenario, spec, 0)
        (run,) = runs
        assert len(lines) == 1 + len(run.trace) > 2
        assert [float(line.split(",")[3]) for line in lines[1:]] == pytest.approx(
            [row[3] for row in run.trace], rel=1e-5)

    def test_bad_env_seed_is_config_error(self, tiny_config, monkeypatch, capsys):
        monkeypatch.setenv("TTSBEAM_SEED", "abc")
        assert cli_main(["--quiet", "validate", "--config", tiny_config]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_validate_honours_seed_flag(self, tiny_config, capsys):
        lines = []
        for seed in ("1", "2"):
            cli_main(["--quiet", "--seed", seed, "validate", "--config", tiny_config])
            lines.append([ln for ln in capsys.readouterr().out.splitlines() if "mc=" in ln])
        assert lines[0] and lines[0] != lines[1]

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "ttsbeam.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "validate" in proc.stdout


class TestValidate:
    def test_validate_passes_on_defaults(self):
        assert cli_main(["--quiet", "--seed", "0", "validate"]) == 0

    def test_multi_user_config_checks_its_own_channels(self, monkeypatch, capsys):
        monkeypatch.delenv("TTSBEAM_SEED", raising=False)
        config = str(Path(__file__).parent.parent / "configs" / "multi_user.yaml")
        assert cli_main(["--quiet", "validate", "--config", config]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(ln.startswith("PASS  ") for ln in lines)
        assert sum("(config channels)" in ln for ln in lines) == 3
        # the same seed without the config: the built-in checks only
        assert cli_main(["--quiet", "--seed", str(load_config(config).seed), "validate"]) == 0
        assert capsys.readouterr().out.splitlines() != lines
