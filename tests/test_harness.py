import logging

import numpy as np
import pytest

from ttsbeam import (
    ConfigError,
    ExperimentSpec,
    PddParams,
    SscaParams,
    SweepSpec,
    apply_sweep,
    build_quadratic_form,
    build_scsi,
    effective_channels,
    emit_csv,
    icsi_per_slot,
    levels_for_bits,
    mrt_rate,
    pdd_solve,
    random_phase,
    run_experiment,
    sample_instantaneous,
    simulate_point,
    ssca_run,
    substream,
    wmmse_solve,
)
from ttsbeam.config import SCHEME_TAGS
from ttsbeam.multi_user import precoders
from ttsbeam.harness import ExperimentError, ResultRecord
import ttsbeam.harness as harness

from conftest import reference_rates, small_scenario


def quick_spec(scenario, schemes=("random-phase",), q_bits=(1,), slots=3, trials=4,
               seed=77, **kw):
    return ExperimentSpec(scenario=scenario, schemes=schemes, q_bits=q_bits,
                          slots=slots, trials=trials,
                          weights=np.ones(scenario.num_users), seed=seed, **kw)


class TestApplySweep:
    def test_distance_moves_users(self):
        scen = small_scenario()
        out = apply_sweep(scen, "ap_user_distance", 42.0)
        assert out.user_positions[0, 1] == 42.0
        assert scen.user_positions[0, 1] == 50.0  # original untouched

    def test_rician_beta_in_db(self):
        scen = small_scenario()
        out = apply_sweep(scen, "rician_beta", 10.0)
        assert out.rician.beta_ai == pytest.approx(10.0)
        assert out.rician.beta_iu == pytest.approx(10.0)
        assert out.rician.beta_au == scen.rician.beta_au

    def test_correlation_sweeps(self):
        scen = small_scenario()
        assert apply_sweep(scen, "r_r", 0.9).correlation.r_r == 0.9
        assert apply_sweep(scen, "r_rk", 0.7).correlation.r_rk == (0.7,)

    def test_power_in_dbm(self):
        scen = small_scenario()
        out = apply_sweep(scen, "transmit_power", 30.0)
        assert out.transmit_power == pytest.approx(1.0)

    def test_unknown_variable(self):
        with pytest.raises(ExperimentError):
            apply_sweep(small_scenario(), "bogus", 1.0)


class TestRunExperiment:
    def test_static_single_slot_matches_direct_evaluation(self):
        # deterministic channels, one trial, one slot: the record is one
        # closed-form rate evaluation
        scen = small_scenario(n_shape=(2, 2), m=2, betas_db=(120.0, 120.0, 120.0))
        spec = quick_spec(scen, schemes=("no-irs",), slots=1, trials=1, seed=5)
        records = run_experiment(spec)
        assert len(records) == 1
        scsi = build_scsi(scen, substream(5, "scsi", 0))
        ch = sample_instantaneous(scsi, substream(5, "samples", 0, 0))
        expected = mrt_rate(ch.h_d[0], scen.transmit_power, float(scen.noise_powers[0]))
        assert records[0].weighted_sum_rate == pytest.approx(expected, rel=1e-9)

    def test_deterministic_csv_bytes(self, tmp_path):
        scen = small_scenario(n_shape=(2, 2), m=2)
        spec = quick_spec(scen, schemes=("tts-pdd", "random-phase", "no-irs"),
                          q_bits=(1, 2), slots=3, trials=3, seed=9,
                          sweep=SweepSpec(variable="ap_user_distance", grid=(48.0, 52.0)))
        paths = []
        for i in range(2):
            records = run_experiment(spec)
            path = tmp_path / f"out{i}.csv"
            emit_csv(records, str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_multiuser_schemes_run(self):
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        spec = quick_spec(scen, schemes=("random-phase", "no-irs", "icsi-per-slot"),
                          q_bits=(1,), slots=2, trials=2, seed=13)
        records = run_experiment(spec)
        assert {r.scheme for r in records} == {"random-phase", "no-irs", "icsi-per-slot"}
        for rec in records:
            assert rec.user_rates.shape == (2,)
            assert rec.weighted_sum_rate > 0

    def test_std_error_shrinks_with_trials(self):
        scen = small_scenario(n_shape=(2, 2), m=2)
        small = quick_spec(scen, schemes=("random-phase",), slots=2, trials=30, seed=21)
        big = quick_spec(scen, schemes=("random-phase",), slots=2, trials=120, seed=21)
        se_small = run_experiment(small)[0].std_error
        se_big = run_experiment(big)[0].std_error
        assert se_small / se_big == pytest.approx(2.0, rel=0.2)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_trials_excluded_and_capped(self, monkeypatch, caplog):
        scen = small_scenario(n_shape=(2, 2), m=2)
        spec = quick_spec(scen, schemes=("no-irs",), slots=1, trials=30, seed=2)
        real = harness._run_trial

        def flaky(scenario, sp, trial):
            if trial == 4:
                raise FloatingPointError("synthetic failure")
            return real(scenario, sp, trial)

        monkeypatch.setattr(harness, "_run_trial", flaky)
        stats, failures = simulate_point(scen, spec)
        assert failures == 1
        assert stats[("no-irs", 0)].weighted.size == 29

        def very_flaky(scenario, sp, trial):
            if trial % 3 == 0:
                raise FloatingPointError("synthetic failure")
            return real(scenario, sp, trial)

        monkeypatch.setattr(harness, "_run_trial", very_flaky)
        with pytest.raises(ExperimentError):
            simulate_point(scen, spec)

        # a NaN channel is a numerical failure: counted, and its reason logged
        monkeypatch.setattr(harness, "_run_trial", real)
        no_irs = harness.SCHEMES["no-irs"]

        def nan_channel(t, levels, q):
            if t.index == 4:
                t.ch.h_d[0] = np.nan
            return no_irs(t, levels, q)

        monkeypatch.setitem(harness.SCHEMES, "no-irs", nan_channel)
        with caplog.at_level(logging.WARNING, logger="ttsbeam"):
            stats, failures = simulate_point(scen, spec)
        assert failures == 1
        assert stats[("no-irs", 0)].weighted.size == 29
        assert "trial 4 failed: FloatingPointError: no-irs at q=0" in caplog.text

        # a code error is not a tolerated failure
        def buggy(scenario, sp, trial):
            if trial == 4:
                raise TypeError("synthetic bug")
            return real(scenario, sp, trial)

        monkeypatch.setattr(harness, "_run_trial", buggy)
        with pytest.raises(TypeError, match="synthetic bug"):
            simulate_point(scen, spec)

    def test_tts_pdd_rejects_multiuser(self):
        # a configuration error, raised when the spec is built, before any trial
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        with pytest.raises(ConfigError, match="tts-pdd is the single-user"):
            quick_spec(scen, schemes=("random-phase", "tts-pdd"), slots=1, trials=1)


def _slots(scen, seed, trial, slots):
    scsi = build_scsi(scen, substream(seed, "scsi", trial))
    return scsi, [sample_instantaneous(scsi, substream(seed, "samples", trial, s))
                  for s in range(slots)]


class TestSchemeTable:
    def test_one_entry_per_tag(self):
        assert set(harness.SCHEMES) == set(SCHEME_TAGS)

    @pytest.mark.parametrize("users", [1, 2])
    def test_every_tag_runs(self, users):
        scen = small_scenario(users=users, n_shape=(2, 2), m=2)
        for tag in SCHEME_TAGS:
            if tag == "tts-pdd" and users > 1:
                with pytest.raises(ConfigError):
                    quick_spec(scen, schemes=(tag,), slots=2, trials=1)
                continue
            spec = quick_spec(scen, schemes=(tag,), q_bits=(1,), slots=2, trials=1,
                              ssca=SscaParams(max_iters=3))
            (rates,) = harness._run_trial(scen, spec, 0).values()
            assert rates.shape == (users,), tag
            assert np.all(np.isfinite(rates)) and np.all(rates >= 0) and rates.sum() > 0, tag

    def test_single_user_matches_per_slot_mrt(self):
        scen = small_scenario(n_shape=(2, 3), m=3)
        seed, trial, slots = 31, 1, 5
        spec = quick_spec(scen, schemes=("random-phase", "tts-pdd"), q_bits=(1, 2),
                          slots=slots, trials=2, seed=seed)
        out = harness._run_trial(scen, spec, trial)
        scsi, chs = _slots(scen, seed, trial, slots)
        p, noise = scen.transmit_power, float(scen.noise_powers[0])
        for q in (1, 2):
            levels = levels_for_bits(q)
            v_tts = pdd_solve(build_quadratic_form(scsi), PddParams(levels=levels)).config.v
            phases = {
                "tts-pdd": [v_tts] * slots,
                "random-phase": [random_phase(levels, scen.num_elements,
                                              substream(seed, "phase", trial, s, q)).v
                                 for s in range(slots)],
            }
            for tag, vs in phases.items():
                expected = np.mean([mrt_rate(effective_channels(v, ch)[0], p, noise)
                                    for v, ch in zip(vs, chs)])
                assert out[(tag, q)][0] == pytest.approx(expected, rel=1e-12)

    def test_multi_user_random_phase_matches_per_slot_wmmse(self):
        scen = small_scenario(users=2, n_shape=(2, 3), m=3)
        seed, trial, slots = 37, 0, 4
        spec = quick_spec(scen, schemes=("random-phase",), q_bits=(2,), slots=slots,
                          trials=1, seed=seed)
        out = harness._run_trial(scen, spec, trial)
        _, chs = _slots(scen, seed, trial, slots)
        noise = scen.noise_powers
        per_slot = []
        for s, ch in enumerate(chs):
            v = random_phase(4, scen.num_elements, substream(seed, "phase", trial, s, 2)).v
            state = wmmse_solve(effective_channels(v, ch), spec.weights, scen.transmit_power, noise)
            per_slot.append(reference_rates(v, state.w, ch, noise))
        np.testing.assert_allclose(out[("random-phase", 2)], np.mean(per_slot, axis=0),
                                   rtol=1e-12)

    @pytest.mark.parametrize("users", [1, 2])
    @pytest.mark.parametrize("tag", ["single-timescale", "icsi-per-slot"])
    def test_designed_precoder_cells_match_per_slot_rates(self, tag, users):
        scen = small_scenario(users=users, n_shape=(2, 3), m=3)
        seed, trial, slots, q = 41, 0, 4, 1
        spec = quick_spec(scen, schemes=(tag,), q_bits=(q,), slots=slots, trials=1,
                          seed=seed, ssca=SscaParams(max_iters=5))
        out = harness._run_trial(scen, spec, trial)[(tag, q)]
        scsi, chs = _slots(scen, seed, trial, slots)
        p, noise, levels = scen.transmit_power, scen.noise_powers, levels_for_bits(q)
        if tag == "single-timescale":
            if users == 1:
                v = pdd_solve(build_quadratic_form(scsi), PddParams(levels=levels)).config.v
            else:
                v = ssca_run(scsi, p, noise, spec.weights, spec.ssca, levels=levels,
                             rng=substream(seed, "ssca", trial)).config.v
            w = precoders(scsi.mean_effective_channels(v), spec.weights, p, noise)
            designs = [(v, w)] * slots
        else:
            designs = [(d.v, d.w) for d in
                       (icsi_per_slot(ch, levels, spec.weights, p, noise) for ch in chs)]
        expected = np.mean([reference_rates(v, w, ch, noise)
                            for (v, w), ch in zip(designs, chs)], axis=0)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    @pytest.mark.parametrize("users", [1, 2])
    def test_cell_does_not_depend_on_the_rest_of_the_spec(self, users):
        # a cell run alone gives the rates it gives beside every other scheme
        # and q, although cells of one trial share their designs
        scen = small_scenario(users=users, n_shape=(2, 2), m=2)
        tags = tuple(tag for tag in SCHEME_TAGS if users == 1 or tag != "tts-pdd")
        kw = dict(slots=2, trials=1, seed=61, ssca=SscaParams(max_iters=5))
        full = harness._run_trial(scen, quick_spec(scen, schemes=tags, q_bits=(1, 2), **kw), 0)
        assert len(full) == 2 * len(tags) - 1
        for (tag, q), rates in full.items():
            alone = quick_spec(scen, schemes=(tag,), q_bits=(max(q, 1),), **kw)
            assert np.array_equal(harness._run_trial(scen, alone, 0)[(tag, q)], rates), (tag, q)


def _record_calls(monkeypatch, name: str) -> list:
    """Patch every binding of `name` that harness and baselines call to record
    the arguments of each call."""
    calls, real = [], getattr(harness.baselines, name, None) or getattr(harness, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    for module in (harness, harness.baselines):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, recording)
    return calls


class TestOneDesignPerTrial:
    def test_pdd_once_per_q(self, monkeypatch):
        scen = small_scenario(n_shape=(2, 2), m=2)
        calls = _record_calls(monkeypatch, "pdd_solve")
        spec = quick_spec(scen, schemes=("tts-pdd", "single-timescale"), q_bits=(1, 2),
                          slots=2, trials=1)
        harness._run_trial(scen, spec, 0)
        assert sorted(args[1].levels for args, _ in calls) == [2, 4]

    def test_one_ssca_run_for_every_q(self, monkeypatch):
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        calls = _record_calls(monkeypatch, "ssca_run")
        spec = quick_spec(scen, schemes=("tts-ssca", "single-timescale"), q_bits=(1, 2, 3),
                          slots=2, trials=1, ssca=SscaParams(max_iters=5))
        harness._run_trial(scen, spec, 0)
        # the run projects onto the first cell's grid: single-timescale at q = 1
        assert [kwargs["levels"] for _, kwargs in calls] == [2]

    @pytest.mark.parametrize("users", [1, 2])
    def test_icsi_stack_once_per_q(self, monkeypatch, users):
        scen = small_scenario(users=users, n_shape=(2, 2), m=2)
        calls = _record_calls(monkeypatch, "icsi_per_slot")
        spec = quick_spec(scen, schemes=("naive-icsi", "icsi-per-slot"), q_bits=(1, 2),
                          slots=3, trials=1)
        harness._run_trial(scen, spec, 0)
        # icsi-per-slot designs the stack, g (S, N, M); naive-icsi designs
        # its first slot on its own, g (N, M)
        stacks = [args for args, _ in calls if args[0].g.ndim == 3]
        assert sorted(args[1] for args in stacks) == [2, 4]
        assert all(args[0].g.shape[0] == 3 for args in stacks)

    @pytest.mark.parametrize("users", [1, 2])
    def test_naive_icsi_alone_designs_one_slot(self, monkeypatch, users):
        scen = small_scenario(users=users, n_shape=(2, 2), m=2)
        calls = _record_calls(monkeypatch, "icsi_per_slot")
        spec = quick_spec(scen, schemes=("naive-icsi",), q_bits=(1, 2), slots=3, trials=1)
        harness._run_trial(scen, spec, 0)
        assert sorted(args[1] for args, _ in calls) == [2, 4]
        assert all(args[0].g.ndim == 2 for args, _ in calls)


class TestEmitCsv:
    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sweep_value,scheme,q_bits")

    def test_roundtrip_single_record(self, tmp_path):
        rec = ResultRecord(sweep_value=50.0, scheme="no-irs", q_bits=0,
                           user_rates=np.array([1.234567]), weighted_sum_rate=1.234567,
                           std_error=0.01, trials_used=10)
        path = tmp_path / "one.csv"
        emit_csv([rec], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[1] == "no-irs"
        assert float(fields[3]) == pytest.approx(1.234567, rel=1e-5)

    def test_six_significant_digits(self, tmp_path):
        rec = ResultRecord(sweep_value=None, scheme="no-irs", q_bits=0,
                           user_rates=np.array([np.pi]), weighted_sum_rate=np.pi,
                           std_error=np.pi * 1e-4, trials_used=1)
        path = tmp_path / "digits.csv"
        emit_csv([rec], str(path))
        assert "3.14159" in path.read_text()

    def test_large_batch_byte_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        records = [
            ResultRecord(sweep_value=float(i % 7), scheme="random-phase", q_bits=i % 3,
                         user_rates=rng.uniform(0, 5, 2), weighted_sum_rate=float(rng.uniform(0, 10)),
                         std_error=float(rng.uniform(0, 0.1)), trials_used=200)
            for i in range(1000)
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(records, str(a))
        emit_csv(records, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1001
