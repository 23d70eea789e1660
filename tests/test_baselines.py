from dataclasses import replace

import numpy as np
import pytest

from ttsbeam import (
    ExperimentSpec,
    SscaParams,
    baselines,
    build_scsi,
    effective_channels,
    icsi_per_slot,
    mrt_rate,
    no_irs_rate,
    random_phase,
    sample_batch,
    sample_instantaneous,
    substream,
    wmmse_solve,
)
from ttsbeam.baselines import ICSI_PDD, _mse_quadratic_forms, slot_quadratic_forms
from ttsbeam.channel import InstantaneousChannels, PhaseConfig, grid_angles
from ttsbeam.multi_user import WmmseState
from ttsbeam.single_user import pdd_solve_batch
import ttsbeam.harness as harness

from conftest import (
    cscg,
    reference_icsi_per_slot,
    reference_mse_quadratic_form,
    reference_rates,
    small_scenario,
)


class TestRandomPhase:
    def test_single_level_is_all_ones(self, rng):
        cfg = random_phase(1, 5, rng)
        assert np.allclose(cfg.v, 1.0)

    def test_uniform_over_levels(self):
        # multinomial counts of 1e4 draws stay within 3 sigma of uniform
        rng = np.random.default_rng(99)
        draws = 10_000
        levels = 4
        counts = np.zeros(levels)
        grid = grid_angles(levels)
        for _ in range(draws):
            v = random_phase(levels, 1, rng).v
            idx = int(np.argmin(np.abs(np.angle(v[0]) % (2 * np.pi) - grid)))
            counts[idx] += 1
        expect = draws / levels
        sigma = np.sqrt(draws * (1 / levels) * (1 - 1 / levels))
        assert np.all(np.abs(counts - expect) <= 3 * sigma)

    def test_seed_reproducibility(self):
        a = random_phase(4, 6, substream(5, "phase", 0, 0))
        b = random_phase(4, 6, substream(5, "phase", 0, 0))
        assert np.array_equal(a.v, b.v)

    def test_grid_draws_pass_the_checked_constructor(self):
        for levels in range(1, 17):
            cfg = random_phase(levels, 1000, np.random.default_rng(levels))
            assert cfg.levels == levels
            assert np.array_equal(PhaseConfig(cfg.v, levels=levels).v, cfg.v)
            # bit for bit the phases exp(1j * angle) of the same draws
            idx = np.random.default_rng(levels).integers(0, levels, size=1000)
            assert np.array_equal(cfg.v, np.exp(1j * grid_angles(levels)[idx]))

    def test_continuous_mode(self, rng):
        cfg = random_phase(0, 50, rng)
        assert np.allclose(np.abs(cfg.v), 1.0)
        angles = np.mod(np.angle(cfg.v), 2 * np.pi)
        assert angles.std() > 0.5  # spread over the circle


class TestNoIrs:
    def test_zero_direct_channel(self):
        ch = InstantaneousChannels(g=np.zeros((3, 2), complex),
                                   h_r=np.zeros((1, 3), complex),
                                   h_d=np.zeros((1, 2), complex))
        rates = no_irs_rate(ch, np.ones(1), 1.0, np.array([0.1]))
        assert rates[0] == 0.0

    def test_single_user_mrt_formula(self, rng):
        ch = InstantaneousChannels(g=cscg(rng, (3, 2)), h_r=cscg(rng, (1, 3)),
                                   h_d=cscg(rng, (1, 2)))
        rates = no_irs_rate(ch, np.ones(1), 2.0, np.array([0.4]))
        assert rates[0] == pytest.approx(mrt_rate(ch.h_d[0], 2.0, 0.4))

    def test_multi_user_matches_wmmse_at_zero_phases(self, rng):
        ch = InstantaneousChannels(g=cscg(rng, (3, 2)), h_r=cscg(rng, (2, 3)),
                                   h_d=cscg(rng, (2, 2)))
        alpha, p, noise = np.array([1.0, 2.0]), 1.5, np.array([0.1, 0.3])
        state = wmmse_solve(ch.h_d, alpha, p, noise)
        expected = reference_rates(np.zeros(3), state.w, ch, noise)
        np.testing.assert_allclose(no_irs_rate(ch, alpha, p, noise), expected, rtol=1e-12)

    def test_dominated_by_per_slot_design(self):
        # extra reflection freedom can only help
        scen = small_scenario(n_shape=(2, 3), m=3)
        p, noise = scen.transmit_power, scen.noise_powers
        wins = 0
        for i in range(100):
            scsi = build_scsi(scen, substream(800 + i, "scsi"))
            ch = sample_instantaneous(scsi, substream(800 + i, "slot"))
            base = no_irs_rate(ch, np.ones(1), p, noise)[0]
            design = icsi_per_slot(ch, 0, np.ones(1), p, noise)
            h = effective_channels(design.v, ch)[0]
            rate = mrt_rate(h, p, float(noise[0]))
            wins += rate >= base - 1e-9
        assert wins == 100


class TestNaiveIcsi:
    def test_static_channels_match_per_slot_design(self):
        # without scattering every slot sees the first slot's channels
        scen = small_scenario(n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(41, "s"))
        scsi.s_ai = 0.0
        scsi.s_au[:] = 0.0
        scsi.s_iu[:] = 0.0
        p, noise = scen.transmit_power, scen.noise_powers
        first = sample_instantaneous(scsi, substream(41, "slot", 0))
        frozen = icsi_per_slot(first, 0, np.ones(1), p, noise)
        later = sample_instantaneous(scsi, substream(41, "slot", 7))
        design = icsi_per_slot(later, 0, np.ones(1), p, noise)
        r_frozen = mrt_rate(effective_channels(frozen.v, later)[0], p, float(noise[0]))
        r_fresh = mrt_rate(effective_channels(design.v, later)[0], p, float(noise[0]))
        assert r_frozen == pytest.approx(r_fresh, rel=1e-9)

    def test_coherent_combining_no_direct_link(self, rng):
        # M = 1, h_d = 0: optimal continuous phases align every cascaded term
        n = 6
        ch = InstantaneousChannels(g=cscg(rng, (n, 1)), h_r=cscg(rng, (1, n)),
                                   h_d=np.zeros((1, 1), complex))
        p, sig = 1.7, 0.3
        cfg = icsi_per_slot(ch, 0, np.ones(1), p, np.array([sig]))
        h = effective_channels(cfg.v, ch)[0]
        achieved = np.log2(1 + p * np.abs(h[0]) ** 2 / sig)
        coherent = np.sum(np.abs(ch.h_r[0]) * np.abs(ch.g[:, 0]))
        bound = np.log2(1 + p * coherent ** 2 / sig)
        assert achieved == pytest.approx(bound, rel=1e-6)

    def test_fast_fading_average_below_per_slot(self):
        # iid slots: a frozen first-slot design cannot beat per-slot optimization
        scen = small_scenario(n_shape=(2, 3), m=2, betas_db=(-300.0, -300.0, -300.0))
        scen.rician.beta_au = 0.0
        scen.rician.beta_ai = 0.0
        scen.rician.beta_iu = 0.0
        p, noise = scen.transmit_power, scen.noise_powers
        scsi = build_scsi(scen, substream(42, "s"))
        first = sample_instantaneous(scsi, substream(42, "slot", 0))
        frozen = icsi_per_slot(first, 0, np.ones(1), p, noise)
        r_naive, r_icsi = [], []
        for s in range(1, 120):
            ch = sample_instantaneous(scsi, substream(42, "slot", s))
            r_naive.append(mrt_rate(effective_channels(frozen.v, ch)[0], p, float(noise[0])))
            design = icsi_per_slot(ch, 0, np.ones(1), p, noise)
            r_icsi.append(mrt_rate(effective_channels(design.v, ch)[0], p, float(noise[0])))
        assert np.mean(r_naive) <= np.mean(r_icsi)

    def test_multiuser_freezes_first_slot_phases(self):
        # the harness cell holds the first slot's design phases in every slot
        # and re-solves only the precoders
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        p, noise, alpha = scen.transmit_power, scen.noise_powers, np.ones(2)
        spec = ExperimentSpec(scenario=scen, schemes=("naive-icsi",), q_bits=(1,), slots=3,
                              trials=1, weights=alpha, seed=43)
        out = harness._run_trial(scen, spec, 0)[("naive-icsi", 1)]
        scsi = build_scsi(scen, substream(43, "scsi", 0))
        chs = [sample_instantaneous(scsi, substream(43, "samples", 0, s)) for s in range(3)]
        v = icsi_per_slot(chs[0], 2, alpha, p, noise).v
        expected = [reference_rates(v, wmmse_solve(effective_channels(v, ch), alpha, p, noise).w,
                                    ch, noise) for ch in chs]
        np.testing.assert_allclose(out, np.mean(expected, axis=0), rtol=1e-12)


class TestSingleTimescale:
    """The harness's `single-timescale` cell: the trial's long-term phases, with
    precoders designed once on the mean channels."""

    def test_deterministic_channels_match_adaptive_precoding(self, monkeypatch):
        # nothing to adapt to: frozen precoders perform like per-slot MRT, so
        # the cell reads the tts-pdd cell's rate
        def deterministic_scsi(scenario, rng):
            scsi = build_scsi(scenario, rng)
            scsi.s_ai = 0.0
            scsi.s_au[:] = 0.0
            scsi.s_iu[:] = 0.0
            return scsi

        monkeypatch.setattr(harness, "build_scsi", deterministic_scsi)
        scen = small_scenario(n_shape=(2, 3), m=3)
        spec = ExperimentSpec(scenario=scen, schemes=("single-timescale", "tts-pdd"),
                              q_bits=(1,), slots=3, trials=1, weights=np.ones(1), seed=44)
        out = harness._run_trial(scen, spec, 0)
        frozen, adaptive = out[("single-timescale", 1)], out[("tts-pdd", 1)]
        assert frozen[0] > 0
        assert frozen[0] == pytest.approx(adaptive[0], rel=1e-9)

    def test_power_budget(self, monkeypatch):
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        spec = ExperimentSpec(scenario=scen, schemes=("single-timescale",), q_bits=(1,),
                              slots=2, trials=1, weights=np.ones(2), seed=45,
                              ssca=SscaParams(max_iters=20, patience=3))
        frozen, fixed = [], harness._fixed_precoders

        def spy(t, v, w):
            frozen.append((v, w))
            return fixed(t, v, w)

        monkeypatch.setattr(harness, "_fixed_precoders", spy)
        harness._run_trial(scen, spec, 0)
        ((v, w),) = frozen
        assert v.shape == (4,) and w.shape == (2, 2)
        assert np.sum(np.abs(w) ** 2) <= scen.transmit_power + 1e-9
        assert np.allclose(np.abs(v), 1.0)

    def test_multiuser_rayleigh_direct_below_random_phase(self):
        # frozen statistical precoders suffer unmanaged interference, losing
        # even to random phases with per-slot precoding
        scen = small_scenario(users=3, n_shape=(2, 3), m=3, betas_db=(0.0, 5.0, 5.0))
        scen.rician.beta_au = 0.0
        spec = ExperimentSpec(scenario=scen, schemes=("single-timescale", "random-phase"),
                              q_bits=(1,), slots=30, trials=5, weights=np.ones(3), seed=4400,
                              ssca=SscaParams(max_iters=60, patience=10))
        stats, failures = harness.simulate_point(scen, spec)
        assert failures == 0
        assert stats[("single-timescale", 1)].mean < stats[("random-phase", 1)].mean

    @pytest.mark.parametrize("users", [1, 2])
    def test_zero_mean_channel_transmits_nothing(self, users):
        # every link Rayleigh: the mean channels are zero, so the statistics
        # give no precoder to freeze, and rate 0 is the scheme's value
        scen = small_scenario(users=users, n_shape=(2, 2), m=2, betas_db=(-np.inf,) * 3)
        spec = ExperimentSpec(scenario=scen, schemes=("single-timescale", "no-irs"),
                              q_bits=(1,), slots=3, trials=1, weights=np.ones(users), seed=3,
                              ssca=SscaParams(max_iters=5))
        if users == 1:
            with pytest.warns(UserWarning, match="zero effective channel"):
                out = harness._run_trial(scen, spec, 0)
        else:
            out = harness._run_trial(scen, spec, 0)
        assert np.array_equal(out[("single-timescale", 1)], np.zeros(users))
        assert np.all(out[("no-irs", 0)] > 0)


class TestIcsiPerSlot:
    def test_single_user_matches_first_slot_design(self):
        # one slot, one user: one (N,) phase vector, MRT, and its rate as the objective
        scen = small_scenario(n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(46, "s"))
        p, noise = scen.transmit_power, scen.noise_powers
        ch = sample_instantaneous(scsi, substream(46, "slot"))
        design = icsi_per_slot(ch, 2, np.ones(1), p, noise)
        assert design.v.shape == (6,) and design.w.shape == (1, 3)
        rate = mrt_rate(effective_channels(design.v, ch)[0], p, float(noise[0]))
        assert design.round_objectives == [pytest.approx(rate, rel=1e-12)]

    def test_rounds_monotone(self):
        scen = small_scenario(users=3, n_shape=(2, 3), m=3)
        p, noise = scen.transmit_power, scen.noise_powers
        for i in range(10):
            scsi = build_scsi(scen, substream(900 + i, "s"))
            ch = sample_instantaneous(scsi, substream(900 + i, "slot"))
            design = icsi_per_slot(ch, 2, np.ones(3), p, noise)
            objs = design.round_objectives
            for a, b in zip(objs, objs[1:]):
                assert b >= a - 1e-8 * max(1.0, abs(a))

    def test_near_joint_brute_force(self):
        # exhaustive search over all 2^6 phase vectors, each with converged
        # precoders, bounds the alternating design
        scen = small_scenario(users=2, n_shape=(2, 3), m=2)
        p, noise = scen.transmit_power, scen.noise_powers
        weights = np.ones(2)
        hits = 0
        trials = 50
        for i in range(trials):
            scsi = build_scsi(scen, substream(950 + i, "s"))
            ch = sample_instantaneous(scsi, substream(950 + i, "slot"))
            design = icsi_per_slot(ch, 2, weights, p, noise)
            got = wmmse_solve(effective_channels(design.v, ch), weights, p, noise).objective
            best = 0.0
            for code in range(2 ** 6):
                bits = (code >> np.arange(6)) & 1
                v = np.where(bits, -1.0 + 0j, 1.0 + 0j)
                obj = wmmse_solve(effective_channels(v, ch), weights, p, noise).objective
                best = max(best, obj)
            hits += got >= 0.95 * best
        assert hits >= int(0.85 * trials)

    def test_stack_matches_per_slot_reference(self, monkeypatch):
        # K = 3 slots that stop after different numbers of rounds: each slot of
        # the stack is one slot's own loop on the reference WMMSE and BCD. With
        # the cap at 2 rounds, the slots that ran longer end on the cap instead
        scen = small_scenario(users=3, n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(47, "s"))
        ch = InstantaneousChannels(*sample_batch(scsi, 6, substream(47, "slots")))
        p, noise, alpha = scen.transmit_power, scen.noise_powers, np.array([1.0, 2.0, 0.5])
        for max_rounds in (baselines.ICSI_MAX_ROUNDS, 2):
            monkeypatch.setattr(baselines, "ICSI_MAX_ROUNDS", max_rounds)
            for levels in (2, 4):
                design = icsi_per_slot(ch, levels, alpha, p, noise)
                refs = [reference_icsi_per_slot(ch.slot(s), levels, alpha, p, noise)
                        for s in range(6)]
                lengths = [len(objs) for _, _, objs in refs]
                if max_rounds > 2:
                    # some slots run past 2 rounds, so at a cap of 2 they end on it
                    assert len(set(lengths)) > 1 and max(lengths) > 2
                for s, (v, w, _) in enumerate(refs):
                    assert np.array_equal(design.v[s], v)
                    assert np.array_equal(design.w[s], w)
                assert design.round_objectives == [obj for _, _, objs in refs for obj in objs]

    def test_shipped_size_stack_matches_per_slot_reference(self, monkeypatch):
        # BLAS kernels differ by size: the shipped N = 40, K = 4, M = 6 on three
        # slots, with the round cap at 2
        scen = small_scenario(users=4, n_shape=(5, 8), m=6)
        scsi = build_scsi(scen, substream(51, "s"))
        ch = InstantaneousChannels(*sample_batch(scsi, 3, substream(51, "slots")))
        p, noise, alpha = scen.transmit_power, scen.noise_powers, np.ones(4)
        monkeypatch.setattr(baselines, "ICSI_MAX_ROUNDS", 2)
        design = icsi_per_slot(ch, 4, alpha, p, noise)
        refs = [reference_icsi_per_slot(ch.slot(s), 4, alpha, p, noise) for s in range(3)]
        for s, (v, w, _) in enumerate(refs):
            assert np.array_equal(design.v[s], v)
            assert np.array_equal(design.w[s], w)
        assert design.round_objectives == [obj for _, _, objs in refs for obj in objs]

    def test_mse_forms_match_one_slot_reference(self):
        # the stacked forms equal the one-slot builder bit for bit at the
        # shipped size, at K > 8, and on one-user slots enough that some
        # weighted |u_k|^2 round differently from pow as an array's square
        rng = np.random.default_rng(1)
        square_differs = 0
        for s, k, n, m in [(5, 4, 40, 6), (3, 9, 7, 3), (2048, 1, 4, 1)]:
            ch = InstantaneousChannels(g=cscg(rng, (s, n, m)), h_r=cscg(rng, (s, k, n)),
                                       h_d=cscg(rng, (s, k, m)))
            states = [WmmseState(w=cscg(rng, (k, m)),
                                 u_rx=cscg(rng, k) * 10.0 ** rng.uniform(-5.0, 5.0, k),
                                 weights=rng.uniform(0.5, 50.0, k), mu=0.0, objective=0.0)
                      for _ in range(s)]
            phis, bs = _mse_quadratic_forms(states, ch)
            for j, state in enumerate(states):
                ref = reference_mse_quadratic_form(state, ch.slot(j))
                assert np.array_equal(phis[j], ref.phi) and np.array_equal(bs[j], ref.b)
                square_differs += np.count_nonzero(
                    state.weights * np.abs(state.u_rx) ** 2
                    != [mw * np.abs(u) ** 2 for mw, u in zip(state.weights, state.u_rx)])
        assert square_differs > 0

    @pytest.mark.parametrize("levels", [0, 2, 4])
    def test_single_user_stack_is_one_batch(self, levels):
        # K = 1: the stack's phases are the rows of one batched penalty solve,
        # and every slot's one-slot design is its row, bit for bit
        scen = small_scenario(n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(49, "s"))
        ch = InstantaneousChannels(*sample_batch(scsi, 40, substream(49, "slots")))
        p, noise, alpha = scen.transmit_power, scen.noise_powers, np.ones(1)
        stack = icsi_per_slot(ch, levels, alpha, p, noise)
        factors, bs = slot_quadratic_forms(ch.g, ch.h_r[:, 0], ch.h_d[:, 0])
        u, _, _ = pdd_solve_batch(factors, bs, replace(ICSI_PDD, levels=levels))
        assert np.array_equal(stack.v, u)
        for s in range(40):
            one = icsi_per_slot(ch.slot(s), levels, alpha, p, noise)
            assert np.array_equal(one.v, stack.v[s]) and np.array_equal(one.w, stack.w[s])

    @pytest.mark.parametrize("users", [1, 3])
    def test_naive_icsi_is_the_one_slot_case(self, users):
        scen = small_scenario(users=users, n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(48, "s"))
        ch = InstantaneousChannels(*sample_batch(scsi, 4, substream(48, "slots")))
        p, noise, alpha = scen.transmit_power, scen.noise_powers, np.ones(users)
        stack = icsi_per_slot(ch, 2, alpha, p, noise)
        assert stack.v.shape == (4, 6) and stack.w.shape == (4, users, 3)
        for s in range(4):
            one = icsi_per_slot(ch.slot(s), 2, alpha, p, noise)
            assert np.array_equal(one.v, stack.v[s]) and np.array_equal(one.w, stack.w[s])
