import numpy as np
import pytest

from ttsbeam import (
    SscaParams,
    build_scsi,
    effective_channels,
    icsi_per_slot,
    mrt_rate,
    naive_icsi,
    no_irs_rate,
    random_phase,
    sample_batch,
    sample_instantaneous,
    single_timescale,
    substream,
    wmmse_solve,
)
from ttsbeam.channel import InstantaneousChannels, PhaseConfig, grid_angles

from conftest import cscg, reference_icsi_per_slot, reference_rates, small_scenario


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
            h = effective_channels(design.config.v, ch)[0]
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
        frozen = naive_icsi(first, 0, np.ones(1), p, noise)
        later = sample_instantaneous(scsi, substream(41, "slot", 7))
        design = icsi_per_slot(later, 0, np.ones(1), p, noise)
        r_frozen = mrt_rate(effective_channels(frozen.v, later)[0], p, float(noise[0]))
        r_fresh = mrt_rate(effective_channels(design.config.v, later)[0], p, float(noise[0]))
        assert r_frozen == pytest.approx(r_fresh, rel=1e-9)

    def test_coherent_combining_no_direct_link(self, rng):
        # M = 1, h_d = 0: optimal continuous phases align every cascaded term
        n = 6
        ch = InstantaneousChannels(g=cscg(rng, (n, 1)), h_r=cscg(rng, (1, n)),
                                   h_d=np.zeros((1, 1), complex))
        p, sig = 1.7, 0.3
        cfg = naive_icsi(ch, 0, np.ones(1), p, np.array([sig]))
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
        frozen = naive_icsi(first, 0, np.ones(1), p, noise)
        r_naive, r_icsi = [], []
        for s in range(1, 120):
            ch = sample_instantaneous(scsi, substream(42, "slot", s))
            r_naive.append(mrt_rate(effective_channels(frozen.v, ch)[0], p, float(noise[0])))
            design = icsi_per_slot(ch, 0, np.ones(1), p, noise)
            r_icsi.append(mrt_rate(effective_channels(design.config.v, ch)[0], p, float(noise[0])))
        assert np.mean(r_naive) <= np.mean(r_icsi)

    def test_multiuser_freezes_first_slot_phases(self):
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(43, "s"))
        p, noise = scen.transmit_power, scen.noise_powers
        first = sample_instantaneous(scsi, substream(43, "slot", 0))
        cfg = naive_icsi(first, 2, np.ones(2), p, noise)
        ref = icsi_per_slot(first, 2, np.ones(2), p, noise)
        assert np.array_equal(cfg.v, ref.config.v)


class TestSingleTimescale:
    def test_deterministic_channels_match_adaptive_precoding(self):
        # nothing to adapt to: frozen precoders perform like per-slot MRT
        scen = small_scenario(n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(44, "s"))
        scsi.s_ai = 0.0
        scsi.s_au[:] = 0.0
        scsi.s_iu[:] = 0.0
        p, noise = scen.transmit_power, scen.noise_powers
        cfg, w = single_timescale(scsi, 2, p, noise, np.ones(1), SscaParams(),
                                  substream(44, "ssca"))
        ch = sample_instantaneous(scsi, substream(44, "slot"))
        frozen_rates = reference_rates(cfg.v, w, ch, noise)
        adaptive = mrt_rate(effective_channels(cfg.v, ch)[0], p, float(noise[0]))
        assert frozen_rates[0] == pytest.approx(adaptive, rel=1e-9)

    def test_power_budget(self):
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(45, "s"))
        cfg, w = single_timescale(scsi, 2, scen.transmit_power, scen.noise_powers,
                                  np.ones(2), ssca_params=SscaParams(max_iters=20, patience=3),
                                  rng=substream(45, "ssca"))
        assert np.sum(np.abs(w) ** 2) <= scen.transmit_power + 1e-9
        assert np.allclose(np.abs(cfg.v), 1.0)

    def test_multiuser_rayleigh_direct_below_random_phase(self):
        # frozen statistical precoders suffer unmanaged interference, losing
        # even to random phases with per-slot precoding
        scen = small_scenario(users=3, n_shape=(2, 3), m=3, betas_db=(0.0, 5.0, 5.0))
        scen.rician.beta_au = 0.0
        p, noise = scen.transmit_power, scen.noise_powers
        alpha = np.ones(3)
        frozen_sum, random_sum = [], []
        for trial in range(5):
            scsi = build_scsi(scen, substream(4400 + trial, "scsi"))
            cfg, w = single_timescale(scsi, 2, p, noise, alpha,
                                      ssca_params=SscaParams(max_iters=60, patience=10),
                                      rng=substream(4400 + trial, "ssca"))
            for s in range(30):
                ch = sample_instantaneous(scsi, substream(4400 + trial, "slot", s))
                r = reference_rates(cfg.v, w, ch, noise)
                frozen_sum.append(r.sum())
                rv = random_phase(2, 6, substream(4400 + trial, "ph", s))
                ww = wmmse_solve(effective_channels(rv.v, ch), alpha, p, noise).w
                r2 = reference_rates(rv.v, ww, ch, noise)
                random_sum.append(r2.sum())
        assert np.mean(frozen_sum) < np.mean(random_sum)


class TestIcsiPerSlot:
    def test_single_user_matches_first_slot_design(self):
        scen = small_scenario(n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(46, "s"))
        p, noise = scen.transmit_power, scen.noise_powers
        ch = sample_instantaneous(scsi, substream(46, "slot"))
        a = naive_icsi(ch, 2, np.ones(1), p, noise)
        b = icsi_per_slot(ch, 2, np.ones(1), p, noise)
        assert np.array_equal(a.v, b.config.v)

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
            got = wmmse_solve(effective_channels(design.config.v, ch), weights, p, noise).objective
            best = 0.0
            for code in range(2 ** 6):
                bits = (code >> np.arange(6)) & 1
                v = np.where(bits, -1.0 + 0j, 1.0 + 0j)
                obj = wmmse_solve(effective_channels(v, ch), weights, p, noise).objective
                best = max(best, obj)
            hits += got >= 0.95 * best
        assert hits >= int(0.85 * trials)

    def test_stack_matches_per_slot_reference(self):
        # K = 3 slots that stop after different numbers of rounds: each slot of
        # the stack is one slot's own loop on the reference WMMSE and BCD
        scen = small_scenario(users=3, n_shape=(2, 3), m=3)
        scsi = build_scsi(scen, substream(47, "s"))
        ch = InstantaneousChannels(*sample_batch(scsi, 6, substream(47, "slots")))
        p, noise, alpha = scen.transmit_power, scen.noise_powers, np.array([1.0, 2.0, 0.5])
        for levels in (2, 4):
            design = icsi_per_slot(ch, levels, alpha, p, noise)
            refs = [reference_icsi_per_slot(ch.slot(s), levels, alpha, p, noise)
                    for s in range(6)]
            assert len({len(objs) for _, _, objs in refs}) > 1
            for s, (v, w, _) in enumerate(refs):
                assert np.array_equal(design.v[s], v)
                assert np.array_equal(design.w[s], w)
            assert design.round_objectives == [obj for _, _, objs in refs for obj in objs]

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
        assert np.array_equal(naive_icsi(ch.slot(0), 2, alpha, p, noise).v, stack.v[0])
        with pytest.raises(ValueError):
            stack.config
