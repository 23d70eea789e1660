import numpy as np
import pytest

from ttsbeam import (
    InstantaneousChannels,
    SscaParams,
    SurrogateState,
    build_scsi,
    dbm_to_watts,
    effective_channels,
    instantaneous_rates,
    mrt_precoder,
    mrt_rate,
    project_discrete,
    rate_jacobian,
    sample_batch,
    solve_surrogate,
    ssca_run,
    ssca_step_v,
    ssca_update_surrogate,
    substream,
    wmmse_solve,
)
from ttsbeam.multi_user import precoders

from conftest import cscg, small_scenario


def random_setup(rng, n=5, m=3, k=2):
    ch = InstantaneousChannels(g=cscg(rng, (n, m)), h_r=cscg(rng, (k, n)),
                               h_d=cscg(rng, (k, m)))
    w = cscg(rng, (k, m))
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    noise = rng.uniform(0.1, 0.5, k)
    return ch, w, v, noise


class TestInstantaneousRates:
    def test_zero_precoders(self, rng):
        ch, w, v, noise = random_setup(rng)
        rates, parts = instantaneous_rates(v, np.zeros_like(w), ch, noise)
        assert np.all(rates == 0)
        assert np.allclose(parts.gamma, noise)

    def test_single_user_no_interference(self, rng):
        ch, w, v, noise = random_setup(rng, k=1)
        rates, parts = instantaneous_rates(v, w, ch, noise)
        h = effective_channels(v, ch)[0]
        expected = np.log2(1 + np.abs(h.conj() @ w[0]) ** 2 / noise[0])
        assert rates[0] == pytest.approx(expected)
        assert parts.gamma_minus[0] == pytest.approx(noise[0])

    def test_matches_direct_sinr_expansion(self, rng):
        ch, w, v, noise = random_setup(rng, k=3)
        rates, parts = instantaneous_rates(v, w, ch, noise)
        for k in range(3):
            hk = (v.conj() @ np.diag(ch.h_r[k].conj()) @ ch.g + ch.h_d[k].conj())
            num = np.abs(hk @ w[k]) ** 2
            den = sum(np.abs(hk @ w[j]) ** 2 for j in range(3) if j != k) + noise[k]
            assert rates[k] == pytest.approx(np.log2(1 + num / den), rel=1e-12)
        assert np.all(parts.gamma >= parts.gamma_minus)
        assert np.all(parts.gamma_minus >= noise - 1e-15)


class TestPrecoders:
    def test_single_user_is_mrt_per_item(self, rng):
        h = cscg(rng, (5, 1, 4))
        w = precoders(h, np.ones(1), 2.0, np.array([0.1]))
        assert w.shape == h.shape
        for hi, wi in zip(h, w):
            np.testing.assert_allclose(wi[0], mrt_precoder(hi[0], 2.0), rtol=1e-14)

    # the last case is 5 dBm with tiny channels and noise, where a budget met to
    # an absolute 1e-10 W overshot P by up to 2e-8 relative
    @pytest.mark.parametrize("k, n, power, noise, scale", [
        pytest.param(1, 3, 2.0, 0.2, 1.0, id="1"),
        pytest.param(3, 3, 2.0, 0.2, 1.0, id="3"),
        pytest.param(4, 6, dbm_to_watts(5.0), 1e-11, 1e-4, id="4-small-scale"),
    ])
    def test_power_budget(self, rng, k, n, power, noise, scale):
        h = scale * cscg(rng, (40, k, n))
        w = precoders(h, np.ones(k), power, np.full(k, noise))
        total = np.sum(np.abs(w) ** 2, axis=(-2, -1))
        # the water-level search stops within a relative 1e-10 of the budget;
        # the extra 1e-14 covers rounding in recomputing the power from w
        assert np.all(total <= power * (1 + 1e-10 + 1e-14))


class TestWmmse:
    def test_single_user_equals_mrt(self, rng):
        for _ in range(5):
            h = cscg(rng, (1, 4))
            state = wmmse_solve(h, np.ones(1), 1.3, np.array([0.2]))
            assert state.objective == pytest.approx(mrt_rate(h[0], 1.3, 0.2), rel=1e-6)

    def test_orthogonal_channels_split_power(self):
        g = 1.2
        h = np.zeros((2, 4), dtype=complex)
        h[0, 0] = g
        h[1, 1] = g
        p, sig = 2.0, 0.3
        state = wmmse_solve(h, np.ones(2), p, np.full(2, sig))
        powers = np.sum(np.abs(state.w) ** 2, axis=1)
        assert powers[0] == pytest.approx(p / 2, rel=1e-4)
        assert powers[1] == pytest.approx(p / 2, rel=1e-4)
        assert abs(h[0].conj() @ state.w[1]) < 1e-10
        expected = np.log2(1 + (p / 2) * g ** 2 / sig)
        assert state.objective == pytest.approx(2 * expected, rel=1e-6)

    def test_beats_random_precoders(self, rng):
        h = cscg(rng, (3, 4))
        p = 1.0
        noise = np.full(3, 0.1)
        state = wmmse_solve(h, np.ones(3), p, noise)
        for _ in range(1000):
            w = cscg(rng, (3, 4))
            w *= np.sqrt(p / np.sum(np.abs(w) ** 2))
            c = h.conj() @ w.T
            powers = np.abs(c) ** 2
            tot = powers.sum(axis=1) + noise
            own = np.diagonal(powers)
            rate = np.sum(np.log2(tot / (tot - own)))
            assert state.objective >= rate - 1e-9

    def test_monotone_every_iteration(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(2, 6))
            h = cscg(rng, (k, m))
            state = wmmse_solve(h, rng.uniform(0.5, 2.0, k), 1.0, rng.uniform(0.05, 0.3, k))
            for a, b in zip(state.trace, state.trace[1:]):
                assert b >= a - 1e-10 * max(1.0, abs(a))

    def test_power_budget(self, rng):
        for _ in range(20):
            h = cscg(rng, (3, 4))
            p = float(rng.uniform(0.2, 3.0))
            state = wmmse_solve(h, np.ones(3), p, np.full(3, 0.1))
            total = np.sum(np.abs(state.w) ** 2)
            assert total <= p + 1e-9
            if state.mu > 0:
                assert total == pytest.approx(p, rel=1e-6)

    def test_all_zero_channels(self):
        state = wmmse_solve(np.zeros((2, 3), dtype=complex), np.ones(2), 1.0, np.full(2, 0.1))
        assert state.objective == 0.0
        assert np.all(state.w == 0)


class TestRateJacobian:
    def test_zero_precoders_zero_gradient(self, rng):
        ch, w, v, noise = random_setup(rng)
        _, parts = instantaneous_rates(v, np.zeros_like(w), ch, noise)
        assert np.all(rate_jacobian(parts) == 0)

    def test_finite_differences(self, rng):
        # real/imaginary perturbations pair with 2*Re{J} and 2*Im{J}
        eps = 1e-6
        worst = 0.0
        for _ in range(20):
            ch, w, v, noise = random_setup(rng, n=4, m=3, k=2)
            _, parts = instantaneous_rates(v, w, ch, noise)
            jac = rate_jacobian(parts)
            for i in range(4):
                for direction, ref in ((1.0, 2 * jac[i].real), (1j, 2 * jac[i].imag)):
                    dv = np.zeros(4, dtype=complex)
                    dv[i] = direction * eps
                    rp, _ = instantaneous_rates(v + dv, w, ch, noise)
                    rm, _ = instantaneous_rates(v - dv, w, ch, noise)
                    fd = (rp - rm) / (2 * eps)
                    worst = max(worst, float(np.max(np.abs(fd - ref)
                                                    / np.maximum(np.abs(ref), 1e-6))))
        assert worst < 1e-5

    def test_scalar_case_symbolic(self, rng):
        # single link: r = log2(1 + |v* hr* g w + hd* w|^2 / sigma^2)
        ch, w, v, noise = random_setup(rng, n=1, m=1, k=1)
        _, parts = instantaneous_rates(v, w, ch, noise)
        jac = rate_jacobian(parts)
        kappa = ch.h_r[0, 0].conj() * ch.g[0, 0] * w[0, 0]
        c = v[0].conj() * kappa + ch.h_d[0, 0].conj() * w[0, 0]
        gamma = np.abs(c) ** 2 + noise[0]
        expected = (kappa * c.conjugate()) / gamma / np.log(2)
        assert jac[0, 0] == pytest.approx(expected, rel=1e-12)


class TestSurrogateUpdates:
    def test_first_iteration_replaces_averages(self, rng):
        state = SurrogateState.initial(3, 2, np.ones(3, dtype=complex))
        rates = rng.uniform(0, 2, (4, 2))
        jacs = cscg(rng, (4, 3, 2))
        alpha = np.array([1.0, 2.0])
        ssca_update_surrogate(state, rates, jacs, alpha, rho_exponent=0.8)
        assert state.t == 1
        assert np.allclose(state.r_hat, (alpha[None, :] * rates).mean(axis=0))
        assert np.allclose(state.jac_avg, jacs.mean(axis=0))
        assert np.allclose(state.grad, jacs.mean(axis=0) @ alpha)

    def test_static_fixed_point(self):
        # constant samples: the running average converges to the sample value
        state = SurrogateState.initial(2, 1, np.ones(2, dtype=complex))
        rates = np.full((3, 1), 1.5)
        jacs = np.full((3, 2, 1), 0.3 + 0.1j)
        for _ in range(200):
            ssca_update_surrogate(state, rates, jacs, np.ones(1), rho_exponent=0.8)
        assert state.r_hat[0] == pytest.approx(1.5, abs=1e-6)
        assert np.allclose(state.jac_avg, 0.3 + 0.1j, atol=1e-6)

    def test_noisy_average_approaches_expectation(self, rng):
        # iid samples with known mean: the estimate lands within a few percent
        state = SurrogateState.initial(1, 1, np.ones(1, dtype=complex))
        mean = 2.0
        for t in range(1, 501):
            rates = mean + rng.standard_normal((10, 1))
            ssca_update_surrogate(state, rates, np.zeros((10, 1, 1)), np.ones(1), 0.8)
        assert state.r_hat[0] == pytest.approx(mean, rel=0.05)

    def test_jacobian_average_tracks_expectation(self):
        # running Jacobian average at fixed v (precoders matched to the mean
        # channel, held fixed) vs a direct Monte-Carlo estimate of E{J}
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(72, "s"))
        noise = scen.noise_powers
        rng_v = substream(72, "w")
        v = np.exp(1j * rng_v.uniform(0, 2 * np.pi, 4))
        w = wmmse_solve(scsi.mean_effective_channels(v), np.ones(2),
                        scen.transmit_power, noise).w

        def jac_at(ch):
            _, parts = instantaneous_rates(v, w, ch, noise)
            return rate_jacobian(parts)

        state = SurrogateState.initial(4, 2, v)
        stream = substream(72, "recursion")
        from ttsbeam.channel import InstantaneousChannels as IC
        for t in range(1, 501):
            g, h_r, h_d = sample_batch(scsi, 10, stream)
            jacs = np.stack([jac_at(IC(g=g[i], h_r=h_r[i], h_d=h_d[i])) for i in range(10)])
            ssca_update_surrogate(state, np.zeros((10, 2)), jacs, np.ones(2), 0.8)

        direct = np.zeros((4, 2), dtype=complex)
        mc_stream = substream(72, "direct")
        count = 30_000
        for _ in range(count // 5000):
            g, h_r, h_d = sample_batch(scsi, 5000, mc_stream)
            for i in range(5000):
                direct += jac_at(IC(g=g[i], h_r=h_r[i], h_d=h_d[i]))
        direct /= count
        err = np.linalg.norm(state.jac_avg - direct) / np.linalg.norm(direct)
        assert err <= 0.05


class TestSolveSurrogate:
    def test_zero_gradient_fixed_point(self, rng):
        v = cscg(rng, (4,)) * 0.4
        state = SurrogateState(r_hat=np.zeros(1), jac_avg=np.zeros((4, 1), complex),
                               grad=np.zeros(4, complex), v_prev=v, t=1)
        assert np.allclose(solve_surrogate(state, tau=0.3), v)

    def test_boundary_case(self):
        tau = 0.25
        f = (0.3 + 0.4j) * np.ones(2)
        f = f / np.abs(f) * 2 * tau          # |f| = 2 tau, v_prev = 0
        state = SurrogateState(r_hat=np.zeros(1), jac_avg=np.zeros((2, 1), complex),
                               grad=f, v_prev=np.zeros(2, complex), t=1)
        out = solve_surrogate(state, tau=tau)
        assert np.allclose(np.abs(out), 1.0)
        assert np.allclose(out, f / np.abs(f))

    def test_beats_random_disk_points(self, rng):
        state = SurrogateState(r_hat=np.zeros(1), jac_avg=np.zeros((3, 1), complex),
                               grad=cscg(rng, (3,)), v_prev=0.5 * cscg(rng, (3,)), t=1)
        state.v_prev /= np.maximum(np.abs(state.v_prev), 1.0)
        tau = 0.15
        out = solve_surrogate(state, tau)

        def per_element_value(x, i):
            d = x - state.v_prev[i]
            return 2 * np.real(state.grad[i].conj() * d) - tau * np.abs(d) ** 2

        for i in range(3):
            best = per_element_value(out[i], i)
            for _ in range(1000):
                r = np.sqrt(rng.uniform())
                cand = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
                assert best >= per_element_value(cand, i) - 1e-12


class TestStepAndProjection:
    def test_first_step_takes_surrogate_point(self, rng):
        v0 = 0.3 * cscg(rng, (3,))
        vb = 0.5 * cscg(rng, (3,))
        state = SurrogateState(r_hat=np.zeros(1), jac_avg=np.zeros((3, 1), complex),
                               grad=np.zeros(3, complex), v_prev=v0.copy(), t=1)
        out = ssca_step_v(state, vb, t=1, gamma_exponent=1.0)
        assert np.allclose(out, vb)

    def test_fixed_point(self, rng):
        v0 = 0.3 * cscg(rng, (3,))
        state = SurrogateState(r_hat=np.zeros(1), jac_avg=np.zeros((3, 1), complex),
                               grad=np.zeros(3, complex), v_prev=v0.copy(), t=4)
        out = ssca_step_v(state, v0.copy(), t=4, gamma_exponent=1.0)
        assert np.allclose(out, v0)

    def test_midpoint(self):
        state = SurrogateState(r_hat=np.zeros(1), jac_avg=np.zeros((1, 1), complex),
                               grad=np.zeros(1, complex), v_prev=np.ones(1, complex), t=2)
        out = ssca_step_v(state, -np.ones(1, complex), t=2, gamma_exponent=1.0)
        assert out[0] == pytest.approx(0.0)

    def test_project_keeps_grid_vectors(self):
        v = np.exp(2j * np.pi * np.array([0, 1, 2]) / 4)
        cfg = project_discrete(v, 4)
        assert np.allclose(cfg.v, v)

    def test_project_wraps_angle_distance(self):
        v = np.array([0.3 * np.exp(3j)])
        cfg = project_discrete(v, 2)
        assert cfg.v[0] == pytest.approx(np.exp(1j * np.pi))

    def test_continuous_projection_normalizes_only(self, rng):
        v = 0.3 * cscg(rng, (4,))
        cfg = project_discrete(v, 0)
        assert np.allclose(np.abs(cfg.v), 1.0)
        assert np.allclose(np.angle(cfg.v), np.angle(v))

    def test_idempotent(self, rng):
        v = cscg(rng, (5,))
        once = project_discrete(v, 4)
        twice = project_discrete(once.v, 4)
        assert np.array_equal(once.v, twice.v)


class TestSscaParams:
    def test_accepts_default_schedule(self):
        SscaParams(rho_exponent=0.8, gamma_exponent=1.0)

    @pytest.mark.parametrize("rho,gamma", [(0.4, 1.0), (0.9, 0.9), (0.8, 1.1), (1.0, 1.0)])
    def test_rejects_invalid_schedules(self, rho, gamma):
        with pytest.raises(ValueError):
            SscaParams(rho_exponent=rho, gamma_exponent=gamma)


class TestSscaRun:
    def test_zero_power_keeps_phases(self):
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(31, "s"))
        res = ssca_run(scsi, 0.0, scen.noise_powers, np.ones(2),
                       SscaParams(max_iters=30, patience=5), levels=2,
                       rng=substream(31, "ssca"))
        changes = [row[4] for row in res.trace[1:]]
        assert max(changes, default=0.0) == 0.0
        assert np.allclose(res.config.v, 1.0)

    def test_amplitude_containment(self):
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(32, "s"))
        res = ssca_run(scsi, scen.transmit_power, scen.noise_powers, np.ones(2),
                       SscaParams(max_iters=40, patience=5), levels=0,
                       rng=substream(32, "ssca"))
        assert np.all(np.abs(res.v_continuous) <= 1.0 + 1e-9)
        assert np.allclose(np.abs(res.config.v), 1.0)

    def test_static_limit_gradient_consistency(self):
        # no scattering: the surrogate gradient converges to the true gradient
        # of the deterministic weighted sum-rate (single user keeps the inner
        # precoder optimum exact, so the envelope argument is clean)
        scen = small_scenario(n_shape=(2, 2), m=2, betas_db=(20.0, 20.0, 20.0))
        scsi = build_scsi(scen, substream(33, "s"))
        scsi.s_ai = 0.0
        scsi.s_au[:] = 0.0
        scsi.s_iu[:] = 0.0
        p, noise = scen.transmit_power, scen.noise_powers
        params = SscaParams(max_iters=400, tol=1e-7, patience=10)
        res = ssca_run(scsi, p, noise, np.ones(1), params, levels=0,
                       rng=substream(33, "ssca"))
        v = res.v_continuous

        def pipeline_rate(vv):
            h = scsi.mean_effective_channels(vv)[0]
            return mrt_rate(h, p, float(noise[0]))

        # rebuild the surrogate gradient exactly at the converged v
        from ttsbeam.channel import InstantaneousChannels as IC
        ch = IC(g=scsi.fbar.copy(), h_r=scsi.zbar_r.copy(), h_d=scsi.zbar_d.copy())
        h_eff = effective_channels(v, ch)
        w = wmmse_solve(h_eff, np.ones(1), p, noise).w
        _, parts = instantaneous_rates(v, w, ch, noise)
        jac = rate_jacobian(parts)[:, 0]
        eps = 1e-5
        for i in range(v.shape[0]):
            for direction, ref in ((1.0, 2 * jac[i].real), (1j, 2 * jac[i].imag)):
                dv = np.zeros_like(v)
                dv[i] = direction * eps
                fd = (pipeline_rate(v + dv) - pipeline_rate(v - dv)) / (2 * eps)
                assert fd == pytest.approx(ref, rel=1e-4, abs=1e-8)

    def test_trace_schema_and_reproducibility(self):
        scen = small_scenario(users=2, n_shape=(2, 2), m=2)
        scsi = build_scsi(scen, substream(34, "s"))
        runs = []
        for _ in range(2):
            res = ssca_run(scsi, scen.transmit_power, scen.noise_powers, np.ones(2),
                           SscaParams(max_iters=10, patience=3), levels=2,
                           rng=substream(34, "ssca"))
            runs.append(res)
        assert runs[0].trace == runs[1].trace
        assert np.array_equal(runs[0].config.v, runs[1].config.v)
        t, rho, gamma, _, _ = runs[0].trace[0]
        assert (t, rho, gamma) == (1, 1.0, 1.0)
