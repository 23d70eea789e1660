import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ttsbeam.multi_user import _solve_power_split, precoders, wmmse_solve_batch

from conftest import cscg, reference_power_split, reference_wmmse, small_scenario


# the water-level search recomputes the power from w with rounding on top of
# its relative 1e-10 stopping tolerance
BUDGET = 1 + 1e-10 + 1e-14


@st.composite
def wmmse_problems(draw, antennas=st.integers(1, 7), log_noise=st.floats(-15.0, 3.0)):
    """(h, alpha, power, noise, w0): K <= 6 users (K > M allowed), some zero
    rows of h, noise 10**log_noise times the mean received power (1e-15 to
    1e3 by default), P from 1e-6 to 1e3, and a cold or a random warm start."""
    k, m = draw(st.integers(1, 6)), draw(antennas)
    zero_rows = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    noise_ratio, power = 10.0 ** draw(log_noise), 10.0 ** draw(st.floats(-6.0, 3.0))
    log_w0 = draw(st.none() | st.floats(-1.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = cscg(rng, (k, m))
    h[zero_rows] = 0.0
    received = power * np.sum(np.abs(h) ** 2, axis=1).mean()
    noise = noise_ratio * received * rng.uniform(0.5, 2.0, k)
    w0 = None if log_w0 is None else cscg(rng, (k, m)) * np.sqrt(power / k) * 10.0 ** log_w0
    return h, rng.uniform(0.5, 2.0, k), power, noise, w0


@st.composite
def wmmse_stacks(draw, log_noise=st.floats(-5.0, 3.0)):
    """(h, alpha, power, noise, w0) for a stack of S <= 6 items sharing K <= 6
    users (K > M allowed), M <= 7, the weights, the budget and the noise
    (10**log_noise times the mean received power). Each item has its own
    channel scale over two decades, so items stop at different iterations;
    some items are all zero and some rows are zero. w0 is absent, or per item
    a warm start, zero or NaN.

    The default noise floor keeps the SINR below about 1e8: above that,
    total - own in the rate formula cancels, and the objective recomputed with
    the interference summed apart drifts past 1e-9 relative (at K = 1 and a
    noise of 5e-10 times the received power it read 4e-9)."""
    s, k, m = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 7))
    kinds = draw(st.lists(st.sampled_from(["full", "rows", "zero"]), min_size=s, max_size=s))
    starts = draw(st.none() | st.lists(st.sampled_from(["warm", "zero", "nan"]),
                                       min_size=s, max_size=s))
    noise_ratio, power = 10.0 ** draw(log_noise), 10.0 ** draw(st.floats(-6.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = cscg(rng, (s, k, m)) * 10.0 ** rng.uniform(-1.0, 1.0, (s, 1, 1))
    noise = noise_ratio * power * np.sum(np.abs(h) ** 2, axis=2).mean() * rng.uniform(0.5, 2.0, k)
    for item, kind in zip(h, kinds):
        if kind == "zero":
            item[:] = 0.0
        elif kind == "rows":
            item[rng.random(k) < 0.5] = 0.0
    w0 = None
    if starts is not None:
        w0 = cscg(rng, (s, k, m)) * np.sqrt(power / k) * 10.0 ** rng.uniform(-1.0, 1.0, (s, 1, 1))
        for item, start in zip(w0, starts):
            if start == "zero":
                item[:] = 0.0
            elif start == "nan":
                item[0, 0] = np.nan
    return h, rng.uniform(0.5, 2.0, k), power, noise, w0


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
        rates, _ = instantaneous_rates(v, np.zeros_like(w), ch, noise)
        assert np.all(rates == 0)

    def test_single_user_no_interference(self, rng):
        ch, w, v, noise = random_setup(rng, k=1)
        rates, _ = instantaneous_rates(v, w, ch, noise)
        h = effective_channels(v, ch)[0]
        expected = np.log2(1 + np.abs(h.conj() @ w[0]) ** 2 / noise[0])
        assert rates[0] == pytest.approx(expected)

    def test_matches_direct_sinr_expansion(self, rng):
        ch, w, v, noise = random_setup(rng, k=3)
        rates, _ = instantaneous_rates(v, w, ch, noise)
        for k in range(3):
            hk = (v.conj() @ np.diag(ch.h_r[k].conj()) @ ch.g + ch.h_d[k].conj())
            num = np.abs(hk @ w[k]) ** 2
            den = sum(np.abs(hk @ w[j]) ** 2 for j in range(3) if j != k) + noise[k]
            assert rates[k] == pytest.approx(np.log2(1 + num / den), rel=1e-12)


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
        assert np.all(total <= power * BUDGET)


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

    @settings(derandomize=True, deadline=None)
    @given(problem=wmmse_problems(antennas=st.integers(1, 7) | st.sampled_from([8, 12]),
                                  log_noise=st.floats(-9.0, 3.0)))
    def test_monotone_every_iteration(self, problem):
        # noise from 1e-9 of the received power: below that see the xfail next
        state = wmmse_solve(*problem)
        for a, b in zip(state.trace, state.trace[1:]):
            assert b >= a - 1e-10 * max(1.0, abs(a))

    @pytest.mark.xfail(strict=True, reason="at SINR near 1e14, mse = 1 - |c_kk|^2/gamma_k "
                       "keeps only a few digits, and the MSE weights go wrong")
    def test_monotone_at_extreme_snr(self):
        h = cscg(np.random.default_rng(0), (3, 3))
        noise = np.full(3, 1e-14 * np.sum(np.abs(h) ** 2, axis=1).mean())
        state = wmmse_solve(h, np.ones(3), 1.0, noise)
        for a, b in zip(state.trace, state.trace[1:]):
            assert b >= a - 1e-10 * max(1.0, abs(a))

    @settings(derandomize=True, deadline=None)
    @given(problem=wmmse_problems(antennas=st.integers(1, 7) | st.sampled_from([8, 12])))
    def test_power_budget(self, problem):
        state = wmmse_solve(*problem)
        power = problem[2]
        total = np.sum(np.abs(state.w) ** 2)
        assert total <= power * BUDGET
        if state.mu > 0:
            assert total == pytest.approx(power, rel=1e-9)

    def test_all_zero_channels(self):
        state = wmmse_solve(np.zeros((2, 3), dtype=complex), np.ones(2), 1.0, np.full(2, 0.1))
        assert state.objective == 0.0
        assert np.all(state.w == 0)

    @pytest.mark.parametrize("scale", [1e-9, 1e-10])
    def test_weak_channels_keep_full_power(self, scale):
        # A's eigenvalues are far below 1 here; a zero-eigenvalue floor of an
        # absolute 1e-15 switched every precoder off after one iteration
        h = scale * cscg(np.random.default_rng(0), (4, 6))
        power = 3.16e-3
        state = wmmse_solve(h, np.ones(4), power, np.full(4, 1e-11))
        assert np.sum(np.abs(state.w) ** 2) == pytest.approx(power, rel=1e-9)
        assert state.objective > 1.5 * state.trace[0]

    @settings(derandomize=True, deadline=None)
    @given(problem=wmmse_problems())
    def test_matches_numpy_reference_bit_for_bit(self, problem):
        state = wmmse_solve(*problem)
        w, mu, objective, trace, iterations = reference_wmmse(*problem)
        assert np.array_equal(state.w, w)
        assert (state.mu, state.objective, state.iterations) == (mu, objective, iterations)
        assert state.trace == trace

    @settings(derandomize=True, deadline=None)
    @given(problem=wmmse_problems(antennas=st.sampled_from([8, 12]), log_noise=st.floats(-9.0, 3.0)))
    def test_close_to_numpy_reference_from_eight_antennas(self, problem):
        # from 8 terms np.add.reduce sums pairwise, so only rounding may differ;
        # below 1e-9 the rounding grows past 1e-6 (see the monotone tests)
        state = wmmse_solve(*problem)
        _, _, objective, _, _ = reference_wmmse(*problem)
        assert state.objective == pytest.approx(objective, rel=1e-6)


class TestWmmseBatch:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(problem=wmmse_stacks())
    def test_items_match_reference_and_meet_budget(self, problem):
        h, alpha, power, noise, w0 = problem
        states = wmmse_solve_batch(*problem)
        assert len(states) == len(h)
        for s, state in enumerate(states):
            w, mu, objective, trace, iterations = reference_wmmse(
                h[s], alpha, power, noise, None if w0 is None else w0[s])
            assert np.array_equal(state.w, w)
            assert (state.mu, state.objective, state.iterations) == (mu, objective, iterations)
            assert state.trace == trace
            # what the benchmark checks per wmmse_solve call: the budget, and the
            # objective recomputed from h and w
            assert np.sum(np.abs(state.w) ** 2) <= power * BUDGET
            gains = np.abs(h[s].conj() @ state.w.T) ** 2
            own = np.diagonal(gains)
            rates = np.log2(1.0 + own / (gains.sum(axis=1) - own + noise))
            assert state.objective == pytest.approx(float(alpha @ rates), rel=1e-9, abs=1e-300)

    @settings(derandomize=True, deadline=None)
    @given(problem=wmmse_stacks(log_noise=st.floats(-15.0, 3.0)))
    def test_items_match_reference_at_extreme_snr(self, problem):
        h, alpha, power, noise, w0 = problem
        for s, state in enumerate(wmmse_solve_batch(*problem)):
            w, mu, objective, trace, iterations = reference_wmmse(
                h[s], alpha, power, noise, None if w0 is None else w0[s])
            assert np.array_equal(state.w, w)
            assert (state.mu, state.objective, state.iterations, state.trace) == (
                mu, objective, iterations, trace)
            assert np.sum(np.abs(state.w) ** 2) <= power * BUDGET

    def test_items_stop_on_their_own(self, rng):
        # one stack, items at different scales: each stops at its own iteration
        # with the result it has alone
        h = cscg(rng, (6, 4, 6)) * np.logspace(-5, -3, 6)[:, None, None]
        alpha, power, noise = np.ones(4), 3.16e-3, np.full(4, 1e-11)
        states = wmmse_solve_batch(h, alpha, power, noise)
        alone = [wmmse_solve(hi, alpha, power, noise) for hi in h]
        assert len({st.iterations for st in states}) > 1
        for st, ref in zip(states, alone):
            assert np.array_equal(st.w, ref.w)
            assert (st.iterations, st.objective, st.mu) == (ref.iterations, ref.objective, ref.mu)

    def test_precoders_solve_a_stack_per_item(self, rng):
        h = cscg(rng, (2, 3, 3, 4))
        w = precoders(h, np.ones(3), 1.0, np.full(3, 0.1))
        assert w.shape == h.shape
        for hi, wi in zip(h.reshape(-1, 3, 4), w.reshape(-1, 3, 4)):
            assert np.array_equal(wi, wmmse_solve(hi, np.ones(3), 1.0, np.full(3, 0.1)).w)


def power_split_inputs(rng, k, m, zero_coef, zero_scale):
    h = cscg(rng, (k, m))
    coef = rng.uniform(0.1, 2.0, k)
    coef[zero_coef[:k]] = 0.0
    scale = cscg(rng, (k,))
    scale[zero_scale[:k]] = 0.0
    return h, coef, scale


def split_one(h, coef, scale, power):
    """`_solve_power_split` on a stack of one item."""
    w, mus = _solve_power_split(h.T[None], h.conj()[None], coef[None], scale[None], power)
    return w[0], mus[0]


class TestSolvePowerSplit:
    @settings(derandomize=True, deadline=None)
    @given(k=st.integers(1, 6), m=st.integers(1, 7) | st.sampled_from([8, 12]),
           log_power=st.floats(-6.0, 3.0),
           zero_coef=st.lists(st.booleans(), min_size=6, max_size=6),
           zero_scale=st.lists(st.booleans(), min_size=6, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_numpy_reference(self, k, m, log_power, zero_coef, zero_scale, seed):
        h, coef, scale = power_split_inputs(np.random.default_rng(seed), k, m, zero_coef, zero_scale)
        power = 10.0 ** log_power
        w, mu = split_one(h, coef, scale, power)
        w_ref, mu_ref = reference_power_split(h, coef, scale, power)
        if m <= 7:
            assert np.array_equal(w, w_ref) and mu == mu_ref
        else:
            # pairwise sums from 8 terms: rounding only
            assert mu == pytest.approx(mu_ref, rel=1e-12)
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12 * np.abs(w_ref).max())

    @settings(derandomize=True, deadline=None)
    @given(k=st.integers(1, 5), extra=st.integers(1, 4), log_power=st.floats(-6.0, 3.0),
           zero_coef=st.lists(st.booleans(), min_size=5, max_size=5),
           zero_scale=st.lists(st.booleans(), min_size=5, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rank_deficient(self, k, extra, log_power, zero_coef, zero_scale, seed):
        # K < M and zero coef entries leave A = h^H diag(coef) h rank-deficient
        h, coef, scale = power_split_inputs(np.random.default_rng(seed), k, k + extra,
                                            zero_coef, zero_scale)
        power = 10.0 ** log_power
        w, mu = split_one(h, coef, scale, power)
        assert mu >= 0.0
        assert np.sum(np.abs(w) ** 2) <= power * BUDGET
        assert np.all(w[scale == 0] == 0)


class TestRateJacobian:
    def test_zero_precoders_zero_gradient(self, rng):
        ch, w, v, noise = random_setup(rng)
        w = np.zeros_like(w)
        _, c = instantaneous_rates(v, w, ch, noise)
        assert np.all(rate_jacobian(ch, w, c, noise) == 0)

    def test_finite_differences(self, rng):
        # real/imaginary perturbations pair with 2*Re{J} and 2*Im{J}
        eps = 1e-6
        worst = 0.0
        for _ in range(20):
            ch, w, v, noise = random_setup(rng, n=4, m=3, k=2)
            _, c = instantaneous_rates(v, w, ch, noise)
            jac = rate_jacobian(ch, w, c, noise)
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

    @settings(derandomize=True, deadline=None)
    @given(s=st.integers(1, 4), k=st.integers(1, 5), m=st.integers(1, 4), n=st.integers(1, 6),
           zero_row=st.integers(0, 4), log_noise=st.floats(-6.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_property(self, s, k, m, n, zero_row, log_noise, seed):
        # a stack of S slots with one zero precoder row (K > M allowed), noise
        # 1e-6 to 1e3 times the received power: the Jacobian matches central
        # differences of the rates and equals per-slot calls
        rng = np.random.default_rng(seed)
        ch = InstantaneousChannels(g=cscg(rng, (s, n, m)), h_r=cscg(rng, (s, k, n)),
                                   h_d=cscg(rng, (s, k, m)))
        w = cscg(rng, (s, k, m))
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        received = np.abs(effective_channels(v, ch).conj() @ np.swapaxes(w, -1, -2)) ** 2
        noise = 10.0 ** log_noise * received.sum(axis=-1).mean(axis=0)
        w[:, zero_row % k] = 0.0
        rates, c = instantaneous_rates(v, w, ch, noise)
        jac = rate_jacobian(ch, w, c, noise)
        assert jac.shape == (s, n, k)

        eps = 1e-6
        atol = 1e-8 * (1.0 + np.abs(rates).max())
        for i in range(n):
            for direction, ref in ((1.0, 2 * jac[:, i].real), (1j, 2 * jac[:, i].imag)):
                dv = np.zeros(n, dtype=complex)
                dv[i] = direction * eps
                rp, _ = instantaneous_rates(v + dv, w, ch, noise)
                rm, _ = instantaneous_rates(v - dv, w, ch, noise)
                np.testing.assert_allclose((rp - rm) / (2 * eps), ref, rtol=1e-5, atol=atol)

        for t in range(s):
            one = rate_jacobian(ch.slot(t), w[t], c[t], noise)
            np.testing.assert_allclose(jac[t], one, rtol=1e-12,
                                       atol=1e-12 * np.abs(one).max(initial=0.0))

    def test_scalar_case_symbolic(self, rng):
        # single link: r = log2(1 + |v* hr* g w + hd* w|^2 / sigma^2)
        ch, w, v, noise = random_setup(rng, n=1, m=1, k=1)
        jac = rate_jacobian(ch, w, instantaneous_rates(v, w, ch, noise)[1], noise)
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
            _, c = instantaneous_rates(v, w, ch, noise)
            return rate_jacobian(ch, w, c, noise)

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
        _, c = instantaneous_rates(v, w, ch, noise)
        jac = rate_jacobian(ch, w, c, noise)[:, 0]
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
